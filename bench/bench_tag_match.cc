// E4 — Theorem 4: matching is O(|σ| (|S| min(|σ|, (|V|K)^p))^2). Series:
// wall time and configuration counts as each parameter grows — sequence
// length |σ|, chain length |V|, constraint range K, chain count p. Shape to
// check: roughly linear in |σ| (the configuration bound is what matters),
// and (|V|K)^p far below |σ| for realistic structures (the paper's remark).

#include <benchmark/benchmark.h>

#include "granmine/common/random.h"
#include "granmine/constraint/propagation.h"
#include "granmine/granularity/system.h"
#include "granmine/tag/builder.h"
#include "granmine/tag/matcher.h"

namespace granmine {
namespace {

// A chain structure X0 -> X1 -> ... -> X_{v-1}, each edge [0, K] units.
EventStructure ChainStructure(const Granularity* unit, int variables,
                              std::int64_t k) {
  EventStructure s;
  for (int v = 0; v < variables; ++v) {
    s.AddVariable("X" + std::to_string(v));
  }
  for (int v = 1; v < variables; ++v) {
    (void)s.AddConstraint(v - 1, v, Tcg::Of(0, k, unit));
  }
  return s;
}

// p parallel chains of length 2 under one root, each edge [0, K] units.
EventStructure FanStructure(const Granularity* unit, int chains,
                            std::int64_t k) {
  EventStructure s;
  VariableId root = s.AddVariable("R");
  for (int c = 0; c < chains; ++c) {
    VariableId mid = s.AddVariable("M" + std::to_string(c));
    VariableId leaf = s.AddVariable("L" + std::to_string(c));
    (void)s.AddConstraint(root, mid, Tcg::Of(0, k, unit));
    (void)s.AddConstraint(mid, leaf, Tcg::Of(0, k, unit));
  }
  return s;
}

EventSequence RandomSequence(Rng& rng, std::size_t length, int type_count) {
  EventSequence seq;
  TimePoint t = 0;
  for (std::size_t i = 0; i < length; ++i) {
    t += rng.Uniform(1, 3);
    seq.Add(static_cast<EventTypeId>(rng.Uniform(0, type_count - 1)), t);
  }
  return seq;
}

void RunMatch(benchmark::State& state, const EventStructure& structure,
              std::size_t sequence_length, int type_count) {
  GranularitySystem toy;  // the structure's granularity lives elsewhere
  Result<TagBuildResult> built = BuildTagForStructure(structure);
  if (!built.ok()) {
    state.SkipWithError("TAG build failed");
    return;
  }
  TagMatcher matcher(&built->tag);
  Rng rng(99);
  EventSequence seq = RandomSequence(rng, sequence_length, type_count);
  // phi: variable v -> type (v % type_count).
  std::vector<EventTypeId> phi;
  for (int v = 0; v < structure.variable_count(); ++v) {
    phi.push_back(v % type_count);
  }
  SymbolMap symbols = SymbolMap::FromAssignment(phi, type_count);
  std::uint64_t configurations = 0;
  std::uint64_t accepted = 0;
  for (auto _ : state) {
    MatchStats stats;
    bool ok = matcher.Run(seq.View(), symbols, {}, &stats) ==
              MatchOutcome::kAccepted;
    benchmark::DoNotOptimize(ok);
    configurations += stats.configurations;
    accepted += ok;
  }
  state.counters["configs"] = benchmark::Counter(
      static_cast<double>(configurations), benchmark::Counter::kAvgIterations);
  state.counters["accepted"] = benchmark::Counter(
      static_cast<double>(accepted), benchmark::Counter::kAvgIterations);
  state.counters["events"] = static_cast<double>(sequence_length);
}

const Granularity* Unit() {
  static GranularitySystem* system = [] {
    auto owned = std::make_unique<GranularitySystem>();
    owned->AddUniform("unit", 1);
    return owned.release();
  }();
  return system->Find("unit");
}

void BM_Match_SequenceLength(benchmark::State& state) {
  EventStructure s = ChainStructure(Unit(), 4, 4);
  RunMatch(state, s, static_cast<std::size_t>(state.range(0)), 6);
}
BENCHMARK(BM_Match_SequenceLength)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Unit(benchmark::kMicrosecond);

void BM_Match_ChainLength(benchmark::State& state) {
  EventStructure s =
      ChainStructure(Unit(), static_cast<int>(state.range(0)), 4);
  RunMatch(state, s, 2048, 6);
}
BENCHMARK(BM_Match_ChainLength)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);

void BM_Match_RangeK(benchmark::State& state) {
  EventStructure s = ChainStructure(Unit(), 4, state.range(0));
  RunMatch(state, s, 2048, 6);
}
BENCHMARK(BM_Match_RangeK)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void BM_Match_Chains(benchmark::State& state) {
  EventStructure s = FanStructure(Unit(), static_cast<int>(state.range(0)), 4);
  RunMatch(state, s, 2048, 6);
}
BENCHMARK(BM_Match_Chains)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMicrosecond);

// PR6 comparison point: the step-kernel itself reads only tick primitives,
// but in the §5 pipeline every TAG run is preceded by a screening
// propagation whose constraint conversion hits the minsize/maxsize/mingap
// tables and the coverage cache. Measure that per-candidate unit of work —
// propagate + match on a Gregorian-granularity chain — against a warm
// hashed-memo system versus a frozen (sealed, id-indexed) one.
void RunScreeningPlusMatch(benchmark::State& state, bool frozen) {
  auto system = GranularitySystem::Gregorian();
  EventStructure s;
  for (int v = 0; v < 4; ++v) s.AddVariable("X" + std::to_string(v));
  (void)s.AddConstraint(0, 1, Tcg::Of(0, 3, system->Find("b-day")));
  (void)s.AddConstraint(1, 2, Tcg::Of(0, 2, system->Find("week")));
  (void)s.AddConstraint(2, 3, Tcg::Of(0, 1, system->Find("month")));
  // Warm the hashed memo either way, so the hashed variant measures the
  // steady-state memoized path, not first-fill cost.
  {
    ConstraintPropagator warm(&system->tables(), &system->coverage());
    benchmark::DoNotOptimize(warm.Propagate(s));
  }
  if (frozen) {
    if (!system->Freeze().ok()) {
      state.SkipWithError("Freeze failed");
      return;
    }
  }
  Result<TagBuildResult> built = BuildTagForStructure(s);
  if (!built.ok()) {
    state.SkipWithError("TAG build failed");
    return;
  }
  TagMatcher matcher(&built->tag);
  Rng rng(7);
  EventSequence seq = RandomSequence(rng, 2048, 6);
  std::vector<EventTypeId> phi;
  for (int v = 0; v < s.variable_count(); ++v) phi.push_back(v % 6);
  SymbolMap symbols = SymbolMap::FromAssignment(phi, 6);
  for (auto _ : state) {
    ConstraintPropagator propagator(&system->tables(), &system->coverage());
    auto screened = propagator.Propagate(s);
    benchmark::DoNotOptimize(screened);
    benchmark::DoNotOptimize(matcher.Run(seq.View(), symbols, {}));
  }
}
void BM_Match_ScreenedGregorian_Hashed(benchmark::State& state) {
  RunScreeningPlusMatch(state, /*frozen=*/false);
}
void BM_Match_ScreenedGregorian_Frozen(benchmark::State& state) {
  RunScreeningPlusMatch(state, /*frozen=*/true);
}
BENCHMARK(BM_Match_ScreenedGregorian_Hashed)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Match_ScreenedGregorian_Frozen)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace granmine

BENCHMARK_MAIN();
