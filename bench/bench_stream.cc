// E11 — streaming vs. batch re-scan: per-event ingest latency of the
// OnlineMiner (resident TAG runs advanced once per arrival) against the
// per-query cost of re-running the batch §5 pipeline over the full prefix,
// plus snapshot latency (across borrowed pool widths) and retention sweeps
// (resident-state footprint). Claim to check: at |σ| = 10⁴ an incremental
// update is ≥10× cheaper than answering the same question by re-scanning —
// in practice it is orders of magnitude cheaper, because a snapshot reads
// resident verdicts instead of re-running (candidate × root) TAG matches.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "granmine/common/executor.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/miner.h"
#include "granmine/stream/online_miner.h"

namespace granmine {
namespace {

constexpr int kTypeCount = 6;

struct StreamScenario {
  GranularitySystem system;
  EventStructure structure;
  DiscoveryProblem problem;
  std::vector<Event> events;
};

// A unit-granularity 3-variable chain (36 candidates) over a deterministic
// pseudo-random tape with frequent equal-timestamp groups; |σ| = count.
// Same shape as tests/stream_test.cc, scaled up.
StreamScenario* Scenario(std::size_t count) {
  static auto* scenarios = new std::vector<std::unique_ptr<StreamScenario>>();
  for (auto& existing : *scenarios) {
    if (existing->events.size() == count) return existing.get();
  }
  auto scenario = std::make_unique<StreamScenario>();
  const Granularity* unit = scenario->system.AddUniform("unit", 1);
  VariableId x0 = scenario->structure.AddVariable("X0");
  VariableId x1 = scenario->structure.AddVariable("X1");
  VariableId x2 = scenario->structure.AddVariable("X2");
  benchmark::DoNotOptimize(
      scenario->structure.AddConstraint(x0, x1, Tcg::Of(0, 8, unit)));
  benchmark::DoNotOptimize(
      scenario->structure.AddConstraint(x1, x2, Tcg::Of(0, 8, unit)));
  std::uint64_t state = 0x51ed2701afe4c9b3ULL;
  TimePoint t = 1;
  scenario->events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    t += static_cast<TimePoint>((state >> 33) % 2);
    scenario->events.push_back(
        Event{static_cast<EventTypeId>((state >> 13) % kTypeCount), t});
  }
  scenario->problem.structure = &scenario->structure;
  scenario->problem.reference_type = 0;
  scenario->problem.min_confidence = 0.05;
  scenario->problem.allowed.assign(3, {});
  scenario->problem.allowed[1] = {0, 1, 2, 3, 4, 5};
  scenario->problem.allowed[2] = {0, 1, 2, 3, 4, 5};
  scenarios->push_back(std::move(scenario));
  return scenarios->back().get();
}

OnlineMiner MakeMiner(StreamScenario* scenario, OnlineMinerOptions options) {
  auto miner =
      OnlineMiner::Create(&scenario->system, scenario->problem, options);
  if (!miner.ok()) std::abort();
  return std::move(*miner);
}

// The pool a width-`threads` row borrows: none (the serial path, as a
// one-thread Engine runs it) for 1.
std::unique_ptr<Executor> PoolOf(std::int64_t threads) {
  return threads > 1 ? std::make_unique<Executor>(static_cast<int>(threads))
                     : nullptr;
}

// Amortized per-event ingest cost (resident runs advanced, no snapshot).
// Ingest is sequential. Args: event count, retention (0 = unbounded).
void BM_StreamIngest(benchmark::State& state) {
  StreamScenario* scenario = Scenario(static_cast<std::size_t>(state.range(0)));
  OnlineMinerOptions options;
  if (state.range(1) > 0) options.retention = state.range(1);
  std::size_t resident_roots = 0, resident_configs = 0;
  for (auto _ : state) {
    OnlineMiner miner = MakeMiner(scenario, options);
    for (const Event& event : scenario->events) {
      benchmark::DoNotOptimize(miner.Ingest(event));
    }
    resident_roots = miner.resident_roots();
    resident_configs = miner.resident_configurations();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(scenario->events.size()));
  state.counters["resident_roots"] = static_cast<double>(resident_roots);
  state.counters["resident_configs"] = static_cast<double>(resident_configs);
}
BENCHMARK(BM_StreamIngest)
    ->Args({1'000, 0})
    ->Args({10'000, 0})
    ->Args({10'000, 64})
    ->Args({10'000, 256})
    ->Args({10'000, 1024})
    ->Unit(benchmark::kMillisecond);

// On-demand snapshot over fully-ingested resident state — the streaming
// answer to "does the pattern still hold?". Args: event count, pool width.
void BM_StreamSnapshot(benchmark::State& state) {
  StreamScenario* scenario = Scenario(static_cast<std::size_t>(state.range(0)));
  std::unique_ptr<Executor> pool = PoolOf(state.range(1));
  OnlineMinerOptions options;
  options.executor = pool.get();
  OnlineMiner miner = MakeMiner(scenario, options);
  for (const Event& event : scenario->events) {
    if (!miner.Ingest(event).ok()) std::abort();
  }
  std::size_t solutions = 0;
  for (auto _ : state) {
    auto report = miner.Snapshot();
    if (!report.ok()) std::abort();
    solutions = report->solutions.size();
    benchmark::DoNotOptimize(report);
  }
  state.counters["solutions"] = static_cast<double>(solutions);
}
BENCHMARK(BM_StreamSnapshot)
    ->Args({10'000, 1})
    ->Args({10'000, 4})
    ->Unit(benchmark::kMicrosecond);

// The baseline the streaming subsystem replaces: one batch Mine over the
// same prefix with the snapshot-equivalent options — what a per-event
// re-scan would pay on every arrival. Args: event count, pool width.
void BM_BatchRescan(benchmark::State& state) {
  StreamScenario* scenario = Scenario(static_cast<std::size_t>(state.range(0)));
  std::unique_ptr<Executor> pool = PoolOf(state.range(1));
  OnlineMinerOptions stream_options;
  stream_options.executor = pool.get();
  EventSequence sequence(scenario->events);
  Miner miner(&scenario->system, stream_options.BatchEquivalent());
  std::size_t solutions = 0;
  for (auto _ : state) {
    auto report = miner.Mine(scenario->problem, sequence);
    if (!report.ok()) std::abort();
    solutions = report->solutions.size();
    benchmark::DoNotOptimize(report);
  }
  state.counters["solutions"] = static_cast<double>(solutions);
}
BENCHMARK(BM_BatchRescan)
    ->Args({1'000, 1})
    ->Args({10'000, 1})
    ->Args({10'000, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace granmine

BENCHMARK_MAIN();
