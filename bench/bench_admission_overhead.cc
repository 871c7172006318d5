// E14 — admission-control overhead. Claim (docs/robustness.md, "admission
// and degradation"): putting the AdmissionController in front of the
// Engine's serving entry points costs ≤ 2% wall time on an uncontended
// request path — one mutex acquisition, one slot increment, and one ring
// insertion per request, with zero admission state touched at all when the
// controller is disabled. Series: (a) the Admit/Release pair itself
// (disabled / enabled-uncontended), (b) an end-to-end Engine::Mine request
// with admission off vs on.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "granmine/engine/admission.h"
#include "granmine/engine/engine.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/miner.h"
#include "granmine/sequence/sequence.h"

namespace granmine {
namespace {

// One serving workload shared by the engine-level series: the 3-variable
// chain over a 48-event sequence (same shape as tests/overload_test.cc).
struct Workload {
  std::unique_ptr<Engine> engine;
  EventStructure structure;
  EventSequence seq;
  DiscoveryProblem problem;
};

Workload* MakeWorkload(bool admission_enabled) {
  auto* w = new Workload();  // leaked: lives for the whole bench process
  EngineOptions options;
  options.admission.enabled = admission_enabled;
  auto engine = Engine::Create(std::make_unique<GranularitySystem>(), options);
  w->engine = std::move(*engine);
  const Granularity* unit = w->engine->system()->AddUniform("unit", 1);
  VariableId x0 = w->structure.AddVariable("X0");
  VariableId x1 = w->structure.AddVariable("X1");
  VariableId x2 = w->structure.AddVariable("X2");
  (void)w->structure.AddConstraint(x0, x1, Tcg::Of(0, 8, unit));
  (void)w->structure.AddConstraint(x1, x2, Tcg::Of(0, 8, unit));
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  TimePoint t = 0;
  for (int i = 0; i < 48; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    t += 1 + static_cast<TimePoint>((state >> 33) % 2);
    w->seq.Add(static_cast<EventTypeId>((state >> 13) % 6), t);
  }
  w->problem.structure = &w->structure;
  w->problem.reference_type = 0;
  w->problem.min_confidence = 0.05;
  return w;
}

Workload* Plain() {
  static Workload* w = MakeWorkload(false);
  return w;
}

Workload* Admitted() {
  static Workload* w = MakeWorkload(true);
  return w;
}

// ---------------------------------------------------------------------------
// (a) The Admit/Release pair itself.

void BM_Admit_Disabled(benchmark::State& state) {
  AdmissionController controller{AdmissionOptions{}};
  for (auto _ : state) {
    auto ticket = controller.Admit(RequestClass::kStream, nullptr, 0);
    benchmark::DoNotOptimize(ticket);
  }
}
BENCHMARK(BM_Admit_Disabled);

void BM_Admit_Uncontended(benchmark::State& state) {
  AdmissionOptions options;
  options.enabled = true;
  AdmissionController controller(options);
  for (auto _ : state) {
    auto ticket = controller.Admit(RequestClass::kStream, nullptr, 0);
    benchmark::DoNotOptimize(ticket);
  }
  state.counters["admitted"] =
      static_cast<double>(controller.admitted_total());
}
BENCHMARK(BM_Admit_Uncontended);

// ---------------------------------------------------------------------------
// (b) End-to-end Engine::Mine.

void RunMine(benchmark::State& state, Workload* w) {
  MineRequest request;
  request.problem = &w->problem;
  request.sequence = &w->seq;
  std::uint64_t confirmed = 0;
  for (auto _ : state) {
    auto response = w->engine->Mine(request);
    benchmark::DoNotOptimize(response);
    confirmed += response.ok() ? response->report.completeness.confirmed : 0;
  }
  state.counters["confirmed_per_iter"] =
      state.iterations() > 0
          ? static_cast<double>(confirmed) /
                static_cast<double>(state.iterations())
          : 0.0;
}

void BM_EngineMine_NoAdmission(benchmark::State& state) {
  RunMine(state, Plain());
}
BENCHMARK(BM_EngineMine_NoAdmission);

void BM_EngineMine_Admitted(benchmark::State& state) {
  RunMine(state, Admitted());
}
BENCHMARK(BM_EngineMine_Admitted);

}  // namespace
}  // namespace granmine

BENCHMARK_MAIN();
