// E9 — thread scaling of the §5 mining pipeline: the step-5 (candidate ×
// reference occurrence) TAG scans fan out across a borrowed Executor; this
// sweeps the pool width over the E5 stock workload and the ATM-fraud workload.
// Shape to check: wall time ~1/threads up to the physical core count (the
// workload is embarrassingly parallel; the serial steps 1-4 bound the
// asymptote per Amdahl), and identical solution counts at every width.

#include <benchmark/benchmark.h>

#include <memory>

#include "granmine/common/executor.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/miner.h"
#include "granmine/paper/figures.h"
#include "granmine/sequence/generators.h"

namespace granmine {
namespace {

struct Scenario {
  std::unique_ptr<GranularitySystem> system;
  Workload workload;
  EventStructure structure;
  DiscoveryProblem problem;
};

// The E5 stock scenario with enough noise tickers that step 5 dominates.
Scenario MakeStockScenario() {
  Scenario scenario;
  scenario.system = GranularitySystem::Gregorian();
  StockWorkloadOptions options;
  options.trading_days = 60;
  options.plant_probability = 0.6;
  options.noise_events_per_day = 2.0;
  options.noise_ticker_count = 6;
  options.seed = 1234;
  scenario.workload = MakeStockWorkload(*scenario.system, options);
  auto structure = BuildFigure1a(*scenario.system);
  scenario.structure = *std::move(structure);
  scenario.problem.structure = &scenario.structure;
  scenario.problem.min_confidence = 0.15;
  scenario.problem.reference_type =
      *scenario.workload.registry.Find("IBM-rise");
  scenario.problem.allowed.assign(4, {});
  scenario.problem.allowed[3] = {
      *scenario.workload.registry.Find("IBM-fall")};
  return scenario;
}

// The introduction's ATM-fraud scenario: deposit, same-day activity,
// confirmation within two days; both non-root variables free.
Scenario MakeAtmScenario() {
  Scenario scenario;
  scenario.system = GranularitySystem::Gregorian();
  AtmWorkloadOptions options;
  options.days = 90;
  options.accounts = 3;
  options.plant_probability = 0.55;
  options.seed = 7;
  scenario.workload = MakeAtmWorkload(*scenario.system, options);
  const Granularity* day = scenario.system->Find("day");
  VariableId x0 = scenario.structure.AddVariable("deposit");
  VariableId x1 = scenario.structure.AddVariable("same-day-activity");
  VariableId x2 = scenario.structure.AddVariable("confirmation");
  benchmark::DoNotOptimize(
      scenario.structure.AddConstraint(x0, x1, Tcg::Same(day)));
  benchmark::DoNotOptimize(
      scenario.structure.AddConstraint(x0, x2, Tcg::Of(1, 2, day)));
  benchmark::DoNotOptimize(
      scenario.structure.AddConstraint(x1, x2, Tcg::Of(0, 2, day)));
  scenario.problem.structure = &scenario.structure;
  scenario.problem.min_confidence = 0.35;
  scenario.problem.reference_type =
      *scenario.workload.registry.Find("deposit-acct0");
  return scenario;
}

// Screening is kept at depth 1 so a meaningful candidate population reaches
// the parallel step-5 scan; deeper screening would shrink the fan-out to a
// handful of candidates and measure nothing but the serial prefix.
MinerOptions OptionsWithPool(Executor* pool) {
  MinerOptions options;
  options.screening_depth = 1;
  options.executor = pool;
  return options;
}

void RunScaling(benchmark::State& state, Scenario (*make)()) {
  Scenario scenario = make();
  const int threads = static_cast<int>(state.range(0));
  // Width 1 is the serial path (no pool), as a one-thread Engine runs it.
  std::unique_ptr<Executor> pool =
      threads > 1 ? std::make_unique<Executor>(threads) : nullptr;
  Miner miner(scenario.system.get(), OptionsWithPool(pool.get()));
  // Warm the shared table/coverage caches so every width measures the same
  // post-warmup regime.
  benchmark::DoNotOptimize(
      miner.Mine(scenario.problem, scenario.workload.sequence));
  double tag_runs = 0, solutions = 0;
  std::int64_t runs = 0;
  for (auto _ : state) {
    Result<MiningReport> report =
        miner.Mine(scenario.problem, scenario.workload.sequence);
    benchmark::DoNotOptimize(report);
    if (report.ok()) {
      tag_runs += static_cast<double>(report->tag_runs);
      solutions += static_cast<double>(report->solutions.size());
      ++runs;
    }
  }
  if (runs > 0) {
    state.counters["tag_runs"] = tag_runs / static_cast<double>(runs);
    state.counters["solutions"] = solutions / static_cast<double>(runs);
  }
  state.counters["threads"] = threads;
}

void BM_ParallelMining_Stock(benchmark::State& state) {
  RunScaling(state, MakeStockScenario);
}
void BM_ParallelMining_Atm(benchmark::State& state) {
  RunScaling(state, MakeAtmScenario);
}

// range(0) = width of the borrowed pool.
BENCHMARK(BM_ParallelMining_Stock)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_ParallelMining_Atm)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace
}  // namespace granmine

BENCHMARK_MAIN();
