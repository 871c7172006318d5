// E5 — the §5 discovery pipeline: the naive O(n^s) algorithm versus the
// cumulative optimization steps 1..4, on the Example-1 stock workload.
// Series: wall time, candidate counts and TAG runs per configuration as the
// number of event types n grows. Shape to check: naive cost grows ~n^2 in
// the two free variables while the screened pipeline stays nearly flat.

#include <benchmark/benchmark.h>

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

Scenario MakeScenario(int noise_tickers) {
  Scenario scenario;
  scenario.system = GranularitySystem::Gregorian();
  StockWorkloadOptions options;
  options.trading_days = 60;
  options.plant_probability = 0.6;
  options.noise_events_per_day = 2.0;
  options.noise_ticker_count = noise_tickers;
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

MinerOptions StepsUpTo(int step) {
  MinerOptions options = MinerOptions::Naive();
  if (step >= 1) options.check_consistency = true;
  if (step >= 2) options.reduce_sequence = true;
  if (step >= 3) {
    options.reduce_roots = true;
    options.use_window_deadlines = true;
  }
  if (step >= 4) options.screening_depth = 1;
  if (step >= 5) options.screening_depth = 2;
  return options;
}

void RunMining(benchmark::State& state, int noise_tickers, int steps) {
  Scenario scenario = MakeScenario(noise_tickers);
  Miner miner(scenario.system.get(), StepsUpTo(steps));
  // Warm caches (tables, coverage).
  benchmark::DoNotOptimize(
      miner.Mine(scenario.problem, scenario.workload.sequence));
  double candidates = 0, tag_runs = 0, solutions = 0;
  std::int64_t runs = 0;
  for (auto _ : state) {
    Result<MiningReport> report =
        miner.Mine(scenario.problem, scenario.workload.sequence);
    benchmark::DoNotOptimize(report);
    if (report.ok()) {
      candidates += static_cast<double>(report->candidates_after_screening);
      tag_runs += static_cast<double>(report->tag_runs);
      solutions += static_cast<double>(report->solutions.size());
      ++runs;
    }
  }
  if (runs > 0) {
    state.counters["candidates"] = candidates / static_cast<double>(runs);
    state.counters["tag_runs"] = tag_runs / static_cast<double>(runs);
    state.counters["solutions"] = solutions / static_cast<double>(runs);
  }
}

void BM_Mining_Naive(benchmark::State& state) {
  RunMining(state, static_cast<int>(state.range(0)), 0);
}
void BM_Mining_Step1(benchmark::State& state) {
  RunMining(state, static_cast<int>(state.range(0)), 1);
}
void BM_Mining_Steps12(benchmark::State& state) {
  RunMining(state, static_cast<int>(state.range(0)), 2);
}
void BM_Mining_Steps123(benchmark::State& state) {
  RunMining(state, static_cast<int>(state.range(0)), 3);
}
void BM_Mining_Steps1234(benchmark::State& state) {
  RunMining(state, static_cast<int>(state.range(0)), 4);
}
void BM_Mining_Steps1234k2(benchmark::State& state) {
  RunMining(state, static_cast<int>(state.range(0)), 5);
}

// Gapped-workload variant: the same problem with heavy weekend noise of a
// type no variable may take — steps 2 and 3 earn their keep here (the clean
// workload above barely exercises them).
void RunWeekendNoise(benchmark::State& state, int steps) {
  Scenario scenario = MakeScenario(/*noise_tickers=*/3);
  // Inject ~8 weekend events per weekend across the horizon.
  EventTypeId weekend_type =
      scenario.workload.registry.Intern("weekend-batch");
  for (int weekend = 0; weekend < 12; ++weekend) {
    for (int burst = 0; burst < 8; ++burst) {
      scenario.workload.sequence.Add(
          weekend_type,
          (2 + 7 * weekend) * 86400 + burst * 3600);  // Saturdays
    }
  }
  Miner miner(scenario.system.get(), StepsUpTo(steps));
  benchmark::DoNotOptimize(
      miner.Mine(scenario.problem, scenario.workload.sequence));
  double events_after = 0, tag_runs = 0;
  std::int64_t runs = 0;
  for (auto _ : state) {
    Result<MiningReport> report =
        miner.Mine(scenario.problem, scenario.workload.sequence);
    benchmark::DoNotOptimize(report);
    if (report.ok()) {
      events_after += static_cast<double>(report->events_after_reduction);
      tag_runs += static_cast<double>(report->tag_runs);
      ++runs;
    }
  }
  if (runs > 0) {
    state.counters["events_after"] = events_after / static_cast<double>(runs);
    state.counters["tag_runs"] = tag_runs / static_cast<double>(runs);
  }
}
void BM_Mining_WeekendNoise_Naive(benchmark::State& state) {
  RunWeekendNoise(state, 0);
}
void BM_Mining_WeekendNoise_Steps123(benchmark::State& state) {
  RunWeekendNoise(state, 3);
}
void BM_Mining_WeekendNoise_Steps1234(benchmark::State& state) {
  RunWeekendNoise(state, 4);
}
BENCHMARK(BM_Mining_WeekendNoise_Naive)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mining_WeekendNoise_Steps123)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mining_WeekendNoise_Steps1234)->Unit(benchmark::kMillisecond);

// PR6 comparison point: the identical steps-1..4 pipeline against a warm
// hashed-memo system versus a frozen one, so the table/coverage lookup win
// is visible on its own and not folded into end-to-end noise. Both variants
// mine once untimed first, so the hashed side measures the steady-state
// memoized path (shared-mutex + pointer hash per lookup) and the frozen
// side the sealed id-indexed arrays.
void RunFrozenComparison(benchmark::State& state, bool frozen) {
  Scenario scenario = MakeScenario(/*noise_tickers=*/3);
  if (frozen && !scenario.system->Freeze().ok()) {
    state.SkipWithError("Freeze failed");
    return;
  }
  Miner miner(scenario.system.get(), StepsUpTo(4));
  benchmark::DoNotOptimize(
      miner.Mine(scenario.problem, scenario.workload.sequence));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        miner.Mine(scenario.problem, scenario.workload.sequence));
  }
}
void BM_Mining_HashedTables(benchmark::State& state) {
  RunFrozenComparison(state, /*frozen=*/false);
}
void BM_Mining_FrozenTables(benchmark::State& state) {
  RunFrozenComparison(state, /*frozen=*/true);
}
BENCHMARK(BM_Mining_HashedTables)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mining_FrozenTables)->Unit(benchmark::kMillisecond);

// The perfbench mine-scan shape: the Example-1 structure with every non-root
// variable free, over 10 trading days at confidence 0.3, steps 1-4 against a
// frozen system. Each iteration mines the next of 16 seeded workloads, so
// the counters are the mean TAG runs and matcher configurations per mine
// across the set.
void BM_Mining_StockScan(benchmark::State& state) {
  std::unique_ptr<GranularitySystem> system = GranularitySystem::Gregorian();
  if (!system->Freeze().ok()) {
    state.SkipWithError("Freeze failed");
    return;
  }
  auto structure = BuildFigure1a(*system);
  std::vector<Workload> workloads;
  std::vector<DiscoveryProblem> problems;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    StockWorkloadOptions options;
    options.trading_days = 10;
    options.seed = seed;
    workloads.push_back(MakeStockWorkload(*system, options));
  }
  for (const Workload& workload : workloads) {
    DiscoveryProblem problem;
    problem.structure = &*structure;
    problem.min_confidence = 0.3;
    problem.reference_type = *workload.registry.Find("IBM-rise");
    problem.allowed.assign(4, {});
    problems.push_back(problem);
  }
  Miner miner(system.get(), StepsUpTo(4));
  double tag_runs = 0;
  double configs = 0;
  std::int64_t runs = 0;
  for (auto _ : state) {
    const std::size_t at = static_cast<std::size_t>(runs) % workloads.size();
    Result<MiningReport> report =
        miner.Mine(problems[at], workloads[at].sequence);
    benchmark::DoNotOptimize(report);
    if (report.ok()) {
      tag_runs += static_cast<double>(report->tag_runs);
      configs += static_cast<double>(report->matcher_configurations);
    }
    ++runs;
  }
  if (runs > 0) {
    state.counters["tag_runs"] = tag_runs / static_cast<double>(runs);
    state.counters["configs"] = configs / static_cast<double>(runs);
  }
}
BENCHMARK(BM_Mining_StockScan)->Unit(benchmark::kMicrosecond);

// range(0) = number of extra noise tickers (each adds 2 event types).
BENCHMARK(BM_Mining_Naive)->Arg(1)->Arg(3)->Arg(6)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mining_Step1)->Arg(1)->Arg(3)->Arg(6)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mining_Steps12)->Arg(1)->Arg(3)->Arg(6)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mining_Steps123)->Arg(1)->Arg(3)->Arg(6)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mining_Steps1234)->Arg(1)->Arg(3)->Arg(6)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Mining_Steps1234k2)->Arg(1)->Arg(3)->Arg(6)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace granmine

BENCHMARK_MAIN();
