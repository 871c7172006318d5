// E0 (infrastructure microbenchmark, not a paper claim): costs of the
// granularity primitives every algorithm sits on — tick lookups, hulls,
// Appendix-A.1 table queries (cold vs. memoized), support coverage and the
// stages of a cold Gregorian freeze (E18). Useful for spotting regressions
// in the substrate.

#include <benchmark/benchmark.h>

#include <chrono>

#include "granmine/common/random.h"
#include "granmine/granularity/convert.h"
#include "granmine/granularity/system.h"

namespace granmine {
namespace {

const GranularitySystem& System() {
  static GranularitySystem* system = GranularitySystem::Gregorian().release();
  return *system;
}

void BM_TickContaining(benchmark::State& state, const char* name) {
  const Granularity* g = System().Find(name);
  Rng rng(1);
  std::vector<TimePoint> instants;
  for (int i = 0; i < 1024; ++i) {
    instants.push_back(rng.Uniform(0, 40LL * 366 * 86400));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g->TickContaining(instants[i++ & 1023]));
  }
}
BENCHMARK_CAPTURE(BM_TickContaining, second, "second");
BENCHMARK_CAPTURE(BM_TickContaining, day, "day");
BENCHMARK_CAPTURE(BM_TickContaining, month, "month");
BENCHMARK_CAPTURE(BM_TickContaining, b_day, "b-day");
BENCHMARK_CAPTURE(BM_TickContaining, b_month, "b-month");

void BM_TickHull(benchmark::State& state, const char* name) {
  const Granularity* g = System().Find(name);
  Rng rng(2);
  std::vector<Tick> ticks;
  for (int i = 0; i < 1024; ++i) ticks.push_back(rng.Uniform(1, 4000));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g->TickHull(ticks[i++ & 1023]));
  }
}
BENCHMARK_CAPTURE(BM_TickHull, month, "month");
BENCHMARK_CAPTURE(BM_TickHull, b_day, "b-day");
BENCHMARK_CAPTURE(BM_TickHull, b_month, "b-month");

void BM_TableQueryCold(benchmark::State& state, const char* name) {
  // Rebuild the system each iteration so every table query recomputes. The
  // untimed rebuild dominates wall time, so pin the iteration count instead
  // of letting the framework chase a time target.
  for (auto _ : state) {
    state.PauseTiming();
    auto fresh = GranularitySystem::Gregorian();
    const Granularity* g = fresh->Find(name);
    state.ResumeTiming();
    benchmark::DoNotOptimize(fresh->tables().MaxSize(*g, 6));
  }
}
BENCHMARK_CAPTURE(BM_TableQueryCold, b_day, "b-day")
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(30);
BENCHMARK_CAPTURE(BM_TableQueryCold, month, "month")
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(30);

void BM_TableQueryWarm(benchmark::State& state, const char* name) {
  const Granularity* g = System().Find(name);
  benchmark::DoNotOptimize(System().tables().MaxSize(*g, 6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(System().tables().MaxSize(*g, 6));
  }
}
BENCHMARK_CAPTURE(BM_TableQueryWarm, b_day, "b-day");
BENCHMARK_CAPTURE(BM_TableQueryWarm, month, "month");

// The gapped pairs a Gregorian freeze decides by merge walk: each walks one
// 400-year joint period of the source against the target's support runs.
void BM_SupportCovers(benchmark::State& state, const char* target_name,
                      const char* source_name) {
  const Granularity* target = System().Find(target_name);
  const Granularity* source = System().Find(source_name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SupportCovers(*target, *source));
  }
}
BENCHMARK_CAPTURE(BM_SupportCovers, b_day_of_b_week, "b-day", "b-week")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SupportCovers, b_month_of_b_day, "b-month", "b-day")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SupportCovers, b_week_of_b_month, "b-week", "b-month")
    ->Unit(benchmark::kMillisecond);

// b-day hulls with New Year's, Independence and Christmas Days of
// 1970-2029 removed: ticks inside the holiday window and far past it.
void BM_FilterTickHull(benchmark::State& state, Tick lo, Tick hi) {
  static GranularitySystem* holidays = [] {
    std::vector<CivilDate> dates;
    for (std::int64_t year = 1970; year < 2030; ++year) {
      dates.push_back({year, 1, 1});
      dates.push_back({year, 7, 4});
      dates.push_back({year, 12, 25});
    }
    return GranularitySystem::Gregorian(dates).release();
  }();
  const Granularity* b_day = holidays->Find("b-day");
  Rng rng(3);
  std::vector<Tick> ticks;
  for (int i = 0; i < 1024; ++i) ticks.push_back(rng.Uniform(lo, hi));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(b_day->TickHull(ticks[i++ & 1023]));
  }
}
BENCHMARK_CAPTURE(BM_FilterTickHull, in_holiday_window, Tick{1}, Tick{15000});
BENCHMARK_CAPTURE(BM_FilterTickHull, far, Tick{1} << 20, Tick{1} << 32);

// The three stages of a cold Gregorian Freeze(), timed separately: building
// the family, sealing the Appendix-A.1 tables, sealing the coverage matrix.
enum class FreezeStage { kConstruct, kTables, kCoverage };

void BM_ColdFreezeStage(benchmark::State& state, FreezeStage stage) {
  using Clock = std::chrono::steady_clock;
  for (auto _ : state) {
    const Clock::time_point start = Clock::now();
    auto system = GranularitySystem::Gregorian();
    const Clock::time_point built = Clock::now();
    system->tables().Seal(system->family());
    const Clock::time_point tables = Clock::now();
    system->coverage().Seal(system->family());
    const Clock::time_point sealed = Clock::now();
    const std::chrono::duration<double> elapsed =
        stage == FreezeStage::kConstruct ? built - start
        : stage == FreezeStage::kTables  ? tables - built
                                         : sealed - tables;
    state.SetIterationTime(elapsed.count());
  }
}
BENCHMARK_CAPTURE(BM_ColdFreezeStage, construct, FreezeStage::kConstruct)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);
BENCHMARK_CAPTURE(BM_ColdFreezeStage, tables, FreezeStage::kTables)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);
BENCHMARK_CAPTURE(BM_ColdFreezeStage, coverage, FreezeStage::kCoverage)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

}  // namespace
}  // namespace granmine

BENCHMARK_MAIN();
