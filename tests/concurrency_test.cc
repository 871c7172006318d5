// Concurrency gate for the shared caching substrate and the parallel miner:
// hammers GranularityTables and SupportCoverageCache from many threads
// against serial oracles, exercises the Executor itself, and asserts the
// Miner's determinism guarantee (no pool and pools of 2 and 8 threads
// produce identical reports). Run under GRANMINE_SANITIZE=thread to certify
// data-race freedom.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "granmine/common/executor.h"
#include "granmine/granularity/convert.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/miner.h"
#include "granmine/obs/metrics.h"
#include "granmine/obs/obs.h"
#include "granmine/paper/figures.h"
#include "granmine/sequence/generators.h"

namespace granmine {
namespace {

TEST(ExecutorTest, RunsEveryIndexExactlyOnce) {
  Executor executor(4);
  EXPECT_EQ(executor.num_threads(), 4);
  constexpr std::size_t kCount = 10'000;
  std::vector<std::atomic<int>> hits(kCount);
  executor.ParallelFor(kCount, [&](std::size_t i, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ExecutorTest, MapCollectsResultsInIndexOrder) {
  Executor executor(3);
  std::vector<std::int64_t> out = executor.ParallelMap<std::int64_t>(
      1000, [](std::size_t i, int) { return static_cast<std::int64_t>(i * i); });
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<std::int64_t>(i * i));
  }
}

TEST(ExecutorTest, SingleThreadRunsInline) {
  Executor executor(1);
  std::thread::id caller = std::this_thread::get_id();
  executor.ParallelFor(100, [&](std::size_t, int worker) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ExecutorTest, WorkerExceptionIsRethrownOnTheCaller) {
  Executor executor(4);
  constexpr std::size_t kCount = 4'000;
  std::atomic<std::size_t> executed{0};
  bool caught = false;
  try {
    executor.ParallelFor(kCount, [&](std::size_t i, int) {
      if (i == 1234) throw std::runtime_error("injected worker failure");
      executed.fetch_add(1, std::memory_order_relaxed);
    });
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "injected worker failure");
  }
  EXPECT_TRUE(caught);
  // Failure abandons unclaimed items: strictly fewer than all ran.
  EXPECT_LT(executed.load(), kCount);
  // The pool survives a failed loop — the next loop runs normally.
  std::atomic<std::size_t> after{0};
  executor.ParallelFor(100, [&](std::size_t, int) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 100u);
}

TEST(ExecutorTest, FirstExceptionWinsWhenSeveralWorkersThrow) {
  Executor executor(4);
  bool caught = false;
  try {
    executor.ParallelFor(1'000, [](std::size_t, int) {
      throw std::runtime_error("every item fails");
    });
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "every item fails");
  }
  EXPECT_TRUE(caught);
}

TEST(ExecutorTest, SerialPathPropagatesExceptionsNaturally) {
  Executor executor(1);
  EXPECT_THROW(executor.ParallelFor(
                   10, [](std::size_t i, int) {
                     if (i == 3) throw std::logic_error("serial failure");
                   }),
               std::logic_error);
}

TEST(ExecutorTest, CancelTokenStopsClaimsButNeverInterruptsInFlightWork) {
  Executor executor(4);
  constexpr std::size_t kCount = 100'000;
  std::atomic<bool> cancel{false};
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> finished{0};
  executor.ParallelFor(
      kCount,
      [&](std::size_t i, int) {
        started.fetch_add(1, std::memory_order_relaxed);
        if (i == 50) cancel.store(true, std::memory_order_relaxed);
        finished.fetch_add(1, std::memory_order_relaxed);
      },
      &cancel);
  // Every started item finished (cancellation is cooperative, observed only
  // between claims), and the token cut the loop well short of completion.
  EXPECT_EQ(started.load(), finished.load());
  EXPECT_LT(finished.load(), kCount);
  EXPECT_GT(finished.load(), 0u);
}

TEST(ExecutorTest, PreCancelledTokenRunsNothing) {
  Executor executor(4);
  std::atomic<bool> cancel{true};
  std::atomic<std::size_t> ran{0};
  executor.ParallelFor(
      10'000,
      [&](std::size_t, int) { ran.fetch_add(1, std::memory_order_relaxed); },
      &cancel);
  EXPECT_EQ(ran.load(), 0u);
  // Serial path honours the token too.
  Executor serial(1);
  serial.ParallelFor(
      100,
      [&](std::size_t, int) { ran.fetch_add(1, std::memory_order_relaxed); },
      &cancel);
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ExecutorTest, BackToBackLoopsReuseThePool) {
  Executor executor(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    executor.ParallelFor(round + 1, [&](std::size_t i, int) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    std::size_t n = static_cast<std::size_t>(round) + 1;
    EXPECT_EQ(sum.load(), n * (n + 1) / 2);
  }
}

// Requests share one pool: a loop that finds it busy runs inline on its
// caller as worker 0. Both loops still run every index exactly once.
TEST(ExecutorTest, ConcurrentCallersEachRunEveryIndexExactlyOnce) {
  Executor executor(4);
  constexpr std::size_t kCount = 20'000;
  std::atomic<int> bad_worker{0};
  std::atomic<int> bad_loops{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        std::vector<std::atomic<int>> hits(kCount);
        executor.ParallelFor(kCount, [&](std::size_t i, int worker) {
          if (worker < 0 || worker >= 4) bad_worker.fetch_add(1);
          hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (const std::atomic<int>& hit : hits) {
          if (hit.load() != 1) {
            bad_loops.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(bad_worker.load(), 0);
  EXPECT_EQ(bad_loops.load(), 0);
}

// The table queries issued by every thread, over mixed Gregorian types —
// small ks the constraint algorithms hit plus larger scan-heavy ones.
struct TableQuery {
  const char* granularity;
  std::int64_t k;
};

constexpr TableQuery kTableQueries[] = {
    {"month", 1},  {"month", 2},  {"month", 12}, {"month", 48},
    {"year", 1},   {"year", 4},   {"b-day", 1},  {"b-day", 2},
    {"b-day", 5},  {"b-day", 23}, {"week", 1},   {"week", 2},
    {"day", 1},    {"day", 17},   {"b-week", 1}, {"b-week", 3},
    {"b-month", 1}, {"b-month", 2}, {"quarter", 1}, {"quarter", 5},
};

TEST(ConcurrentTablesTest, HammeredQueriesMatchTheSerialOracle) {
  // Serial oracle: a private system whose tables are filled one thread at a
  // time.
  auto oracle_system = GranularitySystem::Gregorian();
  std::map<std::tuple<std::string, std::int64_t, int>,
           std::optional<std::int64_t>>
      oracle;
  for (const TableQuery& q : kTableQueries) {
    const Granularity* g = oracle_system->Find(q.granularity);
    ASSERT_NE(g, nullptr) << q.granularity;
    oracle[{q.granularity, q.k, 0}] = oracle_system->tables().MinSize(*g, q.k);
    oracle[{q.granularity, q.k, 1}] = oracle_system->tables().MaxSize(*g, q.k);
    oracle[{q.granularity, q.k, 2}] = oracle_system->tables().MinGap(*g, q.k);
  }

  // Shared system hammered cold: every thread issues every query, each
  // starting from a different offset so lock acquisition interleaves.
  auto shared_system = GranularitySystem::Gregorian();
  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      GranularityTables& tables = shared_system->tables();
      const std::size_t n = std::size(kTableQueries);
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t j = 0; j < n; ++j) {
          const TableQuery& q =
              kTableQueries[(j + static_cast<std::size_t>(t)) % n];
          const Granularity* g = shared_system->Find(q.granularity);
          if (tables.MinSize(*g, q.k) != oracle[{q.granularity, q.k, 0}] ||
              tables.MaxSize(*g, q.k) != oracle[{q.granularity, q.k, 1}] ||
              tables.MinGap(*g, q.k) != oracle[{q.granularity, q.k, 2}]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Same hammering, but against a *frozen* system: every query lands in the
// sealed id-indexed arrays, so TSAN certifies the lock-free read path (the
// test above certifies the locked memo).
TEST(ConcurrentTablesTest, FrozenSystemHammeredQueriesMatchTheSerialOracle) {
  auto oracle_system = GranularitySystem::Gregorian();
  std::map<std::tuple<std::string, std::int64_t, int>,
           std::optional<std::int64_t>>
      oracle;
  for (const TableQuery& q : kTableQueries) {
    const Granularity* g = oracle_system->Find(q.granularity);
    ASSERT_NE(g, nullptr) << q.granularity;
    oracle[{q.granularity, q.k, 0}] = oracle_system->tables().MinSize(*g, q.k);
    oracle[{q.granularity, q.k, 1}] = oracle_system->tables().MaxSize(*g, q.k);
    oracle[{q.granularity, q.k, 2}] = oracle_system->tables().MinGap(*g, q.k);
  }

  auto shared_system = GranularitySystem::Gregorian();
  ASSERT_TRUE(shared_system->Freeze().ok());
  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      GranularityTables& tables = shared_system->tables();
      const std::size_t n = std::size(kTableQueries);
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t j = 0; j < n; ++j) {
          const TableQuery& q =
              kTableQueries[(j + static_cast<std::size_t>(t)) % n];
          const Granularity* g = shared_system->Find(q.granularity);
          if (tables.MinSize(*g, q.k) != oracle[{q.granularity, q.k, 0}] ||
              tables.MaxSize(*g, q.k) != oracle[{q.granularity, q.k, 1}] ||
              tables.MinGap(*g, q.k) != oracle[{q.granularity, q.k, 2}]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentTablesTest, InverseQueriesAreSafeUnderContention) {
  auto oracle_system = GranularitySystem::Gregorian();
  auto shared_system = GranularitySystem::Gregorian();
  const std::int64_t xs[] = {1, 28, 29, 365, 366, 1000};
  std::map<std::int64_t, std::optional<std::int64_t>> covering, exceeding;
  {
    const Granularity* month = oracle_system->Find("month");
    for (std::int64_t x : xs) {
      covering[x] = oracle_system->tables().LeastTicksCovering(*month, x);
      exceeding[x] = oracle_system->tables().LeastTicksExceeding(*month, x);
    }
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      const Granularity* month = shared_system->Find("month");
      for (int round = 0; round < 50; ++round) {
        for (std::int64_t x : xs) {
          if (shared_system->tables().LeastTicksCovering(*month, x) !=
                  covering[x] ||
              shared_system->tables().LeastTicksExceeding(*month, x) !=
                  exceeding[x]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

#if GRANMINE_OBS_ENABLED
// One lookup counter's `result="miss"` total; 0 before its first increment.
std::uint64_t Misses(const char* counter) {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  const obs::MetricValue* metric = snapshot.Find(counter, "result=\"miss\"");
  return metric == nullptr ? 0 : metric->value;
}
#endif  // GRANMINE_OBS_ENABLED

// Each memoized value is scanned exactly once under contention: a miss is
// computed under the memo lock, so threads racing on a cold system count
// one miss per distinct (granularity, table, k) the memo serves. Uniform
// types answer in closed form and never reach the memo.
TEST(ConcurrentTablesTest, EachMemoizedValueIsScannedOnce) {
#if !GRANMINE_OBS_ENABLED
  GTEST_SKIP() << "lookup counters are compiled out";
#else
  auto system = GranularitySystem::Gregorian();
  std::uint64_t distinct = 0;
  for (const TableQuery& q : kTableQueries) {
    const Granularity* g = system->Find(q.granularity);
    ASSERT_NE(g, nullptr) << q.granularity;
    distinct += !g->AnalyticMinSize(q.k).has_value();
    distinct += !g->AnalyticMaxSize(q.k).has_value();
    distinct += !g->AnalyticMinGap(q.k).has_value();
  }
  ASSERT_GT(distinct, 0u);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const bool was_enabled = metrics.enabled();
  metrics.set_enabled(true);
  const std::uint64_t before = Misses("granmine_tables_lookups_total");
  // Released together and walking the queries in the same order, the
  // threads contend for every first miss.
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      GranularityTables& tables = system->tables();
      for (int round = 0; round < 10; ++round) {
        for (const TableQuery& q : kTableQueries) {
          const Granularity* g = system->Find(q.granularity);
          // Every query here has a value within the scan caps, so each
          // miss is memoized (a capped scan would count again).
          EXPECT_TRUE(tables.MinSize(*g, q.k).has_value());
          EXPECT_TRUE(tables.MaxSize(*g, q.k).has_value());
          EXPECT_TRUE(tables.MinGap(*g, q.k).has_value());
        }
      }
    });
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();
  const std::uint64_t added = Misses("granmine_tables_lookups_total") - before;
  metrics.set_enabled(was_enabled);
  EXPECT_EQ(added, distinct);
#endif
}

TEST(ConcurrentCoverageTest, HammeredCoversMatchesTheSerialFunction) {
  auto system = GranularitySystem::Gregorian();
  // Mixed full-support and gapped types; the group-by types (b-week,
  // b-month) are omitted — their joint-period scans take tens of seconds on
  // one core and exercise the same cache paths as the b-day pairs.
  const char* names[] = {"second", "hour", "day",   "week",       "month",
                         "year",   "quarter", "b-day", "weekend-day"};
  // Serial oracle straight from the pure function.
  std::map<std::pair<const Granularity*, const Granularity*>, bool> oracle;
  for (const char* target : names) {
    for (const char* source : names) {
      const Granularity* t = system->Find(target);
      const Granularity* s = system->Find(source);
      oracle[{t, s}] = SupportCovers(*t, *s);
    }
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      SupportCoverageCache& coverage = system->coverage();
      for (int round = 0; round < 20; ++round) {
        for (const char* target : names) {
          for (const char* source : names) {
            const Granularity* tg = system->Find(target);
            const Granularity* sg = system->Find(source);
            // Stagger directions per thread so the memo sees mixed traffic.
            bool got = (t % 2 == 0) ? coverage.Covers(*tg, *sg)
                                    : coverage.Covers(*sg, *tg);
            bool want = (t % 2 == 0) ? oracle[{tg, sg}] : oracle[{sg, tg}];
            if (got != want) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Each memoized coverage answer is computed exactly once under contention:
// SupportCovers runs under the memo lock, so threads racing over every
// ordered pair of a cold system count one miss per pair.
TEST(ConcurrentCoverageTest, EachMemoizedPairIsComputedOnce) {
#if !GRANMINE_OBS_ENABLED
  GTEST_SKIP() << "lookup counters are compiled out";
#else
  auto system = GranularitySystem::Gregorian();
  // The types of the test above.
  const char* names[] = {"second", "hour", "day",   "week",       "month",
                         "year",   "quarter", "b-day", "weekend-day"};
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const bool was_enabled = metrics.enabled();
  metrics.set_enabled(true);
  const std::uint64_t before = Misses("granmine_coverage_lookups_total");
  // Released together and walking the pairs in the same order, the threads
  // contend for every first miss.
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      SupportCoverageCache& coverage = system->coverage();
      for (int round = 0; round < 5; ++round) {
        for (const char* target : names) {
          for (const char* source : names) {
            coverage.Covers(*system->Find(target), *system->Find(source));
          }
        }
      }
    });
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();
  const std::uint64_t added =
      Misses("granmine_coverage_lookups_total") - before;
  metrics.set_enabled(was_enabled);
  EXPECT_EQ(added, std::size(names) * std::size(names));
#endif
}

TEST(EventSequenceTest, AddKeepsSortedOrderEagerly) {
  EventSequence sequence;
  sequence.Add(1, 50);
  sequence.Add(2, 10);
  sequence.Add(3, 50);  // equal timestamp: after the earlier type-1 event
  sequence.Add(4, 30);
  const std::vector<Event>& events = sequence.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].time, 10);
  EXPECT_EQ(events[1].time, 30);
  EXPECT_EQ(events[2].time, 50);
  EXPECT_EQ(events[2].type, 1);
  EXPECT_EQ(events[3].time, 50);
  EXPECT_EQ(events[3].type, 3);
}

TEST(EventSequenceTest, ConstructorSortsStably) {
  std::vector<Event> raw = {{7, 20}, {1, 5}, {8, 20}, {2, 5}};
  EventSequence sequence(std::move(raw));
  const std::vector<Event>& events = sequence.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].type, 1);
  EXPECT_EQ(events[1].type, 2);
  EXPECT_EQ(events[2].type, 7);  // stable for equal timestamps
  EXPECT_EQ(events[3].type, 8);
}

// The determinism guarantee: any thread count yields the byte-identical
// solution list, in lexicographic assignment order, with identical
// instrumentation counters.
TEST(ParallelMinerTest, ThreadCountNeverChangesTheReport) {
  auto system = GranularitySystem::Gregorian();
  auto figure = BuildFigure1a(*system);
  ASSERT_TRUE(figure.ok());
  EventStructure structure = *std::move(figure);

  StockWorkloadOptions workload_options;
  workload_options.trading_days = 50;
  workload_options.plant_probability = 0.7;
  workload_options.noise_events_per_day = 1.5;
  workload_options.noise_ticker_count = 2;
  workload_options.seed = 99;
  Workload workload = MakeStockWorkload(*system, workload_options);

  DiscoveryProblem problem;
  problem.structure = &structure;
  problem.min_confidence = 0.3;
  problem.reference_type = *workload.registry.Find("IBM-rise");
  problem.allowed.assign(4, {});
  problem.allowed[3] = {*workload.registry.Find("IBM-fall")};

  Miner serial(system.get());
  Result<MiningReport> want = serial.Mine(problem, workload.sequence);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_FALSE(want->solutions.empty());

  for (int threads : {2, 8}) {
    Executor executor(threads);
    MinerOptions options;
    options.executor = &executor;
    Miner miner(system.get(), options);
    Result<MiningReport> got = miner.Mine(problem, workload.sequence);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->solutions.size(), want->solutions.size())
        << "num_threads=" << threads;
    for (std::size_t i = 0; i < want->solutions.size(); ++i) {
      EXPECT_EQ(got->solutions[i].assignment, want->solutions[i].assignment)
          << "num_threads=" << threads << " solution " << i;
      EXPECT_EQ(got->solutions[i].frequency, want->solutions[i].frequency);
      EXPECT_EQ(got->solutions[i].matched_roots,
                want->solutions[i].matched_roots);
    }
    EXPECT_EQ(got->tag_runs, want->tag_runs);
    EXPECT_EQ(got->matcher_configurations, want->matcher_configurations);
    EXPECT_EQ(got->candidates_after_screening,
              want->candidates_after_screening);
  }
}

// Same guarantee without the step 1-4 reductions: the naive pipeline drives
// far more candidates through the parallel scan.
TEST(ParallelMinerTest, NaivePipelineIsDeterministicToo) {
  auto system = GranularitySystem::Gregorian();
  auto figure = BuildFigure1a(*system);
  ASSERT_TRUE(figure.ok());
  EventStructure structure = *std::move(figure);

  StockWorkloadOptions workload_options;
  workload_options.trading_days = 25;
  workload_options.plant_probability = 0.9;
  workload_options.noise_events_per_day = 1.0;
  workload_options.noise_ticker_count = 1;
  workload_options.seed = 5;
  Workload workload = MakeStockWorkload(*system, workload_options);

  DiscoveryProblem problem;
  problem.structure = &structure;
  problem.min_confidence = 0.4;
  problem.reference_type = *workload.registry.Find("IBM-rise");
  problem.allowed.assign(4, {});
  problem.allowed[3] = {*workload.registry.Find("IBM-fall")};

  Miner serial(system.get(), MinerOptions::Naive());
  Result<MiningReport> want = serial.Mine(problem, workload.sequence);
  ASSERT_TRUE(want.ok()) << want.status();

  for (int threads : {2, 8}) {
    Executor executor(threads);
    MinerOptions options = MinerOptions::Naive();
    options.executor = &executor;
    Miner miner(system.get(), options);
    Result<MiningReport> got = miner.Mine(problem, workload.sequence);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->solutions.size(), want->solutions.size());
    for (std::size_t i = 0; i < want->solutions.size(); ++i) {
      EXPECT_EQ(got->solutions[i].assignment, want->solutions[i].assignment);
      EXPECT_EQ(got->solutions[i].frequency, want->solutions[i].frequency);
    }
    EXPECT_EQ(got->tag_runs, want->tag_runs);
  }
}

// Workers sharing one *cold* system must warm the caches cooperatively:
// concurrent Mine calls over the same GranularitySystem exercise the
// propagation-time table/coverage paths under contention.
TEST(ParallelMinerTest, ConcurrentMineCallsShareOneColdSystem) {
  auto system = GranularitySystem::Gregorian();
  auto figure = BuildFigure1a(*system);
  ASSERT_TRUE(figure.ok());
  EventStructure structure = *std::move(figure);

  StockWorkloadOptions workload_options;
  workload_options.trading_days = 30;
  workload_options.plant_probability = 1.0;
  workload_options.seed = 3;
  Workload workload = MakeStockWorkload(*system, workload_options);

  DiscoveryProblem problem;
  problem.structure = &structure;
  problem.min_confidence = 0.5;
  problem.reference_type = *workload.registry.Find("IBM-rise");
  problem.allowed.assign(4, {});
  problem.allowed[3] = {*workload.registry.Find("IBM-fall")};

  std::vector<std::size_t> solution_counts(4, 0);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (std::size_t t = 0; t < solution_counts.size(); ++t) {
    threads.emplace_back([&, t] {
      Miner miner(system.get());
      Result<MiningReport> report = miner.Mine(problem, workload.sequence);
      if (report.ok()) {
        solution_counts[t] = report->solutions.size();
      } else {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);
  for (std::size_t t = 1; t < solution_counts.size(); ++t) {
    EXPECT_EQ(solution_counts[t], solution_counts[0]);
  }
}

}  // namespace
}  // namespace granmine
