#include "granmine/mining/miner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "granmine/common/random.h"
#include "granmine/granularity/civil_calendar.h"
#include "granmine/mining/reduction.h"
#include "granmine/mining/screening.h"
#include "granmine/mining/windows.h"
#include "granmine/paper/figures.h"
#include "granmine/sequence/generators.h"
#include "granmine/common/executor.h"

namespace granmine {
namespace {

// Solutions as comparable (assignment, matched) pairs.
std::vector<std::pair<std::vector<EventTypeId>, std::size_t>> Normalize(
    const MiningReport& report) {
  std::vector<std::pair<std::vector<EventTypeId>, std::size_t>> out;
  for (const DiscoveredType& d : report.solutions) {
    out.emplace_back(d.assignment, d.matched_roots);
  }
  std::sort(out.begin(), out.end());
  return out;
}

class StockMiningTest : public testing::Test {
 protected:
  StockMiningTest() : system_(GranularitySystem::Gregorian()) {
    auto fig1a = BuildFigure1a(*system_);
    EXPECT_TRUE(fig1a.ok());
    structure_ = *std::move(fig1a);
  }
  std::unique_ptr<GranularitySystem> system_;
  EventStructure structure_;
};

TEST_F(StockMiningTest, Example2DiscoversThePlantedPattern) {
  // Example 2: (S, 0.8, IBM-rise, σ) with σ(X3) = {IBM-fall} and the other
  // variables free. With plant probability 1 and modest noise the planted
  // IBM-report/HP-rise assignment must be found with frequency 1.
  StockWorkloadOptions options;
  options.trading_days = 80;
  options.plant_probability = 1.0;
  options.noise_events_per_day = 0.5;
  options.seed = 11;
  Workload workload = MakeStockWorkload(*system_, options);

  DiscoveryProblem problem;
  problem.structure = &structure_;
  problem.min_confidence = 0.8;
  problem.reference_type = *workload.registry.Find("IBM-rise");
  problem.allowed.assign(4, {});
  problem.allowed[3] = {*workload.registry.Find("IBM-fall")};

  Miner miner(system_.get());
  auto report = miner.Mine(problem, workload.sequence);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->solutions.size(), 1u);
  const DiscoveredType& found = report->solutions[0];
  EXPECT_EQ(found.assignment[0], *workload.registry.Find("IBM-rise"));
  EXPECT_EQ(found.assignment[1],
            *workload.registry.Find("IBM-earnings-report"));
  EXPECT_EQ(found.assignment[2], *workload.registry.Find("HP-rise"));
  EXPECT_EQ(found.assignment[3], *workload.registry.Find("IBM-fall"));
  // Noise IBM-rise events count as reference occurrences too, so the
  // frequency is planted/total — above the 0.8 threshold by construction.
  EXPECT_GT(found.frequency, 0.8);
  EXPECT_GE(found.matched_roots, workload.planted);
  EXPECT_LE(found.matched_roots, report->total_roots);
}

TEST_F(StockMiningTest, ConfidenceThresholdIsStrict) {
  // Plant ~half of the anchors; at θ = 0.95 nothing qualifies, at θ = 0.2
  // the planted assignment does.
  StockWorkloadOptions options;
  options.trading_days = 80;
  options.plant_probability = 0.5;
  options.noise_events_per_day = 0.5;
  options.seed = 5;
  Workload workload = MakeStockWorkload(*system_, options);
  ASSERT_GT(workload.planted, 2u);

  DiscoveryProblem problem;
  problem.structure = &structure_;
  problem.reference_type = *workload.registry.Find("IBM-rise");
  problem.allowed.assign(4, {});
  problem.allowed[1] = {*workload.registry.Find("IBM-earnings-report")};
  problem.allowed[2] = {*workload.registry.Find("HP-rise")};
  problem.allowed[3] = {*workload.registry.Find("IBM-fall")};

  Miner miner(system_.get());
  problem.min_confidence = 0.95;
  auto strict = miner.Mine(problem, workload.sequence);
  ASSERT_TRUE(strict.ok());
  EXPECT_TRUE(strict->solutions.empty());

  problem.min_confidence = 0.2;
  auto loose = miner.Mine(problem, workload.sequence);
  ASSERT_TRUE(loose.ok());
  ASSERT_EQ(loose->solutions.size(), 1u);
  // Frequency counts each reference occurrence once.
  EXPECT_GE(loose->solutions[0].matched_roots, workload.planted);
  EXPECT_LE(loose->solutions[0].matched_roots, loose->total_roots);
}

TEST_F(StockMiningTest, NaiveAndOptimizedAgree) {
  StockWorkloadOptions options;
  options.trading_days = 48;
  options.plant_probability = 0.6;
  options.noise_events_per_day = 2.0;
  options.noise_ticker_count = 1;
  options.seed = 21;
  Workload workload = MakeStockWorkload(*system_, options);

  DiscoveryProblem problem;
  problem.structure = &structure_;
  problem.min_confidence = 0.3;
  problem.reference_type = *workload.registry.Find("IBM-rise");
  problem.allowed.assign(4, {});
  problem.allowed[3] = {*workload.registry.Find("IBM-fall")};

  Miner naive(system_.get(), MinerOptions::Naive());
  Miner optimized(system_.get());
  auto naive_report = naive.Mine(problem, workload.sequence);
  auto optimized_report = optimized.Mine(problem, workload.sequence);
  ASSERT_TRUE(naive_report.ok()) << naive_report.status();
  ASSERT_TRUE(optimized_report.ok()) << optimized_report.status();
  EXPECT_EQ(Normalize(*naive_report), Normalize(*optimized_report));
  // The optimizations actually did something.
  EXPECT_LT(optimized_report->candidates_after_screening,
            naive_report->candidates_before);
  EXPECT_LE(optimized_report->tag_runs, naive_report->tag_runs);
}

TEST_F(StockMiningTest, RepeatedUnsortedSigmaIsASet) {
  // σ(X1) lists a type twice and out of order. σ is a set, so every path —
  // the naive scan included, where no screening step re-sorts it — mines
  // each candidate once and reports it once, in ascending type order.
  StockWorkloadOptions options;
  options.trading_days = 24;
  options.noise_events_per_day = 2.0;
  options.noise_ticker_count = 2;
  options.seed = 3;
  Workload workload = MakeStockWorkload(*system_, options);
  const EventTypeId report = *workload.registry.Find("IBM-earnings-report");
  const EventTypeId fall = *workload.registry.Find("IBM-fall");
  const EventTypeId hp_rise = *workload.registry.Find("HP-rise");

  DiscoveryProblem problem;
  problem.structure = &structure_;
  problem.min_confidence = 0.15;
  problem.reference_type = *workload.registry.Find("IBM-rise");
  problem.allowed = {{}, {hp_rise, report, fall, report}, {}, {fall}};

  auto solutions = [](const MiningReport& mined) {
    std::vector<std::pair<std::vector<EventTypeId>, std::size_t>> out;
    for (const DiscoveredType& d : mined.solutions) {
      out.emplace_back(d.assignment, d.matched_roots);
    }
    return out;
  };
  auto naive = Miner(system_.get(), MinerOptions::Naive())
                   .Mine(problem, workload.sequence);
  auto optimized = Miner(system_.get()).Mine(problem, workload.sequence);
  ASSERT_TRUE(naive.ok()) << naive.status();
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  ASSERT_GT(naive->solutions.size(), 1u);
  EXPECT_EQ(solutions(*naive), solutions(*optimized));
  for (std::size_t i = 1; i < naive->solutions.size(); ++i) {
    EXPECT_LT(naive->solutions[i - 1].assignment,
              naive->solutions[i].assignment);
  }
  // Three distinct types for X1, one for X3.
  EXPECT_EQ(naive->candidates_before,
            3 * workload.sequence.DistinctTypes().size());
}

TEST_F(StockMiningTest, MineScanShapeSkipsRunsThatCannotMatch) {
  // The serving benchmark's mine-scan request: every non-root variable free,
  // 10 trading days, θ 0.3. Step 5 runs a candidate only at the roots where
  // each of its types has a usable event in the variable's window, and stops
  // once it can no longer clear θ.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    StockWorkloadOptions options;
    options.trading_days = 10;
    options.seed = seed;
    Workload workload = MakeStockWorkload(*system_, options);
    DiscoveryProblem problem;
    problem.structure = &structure_;
    problem.min_confidence = 0.3;
    problem.reference_type = *workload.registry.Find("IBM-rise");
    problem.allowed.assign(4, {});

    Miner naive(system_.get(), MinerOptions::Naive());
    auto naive_report = naive.Mine(problem, workload.sequence);
    ASSERT_TRUE(naive_report.ok()) << naive_report.status();
    Miner serial(system_.get());
    auto report = serial.Mine(problem, workload.sequence);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(Normalize(*naive_report), Normalize(*report)) << "seed=" << seed;
    EXPECT_FALSE(report->solutions.empty()) << "seed=" << seed;
    // Fewer runs than one per (screened candidate, surviving root).
    EXPECT_LT(report->tag_runs, report->candidates_after_screening *
                                    report->roots_after_reduction)
        << "seed=" << seed;
    EXPECT_LT(report->tag_runs, naive_report->tag_runs);

    Executor pool(4);
    MinerOptions four;
    four.executor = &pool;
    Miner parallel(system_.get(), four);
    auto parallel_report = parallel.Mine(problem, workload.sequence);
    ASSERT_TRUE(parallel_report.ok()) << parallel_report.status();
    ASSERT_EQ(parallel_report->solutions.size(), report->solutions.size());
    for (std::size_t i = 0; i < report->solutions.size(); ++i) {
      EXPECT_EQ(parallel_report->solutions[i].assignment,
                report->solutions[i].assignment);
      EXPECT_EQ(parallel_report->solutions[i].matched_roots,
                report->solutions[i].matched_roots);
    }
    EXPECT_EQ(parallel_report->tag_runs, report->tag_runs);
    EXPECT_EQ(parallel_report->matcher_configurations,
              report->matcher_configurations);
  }
}

TEST_F(StockMiningTest, StepInstrumentationIsPopulated) {
  StockWorkloadOptions options;
  options.trading_days = 40;
  options.seed = 33;
  Workload workload = MakeStockWorkload(*system_, options);
  DiscoveryProblem problem;
  problem.structure = &structure_;
  // Low threshold: noise IBM-rise occurrences dilute the frequency.
  problem.min_confidence = 0.15;
  problem.reference_type = *workload.registry.Find("IBM-rise");
  problem.allowed.assign(4, {});
  problem.allowed[3] = {*workload.registry.Find("IBM-fall")};
  Miner miner(system_.get());
  auto report = miner.Mine(problem, workload.sequence);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->total_roots, 0u);
  EXPECT_GT(report->events_before, 0u);
  EXPECT_LE(report->events_after_reduction, report->events_before);
  EXPECT_LE(report->roots_after_reduction, report->total_roots);
  EXPECT_LE(report->candidates_after_screening, report->candidates_before);
  EXPECT_GT(report->tag_runs, 0u);
}

TEST_F(StockMiningTest, InconsistentStructureIsRefutedUpfront) {
  // Same hour but two days apart: impossible.
  EventStructure bad;
  VariableId x0 = bad.AddVariable("X0");
  VariableId x1 = bad.AddVariable("X1");
  ASSERT_TRUE(bad.AddConstraint(x0, x1, Tcg::Same(system_->Find("hour")))
                  .ok());
  ASSERT_TRUE(
      bad.AddConstraint(x0, x1, Tcg::Of(2, 2, system_->Find("day"))).ok());
  StockWorkloadOptions options;
  options.trading_days = 20;
  Workload workload = MakeStockWorkload(*system_, options);
  DiscoveryProblem problem;
  problem.structure = &bad;
  problem.min_confidence = 0.0;
  problem.reference_type = *workload.registry.Find("IBM-rise");
  Miner miner(system_.get());
  auto report = miner.Mine(problem, workload.sequence);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->refuted_by_propagation);
  EXPECT_TRUE(report->solutions.empty());
  EXPECT_EQ(report->tag_runs, 0u);
}

// Randomized cross-validation of the whole pipeline on a toy calendar:
// naive == every ablation combination.
class ToyMiningTest : public testing::Test {
 protected:
  ToyMiningTest() {
    unit_ = toy_.AddUniform("unit", 1);
    three_ = toy_.AddUniform("three", 3);
    gapped_ = toy_.AddSynthetic("gapped", 4, {TimeSpan::Of(0, 2)});
  }
  GranularitySystem toy_;
  const Granularity* unit_;
  const Granularity* three_;
  const Granularity* gapped_;
};

TEST_F(ToyMiningTest, AblationsAgreeWithNaive) {
  Rng rng(4242);
  const Granularity* types[] = {unit_, three_, gapped_};
  int nonempty = 0;
  for (int trial = 0; trial < 25; ++trial) {
    // Random rooted structure over 3 variables.
    EventStructure s;
    const int n = 3;
    for (int v = 0; v < n; ++v) s.AddVariable("X" + std::to_string(v));
    for (int v = 1; v < n; ++v) {
      std::int64_t lo = rng.Uniform(0, 2);
      ASSERT_TRUE(s.AddConstraint(static_cast<int>(rng.Uniform(0, v - 1)), v,
                                  Tcg::Of(lo, lo + rng.Uniform(0, 2),
                                          types[rng.Index(3)]))
                      .ok());
    }
    if (!s.FindRoot().ok()) continue;
    VariableId root = *s.FindRoot();

    const int kTypeCount = 3;
    EventSequence seq;
    TimePoint t = 0;
    for (int i = 0; i < 40; ++i) {
      t += rng.Uniform(0, 3);
      seq.Add(static_cast<EventTypeId>(rng.Uniform(0, kTypeCount - 1)), t);
    }

    DiscoveryProblem problem;
    problem.structure = &s;
    problem.reference_type = 0;
    const std::size_t total = seq.CountOf(0);
    if (total == 0) continue;

    // One random θ, then θ exactly k / total_roots for every k: a candidate
    // matching k roots sits on the threshold, where the strict > refutes it
    // and the step-5 cut-off must agree.
    std::vector<double> thetas = {0.05 + 0.3 * rng.UniformReal()};
    for (std::size_t k = 0; k <= total; ++k) {
      thetas.push_back(static_cast<double>(k) / static_cast<double>(total));
    }
    for (double theta : thetas) {
      problem.min_confidence = theta;
      Miner naive(&toy_, MinerOptions::Naive());
      auto baseline = naive.Mine(problem, seq);
      ASSERT_TRUE(baseline.ok()) << baseline.status();
      if (!baseline->solutions.empty()) ++nonempty;

      for (int mask = 1; mask < 16; ++mask) {
        MinerOptions options = MinerOptions::Naive();
        options.check_consistency = mask & 1;
        options.reduce_sequence = mask & 2;
        options.reduce_roots = mask & 4;
        options.screening_depth = (mask & 8) ? 2 : 0;
        options.use_window_deadlines = mask & 4;
        Miner ablated(&toy_, options);
        auto report = ablated.Mine(problem, seq);
        ASSERT_TRUE(report.ok()) << report.status();
        ASSERT_EQ(Normalize(*baseline), Normalize(*report))
            << s.ToString() << "\nmask=" << mask << " trial=" << trial
            << " theta=" << problem.min_confidence << " root=" << root;
      }
    }
  }
  EXPECT_GT(nonempty, 5);  // the family exercises real discoveries
}

TEST_F(ToyMiningTest, EmptyReferenceYieldsEmptyReport) {
  EventStructure s;
  s.AddVariable("X0");
  DiscoveryProblem problem;
  problem.structure = &s;
  problem.reference_type = 7;
  EventSequence seq;
  seq.Add(0, 1);
  Miner miner(&toy_);
  auto report = miner.Mine(problem, seq);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->total_roots, 0u);
  EXPECT_TRUE(report->solutions.empty());
}

TEST_F(ToyMiningTest, UnrootedStructureRejected) {
  EventStructure s;
  VariableId a = s.AddVariable("A");
  VariableId b = s.AddVariable("B");
  VariableId c = s.AddVariable("C");
  ASSERT_TRUE(s.AddConstraint(a, c, Tcg::Same(unit_)).ok());
  ASSERT_TRUE(s.AddConstraint(b, c, Tcg::Same(unit_)).ok());
  DiscoveryProblem problem;
  problem.structure = &s;
  Miner miner(&toy_);
  EXPECT_FALSE(miner.Mine(problem, EventSequence()).ok());
}

TEST_F(ToyMiningTest, CandidateCapIsEnforced) {
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  ASSERT_TRUE(s.AddConstraint(x0, x1, Tcg::Of(0, 5, unit_)).ok());
  EventSequence seq;
  for (int i = 0; i < 30; ++i) seq.Add(i % 10, i);
  DiscoveryProblem problem;
  problem.structure = &s;
  problem.reference_type = 0;
  problem.min_confidence = 0.0;
  MinerOptions options = MinerOptions::Naive();
  options.max_candidates = 3;  // 10 types would be needed
  Miner miner(&toy_, options);
  auto report = miner.Mine(problem, seq);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace granmine
