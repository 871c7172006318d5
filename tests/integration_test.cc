// End-to-end reproduction of the paper's narrative on the real second-based
// calendar: Example 1 (the complex event type and its TAG), Example 2 (the
// discovery problem), the §5.1 induced screening example, and a stronger
// TAG-vs-oracle differential over realistic granularities.

#include <gtest/gtest.h>

#include "granmine/common/random.h"
#include "granmine/constraint/propagation.h"
#include "granmine/constraint/substructure.h"
#include "granmine/granularity/civil_calendar.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/miner.h"
#include "granmine/paper/figures.h"
#include "granmine/sequence/generators.h"
#include "granmine/tag/builder.h"
#include "granmine/tag/matcher.h"
#include "granmine/tag/oracle.h"

namespace granmine {
namespace {

class PaperNarrativeTest : public testing::Test {
 protected:
  PaperNarrativeTest() : system_(GranularitySystem::Gregorian()) {}
  std::unique_ptr<GranularitySystem> system_;
};

TEST_F(PaperNarrativeTest, Example1FullPipeline) {
  // Build the workload, the structure, the TAG; verify the paper's claims
  // hold together: consistency, p = 2 chains, acceptance of exactly the
  // anchored occurrences the oracle certifies.
  StockWorkloadOptions options;
  options.trading_days = 40;
  options.plant_probability = 0.5;
  options.noise_events_per_day = 2.0;
  options.seed = 314;
  Workload workload = MakeStockWorkload(*system_, options);

  auto structure = BuildFigure1a(*system_);
  ASSERT_TRUE(structure.ok());
  ConstraintPropagator propagator(&system_->tables(), &system_->coverage());
  auto propagation = propagator.Propagate(*structure);
  ASSERT_TRUE(propagation.ok());
  ASSERT_TRUE(propagation->consistent);

  auto built = BuildTagForStructure(*structure);
  ASSERT_TRUE(built.ok());
  ASSERT_EQ(built->chains.size(), 2u);
  TagMatcher matcher(&built->tag);

  std::vector<EventTypeId> phi = {
      *workload.registry.Find("IBM-rise"),
      *workload.registry.Find("IBM-earnings-report"),
      *workload.registry.Find("HP-rise"),
      *workload.registry.Find("IBM-fall")};
  SymbolMap symbols = SymbolMap::FromAssignment(
      phi, workload.registry.size());

  std::size_t tag_matches = 0, oracle_matches = 0;
  for (std::size_t at : workload.sequence.OccurrencesOf(phi[0])) {
    MatchOptions anchored;
    anchored.anchored = true;
    if (matcher.Run(workload.sequence.SuffixFrom(at), symbols, anchored) ==
        MatchOutcome::kAccepted) {
      ++tag_matches;
    }
    OracleOptions oracle_options;
    oracle_options.anchored_root_index = 0;
    if (OccursBruteForce(*structure, phi, workload.sequence.SuffixFrom(at),
                         oracle_options)) {
      ++oracle_matches;
    }
  }
  EXPECT_EQ(tag_matches, oracle_matches);
  EXPECT_GE(tag_matches, workload.planted);
}

TEST_F(PaperNarrativeTest, InducedScreeningMatchesPaperExample) {
  // §5.1: the induced problem on {X0, X3} identifies a window per
  // IBM-rise; candidate X3 types outside it are screened. Validate that
  // screening alone (k=1) never removes the true solution's types.
  StockWorkloadOptions options;
  options.trading_days = 60;
  options.plant_probability = 0.8;
  options.noise_events_per_day = 2.0;
  options.noise_ticker_count = 3;
  options.seed = 2718;
  Workload workload = MakeStockWorkload(*system_, options);

  auto structure = BuildFigure1a(*system_);
  ASSERT_TRUE(structure.ok());
  DiscoveryProblem problem;
  problem.structure = &*structure;
  problem.min_confidence = 0.3;
  problem.reference_type = *workload.registry.Find("IBM-rise");

  MinerOptions screened;
  screened.screening_depth = 2;
  Miner optimized(system_.get(), screened);
  Miner naive(system_.get(), MinerOptions::Naive());
  auto a = optimized.Mine(problem, workload.sequence);
  auto b = naive.Mine(problem, workload.sequence);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_EQ(a->solutions.size(), b->solutions.size());
  for (std::size_t i = 0; i < a->solutions.size(); ++i) {
    EXPECT_EQ(a->solutions[i].assignment, b->solutions[i].assignment);
    EXPECT_EQ(a->solutions[i].matched_roots, b->solutions[i].matched_roots);
  }
  // And screening genuinely pruned the space.
  EXPECT_LT(a->candidates_after_screening, b->candidates_before);
}

TEST_F(PaperNarrativeTest, SequenceReductionDropsWeekendNoise) {
  // Step 2 on the real calendar: weekend events cannot bind to variables
  // that are all b-day/hour/week-constrained... weekend noise with a type
  // no variable may take is dropped; outcomes unchanged.
  StockWorkloadOptions options;
  options.trading_days = 30;
  options.plant_probability = 1.0;
  options.noise_events_per_day = 0.0;
  Workload workload = MakeStockWorkload(*system_, options);
  // Inject weekend noise of a foreign type: Sat 1970-01-03 etc.
  EventTypeId weekend_noise = workload.registry.Intern("weekend-noise");
  for (int weekend = 0; weekend < 8; ++weekend) {
    TimePoint saturday = (2 + 7 * weekend) * kSecondsPerDay + 12 * 3600;
    workload.sequence.Add(weekend_noise, saturday);
  }

  auto structure = BuildFigure1a(*system_);
  ASSERT_TRUE(structure.ok());
  DiscoveryProblem problem;
  problem.structure = &*structure;
  problem.min_confidence = 0.5;
  problem.reference_type = *workload.registry.Find("IBM-rise");
  problem.allowed.assign(4, {});
  problem.allowed[1] = {*workload.registry.Find("IBM-earnings-report")};
  problem.allowed[2] = {*workload.registry.Find("HP-rise")};
  problem.allowed[3] = {*workload.registry.Find("IBM-fall")};

  Miner miner(system_.get());
  auto report = miner.Mine(problem, workload.sequence);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->events_after_reduction, report->events_before);
  ASSERT_EQ(report->solutions.size(), 1u);
  EXPECT_EQ(report->solutions[0].matched_roots, workload.planted);
}

TEST_F(PaperNarrativeTest, RealCalendarDifferential) {
  // Random structures over b-day / hour / day / week with random small
  // sequences on the seconds calendar: TAG == oracle. This is the
  // Theorem-3 differential on the *real* granularities (the toy version
  // lives in tag_match_test.cc).
  Rng rng(5150);
  const Granularity* types[] = {system_->Find("b-day"), system_->Find("hour"),
                                system_->Find("day"), system_->Find("week")};
  const int kTypeCount = 3;
  int agreements = 0, accepted = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.Uniform(2, 4));
    EventStructure s;
    for (int v = 0; v < n; ++v) s.AddVariable("X" + std::to_string(v));
    for (int v = 1; v < n; ++v) {
      std::int64_t lo = rng.Uniform(0, 2);
      ASSERT_TRUE(s.AddConstraint(static_cast<int>(rng.Uniform(0, v - 1)), v,
                                  Tcg::Of(lo, lo + rng.Uniform(0, 3),
                                          types[rng.Index(4)]))
                      .ok());
    }
    auto built = BuildTagForStructure(s);
    ASSERT_TRUE(built.ok());
    TagMatcher matcher(&built->tag);
    std::vector<EventTypeId> phi;
    for (int v = 0; v < n; ++v) {
      phi.push_back(static_cast<EventTypeId>(rng.Uniform(0, kTypeCount - 1)));
    }
    SymbolMap symbols = SymbolMap::FromAssignment(phi, kTypeCount);
    EventSequence seq;
    TimePoint t = rng.Uniform(0, 3) * kSecondsPerDay;
    for (int i = 0; i < 10; ++i) {
      t += rng.Uniform(1, 2 * kSecondsPerDay);
      seq.Add(static_cast<EventTypeId>(rng.Uniform(0, kTypeCount - 1)), t);
    }
    bool oracle_says = OccursBruteForce(s, phi, seq.View());
    ASSERT_EQ(matcher.Run(seq.View(), symbols),
              oracle_says ? MatchOutcome::kAccepted : MatchOutcome::kRejected)
        << s.ToString() << " trial " << trial;
    ++agreements;
    accepted += oracle_says;
  }
  EXPECT_EQ(agreements, 60);
  EXPECT_GT(accepted, 5);
  EXPECT_LT(accepted, 55);
}

TEST_F(PaperNarrativeTest, HolidayCalendarEndToEnd) {
  // A holiday on Fri 1970-01-09 removes a b-day: patterns planted across
  // it shift their b-day distances. Verify the TCG semantics through the
  // whole stack with a custom holiday system.
  auto holiday_system =
      GranularitySystem::Gregorian({CivilDate{1970, 1, 9}});
  const Granularity* b_day = holiday_system->Find("b-day");
  // Thu Jan 8 10:00 and Mon Jan 12 10:00: adjacent b-days (Fri is a
  // holiday, Sat/Sun weekend).
  TimePoint thu = 7 * kSecondsPerDay + 10 * 3600;
  TimePoint mon = 11 * kSecondsPerDay + 10 * 3600;
  EXPECT_TRUE(Satisfies(Tcg::Of(1, 1, b_day), thu, mon));
  // In the plain calendar they are 2 b-days apart.
  auto plain = GranularitySystem::Gregorian();
  EXPECT_FALSE(Satisfies(Tcg::Of(1, 1, plain->Find("b-day")), thu, mon));
  EXPECT_TRUE(Satisfies(Tcg::Of(2, 2, plain->Find("b-day")), thu, mon));

  // Mining with the holiday calendar accepts the cross-holiday pattern as
  // "next business day".
  EventStructure structure;
  VariableId x0 = structure.AddVariable("X0");
  VariableId x1 = structure.AddVariable("X1");
  ASSERT_TRUE(structure.AddConstraint(x0, x1, Tcg::Of(1, 1, b_day)).ok());
  EventSequence seq;
  seq.Add(0, thu);
  seq.Add(1, mon);
  DiscoveryProblem problem;
  problem.structure = &structure;
  problem.min_confidence = 0.5;
  problem.reference_type = 0;
  Miner miner(holiday_system.get());
  auto report = miner.Mine(problem, seq);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->solutions.size(), 1u);
  EXPECT_EQ(report->solutions[0].assignment[1], 1);
}

}  // namespace
}  // namespace granmine
