// Open upper bounds ([m, inf] TCGs) and the matcher's frontier-boundedness
// guarantee (the practical face of Theorem 4's (|V|K)^p remark).

#include <gtest/gtest.h>

#include "granmine/common/random.h"
#include "granmine/constraint/exact.h"
#include "granmine/constraint/propagation.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/miner.h"
#include "granmine/tag/builder.h"
#include "granmine/tag/matcher.h"
#include "granmine/tag/oracle.h"

namespace granmine {
namespace {

class UnboundedTest : public testing::Test {
 protected:
  UnboundedTest() { unit_ = toy_.AddUniform("unit", 1); }
  GranularitySystem toy_;
  const Granularity* unit_;
};

TEST_F(UnboundedTest, TcgSemantics) {
  Tcg at_least_two = Tcg::Of(2, kInfinity, unit_);
  EXPECT_FALSE(Satisfies(at_least_two, 10, 11));
  EXPECT_TRUE(Satisfies(at_least_two, 10, 12));
  EXPECT_TRUE(Satisfies(at_least_two, 10, 1000000));
}

TEST_F(UnboundedTest, PropagationComposesOpenBounds) {
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  VariableId x2 = s.AddVariable("X2");
  ASSERT_TRUE(s.AddConstraint(x0, x1, Tcg::Of(2, kInfinity, unit_)).ok());
  ASSERT_TRUE(s.AddConstraint(x1, x2, Tcg::Of(3, 5, unit_)).ok());
  ConstraintPropagator propagator(&toy_.tables(), &toy_.coverage());
  auto result = propagator.Propagate(s);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->consistent);
  Bounds b = result->GetBounds(unit_, x0, x2);
  EXPECT_EQ(b.lo, 5);
  EXPECT_GE(b.hi, kInfinity);
}

TEST_F(UnboundedTest, ExactCheckerHandlesOpenBounds) {
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  ASSERT_TRUE(s.AddConstraint(x0, x1, Tcg::Of(3, kInfinity, unit_)).ok());
  ExactOptions options;
  options.horizon_span = 50;
  ExactConsistencyChecker checker(&toy_.tables(), &toy_.coverage(), options);
  auto result = checker.Check(s);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->consistent);
  EXPECT_GE(result->witness[x1] - result->witness[x0], 3);
}

TEST_F(UnboundedTest, TagMatchesOpenBounds) {
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  ASSERT_TRUE(s.AddConstraint(x0, x1, Tcg::Of(3, kInfinity, unit_)).ok());
  auto built = BuildTagForStructure(s);
  ASSERT_TRUE(built.ok()) << built.status();
  TagMatcher matcher(&built->tag);
  SymbolMap symbols = SymbolMap::FromAssignment({0, 1}, 2);
  EventSequence close;
  close.Add(0, 10);
  close.Add(1, 12);
  EXPECT_EQ(matcher.Run(close.View(), symbols), MatchOutcome::kRejected);
  EventSequence far;
  far.Add(0, 10);
  far.Add(1, 500);
  EXPECT_EQ(matcher.Run(far.View(), symbols), MatchOutcome::kAccepted);
  // Agrees with the oracle.
  EXPECT_EQ(OccursBruteForce(s, {0, 1}, close.View()), false);
  EXPECT_EQ(OccursBruteForce(s, {0, 1}, far.View()), true);
}

TEST_F(UnboundedTest, MiningWithOpenBounds) {
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  ASSERT_TRUE(s.AddConstraint(x0, x1, Tcg::Of(5, kInfinity, unit_)).ok());
  EventSequence seq;
  for (int i = 0; i < 6; ++i) {
    seq.Add(0, i * 100);
    seq.Add(1, i * 100 + 7);
  }
  DiscoveryProblem problem;
  problem.structure = &s;
  problem.min_confidence = 0.9;
  problem.reference_type = 0;
  Miner miner(&toy_);
  auto report = miner.Mine(problem, seq);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_FALSE(report->solutions.empty());
}

TEST_F(UnboundedTest, FrontierStaysBoundedOnLongNonMatches) {
  // A chain TAG over a long random sequence that never matches: the expiry
  // prune must keep the live frontier small and the total work linear-ish.
  EventStructure s;
  for (int v = 0; v < 4; ++v) s.AddVariable("X" + std::to_string(v));
  for (int v = 1; v < 4; ++v) {
    ASSERT_TRUE(s.AddConstraint(v - 1, v, Tcg::Of(0, 3, unit_)).ok());
  }
  auto built = BuildTagForStructure(s);
  ASSERT_TRUE(built.ok());
  TagMatcher matcher(&built->tag);
  // Types 0..2 only — variable X3 needs type 3, which never occurs.
  Rng rng(3);
  EventSequence seq;
  TimePoint t = 0;
  for (int i = 0; i < 20000; ++i) {
    t += rng.Uniform(1, 2);
    seq.Add(static_cast<EventTypeId>(rng.Uniform(0, 2)), t);
  }
  SymbolMap symbols = SymbolMap::FromAssignment({0, 1, 2, 3}, 4);
  MatchStats stats;
  EXPECT_EQ(matcher.Run(seq.View(), symbols, {}, &stats),
            MatchOutcome::kRejected);
  // Without expiry pruning the frontier would approach the number of events;
  // with it, it stays within the (|V|K)-ish envelope.
  EXPECT_LT(stats.peak_frontier, 200u);
  EXPECT_FALSE(stats.budget_exhausted);
}

TEST_F(UnboundedTest, OpenBoundGuardsNeverExpire) {
  // With an open upper bound the root config must survive arbitrarily long
  // gaps (no guard can expire), and a late partner must still match.
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  ASSERT_TRUE(s.AddConstraint(x0, x1, Tcg::Of(2, kInfinity, unit_)).ok());
  auto built = BuildTagForStructure(s);
  ASSERT_TRUE(built.ok());
  TagMatcher matcher(&built->tag);
  SymbolMap symbols = SymbolMap::FromAssignment({0, 1}, 3);
  EventSequence seq;
  seq.Add(0, 0);
  for (int i = 1; i <= 5000; ++i) seq.Add(2, i * 10);  // noise for ages
  seq.Add(1, 60000);
  MatchStats stats;
  EXPECT_EQ(matcher.Run(seq.View(), symbols, {}, &stats),
            MatchOutcome::kAccepted);
}

}  // namespace
}  // namespace granmine
