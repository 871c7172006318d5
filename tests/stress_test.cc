// Stress/property tests: heavy equal-timestamp groups through the matcher's
// group-closure BFS, STP minimal-network tightness, and the miner ablation
// equivalence in the presence of §6 type constraints.

#include <gtest/gtest.h>

#include "granmine/common/random.h"
#include "granmine/constraint/stp.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/miner.h"
#include "granmine/tag/builder.h"
#include "granmine/tag/matcher.h"
#include "granmine/tag/oracle.h"

namespace granmine {
namespace {

TEST(EqualTimestampStressTest, GroupClosureAgreesWithOracle) {
  // Sequences dominated by equal timestamps: the §3 occurrence definition
  // is order-free within a group, and the matcher must agree with the
  // oracle for every structure.
  GranularitySystem toy;
  const Granularity* unit = toy.AddUniform("unit", 1);
  const Granularity* three = toy.AddUniform("three", 3);
  Rng rng(777);
  const int kTypeCount = 3;
  int accepted = 0, rejected = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const int n = static_cast<int>(rng.Uniform(2, 4));
    EventStructure s;
    for (int v = 0; v < n; ++v) s.AddVariable("X" + std::to_string(v));
    for (int v = 1; v < n; ++v) {
      std::int64_t lo = rng.Uniform(0, 1);
      ASSERT_TRUE(s.AddConstraint(
                       static_cast<int>(rng.Uniform(0, v - 1)), v,
                       Tcg::Of(lo, lo + rng.Uniform(0, 2),
                               rng.Bernoulli(0.5) ? unit : three))
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
    // Very few distinct timestamps => large equal-time groups.
    EventSequence seq;
    for (int i = 0; i < 10; ++i) {
      seq.Add(static_cast<EventTypeId>(rng.Uniform(0, kTypeCount - 1)),
              rng.Uniform(0, 3) * 2);
    }
    bool oracle_says = OccursBruteForce(s, phi, seq.View());
    ASSERT_EQ(matcher.Run(seq.View(), symbols),
              oracle_says ? MatchOutcome::kAccepted : MatchOutcome::kRejected)
        << s.ToString() << " trial " << trial;
    oracle_says ? ++accepted : ++rejected;
  }
  EXPECT_GT(accepted, 20);
  EXPECT_GT(rejected, 20);
}

TEST(EqualTimestampStressTest, LargeSingleGroup) {
  // One group of 60 simultaneous events, a 3-variable chain with [0,0]
  // constraints: the closure must find the occurrence without blowing up.
  GranularitySystem toy;
  const Granularity* unit = toy.AddUniform("unit", 1);
  EventStructure s;
  for (int v = 0; v < 3; ++v) s.AddVariable("X" + std::to_string(v));
  ASSERT_TRUE(s.AddConstraint(0, 1, Tcg::Same(unit)).ok());
  ASSERT_TRUE(s.AddConstraint(1, 2, Tcg::Same(unit)).ok());
  auto built = BuildTagForStructure(s);
  ASSERT_TRUE(built.ok());
  TagMatcher matcher(&built->tag);
  EventSequence seq;
  for (int i = 0; i < 60; ++i) seq.Add(i % 3, 42);
  SymbolMap symbols = SymbolMap::FromAssignment({0, 1, 2}, 3);
  MatchStats stats;
  EXPECT_EQ(matcher.Run(seq.View(), symbols, {}, &stats),
            MatchOutcome::kAccepted);
  EXPECT_FALSE(stats.budget_exhausted);
  // Only counts per type matter within a group, so configurations stay
  // tiny despite 60 events.
  EXPECT_LT(stats.configurations, 500u);
}

TEST(StpTightnessTest, MinimalBoundsAreAchieved) {
  // Property: after propagation, every finite bound d[i][j] is achieved by
  // some integer solution (the DMP91 minimal-network guarantee), checked by
  // brute force on small consistent networks.
  Rng rng(31);
  int checked = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const int n = 3;
    StpNetwork net(n);
    for (int e = 0; e < 3; ++e) {
      int x = static_cast<int>(rng.Uniform(0, n - 1));
      int y = static_cast<int>(rng.Uniform(0, n - 1));
      if (x == y) continue;
      std::int64_t lo = rng.Uniform(-3, 2);
      net.Constrain(x, y, Bounds::Of(lo, lo + rng.Uniform(0, 3)));
    }
    if (!net.PropagateToMinimal()) continue;
    ++checked;
    // Enumerate all solutions with values in [-8, 8] (anchor x0 = 0 since
    // only differences matter).
    const std::int64_t kLo = -8, kHi = 8;
    std::vector<std::vector<std::int64_t>> solutions;
    for (std::int64_t b = kLo; b <= kHi; ++b) {
      for (std::int64_t c = kLo; c <= kHi; ++c) {
        std::vector<std::int64_t> vals = {0, b, c};
        bool ok = true;
        for (int i = 0; i < n && ok; ++i) {
          for (int j = 0; j < n && ok; ++j) {
            if (i == j) continue;
            std::int64_t d = net.Distance(i, j);
            if (d < kInfinity && vals[j] - vals[i] > d) ok = false;
          }
        }
        if (ok) solutions.push_back(std::move(vals));
      }
    }
    ASSERT_FALSE(solutions.empty());
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        std::int64_t d = net.Distance(i, j);
        if (d >= kInfinity || d >= 6) continue;  // keep inside the box
        bool achieved = false;
        for (const auto& vals : solutions) {
          if (vals[j] - vals[i] == d) achieved = true;
        }
        EXPECT_TRUE(achieved) << "d[" << i << "][" << j << "]=" << d
                              << " trial " << trial;
      }
    }
  }
  EXPECT_GT(checked, 40);
}

TEST(AblationWithTypeConstraintsTest, NaiveStillAgrees) {
  GranularitySystem toy;
  const Granularity* unit = toy.AddUniform("unit", 1);
  Rng rng(64);
  for (int trial = 0; trial < 15; ++trial) {
    EventStructure s;
    for (int v = 0; v < 3; ++v) s.AddVariable("X" + std::to_string(v));
    ASSERT_TRUE(
        s.AddConstraint(0, 1, Tcg::Of(0, rng.Uniform(1, 4), unit)).ok());
    ASSERT_TRUE(
        s.AddConstraint(1, 2, Tcg::Of(0, rng.Uniform(1, 4), unit)).ok());
    EventSequence seq;
    TimePoint t = 0;
    for (int i = 0; i < 50; ++i) {
      t += rng.Uniform(0, 2);
      seq.Add(static_cast<EventTypeId>(rng.Uniform(0, 2)), t);
    }
    DiscoveryProblem problem;
    problem.structure = &s;
    problem.min_confidence = 0.2;
    problem.reference_type = 0;
    problem.type_constraints = {
        {rng.Bernoulli(0.5) ? TypeConstraint::Kind::kSameType
                            : TypeConstraint::Kind::kDifferentType,
         1, 2}};
    Miner naive(&toy, MinerOptions::Naive());
    Miner optimized(&toy);
    auto a = naive.Mine(problem, seq);
    auto b = optimized.Mine(problem, seq);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->solutions.size(), b->solutions.size());
    for (std::size_t i = 0; i < a->solutions.size(); ++i) {
      EXPECT_EQ(a->solutions[i].assignment, b->solutions[i].assignment);
      EXPECT_EQ(a->solutions[i].matched_roots,
                b->solutions[i].matched_roots);
      // The constraint actually holds.
      EXPECT_TRUE(
          problem.type_constraints[0].SatisfiedBy(a->solutions[i].assignment));
    }
  }
}

}  // namespace
}  // namespace granmine
