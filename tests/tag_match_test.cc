#include <gtest/gtest.h>

#include "granmine/common/random.h"
#include "granmine/granularity/civil_calendar.h"
#include "granmine/granularity/system.h"
#include "granmine/paper/figures.h"
#include "granmine/sequence/generators.h"
#include "granmine/tag/builder.h"
#include "granmine/tag/matcher.h"
#include "granmine/tag/oracle.h"

namespace granmine {
namespace {

// --- Figure 2: the TAG generated for Example 1 -----------------------------

TEST(TagBuilderTest, Figure2Structure) {
  auto system = GranularitySystem::Gregorian();
  auto fig1a = BuildFigure1a(*system);
  ASSERT_TRUE(fig1a.ok());
  auto built = BuildTagForStructure(*fig1a);
  ASSERT_TRUE(built.ok()) << built.status();
  // Two chains (the paper's p = 2), each with two granularities => 4 clocks.
  EXPECT_EQ(built->chains.size(), 2u);
  EXPECT_EQ(built->tag.clocks().size(), 4u);
  // Product states S0S0, S1S1, S1S2, S2S1, S2S2, S3S3 (Figure 2).
  EXPECT_EQ(built->tag.state_count(), 6);
  // One ANY self-loop per state plus the 6 labeled transitions of Figure 2
  // (rise, report x2, hp-rise x2, fall).
  EXPECT_EQ(built->tag.transitions().size(), 6u + 6u);
  EXPECT_EQ(built->tag.start_states().size(), 1u);
  EXPECT_EQ(built->tag.accepting_states().size(), 1u);
  // Clocks stay chain-local.
  ASSERT_EQ(built->clock_chain.size(), 4u);
  for (const Tag::Transition& t : built->tag.transitions()) {
    if (t.symbol == kAnySymbol) {
      EXPECT_TRUE(t.resets.empty());
      EXPECT_TRUE(t.guard.IsTriviallyTrue());
    }
  }
}

TEST(TagBuilderTest, SingleVariableStructure) {
  auto system = GranularitySystem::Gregorian();
  EventStructure s;
  s.AddVariable("X0");
  auto built = BuildTagForStructure(s);
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_EQ(built->tag.state_count(), 2);
  EXPECT_EQ(built->tag.clocks().size(), 0u);

  TagMatcher matcher(&built->tag);
  EventSequence seq;
  seq.Add(7, 100);
  EXPECT_EQ(matcher.Run(seq.View(), SymbolMap::FromAssignment({7}, 8)),
            MatchOutcome::kAccepted);
  EXPECT_EQ(matcher.Run(seq.View(), SymbolMap::FromAssignment({3}, 8)),
            MatchOutcome::kRejected);
}

TEST(TagBuilderTest, ComplexTypeSubstitution) {
  auto system = GranularitySystem::Gregorian();
  auto fig1a = BuildFigure1a(*system);
  ASSERT_TRUE(fig1a.ok());
  // φ: X0..X3 -> event types 10, 11, 12, 13.
  auto built = BuildTagForComplexType(*fig1a, {10, 11, 12, 13});
  ASSERT_TRUE(built.ok()) << built.status();
  for (const Tag::Transition& t : built->tag.transitions()) {
    if (t.symbol != kAnySymbol) {
      EXPECT_GE(t.symbol, 10);
      EXPECT_LE(t.symbol, 13);
    }
  }
}

// --- Matching the Example-1 pattern ----------------------------------------

class Example1MatchTest : public testing::Test {
 protected:
  Example1MatchTest() : system_(GranularitySystem::Gregorian()) {
    auto fig1a = BuildFigure1a(*system_);
    EXPECT_TRUE(fig1a.ok());
    structure_ = *std::move(fig1a);
    auto built = BuildTagForStructure(structure_);
    EXPECT_TRUE(built.ok());
    built_ = *std::move(built);
  }

  // Event types: 0=IBM-rise, 1=IBM-report, 2=HP-rise, 3=IBM-fall, 4=noise.
  SymbolMap PatternSymbols() const {
    return SymbolMap::FromAssignment({0, 1, 2, 3}, 5);
  }

  // A valid instance: rise Mon 10:00, report Tue 11:00, HP-rise Wed 12:00,
  // fall Wed 15:00. Day 4 = Monday 1970-01-05.
  EventSequence ValidInstance() const {
    EventSequence seq;
    seq.Add(0, Hour(4, 10));
    seq.Add(1, Hour(5, 11));
    seq.Add(2, Hour(6, 12));
    seq.Add(3, Hour(6, 15));
    return seq;
  }

  static TimePoint Hour(std::int64_t day, int hour) {
    return day * kSecondsPerDay + hour * 3600;
  }

  std::unique_ptr<GranularitySystem> system_;
  EventStructure structure_;
  TagBuildResult built_;
};

TEST_F(Example1MatchTest, AcceptsValidInstance) {
  TagMatcher matcher(&built_.tag);
  EXPECT_EQ(matcher.Run(ValidInstance().View(), PatternSymbols()),
            MatchOutcome::kAccepted);
}

TEST_F(Example1MatchTest, SkipsUnrelatedEventsIncludingWeekends) {
  // Noise events — including one on a Saturday, outside b-day support —
  // must be skippable without killing the run (occurrence semantics).
  EventSequence seq = ValidInstance();
  seq.Add(4, Hour(4, 12));   // noise Monday
  seq.Add(4, Hour(3, 10));   // noise Sunday 1970-01-04 (no b-day tick)
  seq.Add(4, Hour(6, 13));   // noise between HP-rise and fall
  TagMatcher matcher(&built_.tag);
  EXPECT_EQ(matcher.Run(seq.View(), PatternSymbols()), MatchOutcome::kAccepted);
}

TEST_F(Example1MatchTest, RejectsGuardViolations) {
  TagMatcher matcher(&built_.tag);
  // Report two business days after the rise ([1,1]b-day violated).
  EventSequence late_report;
  late_report.Add(0, Hour(4, 10));
  late_report.Add(1, Hour(6, 11));
  late_report.Add(2, Hour(6, 12));
  late_report.Add(3, Hour(6, 15));
  EXPECT_EQ(matcher.Run(late_report.View(), PatternSymbols()),
            MatchOutcome::kRejected);
  // HP-rise more than 8 hours before the fall ([0,8]hour violated).
  EventSequence early_hp;
  early_hp.Add(0, Hour(4, 10));
  early_hp.Add(1, Hour(5, 11));
  early_hp.Add(2, Hour(6, 2));
  early_hp.Add(3, Hour(6, 15));
  EXPECT_EQ(matcher.Run(early_hp.View(), PatternSymbols()),
            MatchOutcome::kRejected);
  // Fall two weeks later ([0,1]week violated). Day 18 = Mon Jan 19.
  EventSequence late_fall;
  late_fall.Add(0, Hour(4, 10));
  late_fall.Add(1, Hour(5, 11));
  late_fall.Add(3, Hour(18, 15));
  late_fall.Add(2, Hour(18, 12));
  EXPECT_EQ(matcher.Run(late_fall.View(), PatternSymbols()),
            MatchOutcome::kRejected);
}

TEST_F(Example1MatchTest, SharedVariableConsumesOneEvent) {
  // Both chains end in X3 (IBM-fall); a sequence where the fall satisfies
  // the hour constraint but not the week constraint must be rejected even
  // if another fall satisfies the other half.
  EventSequence seq;
  seq.Add(0, Hour(4, 10));
  seq.Add(1, Hour(5, 11));
  // Fall #1: right after the report (week OK) but >8h after the HP rise.
  // HP rise is late enough for fall #2 only.
  seq.Add(3, Hour(6, 9));
  seq.Add(2, Hour(18, 10));
  seq.Add(3, Hour(18, 15));  // Fall #2: hour OK for HP, but 2 weeks later
  TagMatcher matcher(&built_.tag);
  EXPECT_EQ(matcher.Run(seq.View(), PatternSymbols()), MatchOutcome::kRejected);
}

TEST_F(Example1MatchTest, AnchoredMatching) {
  EventSequence seq;
  seq.Add(4, Hour(4, 9));  // noise first
  EventSequence valid = ValidInstance();
  for (const Event& e : valid.events()) seq.Add(e);
  TagMatcher matcher(&built_.tag);
  MatchOptions anchored;
  anchored.anchored = true;
  // Anchored at the noise event: the run may not skip it.
  EXPECT_EQ(matcher.Run(seq.View(), PatternSymbols(), anchored),
            MatchOutcome::kRejected);
  // Anchored at the true rise (index 1 after sorting).
  EXPECT_EQ(matcher.Run(seq.SuffixFrom(1), PatternSymbols(), anchored),
            MatchOutcome::kAccepted);
  // Unanchored: found despite the leading noise.
  EXPECT_EQ(matcher.Run(seq.View(), PatternSymbols()), MatchOutcome::kAccepted);
}

TEST_F(Example1MatchTest, MatchStatsPopulated) {
  TagMatcher matcher(&built_.tag);
  MatchStats stats;
  EXPECT_EQ(matcher.Run(ValidInstance().View(), PatternSymbols(), {}, &stats),
            MatchOutcome::kAccepted);
  EXPECT_GT(stats.configurations, 0u);
  EXPECT_GT(stats.events_scanned, 0u);
  EXPECT_FALSE(stats.budget_exhausted);
}

TEST_F(Example1MatchTest, ConfigurationBudget) {
  TagMatcher matcher(&built_.tag);
  MatchOptions options;
  options.max_configurations = 1;
  MatchStats stats;
  EventSequence seq = ValidInstance();
  EXPECT_EQ(matcher.Run(seq.View(), PatternSymbols(), options, &stats),
            MatchOutcome::kUnknown);
  EXPECT_TRUE(stats.budget_exhausted);
}

// --- Differential testing against the §3 occurrence oracle (Theorem 3) -----

class TagOracleDifferentialTest : public testing::Test {
 protected:
  TagOracleDifferentialTest() {
    unit_ = toy_.AddUniform("unit", 1);
    three_ = toy_.AddUniform("three", 3);
    five_ = toy_.AddUniform("five", 5);
    gapped_ = toy_.AddSynthetic("gapped", 4, {TimeSpan::Of(0, 2)});
  }

  // A random rooted DAG with random toy TCGs.
  EventStructure RandomStructure(Rng& rng, int n) {
    const Granularity* types[] = {unit_, three_, five_, gapped_};
    EventStructure s;
    for (int v = 0; v < n; ++v) s.AddVariable("X" + std::to_string(v));
    for (int v = 1; v < n; ++v) {
      int parent = static_cast<int>(rng.Uniform(0, v - 1));
      std::int64_t lo = rng.Uniform(0, 2);
      EXPECT_TRUE(s.AddConstraint(parent, v,
                                  Tcg::Of(lo, lo + rng.Uniform(0, 2),
                                          types[rng.Index(4)]))
                      .ok());
    }
    // Occasionally an extra forward edge.
    if (n >= 3 && rng.Bernoulli(0.5)) {
      int a = static_cast<int>(rng.Uniform(0, n - 2));
      int b = static_cast<int>(rng.Uniform(a + 1, n - 1));
      if (s.FindEdge(a, b) == nullptr) {
        std::int64_t lo = rng.Uniform(0, 2);
        EXPECT_TRUE(s.AddConstraint(a, b,
                                    Tcg::Of(lo, lo + rng.Uniform(0, 2),
                                            types[rng.Index(4)]))
                        .ok());
      }
    }
    return s;
  }

  GranularitySystem toy_;
  const Granularity* unit_;
  const Granularity* three_;
  const Granularity* five_;
  const Granularity* gapped_;
};

TEST_F(TagOracleDifferentialTest, AgreesWithBruteForceOracle) {
  Rng rng(20240601);
  const int kTypeCount = 3;
  int accepted = 0, rejected = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const int n = static_cast<int>(rng.Uniform(2, 4));
    EventStructure s = RandomStructure(rng, n);
    auto built = BuildTagForStructure(s);
    ASSERT_TRUE(built.ok()) << built.status() << "\n" << s.ToString();
    TagMatcher matcher(&built->tag);

    std::vector<EventTypeId> phi;
    for (int v = 0; v < n; ++v) {
      phi.push_back(static_cast<EventTypeId>(rng.Uniform(0, kTypeCount - 1)));
    }
    SymbolMap symbols = SymbolMap::FromAssignment(phi, kTypeCount);

    EventSequence seq;
    std::size_t length = static_cast<std::size_t>(rng.Uniform(3, 12));
    TimePoint t = 0;
    for (std::size_t i = 0; i < length; ++i) {
      t += rng.Uniform(0, 4);
      seq.Add(static_cast<EventTypeId>(rng.Uniform(0, kTypeCount - 1)), t);
    }

    bool oracle_says = OccursBruteForce(s, phi, seq.View());
    ASSERT_EQ(matcher.Run(seq.View(), symbols),
              oracle_says ? MatchOutcome::kAccepted : MatchOutcome::kRejected)
        << s.ToString() << "\nphi size " << phi.size() << " trial " << trial;
    oracle_says ? ++accepted : ++rejected;
  }
  // The family must exercise both outcomes.
  EXPECT_GT(accepted, 10);
  EXPECT_GT(rejected, 10);
}

TEST_F(TagOracleDifferentialTest, AnchoredAgreesWithOracle) {
  Rng rng(987);
  const int kTypeCount = 3;
  int checked = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const int n = static_cast<int>(rng.Uniform(2, 3));
    EventStructure s = RandomStructure(rng, n);
    auto built = BuildTagForStructure(s);
    ASSERT_TRUE(built.ok());
    TagMatcher matcher(&built->tag);
    std::vector<EventTypeId> phi;
    for (int v = 0; v < n; ++v) {
      phi.push_back(static_cast<EventTypeId>(rng.Uniform(0, kTypeCount - 1)));
    }
    SymbolMap symbols = SymbolMap::FromAssignment(phi, kTypeCount);
    EventSequence seq;
    TimePoint t = 0;
    for (int i = 0; i < 10; ++i) {
      t += rng.Uniform(0, 3);
      seq.Add(static_cast<EventTypeId>(rng.Uniform(0, kTypeCount - 1)), t);
    }
    VariableId root = *s.FindRoot();
    for (std::size_t at : seq.OccurrencesOf(phi[root])) {
      MatchOptions anchored;
      anchored.anchored = true;
      OracleOptions oracle_options;
      oracle_options.anchored_root_index = 0;  // relative to the suffix
      bool oracle_says =
          OccursBruteForce(s, phi, seq.SuffixFrom(at), oracle_options);
      ASSERT_EQ(matcher.Run(seq.SuffixFrom(at), symbols, anchored),
                oracle_says ? MatchOutcome::kAccepted
                            : MatchOutcome::kRejected)
          << s.ToString() << " at=" << at;
      ++checked;
    }
  }
  EXPECT_GT(checked, 50);
}

// --- Oracle unit behaviour ---------------------------------------------------

TEST(OracleTest, InjectivityIsEnforced) {
  auto system = GranularitySystem::GregorianDays();
  const Granularity* day = system->Find("day");
  // Two variables of the same type both within day distance 0 of the root:
  // needs two distinct events.
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  VariableId x2 = s.AddVariable("X2");
  ASSERT_TRUE(s.AddConstraint(x0, x1, Tcg::Same(day)).ok());
  ASSERT_TRUE(s.AddConstraint(x0, x2, Tcg::Same(day)).ok());
  // In the day-grained calendar one instant = one day, so "same day" means
  // equal timestamps — which distinct events may share.
  std::vector<EventTypeId> phi = {0, 1, 1};
  EventSequence one;
  one.Add(0, 10);
  one.Add(1, 10);
  EXPECT_FALSE(OccursBruteForce(s, phi, one.View()));  // θ must be injective
  one.Add(1, 10);
  EXPECT_TRUE(OccursBruteForce(s, phi, one.View()));
}

}  // namespace
}  // namespace granmine
