// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
//  * conversion soundness per (source, target) granularity pair and rule,
//  * Appendix-A.1 table laws per granularity,
//  * TAG-vs-oracle differential per PRNG seed,
//  * WINEPI window counting per window width.

#include <gtest/gtest.h>

#include "granmine/baseline/winepi.h"
#include "granmine/common/math.h"
#include "granmine/common/random.h"
#include "granmine/constraint/convert_constraint.h"
#include "granmine/granularity/system.h"
#include "granmine/tag/builder.h"
#include "granmine/tag/matcher.h"
#include "granmine/tag/oracle.h"

namespace granmine {
namespace {

GranularitySystem& DaysSystem() {
  static GranularitySystem* system =
      GranularitySystem::GregorianDays().release();
  return *system;
}

// ---------------------------------------------------------------------------
// Conversion soundness across every feasible ordered granularity pair.

struct ConversionCase {
  const char* source;
  const char* target;
  ConversionRule rule;
};

class ConversionSoundnessSweep
    : public testing::TestWithParam<ConversionCase> {};

TEST_P(ConversionSoundnessSweep, SatisfyingPairsStaySatisfying) {
  const ConversionCase& param = GetParam();
  const Granularity& source = *DaysSystem().Find(param.source);
  const Granularity& target = *DaysSystem().Find(param.target);
  if (!SupportCovers(target, source)) {
    GTEST_SKIP() << "conversion infeasible for this pair";
  }
  Rng rng(static_cast<std::uint64_t>(
      std::hash<std::string>()(std::string(param.source) + param.target)));
  int checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::int64_t m = rng.Uniform(0, 6);
    std::int64_t n = m + rng.Uniform(0, 6);
    Bounds converted = ConvertBounds(DaysSystem().tables(), source, target,
                                     Bounds::Of(m, n), param.rule);
    Tcg source_tcg = Tcg::Of(m, n, &source);
    Tcg target_tcg = Tcg::Of(converted.lo, converted.hi, &target);
    for (int s = 0; s < 15; ++s) {
      TimePoint t1 = rng.Uniform(0, 1500);
      std::optional<Tick> z1 = source.TickContaining(t1);
      if (!z1.has_value()) continue;
      std::optional<TimeSpan> hull = source.TickHull(*z1 + rng.Uniform(m, n));
      ASSERT_TRUE(hull.has_value());
      TimePoint t2 = rng.Uniform(hull->first, hull->last);
      if (!Satisfies(source_tcg, t1, t2)) continue;
      ++checked;
      EXPECT_TRUE(Satisfies(target_tcg, t1, t2))
          << source_tcg.ToString() << " -> " << target_tcg.ToString()
          << " at (" << t1 << ", " << t2 << ")";
    }
  }
  EXPECT_GT(checked, 50);
}

std::vector<ConversionCase> AllConversionCases() {
  static const char* kNames[] = {"day",   "week",   "month",  "year",
                                 "b-day", "b-week", "b-month"};
  std::vector<ConversionCase> cases;
  for (const char* source : kNames) {
    for (const char* target : kNames) {
      if (std::string_view(source) == target) continue;
      cases.push_back({source, target, ConversionRule::kPaper});
      cases.push_back({source, target, ConversionRule::kTight});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, ConversionSoundnessSweep,
    testing::ValuesIn(AllConversionCases()),
    [](const testing::TestParamInfo<ConversionCase>& info) {
      std::string name = std::string(info.param.source) + "_to_" +
                         info.param.target + "_" +
                         (info.param.rule == ConversionRule::kPaper ? "paper"
                                                                    : "tight");
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Table laws per granularity.

class TableLawSweep : public testing::TestWithParam<const char*> {};

TEST_P(TableLawSweep, MonotoneSuperadditiveAndGapLaw) {
  const Granularity& g = *DaysSystem().Find(GetParam());
  GranularityTables& tables = DaysSystem().tables();
  for (std::int64_t k = 1; k <= 16; ++k) {
    auto min_k = tables.MinSize(g, k);
    auto max_k = tables.MaxSize(g, k);
    auto min_k1 = tables.MinSize(g, k + 1);
    auto max_k1 = tables.MaxSize(g, k + 1);
    auto gap_k = tables.MinGap(g, k);
    ASSERT_TRUE(min_k && max_k && min_k1 && max_k1 && gap_k);
    EXPECT_LE(*min_k, *max_k);
    EXPECT_LT(*min_k, *min_k1);                     // strictly increasing
    EXPECT_LT(*max_k, *max_k1);
    EXPECT_GE(*gap_k, k > 1 ? *tables.MinSize(g, k - 1) + 1 : 1);
    // Superadditivity of minsize for a split of k+1.
    for (std::int64_t a = 1; a <= k; ++a) {
      EXPECT_GE(*min_k1, *tables.MinSize(g, a) + *tables.MinSize(g, k + 1 - a))
          << g.name() << " split " << a << "+" << (k + 1 - a);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Gregorian, TableLawSweep,
                         testing::Values("day", "week", "month", "year",
                                         "b-day", "b-week", "b-month",
                                         "weekend-day"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// TAG-vs-oracle differential, one batch per seed.

class DifferentialSeedSweep : public testing::TestWithParam<int> {};

TEST_P(DifferentialSeedSweep, TagAgreesWithOracle) {
  GranularitySystem toy;
  const Granularity* types[] = {
      toy.AddUniform("unit", 1), toy.AddUniform("three", 3),
      toy.AddSynthetic("gapped", 4, {TimeSpan::Of(0, 2)})};
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int kTypeCount = 3;
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.Uniform(2, 4));
    EventStructure s;
    for (int v = 0; v < n; ++v) s.AddVariable("X" + std::to_string(v));
    for (int v = 1; v < n; ++v) {
      std::int64_t lo = rng.Uniform(0, 2);
      ASSERT_TRUE(s.AddConstraint(static_cast<int>(rng.Uniform(0, v - 1)), v,
                                  Tcg::Of(lo, lo + rng.Uniform(0, 2),
                                          types[rng.Index(3)]))
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
    TimePoint t = 0;
    std::size_t length = static_cast<std::size_t>(rng.Uniform(4, 14));
    for (std::size_t i = 0; i < length; ++i) {
      t += rng.Uniform(0, 3);
      seq.Add(static_cast<EventTypeId>(rng.Uniform(0, kTypeCount - 1)), t);
    }
    ASSERT_EQ(matcher.Run(seq.View(), symbols),
              OccursBruteForce(s, phi, seq.View()) ? MatchOutcome::kAccepted
                                                   : MatchOutcome::kRejected)
        << s.ToString() << " seed " << GetParam() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSeedSweep, testing::Range(0, 12));

// ---------------------------------------------------------------------------
// WINEPI window counting per window width.

class WinepiWidthSweep : public testing::TestWithParam<std::int64_t> {};

TEST_P(WinepiWidthSweep, FastCountMatchesDirectScan) {
  const std::int64_t width = GetParam();
  Rng rng(static_cast<std::uint64_t>(width) * 31 + 5);
  EventSequence seq;
  TimePoint t = 0;
  for (int i = 0; i < 30; ++i) {
    t += rng.Uniform(0, 5);
    seq.Add(static_cast<EventTypeId>(rng.Uniform(0, 3)), t);
  }
  for (Episode::Kind kind :
       {Episode::Kind::kSerial, Episode::Kind::kParallel}) {
    for (int size = 1; size <= 3; ++size) {
      Episode episode;
      episode.kind = kind;
      for (int i = 0; i < size; ++i) {
        episode.types.push_back(
            static_cast<EventTypeId>(rng.Uniform(0, 3)));
      }
      if (kind == Episode::Kind::kParallel) {
        std::sort(episode.types.begin(), episode.types.end());
      }
      WindowCount fast = CountWindows(episode, seq, width);
      std::int64_t slow = 0;
      TimePoint first = seq.events().front().time;
      TimePoint last = seq.events().back().time;
      for (TimePoint w = first - width + 1; w <= last; ++w) {
        if (OccursInWindow(episode, seq, w, width)) ++slow;
      }
      EXPECT_EQ(fast.contained, slow)
          << episode.ToString() << " width=" << width;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, WinepiWidthSweep,
                         testing::Values<std::int64_t>(1, 2, 3, 5, 8, 13, 21,
                                                       40));

}  // namespace
}  // namespace granmine
