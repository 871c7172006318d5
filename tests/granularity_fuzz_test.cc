// Property/fuzz tests over randomly generated periodic granularities and
// their compositions: the §2 axioms, table exactness against brute force,
// and the ⌈z⌉/support operators against their set-theoretic definitions.
// The filter oracles pin the compiled filters' tick indexing and the
// merge-walk SupportCovers against linear and per-instant enumeration,
// including holiday-style removed ticks and far ticks.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "granmine/common/math.h"
#include "granmine/common/random.h"
#include "granmine/granularity/convert.h"
#include "granmine/granularity/system.h"
#include "granmine/granularity/tables.h"

namespace granmine {
namespace {

// A random synthetic granularity: period in [4, 20], 1-3 disjoint tick
// intervals, random origin in [0, 3].
const Granularity* RandomSynthetic(GranularitySystem& system, Rng& rng,
                                   int index) {
  std::int64_t period = rng.Uniform(4, 20);
  int pieces = static_cast<int>(rng.Uniform(1, 3));
  std::vector<TimeSpan> ticks;
  TimePoint at = rng.Uniform(0, 1);
  for (int i = 0; i < pieces && at < period; ++i) {
    TimePoint end = std::min<TimePoint>(period - 1, at + rng.Uniform(0, 4));
    ticks.push_back(TimeSpan::Of(at, end));
    at = end + 2 + rng.Uniform(0, 2);
  }
  return system.AddSynthetic("fuzz" + std::to_string(index), period, ticks,
                             rng.Uniform(0, 3));
}

class GranularityFuzzTest : public testing::Test {
 protected:
  GranularityFuzzTest() : rng_(20260705) {
    for (int i = 0; i < 12; ++i) {
      types_.push_back(RandomSynthetic(system_, rng_, i));
    }
    // A few structured compositions on top.
    types_.push_back(system_.AddGroup("fuzz-group", types_[0], 3));
    types_.push_back(system_.AddUniform("fuzz-unit", 1));
    types_.push_back(system_.AddUniform("fuzz-five", 5, /*offset=*/-2));
  }
  GranularitySystem system_;
  Rng rng_;
  std::vector<const Granularity*> types_;
};

TEST_F(GranularityFuzzTest, Section2Axioms) {
  // Monotonicity (axiom 1) and non-emptiness of every tick, over a prefix.
  for (const Granularity* g : types_) {
    std::optional<TimeSpan> prev = g->TickHull(1);
    ASSERT_TRUE(prev.has_value()) << g->name();
    for (Tick z = 2; z <= 120; ++z) {
      std::optional<TimeSpan> hull = g->TickHull(z);
      ASSERT_TRUE(hull.has_value()) << g->name();
      EXPECT_GT(hull->first, prev->last) << g->name() << " tick " << z;
      EXPECT_LE(hull->first, hull->last) << g->name();
      prev = hull;
    }
  }
}

TEST_F(GranularityFuzzTest, TickContainingAgreesWithExtent) {
  for (const Granularity* g : types_) {
    // Enumerate instants across several periods; cross-check membership.
    std::vector<TimeSpan> extent;
    for (TimePoint t = -5; t < 100; ++t) {
      std::optional<Tick> z = g->TickContaining(t);
      if (z.has_value()) {
        ASSERT_GE(*z, 1) << g->name();
        extent.clear();
        g->TickExtent(*z, &extent);
        bool inside = false;
        for (const TimeSpan& piece : extent) inside |= piece.Contains(t);
        EXPECT_TRUE(inside) << g->name() << " t=" << t << " z=" << *z;
      }
    }
  }
}

TEST_F(GranularityFuzzTest, PeriodicityContract) {
  for (const Granularity* g : types_) {
    const Granularity::Periodicity p = g->periodicity();
    Tick base = g->LastDeviantTick() + 1;
    for (Tick z = base; z < base + 2 * p.ticks_per_period + 3; ++z) {
      std::optional<TimeSpan> a = g->TickHull(z);
      std::optional<TimeSpan> b = g->TickHull(z + p.ticks_per_period);
      ASSERT_TRUE(a.has_value() && b.has_value());
      EXPECT_EQ(b->first - a->first, p.period) << g->name() << " z=" << z;
      EXPECT_EQ(b->last - a->last, p.period) << g->name();
    }
  }
}

// Compares the tables of g with brute force over start positions
// 1..starts, which must cover g's deviant window and several periods.
void ExpectTablesMatchBruteForce(GranularityTables& tables,
                                 const Granularity& g, Tick starts) {
  for (std::int64_t k : {1, 2, 3, 5, 9}) {
    std::int64_t min_size = kInfinity, max_size = 0, min_gap = kInfinity;
    for (Tick i = 1; i <= starts; ++i) {
      TimeSpan lo = *g.TickHull(i);
      TimeSpan hi = *g.TickHull(i + k - 1);
      min_size = std::min(min_size, hi.last - lo.first + 1);
      max_size = std::max(max_size, hi.last - lo.first + 1);
      min_gap = std::min(min_gap, g.TickHull(i + k)->first - lo.last);
    }
    EXPECT_EQ(tables.MinSize(g, k), min_size) << g.name() << " k=" << k;
    EXPECT_EQ(tables.MaxSize(g, k), max_size) << g.name() << " k=" << k;
    EXPECT_EQ(tables.MinGap(g, k), min_gap) << g.name() << " k=" << k;
  }
}

TEST_F(GranularityFuzzTest, TablesMatchBruteForce) {
  // 120 start positions cover more than 3 periods of every fuzz type.
  for (const Granularity* g : types_) {
    ExpectTablesMatchBruteForce(system_.tables(), *g, 120);
  }
  // A filter over an eventually periodic base: its deviant window must
  // cover the base's holidays, or the sealed scan misses the 6-day span of
  // two alternate business days across Christmas 1970.
  auto days = GranularitySystem::GregorianDays(
      {CivilDate{1970, 12, 25}, CivilDate{1971, 12, 24}});
  const Granularity* alternate = days->AddFilter(
      "alternate-b-day", days->Find("b-day"), PeriodicPattern{2, {0}});
  ASSERT_NE(alternate, nullptr) << days->last_add_error();
  const Granularity& b_day = *days->Find("b-day");
  for (Tick z = 1; z <= 1000; ++z) {
    ASSERT_EQ(alternate->TickHull(z), b_day.TickHull(2 * z - 1)) << z;
  }
  ASSERT_TRUE(days->Freeze().ok());
  ExpectTablesMatchBruteForce(days->tables(), *alternate, 2000);
}

TEST_F(GranularityFuzzTest, InverseTableQueriesAreConsistent) {
  GranularityTables& tables = system_.tables();
  Rng rng(9);
  for (const Granularity* g : types_) {
    for (int trial = 0; trial < 10; ++trial) {
      std::int64_t x = rng.Uniform(1, 60);
      auto s = tables.LeastTicksCovering(*g, x);
      ASSERT_TRUE(s.has_value()) << g->name();
      EXPECT_GE(*tables.MinSize(*g, *s), x) << g->name();
      if (*s > 1) {
        EXPECT_LT(*tables.MinSize(*g, *s - 1), x) << g->name();
      }
      auto r = tables.LeastTicksExceeding(*g, x);
      ASSERT_TRUE(r.has_value());
      EXPECT_GT(*tables.MaxSize(*g, *r), x) << g->name();
      if (*r > 0) {
        EXPECT_LE(*tables.MaxSize(*g, *r - 1), x) << g->name();
      }
      auto q = tables.LeastTicksWithGapExceeding(*g, x);
      ASSERT_TRUE(q.has_value());
      EXPECT_GT(*tables.MinGap(*g, *q), x) << g->name();
      if (*q > 1) {
        EXPECT_LE(*tables.MinGap(*g, *q - 1), x) << g->name();
      }
    }
  }
}

TEST_F(GranularityFuzzTest, MinGapDominatesMinSizeMinusOne) {
  // The inequality mingap(d) >= minsize(d-1) + 1 that justifies the paper's
  // conversion rule (see DESIGN.md).
  GranularityTables& tables = system_.tables();
  for (const Granularity* g : types_) {
    for (std::int64_t d : {2, 3, 4, 7, 11}) {
      auto gap = tables.MinGap(*g, d);
      auto size = tables.MinSize(*g, d - 1);
      ASSERT_TRUE(gap.has_value() && size.has_value());
      EXPECT_GE(*gap, *size + 1) << g->name() << " d=" << d;
    }
  }
}

TEST_F(GranularityFuzzTest, CoveringTickMatchesDefinition) {
  // ⌈z⌉^μ_ν = z' iff extent_ν(z) ⊆ extent_μ(z'), checked by instant
  // enumeration across the joint prefix.
  for (const Granularity* mu : types_) {
    for (const Granularity* nu : types_) {
      if (mu == nu) continue;
      for (Tick z = 1; z <= 12; ++z) {
        std::optional<Tick> covering = CoveringTick(*mu, *nu, z);
        // Reference computation.
        std::vector<TimeSpan> nu_extent;
        nu->TickExtent(z, &nu_extent);
        ASSERT_FALSE(nu_extent.empty());
        std::optional<Tick> expected;
        bool uniform = true;
        for (const TimeSpan& piece : nu_extent) {
          for (TimePoint t = piece.first; t <= piece.last; ++t) {
            std::optional<Tick> zt = mu->TickContaining(t);
            if (!zt.has_value()) {
              uniform = false;
              break;
            }
            if (!expected.has_value()) expected = zt;
            if (*expected != *zt) uniform = false;
            if (!uniform) break;
          }
          if (!uniform) break;
        }
        std::optional<Tick> reference =
            uniform && expected.has_value() ? expected : std::nullopt;
        EXPECT_EQ(covering, reference)
            << mu->name() << " of " << nu->name() << " tick " << z;
      }
    }
  }
}

TEST_F(GranularityFuzzTest, SupportCoversMatchesEnumeration) {
  for (const Granularity* target : types_) {
    for (const Granularity* source : types_) {
      if (target == source) continue;
      bool fast = SupportCovers(*target, *source);
      // Reference: every covered instant of the source in a long prefix is
      // covered by the target. (SupportCovers may be conservatively false,
      // but for these small periodic types its scan is exhaustive, so we
      // demand exact agreement on a bounded horizon.)
      bool reference = true;
      for (TimePoint t = 0; t <= 400 && reference; ++t) {
        if (source->InSupport(t) && !target->InSupport(t)) reference = false;
      }
      EXPECT_EQ(fast, reference)
          << "target=" << target->name() << " source=" << source->name();
    }
  }
}

bool PatternKeeps(const PeriodicPattern& pattern, Tick b) {
  return std::binary_search(
      pattern.kept.begin(), pattern.kept.end(),
      FloorMod(b - 1 + pattern.anchor, pattern.base_period));
}

// A random filter pattern: period in [1, max_period] ([2, max_period] when
// `gapped`), a random non-empty kept subset, a random anchor. With `gapped`
// the pattern drops at least one offset, so the filter's support really
// has gaps (a filter keeping every offset tiles the line, and
// SupportCovers' full-support shortcut would then answer conservatively).
PeriodicPattern RandomPattern(Rng& rng, std::int64_t max_period,
                              bool gapped) {
  PeriodicPattern pattern;
  pattern.base_period = rng.Uniform(gapped ? 2 : 1, max_period);
  const std::int64_t dropped = rng.Uniform(0, pattern.base_period - 1);
  for (std::int64_t o = 0; o < pattern.base_period; ++o) {
    if (gapped && o == dropped) continue;
    if (rng.Bernoulli(0.5)) pattern.kept.push_back(o);
  }
  if (pattern.kept.empty()) {
    pattern.kept.push_back((dropped + 1) % pattern.base_period);
  }
  pattern.anchor = rng.Uniform(0, pattern.base_period - 1);
  return pattern;
}

// Removes roughly a third of the pattern-kept base ticks in
// [from, from + span) — a holiday cluster.
void RemoveCluster(const PeriodicPattern& pattern, Tick from, Tick span,
                   Rng& rng, std::vector<Tick>* removed) {
  for (Tick b = from; b < from + span; ++b) {
    if (PatternKeeps(pattern, b) && rng.Bernoulli(0.3)) removed->push_back(b);
  }
}

// The pattern-kept base ticks in [1, b]: whole pattern cycles, then a
// linear count of the rest.
std::int64_t PatternKeptUpTo(const PeriodicPattern& pattern, Tick b) {
  const std::int64_t cycles = b / pattern.base_period;
  std::int64_t count =
      cycles * static_cast<std::int64_t>(pattern.kept.size());
  for (Tick x = cycles * pattern.base_period + 1; x <= b; ++x) {
    count += PatternKeeps(pattern, x) ? 1 : 0;
  }
  return count;
}

// Checks the filter's ticks over the kept base ticks of [from, to],
// numbered from `z` (the tick of the first one): each tick's hull is its
// base tick's, and the base tick's first instant maps back to it.
void ExpectTicksMatchEnumeration(const Granularity& filter,
                                 const Granularity& base,
                                 const PeriodicPattern& pattern,
                                 const std::vector<Tick>& removed, Tick from,
                                 Tick to, Tick z) {
  for (Tick b = from; b <= to; ++b) {
    if (!PatternKeeps(pattern, b) ||
        std::binary_search(removed.begin(), removed.end(), b)) {
      continue;
    }
    ASSERT_EQ(filter.TickHull(z), base.TickHull(b))
        << filter.name() << " z=" << z << " b=" << b;
    ASSERT_EQ(filter.TickContaining(base.TickHull(b)->first), z)
        << filter.name() << " b=" << b;
    ++z;
  }
}

TEST(FilterOracleTest, TicksMatchLinearEnumeration) {
  Rng rng(20261017);
  for (int trial = 0; trial < 300; ++trial) {
    GranularitySystem system;
    const Granularity* base =
        system.AddUniform("base", rng.Uniform(1, 3), rng.Uniform(-5, 5));
    PeriodicPattern pattern = RandomPattern(rng, 9, /*gapped=*/false);
    // Holiday clusters at the start and around a far base tick.
    const Tick far = rng.Uniform(Tick{1} << 30, Tick{1} << 40);
    std::vector<Tick> removed;
    RemoveCluster(pattern, 1, 60, rng, &removed);
    RemoveCluster(pattern, far - 30, 60, rng, &removed);
    const Granularity* filter = system.AddFilter(
        "filter" + std::to_string(trial), base, pattern, removed);
    ASSERT_NE(filter, nullptr) << system.last_add_error();

    ExpectTicksMatchEnumeration(*filter, *base, pattern, removed, 1, 400, 1);
    const Tick window = far - 100;
    const std::int64_t removed_before =
        std::lower_bound(removed.begin(), removed.end(), window) -
        removed.begin();
    ExpectTicksMatchEnumeration(
        *filter, *base, pattern, removed, window, far + 100,
        PatternKeptUpTo(pattern, window - 1) - removed_before + 1);
    ASSERT_FALSE(testing::Test::HasFatalFailure()) << "trial " << trial;
  }
}

// Per-instant reference for SupportCovers: once both types are past their
// exception windows their supports repeat with the joint period, so one
// window of [0, exception end + 2 joint periods] decides coverage exactly.
bool CoversByEnumeration(const Granularity& target,
                         const Granularity& source) {
  TimePoint exception_end = 0;
  for (const Granularity* g : {&target, &source}) {
    if (!g->IsStrictlyPeriodic()) {
      exception_end = std::max(
          exception_end, g->TickHull(g->LastDeviantTick() + 1)->last);
    }
  }
  const TimePoint horizon =
      exception_end + 2 * std::lcm(target.periodicity().period,
                                   source.periodicity().period);
  for (TimePoint t = 0; t <= horizon; ++t) {
    if (source.InSupport(t) && !target.InSupport(t)) return false;
  }
  return true;
}

// One random family: a uniform base, gapped filters over it (half with
// holidays), groups of the strictly periodic ones, and group-bys of every
// filter by a coarser uniform type. Returns how many group-bys were valid.
int AddRandomComposition(GranularitySystem& system, Rng& rng,
                         std::vector<const Granularity*>* types) {
  const Granularity* base = system.AddUniform("base", 2);
  types->push_back(base);
  int groupbys = 0;
  for (int i = 0; i < 6; ++i) {
    const std::string name = "filter" + std::to_string(i);
    PeriodicPattern pattern = RandomPattern(rng, 6, /*gapped=*/true);
    const std::int64_t period = pattern.base_period;
    std::vector<Tick> removed;
    if (i % 2 == 1) RemoveCluster(pattern, 1, 30, rng, &removed);
    const Granularity* filter =
        system.AddFilter(name, base, std::move(pattern), removed);
    EXPECT_NE(filter, nullptr) << system.last_add_error();
    if (filter == nullptr) return groupbys;
    types->push_back(filter);
    if (removed.empty()) {
      types->push_back(
          system.AddGroup(name + "-group", filter, rng.Uniform(2, 3)));
    }
    // Outer ticks span whole pattern cycles, so each holds a kept tick
    // unless holidays empty it — then AddGroupBy must refuse cleanly.
    const Granularity* outer = system.AddUniform(
        name + "-outer", 2 * period * rng.Uniform(1, 2));
    types->push_back(outer);
    const Granularity* grouped =
        system.AddGroupBy(name + "-groupby", filter, outer);
    if (grouped == nullptr) {
      EXPECT_EQ(system.last_add_error().code(), StatusCode::kInvalidArgument);
      continue;
    }
    types->push_back(grouped);
    ++groupbys;
  }
  return groupbys;
}

TEST(FilterOracleTest, SupportCoversMatchesEnumerationOverCompositions) {
  int groupbys = 0, pairs = 0, covered = 0, gapped_pairs = 0;
  for (int family = 0; family < 12; ++family) {
    Rng rng(7170 + family);
    GranularitySystem system;
    std::vector<const Granularity*> types;
    groupbys += AddRandomComposition(system, rng, &types);
    for (const Granularity* target : types) {
      for (const Granularity* source : types) {
        const bool fast = SupportCovers(*target, *source);
        EXPECT_EQ(fast, CoversByEnumeration(*target, *source))
            << "family " << family << " target=" << target->name()
            << " source=" << source->name();
        ++pairs;
        covered += fast ? 1 : 0;
        gapped_pairs +=
            !target->HasFullSupport() && !source->HasFullSupport() ? 1 : 0;
      }
    }
  }
  // Both answers occur, and a good share of pairs take the merge walk.
  EXPECT_GE(groupbys, 40);
  EXPECT_GT(covered, pairs / 5);
  EXPECT_LT(covered, pairs - pairs / 5);
  EXPECT_GT(gapped_pairs, pairs / 4);
}

// Every compiled type of the random families, plus a grouping of each
// holiday filter (whose deviant window it must inherit), maps the instants
// of each tick's extent to that tick and every instant it maps to a tick
// into that tick's extent.
TEST(FilterOracleTest, TickContainingAgreesWithExtentOverCompositions) {
  constexpr TimePoint kHorizon = 400;
  for (int family = 0; family < 12; ++family) {
    Rng rng(7170 + family);
    GranularitySystem system;
    std::vector<const Granularity*> types;
    AddRandomComposition(system, rng, &types);
    for (std::size_t i = 0, n = types.size(); i < n; ++i) {
      if (types[i]->IsStrictlyPeriodic()) continue;
      const Granularity* grouped =
          system.AddGroup(types[i]->name() + "-pairs", types[i], 2);
      ASSERT_NE(grouped, nullptr) << system.last_add_error();
      types.push_back(grouped);
    }
    for (const Granularity* g : types) {
      std::vector<TimeSpan> extent;
      for (Tick z = 1; g->TickHull(z)->first <= kHorizon; ++z) {
        extent.clear();
        g->TickExtent(z, &extent);
        ASSERT_FALSE(extent.empty()) << g->name();
        EXPECT_EQ(extent.front().first, g->TickHull(z)->first) << g->name();
        EXPECT_EQ(extent.back().last, g->TickHull(z)->last) << g->name();
        for (const TimeSpan& piece : extent) {
          for (TimePoint t = piece.first; t <= piece.last; ++t) {
            ASSERT_EQ(g->TickContaining(t), z) << g->name() << " t=" << t;
          }
        }
      }
      for (TimePoint t = -3; t <= kHorizon; ++t) {
        const std::optional<Tick> z = g->TickContaining(t);
        if (!z.has_value()) continue;
        extent.clear();
        g->TickExtent(*z, &extent);
        EXPECT_TRUE(std::any_of(
            extent.begin(), extent.end(),
            [t](const TimeSpan& piece) { return piece.Contains(t); }))
            << g->name() << " t=" << t << " z=" << *z;
      }
    }
  }
}

}  // namespace
}  // namespace granmine
