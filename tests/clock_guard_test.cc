// Property suite for CompiledGuard (src/granmine/tag/clock_constraint.h),
// the form in which the TAG step kernel evaluates transition guards. Over
// random formulas — And/Or/Not over AtMost/AtLeast/Range atoms — and random
// valuations with undefined clocks:
//  - compiled IsSatisfied equals the Kleene tree walk's IsSatisfied;
//  - compiled ExpiredForever is sound: whenever it fires, no valuation
//    reachable by letting the clocks grow (an undefined clock may become
//    anything) satisfies the formula;
//  - on conjunctions it equals ClockConstraint::ExpiredForever exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "granmine/common/random.h"
#include "granmine/granularity/system.h"
#include "granmine/paper/figures.h"
#include "granmine/tag/builder.h"
#include "granmine/tag/clock_constraint.h"

namespace granmine {
namespace {

constexpr int kClocks = 3;
// Every bound lies in [kMinBound, kMaxBound]; values outside behave like the
// nearest value in [kMinBound - 1, kMaxBound + 1], so that range is an
// exhaustive stand-in for "any value".
constexpr std::int64_t kMinBound = -3;
constexpr std::int64_t kMaxBound = 9;

using Valuation = std::vector<std::optional<std::int64_t>>;

ClockConstraint RandomAtom(Rng& rng) {
  const int clock = static_cast<int>(rng.Uniform(0, kClocks - 1));
  const std::int64_t k = rng.Uniform(kMinBound, kMaxBound);
  switch (rng.Uniform(0, 3)) {
    case 0:
      return ClockConstraint::AtMost(clock, k);
    case 1:
      return ClockConstraint::AtLeast(clock, k);
    case 2:
      return ClockConstraint::Range(clock, k, k + rng.Uniform(-1, 3));
    default:
      return rng.Bernoulli(0.5) ? ClockConstraint::True()
                                : ClockConstraint::AtMost(clock, k);
  }
}

ClockConstraint RandomFormula(Rng& rng, int depth, bool conjunctive) {
  if (depth == 0 || rng.Bernoulli(0.3)) return RandomAtom(rng);
  const int kind = conjunctive ? 0 : static_cast<int>(rng.Uniform(0, 2));
  if (kind == 2) return ClockConstraint::Not(RandomFormula(rng, depth - 1, false));
  ClockConstraint a = RandomFormula(rng, depth - 1, conjunctive);
  ClockConstraint b = RandomFormula(rng, depth - 1, conjunctive);
  return kind == 0 ? ClockConstraint::And(std::move(a), std::move(b))
                   : ClockConstraint::Or(std::move(a), std::move(b));
}

Valuation RandomValuation(Rng& rng) {
  Valuation values(kClocks);
  for (auto& v : values) {
    if (!rng.Bernoulli(0.25)) v = rng.Uniform(kMinBound - 1, kMaxBound + 1);
  }
  return values;
}

std::vector<std::int64_t> Compiled(const Valuation& values) {
  std::vector<std::int64_t> out;
  for (const auto& v : values) {
    out.push_back(v.has_value() ? *v : CompiledGuard::kUndefined);
  }
  return out;
}

// Whether some valuation the clocks can still grow into satisfies `guard`:
// a defined clock keeps its value or grows; an undefined one may stay
// undefined or take any value.
bool SatisfiableLater(const ClockConstraint& guard, const Valuation& now) {
  Valuation later(kClocks);
  auto search = [&](auto&& self, int clock) -> bool {
    if (clock == kClocks) return guard.IsSatisfied(later);
    const std::optional<std::int64_t>& v = now[clock];
    if (!v.has_value()) {
      later[clock] = std::nullopt;
      if (self(self, clock + 1)) return true;
    }
    for (std::int64_t w = v.has_value() ? *v : kMinBound - 1;
         w <= kMaxBound + 1; ++w) {
      later[clock] = w;
      if (self(self, clock + 1)) return true;
    }
    return false;
  };
  return search(search, 0);
}

TEST(ClockGuardTest, CompiledSatisfactionEqualsKleeneEvaluation) {
  Rng rng(4242);
  for (int trial = 0; trial < 2000; ++trial) {
    const ClockConstraint guard = RandomFormula(rng, 4, /*conjunctive=*/false);
    const CompiledGuard compiled(guard);
    for (int sample = 0; sample < 20; ++sample) {
      const Valuation values = RandomValuation(rng);
      ASSERT_EQ(compiled.IsSatisfied(Compiled(values)),
                guard.IsSatisfied(values))
          << guard.ToString() << " trial " << trial;
    }
  }
}

TEST(ClockGuardTest, CompiledExpiryIsSound) {
  Rng rng(777);
  int expired = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const ClockConstraint guard = RandomFormula(rng, 3, /*conjunctive=*/false);
    const CompiledGuard compiled(guard);
    for (int sample = 0; sample < 8; ++sample) {
      const Valuation values = RandomValuation(rng);
      if (!compiled.ExpiredForever(Compiled(values))) continue;
      ++expired;
      ASSERT_FALSE(SatisfiableLater(guard, values))
          << guard.ToString() << " was declared expired but can still hold";
    }
  }
  EXPECT_GT(expired, 200);
}

TEST(ClockGuardTest, ConjunctionsCompileToOneBoxAndExpireLikeTheTreeWalk) {
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const ClockConstraint guard = RandomFormula(rng, 4, /*conjunctive=*/true);
    const CompiledGuard compiled(guard);
    ASSERT_EQ(compiled.box_count(), 1u) << guard.ToString();
    for (int sample = 0; sample < 20; ++sample) {
      const Valuation values = RandomValuation(rng);
      ASSERT_EQ(compiled.ExpiredForever(Compiled(values)),
                guard.ExpiredForever(values))
          << guard.ToString() << " trial " << trial;
    }
  }
}

TEST(ClockGuardTest, BuilderGuardsAreSingleBoxes) {
  auto system = GranularitySystem::Gregorian();
  Result<EventStructure> fig1a = BuildFigure1a(*system);
  ASSERT_TRUE(fig1a.ok());
  Result<TagBuildResult> built = BuildTagForStructure(*fig1a);
  ASSERT_TRUE(built.ok());
  for (const Tag::Transition& transition : built->tag.transitions()) {
    EXPECT_EQ(CompiledGuard(transition.guard).box_count(), 1u)
        << transition.guard.ToString();
  }
}

TEST(ClockGuardTest, NegatedExtremeBoundsSaturateToNeverTrue) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const ClockConstraint guards[] = {
      ClockConstraint::Not(ClockConstraint::AtMost(0, kMax)),
      ClockConstraint::Not(ClockConstraint::AtLeast(0, kMin)),
      ClockConstraint::Not(ClockConstraint::True()),
      ClockConstraint::Not(ClockConstraint::AtMost(0, kMin)),
      ClockConstraint::Not(ClockConstraint::AtLeast(0, kMax)),
      ClockConstraint::AtMost(0, kMin),
      ClockConstraint::AtLeast(0, kMax),
  };
  for (const ClockConstraint& guard : guards) {
    const CompiledGuard compiled(guard);
    for (std::optional<std::int64_t> v :
         {std::optional<std::int64_t>(), std::optional<std::int64_t>(-5),
          std::optional<std::int64_t>(0), std::optional<std::int64_t>(7)}) {
      const Valuation values = {v};
      EXPECT_EQ(compiled.IsSatisfied(Compiled(values)),
                guard.IsSatisfied(values))
          << guard.ToString();
    }
  }
}

}  // namespace
}  // namespace granmine
