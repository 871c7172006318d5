#ifndef GRANMINE_TAG_CLOCK_CONSTRAINT_H_
#define GRANMINE_TAG_CLOCK_CONSTRAINT_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace granmine {

/// A clock-constraint formula δ ∈ Φ(C) per §4: atoms `x ≤ k` / `k ≤ x` over
/// clock values, closed under boolean combination. Clock values may be
/// *undefined* (the current timestamp has no tick in the clock's
/// granularity); evaluation uses Kleene three-valued logic and a transition
/// is enabled only when the guard is definitely true — matching the TCG
/// requirement that both ticks be defined. The step kernel evaluates the
/// CompiledGuard form below; Evaluate and ExpiredForever here are the
/// reference semantics tests/clock_guard_test.cc checks it against.
class ClockConstraint {
 public:
  /// The trivially true guard.
  static ClockConstraint True();
  /// value(clock) <= k.
  static ClockConstraint AtMost(int clock, std::int64_t k);
  /// k <= value(clock).
  static ClockConstraint AtLeast(int clock, std::int64_t k);
  /// lo <= value(clock) <= hi (conjunction of the two atoms).
  static ClockConstraint Range(int clock, std::int64_t lo, std::int64_t hi);
  static ClockConstraint And(ClockConstraint a, ClockConstraint b);
  static ClockConstraint Or(ClockConstraint a, ClockConstraint b);
  static ClockConstraint Not(ClockConstraint a);

  /// Default-constructs the trivially true guard.
  ClockConstraint() = default;

  /// Three-valued evaluation: nullopt when the truth value depends on an
  /// undefined clock. `values[c]` is the value of clock c, nullopt when
  /// undefined.
  std::optional<bool> Evaluate(
      std::span<const std::optional<std::int64_t>> values) const;

  /// True iff Evaluate(...) == true.
  bool IsSatisfied(
      std::span<const std::optional<std::int64_t>> values) const {
    return Evaluate(values) == std::optional<bool>(true);
  }

  /// Indices of the clocks this formula mentions (sorted, distinct).
  std::vector<int> MentionedClocks() const;

  /// True when the formula can never again become true for this
  /// configuration: clock values only grow between resets, so an `x <= k`
  /// atom with a defined value already above k is dead forever, an `And`
  /// dies with any child and an `Or` with all children. Conservative
  /// (returns false for `Not` and undefined values).
  bool ExpiredForever(
      std::span<const std::optional<std::int64_t>> values) const;

  /// Rendering like "(x0 <= 5 && 1 <= x2)" using clock index names.
  std::string ToString() const;

  bool IsTriviallyTrue() const;

 private:
  friend class CompiledGuard;

  enum class Kind { kTrue, kAtMost, kAtLeast, kAnd, kOr, kNot };

  Kind kind_ = Kind::kTrue;
  int clock_ = -1;
  std::int64_t bound_ = 0;
  std::vector<ClockConstraint> children_;
};

/// A ClockConstraint compiled for the TAG step kernel's hot loop: a
/// disjunction of *boxes*, each a conjunction of per-clock `[lo, hi]` bounds.
/// Builder guards are conjunctions of `Range` atoms and compile to one box;
/// `Or`/`Not` formulas go through negation normal form (`!(x <= k)` is
/// `k+1 <= x`) and distribute into several boxes. Kleene three-valued logic
/// satisfies De Morgan's laws and distributivity, so a guard is definitely
/// true exactly when some box has every bound definitely true — the same
/// answer as `ClockConstraint::IsSatisfied`, with no formula tree to walk.
///
/// Valuations are plain int64 rows with `kUndefined` marking an undefined
/// clock. Every bound's `lo` is above `kUndefined`, so `lo <= v && v <= hi`
/// alone rejects an undefined value.
class CompiledGuard {
 public:
  /// Value of an undefined clock in a compiled valuation.
  static constexpr std::int64_t kUndefined =
      std::numeric_limits<std::int64_t>::min();

  explicit CompiledGuard(const ClockConstraint& guard);

  /// Equals `ClockConstraint::IsSatisfied` on the same valuation.
  bool IsSatisfied(std::span<const std::int64_t> values) const;

  /// True when no box can become satisfied again: clock values only grow
  /// until a reset, so a box with a defined value above one of its `hi`
  /// bounds is dead. Sound for every formula; equal to
  /// `ClockConstraint::ExpiredForever` on conjunctions (and sharper on
  /// negations, where the tree walk gives up).
  bool ExpiredForever(std::span<const std::int64_t> values) const;

  /// Number of boxes in the disjunction (0 = the guard is never true).
  std::size_t box_count() const { return box_end_.size(); }

 private:
  struct Bound {
    int clock;
    std::int64_t lo;
    std::int64_t hi;
  };
  /// A conjunction of bounds sorted by clock, one bound per clock.
  using Box = std::vector<Bound>;

  static std::vector<Box> Disjunction(const ClockConstraint& formula,
                                      bool negated);

  /// Every box's bounds back to back; box i ends at box_end_[i].
  std::vector<Bound> bounds_;
  std::vector<std::uint32_t> box_end_;
};

}  // namespace granmine

#endif  // GRANMINE_TAG_CLOCK_CONSTRAINT_H_
