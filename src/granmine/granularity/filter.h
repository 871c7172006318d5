#ifndef GRANMINE_GRANULARITY_FILTER_H_
#define GRANMINE_GRANULARITY_FILTER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "granmine/common/result.h"
#include "granmine/granularity/granularity.h"

namespace granmine {

/// A periodic selection of base-tick offsets: base tick b is kept iff
/// (b - 1 + anchor) mod base_period is in `kept`. For `b-day` over `day`
/// with day 1 = 1970-01-01 (a Thursday) and Monday = offset 0 the pattern is
/// {base_period = 7, kept = {0,1,2,3,4}, anchor = 3}.
struct PeriodicPattern {
  std::int64_t base_period = 1;
  std::vector<std::int64_t> kept;  ///< sorted, distinct, in [0, base_period)
  std::int64_t anchor = 0;         ///< in [0, base_period)
};

/// A granularity that keeps a periodic subset of another granularity's ticks
/// and renumbers them consecutively — `b-day`, `weekend-day`, and the like.
/// An optional finite list of `removed` base ticks ("holidays") is subtracted
/// on top of the pattern, which makes the type eventually periodic rather
/// than strictly periodic.
///
/// Tick arithmetic is closed form: the n-th pattern-kept base tick is
/// indexed as whole cycles plus one `kept` offset, and the z-th surviving
/// tick is the (z + m)-th pattern tick for the fixpoint m of "removed ticks
/// at or below it" — O(1) per hull without removals, O(log |removed|) per
/// fixpoint round with them.
class FilterGranularity final : public Granularity {
 public:
  /// `base` must outlive the result. Invalid when `pattern` is malformed
  /// (empty, unsorted or repeated `kept`, an offset or `anchor` outside
  /// [0, base_period)), a `removed` entry is not a base tick the pattern
  /// keeps, or the period is too large for the hull arithmetic (see
  /// HullsFit).
  static Result<std::unique_ptr<FilterGranularity>> Make(
      std::string name, const Granularity* base, PeriodicPattern pattern,
      std::vector<Tick> removed = {});

  std::optional<Tick> TickContaining(TimePoint t) const override;
  std::optional<TimeSpan> TickHull(Tick z) const override;
  Periodicity periodicity() const override;
  bool ticks_are_intervals() const override {
    return base_->ticks_are_intervals();
  }
  void TickExtent(Tick z, std::vector<TimeSpan>* out) const override;
  bool IsStrictlyPeriodic() const override { return removed_.empty(); }
  Tick LastDeviantTick() const override;

  const Granularity& base() const { return *base_; }

  /// Number of kept, non-removed base ticks in [1, base_tick].
  std::int64_t CountKept(Tick base_tick) const;
  /// The base tick of this granularity's tick z (z >= 1).
  Tick BaseTickOf(Tick z) const;
  /// Whether the pattern (ignoring removals) keeps this base tick.
  bool PatternKeeps(Tick base_tick) const;
  /// Whether base_tick is kept and not removed.
  bool Keeps(Tick base_tick) const;

 private:
  FilterGranularity(std::string name, const Granularity* base,
                    PeriodicPattern pattern, std::vector<Tick> removed);

  /// The n-th (n >= 1) base tick the pattern keeps, ignoring removals.
  Tick PatternTickOf(std::int64_t n) const;
  /// Whether periodicity() and the hulls of every tick the sealed tables
  /// read stay below kInfinity without int64 overflow.
  bool HullsFit() const;

  const Granularity* base_;
  PeriodicPattern pattern_;
  std::vector<Tick> removed_;  // sorted, distinct
  /// Pattern-kept offsets below `anchor`: the offsets of the cycle that
  /// precede base tick 1.
  std::int64_t kept_before_anchor_ = 0;
};

}  // namespace granmine

#endif  // GRANMINE_GRANULARITY_FILTER_H_
