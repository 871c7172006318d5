#ifndef GRANMINE_GRANULARITY_PERIODIC_H_
#define GRANMINE_GRANULARITY_PERIODIC_H_

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

/// Every derived temporal type, compiled at registration into one
/// eventually periodic sequence of hulls over a *source* type (§2 defines a
/// type by its ticks alone; Bettini, Mascetti & Wang map each such calendar
/// expression to one periodic set):
///
///  * `Filter` — the base ticks a periodic pattern keeps, renumbered
///    consecutively, minus a sparse list of removed ticks (holidays):
///    `b-day`, `weekend-day`;
///  * `Group` — k consecutive base ticks per tick after `phase` skipped ones:
///    `quarter`, a fiscal year `Group(month, 12, 3)`;
///  * `GroupBy` — the inner ticks inside each outer tick: `b-week`,
///    `b-month`; an inner tick crossing an outer boundary is refused, inner
///    ticks in the gaps between outer ticks belong to no tick;
///  * `Synthetic` — explicit intervals repeating every `period` instants on
///    the primitive time line (no source type).
///
/// The compile materializes the hulls of the *raw* ticks 1..D — the deviant
/// window, which covers every raw tick built from the source's deviant
/// ticks — and of one cycle D+1..D+n; raw tick p > D + n is raw tick p - n
/// shifted by one period. A filter's removed ticks are raw ticks left out of
/// the numbering: tick z is raw tick z + m for the least fixpoint m of
/// "removed raw ticks at or below z + m", so holidays near tick 2^40 cost
/// O(|removed|). Hence `TickHull` is a division and an array read,
/// `TickContaining` a division, one search within a cycle and a
/// source-support check, and `TickExtent` the source's extents inside the
/// hull — exact because hulls of distinct ticks are disjoint (§2, axiom 1).
/// One cycle plus the deviant window may hold at most
/// `GranularityTables::kScanTickCap` ticks.
class PeriodicGranularity final : public Granularity {
 public:
  using Made = Result<std::unique_ptr<PeriodicGranularity>>;

  /// Invalid when `pattern` is malformed (empty, unsorted or repeated
  /// `kept`, an offset or `anchor` outside [0, base_period)) or a `removed`
  /// entry is not a base tick the pattern keeps.
  static Made Filter(std::string name, const Granularity* base,
                     PeriodicPattern pattern, std::vector<Tick> removed = {});
  /// Invalid unless k >= 1 and phase >= 0.
  static Made Group(std::string name, const Granularity* base, std::int64_t k,
                    std::int64_t phase = 0);
  /// Invalid when an outer tick holds no inner tick (months grouped by day)
  /// or an inner tick crosses an outer boundary (weeks grouped by month).
  static Made GroupBy(std::string name, const Granularity* inner,
                      const Granularity* outer);
  /// Invalid unless `ticks` are non-empty, sorted, disjoint and inside
  /// [0, period).
  static Made Synthetic(std::string name, std::int64_t period,
                        std::vector<TimeSpan> ticks, TimePoint origin = 0);

  std::optional<Tick> TickContaining(TimePoint t) const override;
  std::optional<TimeSpan> TickHull(Tick z) const override;
  Periodicity periodicity() const override { return {period_, cycle_ticks_}; }
  bool ticks_are_intervals() const override { return intervals_; }
  void TickExtent(Tick z, std::vector<TimeSpan>* out) const override;
  bool HasFullSupport() const override { return full_support_; }
  bool IsStrictlyPeriodic() const override { return last_deviant_ == 0; }
  Tick LastDeviantTick() const override { return last_deviant_; }

 private:
  /// Validates the compiled form: every derived kind is refused (Invalid)
  /// when one cycle plus the deviant window exceeds the cap, or when the
  /// hulls the sealed tables scan would not stay below kInfinity.
  static Made Compile(std::string name, const Granularity* source,
                      std::vector<TimeSpan> hulls, Tick deviant,
                      std::int64_t period, std::vector<Tick> removed,
                      bool intervals, bool full_support);

  explicit PeriodicGranularity(std::string name)
      : Granularity(std::move(name)) {}

  /// Hull of raw tick p >= 1.
  TimeSpan RawHull(Tick p) const;
  /// The raw tick whose hull holds t, if any.
  std::optional<Tick> RawTickContaining(TimePoint t) const;

  const Granularity* source_ = nullptr;  ///< nullptr: the primitive line
  std::vector<TimeSpan> hulls_;          ///< raw ticks 1..deviant_ + n
  Tick deviant_ = 0;
  std::int64_t cycle_ticks_ = 1;
  std::int64_t period_ = 1;
  std::vector<Tick> removed_;  ///< raw ticks, sorted and distinct
  Tick last_deviant_ = 0;
  bool intervals_ = true;
  bool full_support_ = false;
};

}  // namespace granmine

#endif  // GRANMINE_GRANULARITY_PERIODIC_H_
