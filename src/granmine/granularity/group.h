#ifndef GRANMINE_GRANULARITY_GROUP_H_
#define GRANMINE_GRANULARITY_GROUP_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "granmine/common/result.h"
#include "granmine/granularity/granularity.h"

namespace granmine {

/// Groups each `k` consecutive ticks of a base granularity into one tick:
/// `n-month` (used by the Theorem-1 reduction), `fortnight`, toy groupings.
/// A non-zero `phase` skips that many leading base ticks before tick 1 —
/// e.g., a fiscal year running April..March is
/// `GroupGranularity("fiscal-year", month, 12, /*phase=*/3)`.
class GroupGranularity final : public Granularity {
 public:
  /// `base` must outlive this object and be strictly periodic.
  /// 0 <= phase < k... (any non-negative phase is accepted; only
  /// `phase mod k` changes the alignment, the rest shifts the support).
  GroupGranularity(std::string name, const Granularity* base, std::int64_t k,
                   std::int64_t phase = 0);

  std::optional<Tick> TickContaining(TimePoint t) const override;
  std::optional<TimeSpan> TickHull(Tick z) const override;
  Periodicity periodicity() const override;
  bool ticks_are_intervals() const override;
  void TickExtent(Tick z, std::vector<TimeSpan>* out) const override;
  bool HasFullSupport() const override { return base_->HasFullSupport(); }

  const Granularity& base() const { return *base_; }
  std::int64_t group_size() const { return k_; }
  std::int64_t phase() const { return phase_; }

 private:
  /// First base tick of group z (1-based).
  Tick FirstBaseTick(Tick z) const { return phase_ + (z - 1) * k_ + 1; }

  const Granularity* base_;
  std::int64_t k_;
  std::int64_t phase_;
};

/// Groups the ticks of `inner` by the tick of `outer` that contains them:
/// `b-week` = b-days grouped by week, `b-month` = b-days grouped by month.
/// Requires that inner refines outer (no inner tick straddles an outer
/// boundary) and that every outer tick contains at least one inner tick.
/// `Make` checks both over one joint period, but the refinement check sees
/// ranges `InnerRange` has already trimmed, so an inner tick that straddles
/// a boundary is dropped from every group rather than refused.
class GroupByGranularity final : public Granularity {
 public:
  /// `inner` and `outer` must outlive the result. Invalid when `outer` is
  /// not strictly periodic or an outer tick holds no inner tick (e.g.
  /// months grouped by day).
  static Result<std::unique_ptr<GroupByGranularity>> Make(
      std::string name, const Granularity* inner, const Granularity* outer);

  std::optional<Tick> TickContaining(TimePoint t) const override;
  std::optional<TimeSpan> TickHull(Tick z) const override;
  Periodicity periodicity() const override;
  bool ticks_are_intervals() const override {
    return inner_->HasFullSupport() && inner_->ticks_are_intervals();
  }
  void TickExtent(Tick z, std::vector<TimeSpan>* out) const override;
  bool HasFullSupport() const override { return inner_->HasFullSupport(); }
  /// Group-by types are eventually periodic: the first outer tick may be
  /// truncated when the inner support starts mid-tick, and inner holiday
  /// overlays perturb a finite window.
  bool IsStrictlyPeriodic() const override { return LastDeviantTick() == 0; }
  Tick LastDeviantTick() const override;

  const Granularity& inner() const { return *inner_; }
  const Granularity& outer() const { return *outer_; }

 private:
  GroupByGranularity(std::string name, const Granularity* inner,
                     const Granularity* outer);

  /// Inner ticks [first, last] inside outer tick z.
  std::pair<Tick, Tick> InnerRange(Tick z) const;

  const Granularity* inner_;
  const Granularity* outer_;
};

}  // namespace granmine

#endif  // GRANMINE_GRANULARITY_GROUP_H_
