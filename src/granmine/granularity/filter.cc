#include "granmine/granularity/filter.h"

#include <algorithm>
#include <numeric>

#include "granmine/common/check.h"
#include "granmine/common/math.h"
#include "granmine/granularity/tables.h"

namespace granmine {

Result<std::unique_ptr<FilterGranularity>> FilterGranularity::Make(
    std::string name, const Granularity* base, PeriodicPattern pattern,
    std::vector<Tick> removed) {
  GM_CHECK(base != nullptr);
  const std::vector<std::int64_t>& kept = pattern.kept;
  const std::int64_t period = pattern.base_period;
  if (period < 1 || kept.empty() || !std::is_sorted(kept.begin(), kept.end()) ||
      std::adjacent_find(kept.begin(), kept.end()) != kept.end() ||
      kept.front() < 0 || kept.back() >= period || pattern.anchor < 0 ||
      pattern.anchor >= period) {
    return Status::Invalid(
        "filter " + name +
        ": kept offsets must be sorted and distinct, and they and the anchor "
        "must lie in [0, period) for a period >= 1");
  }
  std::unique_ptr<FilterGranularity> filter(new FilterGranularity(
      std::move(name), base, std::move(pattern), std::move(removed)));
  for (Tick b : filter->removed_) {
    if (b < 1 || !filter->PatternKeeps(b)) {
      return Status::Invalid("filter " + filter->name() +
                             ": removed base tick " + std::to_string(b) +
                             " is not kept by the pattern");
    }
  }
  if (!filter->HullsFit()) {
    return Status::Invalid("filter " + filter->name() + ": period " +
                           std::to_string(period) +
                           " is too large for its base's hull arithmetic");
  }
  return filter;
}

bool FilterGranularity::HullsFit() const {
  // The joint cycle periodicity() computes, overflow-checked.
  const Periodicity base_p = base_->periodicity();
  const std::int64_t period = pattern_.base_period;
  const std::int64_t per_cycle =
      static_cast<std::int64_t>(pattern_.kept.size());
  std::int64_t cycle_base_ticks = 0, cycle_time = 0, cycle_ticks = 0;
  if (__builtin_mul_overflow(
          period / std::gcd(period, base_p.ticks_per_period),
          base_p.ticks_per_period, &cycle_base_ticks) ||
      __builtin_mul_overflow(base_p.period,
                             cycle_base_ticks / base_p.ticks_per_period,
                             &cycle_time) ||
      __builtin_mul_overflow(cycle_base_ticks / period, per_cycle,
                             &cycle_ticks)) {
    return false;
  }
  // The sealed scan reads hulls up to tick LastDeviantTick() + one cycle +
  // kSealedKCap, and the hull cache fills up to half again past it; bound
  // twice that. The z-th surviving tick is at most the (z + |removed|)-th
  // pattern tick, which lies in pattern cycle (z + |removed| - 1 +
  // kept_before_anchor_) / |kept|, and base tick b lies in base cycle
  // b / ticks_per_period.
  std::int64_t last = 0, base_tick = 0, time = 0;
  if (__builtin_add_overflow(LastDeviantTick(), cycle_ticks, &last) ||
      __builtin_add_overflow(last, GranularityTables::kSealedKCap, &last) ||
      __builtin_mul_overflow(last, 2, &last) ||
      __builtin_add_overflow(last,
                             static_cast<std::int64_t>(removed_.size()) +
                                 kept_before_anchor_,
                             &last) ||
      __builtin_mul_overflow(last / per_cycle + 1, period, &base_tick) ||
      __builtin_mul_overflow(base_tick / base_p.ticks_per_period + 1,
                             base_p.period, &time)) {
    return false;
  }
  return time < kInfinity;
}

FilterGranularity::FilterGranularity(std::string name, const Granularity* base,
                                     PeriodicPattern pattern,
                                     std::vector<Tick> removed)
    : Granularity(std::move(name)),
      base_(base),
      pattern_(std::move(pattern)),
      removed_(std::move(removed)) {
  std::sort(removed_.begin(), removed_.end());
  removed_.erase(std::unique(removed_.begin(), removed_.end()),
                 removed_.end());
  kept_before_anchor_ =
      std::lower_bound(pattern_.kept.begin(), pattern_.kept.end(),
                       pattern_.anchor) -
      pattern_.kept.begin();
}

bool FilterGranularity::PatternKeeps(Tick base_tick) const {
  std::int64_t offset =
      FloorMod(base_tick - 1 + pattern_.anchor, pattern_.base_period);
  return std::binary_search(pattern_.kept.begin(), pattern_.kept.end(),
                            offset);
}

bool FilterGranularity::Keeps(Tick base_tick) const {
  return PatternKeeps(base_tick) &&
         !std::binary_search(removed_.begin(), removed_.end(), base_tick);
}

std::int64_t FilterGranularity::CountKept(Tick base_tick) const {
  if (base_tick < 1) return 0;
  // F(x) = #{j in [0, x] : j mod base_period is kept}; count over the shifted
  // index j = b - 1 + anchor for b in [1, base_tick].
  auto count_from_zero = [this](std::int64_t x) -> std::int64_t {
    if (x < 0) return 0;
    std::int64_t q = (x + 1) / pattern_.base_period;
    std::int64_t r = (x + 1) % pattern_.base_period;
    std::int64_t partial =
        std::lower_bound(pattern_.kept.begin(), pattern_.kept.end(), r) -
        pattern_.kept.begin();
    return q * static_cast<std::int64_t>(pattern_.kept.size()) + partial;
  };
  std::int64_t by_pattern = count_from_zero(base_tick - 1 + pattern_.anchor) -
                            count_from_zero(pattern_.anchor - 1);
  std::int64_t removed_below =
      std::upper_bound(removed_.begin(), removed_.end(), base_tick) -
      removed_.begin();
  return by_pattern - removed_below;
}

Tick FilterGranularity::PatternTickOf(std::int64_t n) const {
  // Pattern-kept ticks are indexed over j = b - 1 + anchor; base tick 1 sits
  // at j = anchor, so the kept offsets below the anchor are skipped.
  const std::int64_t per_cycle =
      static_cast<std::int64_t>(pattern_.kept.size());
  const std::int64_t index = n - 1 + kept_before_anchor_;
  const std::int64_t j =
      index / per_cycle * pattern_.base_period +
      pattern_.kept[static_cast<std::size_t>(index % per_cycle)];
  return j - pattern_.anchor + 1;
}

Tick FilterGranularity::BaseTickOf(Tick z) const {
  GM_CHECK(z >= 1);
  // Every removed tick is pattern-kept, so the z-th surviving tick is the
  // (z + m)-th pattern tick where m counts the removed ticks at or below
  // it. Iterating m from 0 climbs to the least fixpoint, which is that
  // surviving tick; each round takes in at least one more removed tick.
  std::int64_t m = 0;
  for (;;) {
    const Tick b = PatternTickOf(z + m);
    const std::int64_t removed_upto =
        std::upper_bound(removed_.begin(), removed_.end(), b) -
        removed_.begin();
    if (removed_upto == m) {
      GM_DCHECK(Keeps(b) && CountKept(b) == z);
      return b;
    }
    m = removed_upto;
  }
}

std::optional<Tick> FilterGranularity::TickContaining(TimePoint t) const {
  std::optional<Tick> b = base_->TickContaining(t);
  if (!b.has_value() || !Keeps(*b)) return std::nullopt;
  return CountKept(*b);
}

std::optional<TimeSpan> FilterGranularity::TickHull(Tick z) const {
  if (z < 1) return std::nullopt;
  return base_->TickHull(BaseTickOf(z));
}

void FilterGranularity::TickExtent(Tick z,
                                   std::vector<TimeSpan>* out) const {
  if (z < 1) return;
  base_->TickExtent(BaseTickOf(z), out);
}

Granularity::Periodicity FilterGranularity::periodicity() const {
  Periodicity base_p = base_->periodicity();
  // The joint cycle must align both the base hull pattern (every
  // base_p.ticks_per_period base ticks) and the selection pattern (every
  // pattern_.base_period base ticks).
  std::int64_t base_ticks =
      std::lcm(pattern_.base_period, base_p.ticks_per_period);
  std::int64_t period = base_p.period * (base_ticks / base_p.ticks_per_period);
  std::int64_t ticks = (base_ticks / pattern_.base_period) *
                       static_cast<std::int64_t>(pattern_.kept.size());
  return {period, ticks};
}

Tick FilterGranularity::LastDeviantTick() const {
  if (removed_.empty()) return 0;
  return CountKept(removed_.back()) + 1;
}

}  // namespace granmine
