#include "granmine/granularity/group.h"

#include <algorithm>
#include <numeric>

#include "granmine/common/check.h"
#include "granmine/common/math.h"

namespace granmine {

namespace {

// Appends `span` to `out`, merging with the previous interval when adjacent
// or overlapping, keeping the list maximal-disjoint-increasing.
void AppendMerging(const TimeSpan& span, std::vector<TimeSpan>* out) {
  if (span.empty()) return;
  if (!out->empty() && out->back().last + 1 >= span.first) {
    out->back().last = std::max(out->back().last, span.last);
  } else {
    out->push_back(span);
  }
}

}  // namespace

GroupGranularity::GroupGranularity(std::string name, const Granularity* base,
                                   std::int64_t k, std::int64_t phase)
    : Granularity(std::move(name)), base_(base), k_(k), phase_(phase) {
  GM_CHECK(base_ != nullptr);
  GM_CHECK(k_ >= 1);
  GM_CHECK(phase_ >= 0);
  GM_CHECK(base_->IsStrictlyPeriodic())
      << "GroupGranularity requires a strictly periodic base";
}

std::optional<Tick> GroupGranularity::TickContaining(TimePoint t) const {
  std::optional<Tick> b = base_->TickContaining(t);
  if (!b.has_value() || *b <= phase_) return std::nullopt;
  return (*b - phase_ - 1) / k_ + 1;
}

std::optional<TimeSpan> GroupGranularity::TickHull(Tick z) const {
  if (z < 1) return std::nullopt;
  std::optional<TimeSpan> first = base_->TickHull(FirstBaseTick(z));
  std::optional<TimeSpan> last = base_->TickHull(FirstBaseTick(z) + k_ - 1);
  GM_CHECK(first.has_value() && last.has_value());
  return TimeSpan::Of(first->first, last->last);
}

Granularity::Periodicity GroupGranularity::periodicity() const {
  Periodicity base_p = base_->periodicity();
  std::int64_t g = std::gcd(k_, base_p.ticks_per_period);
  return {base_p.period * (k_ / g), base_p.ticks_per_period / g};
}

bool GroupGranularity::ticks_are_intervals() const {
  return base_->HasFullSupport() && base_->ticks_are_intervals();
}

void GroupGranularity::TickExtent(Tick z, std::vector<TimeSpan>* out) const {
  if (z < 1) return;
  std::vector<TimeSpan> inner;
  for (Tick b = FirstBaseTick(z); b <= FirstBaseTick(z) + k_ - 1; ++b) {
    inner.clear();
    base_->TickExtent(b, &inner);
    for (const TimeSpan& span : inner) AppendMerging(span, out);
  }
}

Result<std::unique_ptr<GroupByGranularity>> GroupByGranularity::Make(
    std::string name, const Granularity* inner, const Granularity* outer) {
  GM_CHECK(inner != nullptr && outer != nullptr);
  if (!outer->IsStrictlyPeriodic()) {
    return Status::Invalid("groupby " + name + ": outer type " +
                           outer->name() + " is not strictly periodic");
  }
  std::unique_ptr<GroupByGranularity> group(
      new GroupByGranularity(std::move(name), inner, outer));
  // Validate refinement + non-emptiness over one joint period plus the
  // inner exception window.
  Periodicity joint = group->periodicity();
  std::optional<TimeSpan> dev_hull =
      inner->IsStrictlyPeriodic()
          ? std::nullopt
          : inner->TickHull(inner->LastDeviantTick() + 1);
  Tick last_checked = joint.ticks_per_period + 1;
  if (dev_hull.has_value()) {
    std::optional<Tick> o = outer->TickContaining(dev_hull->first);
    if (o.has_value()) last_checked = std::max(last_checked, *o + 1);
  }
  last_checked = std::min<Tick>(last_checked, 1 << 16);
  for (Tick z = 1; z <= last_checked; ++z) {
    std::pair<Tick, Tick> range = group->InnerRange(z);
    if (range.first > range.second) {
      return Status::Invalid("groupby " + group->name() + ": outer tick " +
                             std::to_string(z) + " of " + outer->name() +
                             " contains no tick of " + inner->name());
    }
    std::optional<TimeSpan> outer_hull = outer->TickHull(z);
    std::optional<TimeSpan> lo = inner->TickHull(range.first);
    std::optional<TimeSpan> hi = inner->TickHull(range.second);
    if (!outer_hull->Contains(*lo) || !outer_hull->Contains(*hi)) {
      return Status::Invalid("groupby " + group->name() + ": " +
                             inner->name() + " does not refine " +
                             outer->name() + " at outer tick " +
                             std::to_string(z));
    }
  }
  return group;
}

GroupByGranularity::GroupByGranularity(std::string name,
                                       const Granularity* inner,
                                       const Granularity* outer)
    : Granularity(std::move(name)), inner_(inner), outer_(outer) {}

std::pair<Tick, Tick> GroupByGranularity::InnerRange(Tick z) const {
  std::optional<TimeSpan> hull = outer_->TickHull(z);
  GM_CHECK(hull.has_value());
  Tick first = FirstTickEndingAtOrAfter(*inner_, hull->first);
  std::optional<Tick> last = LastTickStartingAtOrBefore(*inner_, hull->last);
  if (!last.has_value()) return {1, 0};  // empty
  // Trim ticks that merely touch but start before / end after the hull
  // (cannot happen under refinement, but keep the computation defensive).
  std::optional<TimeSpan> first_hull = inner_->TickHull(first);
  if (first_hull->first < hull->first) ++first;
  std::optional<TimeSpan> last_hull = inner_->TickHull(*last);
  if (last_hull->last > hull->last) --*last;
  return {first, *last};
}

std::optional<Tick> GroupByGranularity::TickContaining(TimePoint t) const {
  std::optional<Tick> i = inner_->TickContaining(t);
  if (!i.has_value()) return std::nullopt;
  std::optional<Tick> o = outer_->TickContaining(t);
  GM_DCHECK(o.has_value());
  return o;
}

std::optional<TimeSpan> GroupByGranularity::TickHull(Tick z) const {
  if (z < 1) return std::nullopt;
  std::pair<Tick, Tick> range = InnerRange(z);
  GM_CHECK(range.first <= range.second);
  std::optional<TimeSpan> lo = inner_->TickHull(range.first);
  std::optional<TimeSpan> hi = inner_->TickHull(range.second);
  return TimeSpan::Of(lo->first, hi->last);
}

Granularity::Periodicity GroupByGranularity::periodicity() const {
  Periodicity pi = inner_->periodicity();
  Periodicity po = outer_->periodicity();
  std::int64_t period = std::lcm(pi.period, po.period);
  return {period, po.ticks_per_period * (period / po.period)};
}

void GroupByGranularity::TickExtent(Tick z,
                                    std::vector<TimeSpan>* out) const {
  if (z < 1) return;
  std::pair<Tick, Tick> range = InnerRange(z);
  std::vector<TimeSpan> spans;
  for (Tick i = range.first; i <= range.second; ++i) {
    spans.clear();
    inner_->TickExtent(i, &spans);
    for (const TimeSpan& span : spans) AppendMerging(span, out);
  }
}

Tick GroupByGranularity::LastDeviantTick() const {
  Tick deviant = 0;
  // Truncated boundary: the inner support starts after the first outer tick
  // begins, so early group hulls do not follow the periodic pattern.
  TimePoint inner_start = inner_->SupportStart();
  std::optional<TimeSpan> first_outer = outer_->TickHull(1);
  GM_CHECK(first_outer.has_value());
  if (inner_start > first_outer->first) {
    std::optional<Tick> o = outer_->TickContaining(inner_start);
    GM_CHECK(o.has_value());
    deviant = *o;
  }
  // Inner holiday overlays perturb groups up to the one past the window.
  if (!inner_->IsStrictlyPeriodic()) {
    std::optional<TimeSpan> hull =
        inner_->TickHull(inner_->LastDeviantTick() + 1);
    GM_CHECK(hull.has_value());
    std::optional<Tick> o = outer_->TickContaining(hull->last);
    GM_CHECK(o.has_value());
    deviant = std::max(deviant, *o + 1);
  }
  return deviant;
}

}  // namespace granmine
