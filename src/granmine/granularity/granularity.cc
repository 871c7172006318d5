#include "granmine/granularity/granularity.h"

#include "granmine/common/check.h"
#include "granmine/common/math.h"

namespace granmine {

void Granularity::TickExtent(Tick z, std::vector<TimeSpan>* out) const {
  std::optional<TimeSpan> hull = TickHull(z);
  if (hull.has_value()) out->push_back(*hull);
}

TimePoint Granularity::SupportStart() const {
  std::optional<TimeSpan> hull = TickHull(1);
  GM_CHECK(hull.has_value()) << "granularity " << name() << " has no tick 1";
  return hull->first;
}

std::optional<std::int64_t> Granularity::AnalyticMinSize(std::int64_t) const {
  return std::nullopt;
}
std::optional<std::int64_t> Granularity::AnalyticMaxSize(std::int64_t) const {
  return std::nullopt;
}
std::optional<std::int64_t> Granularity::AnalyticMinGap(std::int64_t) const {
  return std::nullopt;
}

std::optional<std::int64_t> TickDifference(const Granularity& g, TimePoint t1,
                                           TimePoint t2) {
  std::optional<Tick> z1 = g.TickContaining(t1);
  std::optional<Tick> z2 = g.TickContaining(t2);
  if (!z1.has_value() || !z2.has_value()) return std::nullopt;
  return *z2 - *z1;
}

namespace {

// A safe upper bound on the tick index whose hull could reach instant t.
Tick UpperTickBoundFor(const Granularity& g, TimePoint t) {
  const Granularity::Periodicity p = g.periodicity();
  const TimePoint start = g.SupportStart();
  if (t <= start) return g.LastDeviantTick() + p.ticks_per_period + 1;
  // Hull starts advance by `period` every `ticks_per_period` ticks (outside
  // the deviant window removing ticks only pushes starts later).
  std::int64_t periods = FloorDiv(t - start, p.period) + 2;
  return g.LastDeviantTick() + periods * p.ticks_per_period + 1;
}

}  // namespace

Tick FirstTickEndingAtOrAfter(const Granularity& g, TimePoint t) {
  // Binary search on the monotone predicate hull(z).last >= t.
  Tick lo = 1;
  Tick hi = UpperTickBoundFor(g, t);
  std::optional<TimeSpan> hull_hi = g.TickHull(hi);
  GM_CHECK(hull_hi.has_value());
  // Grow hi defensively (covers pathological periodicity reports).
  while (hull_hi->last < t) {
    hi *= 2;
    hull_hi = g.TickHull(hi);
    GM_CHECK(hull_hi.has_value());
  }
  while (lo < hi) {
    Tick mid = lo + (hi - lo) / 2;
    std::optional<TimeSpan> hull = g.TickHull(mid);
    GM_CHECK(hull.has_value());
    if (hull->last >= t) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

std::optional<Tick> LastTickStartingAtOrBefore(const Granularity& g,
                                               TimePoint t) {
  if (t < g.SupportStart()) return std::nullopt;
  // Binary search on the monotone predicate hull(z).first <= t.
  Tick lo = 1;  // qualifies by the check above
  Tick hi = UpperTickBoundFor(g, t) + 1;
  while (lo < hi) {
    Tick mid = lo + (hi - lo + 1) / 2;
    std::optional<TimeSpan> hull = g.TickHull(mid);
    GM_CHECK(hull.has_value());
    if (hull->first <= t) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

Tick LastFittingTick(const Granularity& g) {
  // Past tick settled, every ticks_per_period further ticks end at most one
  // period later than the ticks before them.
  const Granularity::Periodicity p = g.periodicity();
  const Tick settled = g.LastDeviantTick() + p.ticks_per_period;
  const TimePoint end = g.TickHull(settled)->last;
  if (end >= kInfinity) return 0;
  const std::int64_t cycles = (kInfinity - 1 - end) / p.period;
  if (cycles > (kInfinity - settled) / p.ticks_per_period) return kInfinity;
  return settled + cycles * p.ticks_per_period;
}

}  // namespace granmine
