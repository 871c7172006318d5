#include "granmine/granularity/periodic.h"

#include <algorithm>
#include <numeric>

#include "granmine/common/check.h"
#include "granmine/common/math.h"
#include "granmine/granularity/tables.h"

namespace granmine {

namespace {

// a * b + c, or nullopt on int64 overflow.
std::optional<std::int64_t> MulAdd(std::int64_t a, std::int64_t b,
                                   std::int64_t c) {
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r) || __builtin_add_overflow(r, c, &r)) {
    return std::nullopt;
  }
  return r;
}

// D + n raw ticks to materialize, or nullopt past the cap.
std::optional<Tick> Window(std::int64_t deviant, std::int64_t cycle_ticks) {
  Tick total = 0;
  if (__builtin_add_overflow(deviant, cycle_ticks, &total) ||
      total > GranularityTables::kScanTickCap) {
    return std::nullopt;
  }
  return total;
}

Status TooLarge(const std::string& name) {
  return Status::Invalid(
      "granularity " + name + " is too large for its base's hull arithmetic: "
      "one cycle plus its deviant window must fit in " +
      std::to_string(GranularityTables::kScanTickCap) +
      " ticks, and its hulls must end before instant 2^61");
}

// The least tick z in [from, limit] of g whose hull ends at or after t, or
// nullopt when there is none. Gallops from `from`, then bisects, so a
// search costs O(log(z - from)) hulls and reads none past `limit`.
std::optional<Tick> SeekEnding(const Granularity& g, Tick from, TimePoint t,
                               Tick limit) {
  const auto ends_by = [&](Tick z) { return g.TickHull(z)->last >= t; };
  if (from > limit) return std::nullopt;
  if (ends_by(from)) return from;
  Tick lo = from;  // ends before t
  Tick hi = from;
  for (Tick step = 1;; step *= 2) {
    hi = limit - lo <= step ? limit : lo + step;
    if (ends_by(hi)) break;
    if (hi == limit) return std::nullopt;
    lo = hi;
  }
  while (hi - lo > 1) {
    const Tick mid = lo + (hi - lo) / 2;
    (ends_by(mid) ? hi : lo) = mid;
  }
  return hi;
}

}  // namespace

PeriodicGranularity::Made PeriodicGranularity::Filter(
    std::string name, const Granularity* base, PeriodicPattern pattern,
    std::vector<Tick> removed) {
  GM_CHECK(base != nullptr);
  const std::vector<std::int64_t>& kept = pattern.kept;
  const std::int64_t span = pattern.base_period;
  if (span < 1 || kept.empty() || !std::is_sorted(kept.begin(), kept.end()) ||
      std::adjacent_find(kept.begin(), kept.end()) != kept.end() ||
      kept.front() < 0 || kept.back() >= span || pattern.anchor < 0 ||
      pattern.anchor >= span) {
    return Status::Invalid(
        "filter " + name +
        ": kept offsets must be sorted and distinct, and they and the anchor "
        "must lie in [0, period) for a period >= 1");
  }
  const std::int64_t per_cycle = static_cast<std::int64_t>(kept.size());
  // Base tick b sits at index b - 1 + anchor of the pattern; the kept
  // offsets below the anchor precede base tick 1.
  const auto kept_below = [&](std::int64_t index) {
    return index / span * per_cycle +
           (std::lower_bound(kept.begin(), kept.end(), index % span) -
            kept.begin());
  };
  // Raw tick p is the p-th base tick the pattern keeps.
  const auto base_tick = [&](Tick p) -> std::optional<Tick> {
    const std::int64_t index = p - 1 + kept_below(pattern.anchor);
    const std::optional<std::int64_t> at =
        MulAdd(index / per_cycle, span,
               kept[static_cast<std::size_t>(index % per_cycle)]);
    if (!at.has_value()) return std::nullopt;
    return *at - pattern.anchor + 1;
  };
  // The raw ticks at or below base tick b >= 0.
  const auto raw_upto = [&](Tick b) -> std::optional<Tick> {
    std::int64_t end = 0;
    if (__builtin_add_overflow(b, pattern.anchor, &end)) return std::nullopt;
    return kept_below(end) - kept_below(pattern.anchor);
  };

  // One cycle aligns the base's hull pattern with the selection pattern.
  const Periodicity bp = base->periodicity();
  const std::int64_t base_periods =
      span / std::gcd(span, bp.ticks_per_period);
  const std::optional<std::int64_t> period =
      MulAdd(bp.period, base_periods, 0);
  const std::optional<std::int64_t> cycle_ticks =
      MulAdd(bp.ticks_per_period / std::gcd(span, bp.ticks_per_period),
             per_cycle, 0);
  const std::optional<Tick> deviant = raw_upto(base->LastDeviantTick());
  if (!period || !cycle_ticks || !deviant) return TooLarge(name);

  std::sort(removed.begin(), removed.end());
  removed.erase(std::unique(removed.begin(), removed.end()), removed.end());
  for (Tick& b : removed) {
    const std::optional<Tick> raw = b >= 1 ? raw_upto(b) : std::nullopt;
    if (!raw || !std::binary_search(kept.begin(), kept.end(),
                                    (b - 1 + pattern.anchor) % span)) {
      return Status::Invalid("filter " + name + ": removed base tick " +
                             std::to_string(b) +
                             " is not kept by the pattern");
    }
    b = *raw;
  }

  const std::optional<Tick> total = Window(*deviant, *cycle_ticks);
  const std::optional<Tick> last_base =
      total ? base_tick(*total) : std::nullopt;
  if (!last_base || *last_base > LastFittingTick(*base)) return TooLarge(name);
  std::vector<TimeSpan> hulls;
  hulls.reserve(static_cast<std::size_t>(*total));
  for (Tick p = 1; p <= *total; ++p) {
    hulls.push_back(*base->TickHull(*base_tick(p)));
  }
  return Compile(std::move(name), base, std::move(hulls), *deviant, *period,
                 std::move(removed), base->ticks_are_intervals(),
                 /*full_support=*/false);
}

PeriodicGranularity::Made PeriodicGranularity::Group(std::string name,
                                                     const Granularity* base,
                                                     std::int64_t k,
                                                     std::int64_t phase) {
  GM_CHECK(base != nullptr);
  if (k < 1 || phase < 0) {
    return Status::Invalid("group " + name + ": need k >= 1 and phase >= 0");
  }
  // Tick z groups base ticks phase + (z-1)k + 1 .. phase + zk; it deviates
  // while its first base tick lies in the base's deviant window.
  const Periodicity bp = base->periodicity();
  const std::int64_t g = std::gcd(k, bp.ticks_per_period);
  const std::optional<std::int64_t> period = MulAdd(bp.period, k / g, 0);
  const Tick base_deviant = base->LastDeviantTick();
  const Tick deviant =
      base_deviant > phase ? (base_deviant - phase - 1) / k + 1 : 0;
  const std::optional<Tick> total = Window(deviant, bp.ticks_per_period / g);
  const std::optional<Tick> last_base =
      total ? MulAdd(*total, k, phase) : std::nullopt;
  if (!period || !last_base || *last_base > LastFittingTick(*base)) {
    return TooLarge(name);
  }
  std::vector<TimeSpan> hulls;
  hulls.reserve(static_cast<std::size_t>(*total));
  for (Tick z = 0; z < *total; ++z) {
    const Tick first = phase + z * k + 1;
    hulls.push_back(TimeSpan::Of(base->TickHull(first)->first,
                                 base->TickHull(first + k - 1)->last));
  }
  const bool full = base->HasFullSupport();
  return Compile(std::move(name), base, std::move(hulls), deviant, *period,
                 {}, full && base->ticks_are_intervals(), full);
}

PeriodicGranularity::Made PeriodicGranularity::GroupBy(
    std::string name, const Granularity* inner, const Granularity* outer) {
  GM_CHECK(inner != nullptr && outer != nullptr);
  const Periodicity pi = inner->periodicity();
  const Periodicity po = outer->periodicity();
  const std::optional<std::int64_t> period =
      MulAdd(pi.period / std::gcd(pi.period, po.period), po.period, 0);
  const std::optional<std::int64_t> cycle_ticks =
      period ? MulAdd(po.ticks_per_period, *period / po.period, 0)
             : std::nullopt;
  // Outer ticks starting before inner tick LastDeviantTick() + 1 may hold
  // deviant inner ticks, or, before the inner support starts, miss some.
  const Tick inner_limit = LastFittingTick(*inner);
  const Tick outer_limit = LastFittingTick(*outer);
  const TimePoint settled =
      inner->TickHull(inner->LastDeviantTick() + 1)->first;
  const std::optional<Tick> at = SeekEnding(*outer, 1, settled, outer_limit);
  if (!cycle_ticks || !at) return TooLarge(name);
  const Tick deviant =
      std::max(outer->LastDeviantTick(),
               outer->TickHull(*at)->first < settled ? *at : *at - 1);
  const std::optional<Tick> total = Window(deviant, *cycle_ticks);
  if (!total || *total > outer_limit) return TooLarge(name);

  std::vector<TimeSpan> hulls;
  hulls.reserve(static_cast<std::size_t>(*total));
  Tick next = 1;  // the first inner tick no earlier outer tick holds
  for (Tick z = 1; z <= *total; ++z) {
    const TimeSpan o = *outer->TickHull(z);
    const std::optional<Tick> first = SeekEnding(*inner, next, o.first,
                                                 inner_limit);
    const std::optional<Tick> after =
        first ? SeekEnding(*inner, *first, o.last + 1, inner_limit)
              : std::nullopt;
    if (!after) return TooLarge(name);
    // Members are the inner ticks from the first one starting inside the
    // outer tick up to the one before `after`, the first to end past it.
    const TimeSpan head = *inner->TickHull(*first);
    const bool head_inside = head.first >= o.first;
    if ((head_inside ? *first : *first + 1) >= *after) {
      return Status::Invalid("groupby " + name + ": outer tick " +
                             std::to_string(z) + " of " + outer->name() +
                             " contains no tick of " + inner->name());
    }
    if (!head_inside || inner->TickHull(*after)->first <= o.last) {
      return Status::Invalid("groupby " + name + ": " + inner->name() +
                             " does not refine " + outer->name() +
                             ": a tick crosses the boundary of outer tick " +
                             std::to_string(z));
    }
    hulls.push_back(
        TimeSpan::Of(head.first, inner->TickHull(*after - 1)->last));
    next = *after;
  }
  const bool full = inner->HasFullSupport();
  return Compile(std::move(name), inner, std::move(hulls), deviant, *period,
                 {}, full && inner->ticks_are_intervals(),
                 full && outer->HasFullSupport());
}

PeriodicGranularity::Made PeriodicGranularity::Synthetic(
    std::string name, std::int64_t period, std::vector<TimeSpan> ticks,
    TimePoint origin) {
  const Status malformed = Status::Invalid(
      "synthetic " + name +
      ": need a period >= 1 and non-empty, sorted, disjoint tick intervals "
      "inside [0, period)");
  if (period < 1 || ticks.empty()) return malformed;
  bool tiles = true;
  TimePoint prev_end = -1;
  for (TimeSpan& span : ticks) {
    if (span.empty() || span.first <= prev_end || span.last >= period ||
        __builtin_add_overflow(span.last, origin, &span.last)) {
      return malformed;
    }
    tiles = tiles && span.first == prev_end + 1;
    prev_end = span.last - origin;
    span.first += origin;
  }
  if (!Window(0, static_cast<std::int64_t>(ticks.size()))) {
    return TooLarge(name);
  }
  return Compile(std::move(name), nullptr, std::move(ticks), 0, period, {},
                 /*intervals=*/true, tiles && prev_end == period - 1);
}

PeriodicGranularity::Made PeriodicGranularity::Compile(
    std::string name, const Granularity* source, std::vector<TimeSpan> hulls,
    Tick deviant, std::int64_t period, std::vector<Tick> removed,
    bool intervals, bool full_support) {
  std::unique_ptr<PeriodicGranularity> g(
      new PeriodicGranularity(std::move(name)));
  const std::int64_t cycle_ticks =
      static_cast<std::int64_t>(hulls.size()) - deviant;
  GM_CHECK(cycle_ticks >= 1);
  const std::int64_t m = static_cast<std::int64_t>(removed.size());
  // Past the last removed raw tick, tick z is raw tick z + m.
  g->last_deviant_ = m == 0 ? deviant : std::max(removed.back(), deviant) - m;
  // The sealed tables scan hulls up to tick LastDeviantTick() + n +
  // kSealedKCap; that raw tick's hull must end below kInfinity.
  Tick raw = 0;
  if (__builtin_add_overflow(g->last_deviant_,
                             cycle_ticks + GranularityTables::kSealedKCap + m,
                             &raw)) {
    return TooLarge(g->name());
  }
  const Tick i = raw - deviant - 1;
  const std::optional<TimePoint> end = MulAdd(
      i / cycle_ticks, period,
      hulls[static_cast<std::size_t>(deviant + i % cycle_ticks)].last);
  if (!end || *end >= kInfinity) return TooLarge(g->name());
  g->source_ = source;
  g->hulls_ = std::move(hulls);
  g->deviant_ = deviant;
  g->cycle_ticks_ = cycle_ticks;
  g->period_ = period;
  g->removed_ = std::move(removed);
  g->intervals_ = intervals;
  g->full_support_ = full_support;
  return g;
}

TimeSpan PeriodicGranularity::RawHull(Tick p) const {
  if (p <= deviant_) return hulls_[static_cast<std::size_t>(p - 1)];
  const Tick i = p - deviant_ - 1;
  const TimeSpan& hull =
      hulls_[static_cast<std::size_t>(deviant_ + i % cycle_ticks_)];
  const TimePoint shift = i / cycle_ticks_ * period_;
  return TimeSpan::Of(hull.first + shift, hull.last + shift);
}

std::optional<TimeSpan> PeriodicGranularity::TickHull(Tick z) const {
  if (z < 1) return std::nullopt;
  // Every removed raw tick at or below z + m is skipped; climbing m from 0
  // takes in at least one more removed tick per round until it settles.
  std::int64_t m = 0;
  for (;;) {
    const std::int64_t upto =
        std::upper_bound(removed_.begin(), removed_.end(), z + m) -
        removed_.begin();
    if (upto == m) return RawHull(z + m);
    m = upto;
  }
}

std::optional<Tick> PeriodicGranularity::RawTickContaining(
    TimePoint t) const {
  // Search the deviant window, or the cycle holding t.
  const TimeSpan* begin = hulls_.data();
  const TimeSpan* end = begin + deviant_;
  Tick before = 0;  // raw ticks preceding *begin
  TimePoint at = t;
  if (deviant_ == 0 ||
      t > hulls_[static_cast<std::size_t>(deviant_ - 1)].last) {
    const TimePoint start = hulls_[static_cast<std::size_t>(deviant_)].first;
    TimePoint offset = 0;
    if (t < start || __builtin_sub_overflow(t, start, &offset)) {
      return std::nullopt;
    }
    const std::int64_t cycle = offset / period_;
    if (!MulAdd(cycle, cycle_ticks_, deviant_).has_value()) return std::nullopt;
    begin = end;
    end = begin + cycle_ticks_;
    before = deviant_ + cycle * cycle_ticks_;
    at = t - cycle * period_;
  }
  const TimeSpan* hit = std::upper_bound(
      begin, end, at,
      [](TimePoint v, const TimeSpan& span) { return v < span.first; });
  if (hit == begin || (hit - 1)->last < at) return std::nullopt;
  return before + (hit - begin);
}

std::optional<Tick> PeriodicGranularity::TickContaining(TimePoint t) const {
  const std::optional<Tick> p = RawTickContaining(t);
  if (!p.has_value()) return std::nullopt;
  if (!intervals_ && !source_->InSupport(t)) return std::nullopt;
  const auto it = std::lower_bound(removed_.begin(), removed_.end(), *p);
  if (it != removed_.end() && *it == *p) return std::nullopt;
  return *p - (it - removed_.begin());
}

void PeriodicGranularity::TickExtent(Tick z,
                                     std::vector<TimeSpan>* out) const {
  const std::optional<TimeSpan> hull = TickHull(z);
  if (!hull.has_value()) return;
  if (intervals_) {
    out->push_back(*hull);
    return;
  }
  // The source ticks meeting the hull are exactly this tick's members: the
  // hull starts at the first one, and ticks' hulls never overlap.
  const std::optional<Tick> first = source_->TickContaining(hull->first);
  GM_CHECK(first.has_value());
  const std::size_t begin = out->size();
  for (Tick s = *first; source_->TickHull(s)->first <= hull->last; ++s) {
    source_->TickExtent(s, out);
  }
  // Coalesce the pieces of consecutive members that touch.
  std::size_t last = begin;
  for (std::size_t i = begin + 1; i < out->size(); ++i) {
    if ((*out)[last].last + 1 >= (*out)[i].first) {
      (*out)[last].last = (*out)[i].last;
    } else {
      (*out)[++last] = (*out)[i];
    }
  }
  out->resize(last + 1);
}

}  // namespace granmine
