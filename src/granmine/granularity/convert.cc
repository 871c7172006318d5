#include "granmine/granularity/convert.h"

#include <algorithm>
#include <mutex>
#include <numeric>
#include <vector>

#include "granmine/common/check.h"
#include "granmine/common/math.h"
#include "granmine/obs/obs.h"

namespace granmine {

std::optional<Tick> CoveringTick(const Granularity& mu, const Granularity& nu,
                                 Tick z) {
  if (z < 1) return std::nullopt;
  std::vector<TimeSpan> nu_extent;
  nu.TickExtent(z, &nu_extent);
  if (nu_extent.empty()) return std::nullopt;
  std::optional<Tick> candidate = mu.TickContaining(nu_extent.front().first);
  if (!candidate.has_value()) return std::nullopt;
  std::vector<TimeSpan> mu_extent;
  mu.TickExtent(*candidate, &mu_extent);
  // Every nu interval must lie inside some mu interval of the candidate tick.
  std::size_t j = 0;
  for (const TimeSpan& piece : nu_extent) {
    while (j < mu_extent.size() && mu_extent[j].last < piece.first) ++j;
    if (j >= mu_extent.size() || !mu_extent[j].Contains(piece)) {
      return std::nullopt;
    }
  }
  return candidate;
}

namespace {

// Streams the support of `g` in increasing order: the tick extents in tick
// order, with pieces that touch (across a tick boundary too) coalesced into
// one run. Coalescing stops as soon as the queried span is decided, so a
// gapped type whose pieces happen to tile the line still terminates.
class SupportRuns {
 public:
  // Starts at the tick holding or following instant `from`.
  SupportRuns(const Granularity& g, TimePoint from)
      : g_(g), next_tick_(FirstTickEndingAtOrAfter(g, from)) {
    run_ = NextPiece();
  }

  // Whether every instant of the non-empty `span` is in the support. Spans
  // must be queried in increasing, disjoint order, none before `from`.
  bool Contains(const TimeSpan& span) {
    if (run_.last < span.first) {
      // The run is behind the span: seek to the tick holding span.first
      // rather than stream there, which would walk every tick of a gap as
      // long as a sparse source's period.
      const std::optional<Tick> z = g_.TickContaining(span.first);
      if (!z.has_value()) return false;
      if (*z >= next_tick_) {
        next_tick_ = *z;
        extent_.clear();
        cursor_ = 0;
        run_ = NextPiece();
      }
    }
    while (run_.last < span.last) {
      const TimeSpan next = NextPiece();
      if (next.first <= run_.last + 1) {
        run_.last = std::max(run_.last, next.last);
        continue;
      }
      // A gap at run_.last + 1; it lies inside the span when the run
      // reaches into it. Either way the old run serves no later span.
      const bool gap_in_span = run_.last >= span.first;
      run_ = next;
      if (gap_in_span) return false;
    }
    // run_.first is preceded by a gap (or by `from`), so it must not start
    // after the span does.
    return run_.first <= span.first;
  }

 private:
  TimeSpan NextPiece() {
    while (cursor_ == extent_.size()) {
      extent_.clear();
      cursor_ = 0;
      g_.TickExtent(next_tick_++, &extent_);
    }
    return extent_[cursor_++];
  }

  const Granularity& g_;
  Tick next_tick_;
  std::vector<TimeSpan> extent_;
  std::size_t cursor_ = 0;
  TimeSpan run_;
};

}  // namespace

bool SupportCovers(const Granularity& target, const Granularity& source,
                   std::int64_t scan_cap) {
  // Event timestamps are non-negative (§2: positive integers of the
  // primitive type), so coverage only has to hold on [0, +inf).
  const TimePoint source_start = std::max<TimePoint>(source.SupportStart(), 0);
  if (source.HasFullSupport()) {
    return target.HasFullSupport() && target.SupportStart() <= source_start;
  }
  if (target.HasFullSupport()) {
    return target.SupportStart() <= source_start;
  }
  // Both gapped: scan source ticks across one joint period, extended past
  // both exception windows.
  const Granularity::Periodicity ps = source.periodicity();
  const Granularity::Periodicity pt = target.periodicity();
  std::int64_t joint_period;
  if (__builtin_mul_overflow(ps.period / std::gcd(ps.period, pt.period),
                             pt.period, &joint_period)) {
    return false;  // conservatively infeasible
  }
  std::int64_t joint_source_ticks =
      joint_period / ps.period * ps.ticks_per_period;
  Tick last = source.LastDeviantTick() + joint_source_ticks;
  // Extend past the target's exception window as well.
  if (!target.IsStrictlyPeriodic()) {
    std::optional<TimeSpan> dev_hull =
        target.TickHull(target.LastDeviantTick() + 1);
    GM_CHECK(dev_hull.has_value());
    last = std::max(last, FirstTickEndingAtOrAfter(source, dev_hull->last) +
                              joint_source_ticks);
  }
  if (last > scan_cap) return false;  // conservatively infeasible
  // Merge walk: source pieces arrive in increasing order, so one pass over
  // the target's support runs serves them all.
  SupportRuns runs(target, source_start);
  std::vector<TimeSpan> extent;
  for (Tick z = 1; z <= last; ++z) {
    extent.clear();
    source.TickExtent(z, &extent);
    for (TimeSpan piece : extent) {
      piece.first = std::max<TimePoint>(piece.first, 0);
      if (piece.empty()) continue;
      if (!runs.Contains(piece)) return false;
    }
  }
  return true;
}

void SupportCoverageCache::Seal(
    const std::vector<const Granularity*>& family) {
  if (sealed_) return;
  const std::size_t n = family.size();
  sealed_family_ = family;
  sealed_matrix_.assign(n * n, false);
  for (std::size_t t = 0; t < n; ++t) {
    GM_CHECK(family[t] != nullptr);
    GM_CHECK(family[t]->id() == static_cast<GranularityId>(t));
    for (std::size_t s = 0; s < n; ++s) {
      sealed_matrix_[t * n + s] = SupportCovers(*family[t], *family[s]);
    }
  }
  sealed_ = true;
}

std::vector<bool> SupportCoverageCache::ExportSealedMatrix() const {
  GM_CHECK(sealed_) << "ExportSealedMatrix on an unsealed coverage cache";
  return sealed_matrix_;
}

Status SupportCoverageCache::SealFromMatrix(
    const std::vector<const Granularity*>& family, std::vector<bool> matrix) {
  if (sealed_) {
    return Status::Internal("support coverage cache is already sealed");
  }
  const std::size_t n = family.size();
  if (matrix.size() != n * n) {
    return Status::Invalid("coverage-matrix image has " +
                           std::to_string(matrix.size()) +
                           " cells for a family of " + std::to_string(n));
  }
  for (std::size_t id = 0; id < n; ++id) {
    if (family[id] == nullptr ||
        family[id]->id() != static_cast<GranularityId>(id)) {
      return Status::Invalid("family member " + std::to_string(id) +
                             " is not id-indexed; cannot seal coverage");
    }
  }
  sealed_family_ = family;
  sealed_matrix_ = std::move(matrix);
  sealed_ = true;
  return Status::OK();
}

bool SupportCoverageCache::Covers(const Granularity& target,
                                  const Granularity& source) {
  if (sealed_) {
    const std::size_t n = sealed_family_.size();
    const GranularityId tid = target.id();
    const GranularityId sid = source.id();
    if (tid >= 0 && sid >= 0 && static_cast<std::size_t>(tid) < n &&
        static_cast<std::size_t>(sid) < n &&
        sealed_family_[static_cast<std::size_t>(tid)] == &target &&
        sealed_family_[static_cast<std::size_t>(sid)] == &source) {
      GM_COUNTER_ADD("granmine_coverage_lookups_total", "result=\"sealed\"",
                     1);
      return sealed_matrix_[static_cast<std::size_t>(tid) * n +
                            static_cast<std::size_t>(sid)];
    }
  }
  std::lock_guard<std::mutex> lock(memo_mutex_);
  const auto key = std::make_pair(&target, &source);
  if (auto it = memo_.find(key); it != memo_.end()) {
    GM_COUNTER_ADD("granmine_coverage_lookups_total", "result=\"hit\"", 1);
    return it->second;
  }
  // Miss: compute under the lock, so each answer is computed once.
  GM_COUNTER_ADD("granmine_coverage_lookups_total", "result=\"miss\"", 1);
  const bool result = SupportCovers(target, source);
  memo_.emplace(key, result);
  return result;
}

}  // namespace granmine
