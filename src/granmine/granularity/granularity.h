#ifndef GRANMINE_GRANULARITY_GRANULARITY_H_
#define GRANMINE_GRANULARITY_GRANULARITY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "granmine/common/time_span.h"

namespace granmine {

/// Dense index of a granularity within its owning `GranularitySystem`,
/// assigned in registration order. Ids are the identity the frozen caches
/// key on: after `GranularitySystem::Freeze()` every table/coverage lookup
/// is a bounds-checked array access on `id()` instead of pointer hashing.
using GranularityId = std::int32_t;

/// `id()` of a granularity not (yet) registered with a system.
inline constexpr GranularityId kInvalidGranularityId = -1;

/// A *temporal type* per §2 of the paper: a mapping from tick indices
/// (positive integers) to sets of absolute time instants such that
///   (1) non-empty ticks are monotonically ordered, and
///   (2) once a tick is empty all later ticks are empty.
///
/// Instances here are infinite (no tick is ever empty) and *eventually
/// periodic*: the hull pattern repeats with `periodicity()`, except possibly
/// inside a finite exception window (holiday overlays), see
/// `IsStrictlyPeriodic()`. Every algorithm in granmine manipulates
/// granularities exclusively through this interface.
///
/// Granularities are created and owned by a `GranularitySystem` and
/// referenced by `const Granularity*`; the system additionally assigns each
/// one a dense `GranularityId` (`id()`), which is the identity the shared
/// caches use after `Freeze()` — the pointer remains a convenient handle,
/// but the frozen tables and coverage matrix are indexed by id, not hashed
/// by address.
class Granularity {
 public:
  /// Periodic structure of the hull pattern:
  /// `TickHull(z + ticks_per_period).first == TickHull(z).first + period`
  /// for every tick z outside the exception window.
  struct Periodicity {
    std::int64_t period = 1;            ///< in primitive instants
    std::int64_t ticks_per_period = 1;  ///< number of ticks per period
  };

  explicit Granularity(std::string name) : name_(std::move(name)) {}
  virtual ~Granularity() = default;

  Granularity(const Granularity&) = delete;
  Granularity& operator=(const Granularity&) = delete;

  const std::string& name() const { return name_; }

  /// Dense index within the owning system (`kInvalidGranularityId` until
  /// registered). `system.family()[g->id()] == g` for registered types.
  GranularityId id() const { return id_; }

  /// The index of the tick whose extent contains instant `t`, or nullopt when
  /// `t` falls in a gap between ticks (e.g., a Saturday for `b-day`) or
  /// before tick 1. This is the paper's `⌈t⌉^μ` for a primitive instant t.
  virtual std::optional<Tick> TickContaining(TimePoint t) const = 0;

  /// The convex hull [min extent, max extent] of tick `z`, or nullopt when
  /// z < 1. For interval granularities the hull *is* the extent.
  virtual std::optional<TimeSpan> TickHull(Tick z) const = 0;

  virtual Periodicity periodicity() const = 0;

  /// True when every tick's extent equals its hull (no internal gaps).
  /// False for group-by types such as `b-month`, whose ticks are unions.
  virtual bool ticks_are_intervals() const { return true; }

  /// Appends the extent of tick `z` as maximal disjoint intervals in
  /// increasing order. Default: the hull as a single interval.
  virtual void TickExtent(Tick z, std::vector<TimeSpan>* out) const;

  /// True when the support (union of all extents) is a single unbounded
  /// interval [SupportStart(), +inf) — i.e., there are no gaps at all.
  virtual bool HasFullSupport() const { return false; }

  /// The first instant covered by any tick (== TickHull(1)->first).
  TimePoint SupportStart() const;

  /// True when the hull pattern is exactly periodic for *all* ticks.
  /// False only for exception overlays (holidays); see LastDeviantTick().
  virtual bool IsStrictlyPeriodic() const { return true; }

  /// For non-strictly-periodic types: an upper bound on the last tick index
  /// whose hull or extent deviates from the pure periodic pattern; ticks
  /// after it, extents included, obey `periodicity()`. Meaningless (0) for
  /// strictly periodic types.
  virtual Tick LastDeviantTick() const { return 0; }

  /// Exact closed-form tables where available (uniform types); nullopt means
  /// "compute by scanning" (see GranularityTables). All values in primitive
  /// instants; k >= 1.
  virtual std::optional<std::int64_t> AnalyticMinSize(std::int64_t k) const;
  virtual std::optional<std::int64_t> AnalyticMaxSize(std::int64_t k) const;
  virtual std::optional<std::int64_t> AnalyticMinGap(std::int64_t k) const;

  /// Whether instant `t` belongs to the support.
  bool InSupport(TimePoint t) const { return TickContaining(t).has_value(); }

 private:
  friend class GranularitySystem;  // assigns id_ at registration

  std::string name_;
  GranularityId id_ = kInvalidGranularityId;
};

/// `⌈t2⌉^μ − ⌈t1⌉^μ` when both ticks are defined, else nullopt.
std::optional<std::int64_t> TickDifference(const Granularity& g, TimePoint t1,
                                           TimePoint t2);

/// Smallest tick z with TickHull(z)->last >= t (the tick containing t, or the
/// first tick entirely after t). nullopt when t precedes tick 1's start and
/// z would be < 1 — never happens since tick 1 qualifies; returns 1 then.
Tick FirstTickEndingAtOrAfter(const Granularity& g, TimePoint t);

/// Largest tick z with TickHull(z)->first <= t, or nullopt when t precedes
/// the start of tick 1.
std::optional<Tick> LastTickStartingAtOrBefore(const Granularity& g,
                                               TimePoint t);

/// The last tick whose hull is known to end below kInfinity (0 when the
/// first cycle already reaches it), at most kInfinity: every tick up to it
/// can be asked for its hull without int64 overflow.
Tick LastFittingTick(const Granularity& g);

}  // namespace granmine

#endif  // GRANMINE_GRANULARITY_GRANULARITY_H_
