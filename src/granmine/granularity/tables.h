#ifndef GRANMINE_GRANULARITY_TABLES_H_
#define GRANMINE_GRANULARITY_TABLES_H_

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "granmine/common/status.h"
#include "granmine/granularity/granularity.h"

namespace granmine {

/// Computes and caches the paper's Appendix-A.1 table functions, all
/// expressed in primitive instants:
///
///  * minsize(μ, k) / maxsize(μ, k): minimum / maximum length of the span of
///    k consecutive ticks of μ (from the first instant of the first tick to
///    the last instant of the last, inclusive);
///  * mingap(μ, k): minimum of min(μ(i+k)) − max(μ(i)) over i.
///
/// Values are exact: uniform types answer in closed form; periodic types are
/// scanned over one period of start positions (plus the finite exception
/// window of holiday overlays), which covers every hull pattern the type can
/// exhibit. Queries return nullopt only when a scan would read a hull past
/// tick `kScanTickCap` (or past `LastFittingTick`); callers treat that
/// conservatively (no bound derived).
///
/// Identity has two phases. While *building*, values are memoized in one
/// map keyed by (granularity address, table, k); after `Seal()` (driven by
/// `GranularitySystem::Freeze()`) the family's values for k up to
/// `kSealedKCap` live in flat per-`GranularityId` arrays and a lookup is a
/// bounds-checked array read — no lookup in the memo, no lock. The memo
/// stays as the fallback for k beyond `kSealedKCap` and for granularities
/// outside the sealed family. A table instance must not outlive the
/// granularities it has been queried with.
///
/// Thread safety: all queries may be issued concurrently from any number of
/// threads. The memo sits behind one `std::mutex`, and a miss is scanned
/// under it, so each value is computed once and then shared. Post-seal the
/// dense arrays are immutable, so sealed hits take no lock. See
/// docs/concurrency.md and docs/architecture.md.
class GranularityTables {
 public:
  /// Largest k precomputed per (granularity, table) by `Seal`. Constraint
  /// conversion and propagation consult small k almost exclusively; larger
  /// k (deep binary-search probes of the Least* queries) stay on the memo.
  static constexpr std::int64_t kSealedKCap = 128;

  /// Largest tick index a table scan reads; also the most ticks one cycle
  /// plus the deviant window of a derived type may hold (periodic.h).
  static constexpr std::int64_t kScanTickCap = std::int64_t{1} << 20;

  /// Freezes the table set for `family` (granularities listed in id order,
  /// `family[i]->id() == i`): precomputes minsize/maxsize/mingap for every
  /// k in [1, kSealedKCap] into flat id-indexed arrays. Afterwards those
  /// lookups are plain array reads; anything else falls back to the memo.
  /// Idempotent; must not race with queries (freeze on the build thread,
  /// then share).
  void Seal(const std::vector<const Granularity*>& family);

  bool sealed() const { return sealed_; }

  /// One granularity's sealed tables as plain data: `minsize[k]` etc. for k
  /// in [1, kSealedKCap] (index 0 unused, all three sized kSealedKCap + 1),
  /// `kSealedNoValue` marking "query answered nullopt". The unit of the
  /// persist warm-start image (docs/persistence.md).
  struct SealedRow {
    std::vector<std::int64_t> minsize;
    std::vector<std::int64_t> maxsize;
    std::vector<std::int64_t> mingap;
  };

  /// Sentinel inside sealed rows/entries for "no value within the caps".
  static constexpr std::int64_t kSealedNoValue =
      std::numeric_limits<std::int64_t>::min();

  /// The sealed tables as plain data, one row per id in id order.
  /// Requires sealed().
  std::vector<SealedRow> ExportSealedRows() const;

  /// Seals directly from previously exported rows, skipping the per-k scans
  /// — the persist warm-start path. `family` as for `Seal`; `rows` must
  /// carry one entry per family member with all three tables sized
  /// kSealedKCap + 1. Fails (leaving the tables unsealed, memo path intact)
  /// on any shape mismatch. The values themselves are trusted; callers
  /// establish provenance first (`GranularitySystem::FreezeFromImage`
  /// recomputes small k as a spot-check).
  Status SealFromRows(const std::vector<const Granularity*>& family,
                      std::vector<SealedRow> rows);

  /// minsize(g, k); k >= 0 (0 yields 0).
  std::optional<std::int64_t> MinSize(const Granularity& g, std::int64_t k);
  /// maxsize(g, k); k >= 0 (0 yields 0).
  std::optional<std::int64_t> MaxSize(const Granularity& g, std::int64_t k);
  /// mingap(g, k); k >= 0. mingap(g, 0) = 1 - maxsize(g, 1) (may be negative).
  std::optional<std::int64_t> MinGap(const Granularity& g, std::int64_t k);

  /// Smallest s >= 1 with minsize(g, s) >= x (x >= 1), or nullopt when it
  /// cannot be established within the caps.
  std::optional<std::int64_t> LeastTicksCovering(const Granularity& g,
                                                 std::int64_t x);

  /// Smallest r >= 0 with maxsize(g, r) > x, or nullopt when it cannot be
  /// established within the caps. For x < 0 the answer is 0.
  std::optional<std::int64_t> LeastTicksExceeding(const Granularity& g,
                                                  std::int64_t x);

  /// Smallest s >= 1 with mingap(g, s) > x, or nullopt when it cannot be
  /// established within the caps. mingap is non-decreasing in s.
  std::optional<std::int64_t> LeastTicksWithGapExceeding(const Granularity& g,
                                                         std::int64_t x);

 private:
  /// The table function a scan computes; selects the sealed row and fold.
  enum class Table { kMinSize, kMaxSize, kMinGap };

  /// One frozen granularity's precomputed tables: `minsize[k]` etc. for k in
  /// [1, kSealedKCap] (index 0 unused), `kSealedNoValue` marking nullopt.
  /// `gran` guards against id collisions across systems: a lookup only
  /// trusts the slot when the address matches.
  struct SealedEntry {
    const Granularity* gran = nullptr;
    std::vector<std::int64_t> minsize;
    std::vector<std::int64_t> maxsize;
    std::vector<std::int64_t> mingap;
  };

  /// The granularity's closed-form value for k >= 1, if it has one.
  static std::optional<std::int64_t> Analytic(Table table,
                                              const Granularity& g,
                                              std::int64_t k);
  /// One table value for k >= 1: sealed, analytic or scanned.
  std::optional<std::int64_t> Value(Table table, const Granularity& g,
                                    std::int64_t k);
  /// Memoized lookup/compute of one table value for k >= 1 (analytic paths
  /// already exhausted by the caller). Takes `memo_mutex_`.
  std::optional<std::int64_t> ScannedValue(Table table, const Granularity& g,
                                           std::int64_t k);

  /// Sealed fast path of ScannedValue: the precomputed value for
  /// (table, g, k), or nullopt when the lookup must fall back to the memo
  /// (not sealed, k out of range, or g outside the sealed family). The
  /// inner optional is the table answer itself (kSealedNoValue → nullopt).
  std::optional<std::optional<std::int64_t>> SealedValue(
      Table table, const Granularity& g, std::int64_t k) const;

  std::mutex memo_mutex_;
  /// Scanned values by (granularity, table, k); guarded by memo_mutex_.
  std::map<std::tuple<const Granularity*, Table, std::int64_t>, std::int64_t>
      memo_;
  /// Immutable after Seal; indexed by GranularityId.
  std::vector<SealedEntry> sealed_entries_;
  bool sealed_ = false;
};

}  // namespace granmine

#endif  // GRANMINE_GRANULARITY_TABLES_H_
