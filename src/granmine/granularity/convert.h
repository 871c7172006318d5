#ifndef GRANMINE_GRANULARITY_CONVERT_H_
#define GRANMINE_GRANULARITY_CONVERT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "granmine/common/status.h"
#include "granmine/granularity/granularity.h"

namespace granmine {

/// The paper's `⌈z⌉^μ_ν` (§2): the unique tick z' of `mu` whose extent
/// contains the *entire* extent of tick z of `nu`, or nullopt when no single
/// tick of `mu` covers it (e.g., a week straddling two months).
std::optional<Tick> CoveringTick(const Granularity& mu, const Granularity& nu,
                                 Tick z);

/// Decides the Appendix-A.1 feasibility precondition for converting
/// constraints from `source` into `target`:
///   for all i, t:  t ∈ source(i)  ⇒  exists j: t ∈ target(j),
/// i.e., support(source) ⊆ support(target). Full-support types are decided
/// in O(1); gapped pairs by one merge walk of the source's tick extents
/// against the target's coalesced support runs over one joint period (plus
/// exception windows). Returns false conservatively when that walk exceeds
/// `scan_cap` source ticks — failing to convert is always sound.
bool SupportCovers(const Granularity& target, const Granularity& source,
                   std::int64_t scan_cap = std::int64_t{1} << 20);

/// Memoizing wrapper around SupportCovers. Must not outlive the
/// granularities it has seen.
///
/// Identity has two phases, mirroring `GranularityTables`. While building,
/// answers are memoized in one map keyed by the (target, source) addresses;
/// after `Seal()` (driven by `GranularitySystem::Freeze()`) every
/// (target, source) answer for the family lives in a flat id×id matrix and a
/// lookup is two bounds-checked array reads — no lookup in the memo, no
/// lock. Pairs involving a granularity outside the sealed family fall back
/// to the memo.
///
/// Thread safety: `Covers` may be called concurrently. The memo sits behind
/// one `std::mutex`, and a miss computes `SupportCovers` under it, so each
/// answer is computed once and then shared. Post-seal the matrix is
/// immutable, so sealed hits take no lock.
class SupportCoverageCache {
 public:
  bool Covers(const Granularity& target, const Granularity& source);

  /// Freezes coverage for `family` (listed in id order): computes
  /// SupportCovers for every ordered pair into a dense id×id matrix,
  /// bypassing the memo (so a freeze counts no lookups).
  /// Idempotent; must not race with `Covers` (freeze on the build thread,
  /// then share).
  void Seal(const std::vector<const Granularity*>& family);

  bool sealed() const { return sealed_; }

  /// The sealed id×id matrix as plain data, row-major target×source.
  /// Requires sealed().
  std::vector<bool> ExportSealedMatrix() const;

  /// Seals directly from a previously exported matrix, skipping the pairwise
  /// SupportCovers scans — the persist warm-start path. `family` as for
  /// `Seal`; `matrix` must be family-size squared. Fails (leaving the cache
  /// unsealed) on any shape mismatch; values are trusted, provenance is the
  /// caller's job (`GranularitySystem::FreezeFromImage`).
  Status SealFromMatrix(const std::vector<const Granularity*>& family,
                        std::vector<bool> matrix);

 private:
  std::mutex memo_mutex_;
  /// Answers by (target, source); guarded by memo_mutex_.
  std::map<std::pair<const Granularity*, const Granularity*>, bool> memo_;

  /// Immutable after Seal. `sealed_matrix_[target_id * n + source_id]`
  /// holds the answer; `sealed_family_` doubles as the id → address guard
  /// (a slot is trusted only when both addresses match).
  std::vector<const Granularity*> sealed_family_;
  std::vector<bool> sealed_matrix_;
  bool sealed_ = false;
};

}  // namespace granmine

#endif  // GRANMINE_GRANULARITY_CONVERT_H_
