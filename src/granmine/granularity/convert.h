#ifndef GRANMINE_GRANULARITY_CONVERT_H_
#define GRANMINE_GRANULARITY_CONVERT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
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
/// pairs are keyed by address in hashed shards; after `Seal()` (driven by
/// `GranularitySystem::Freeze()`) every (target, source) answer for the
/// family lives in a flat id×id matrix and a lookup is two bounds-checked
/// array reads — no hashing, no lock. Pairs involving a granularity outside
/// the sealed family fall back to the sharded memo.
///
/// Thread safety: `Covers` may be called concurrently. Pre-seal (and on the
/// fallback path) the memo is split into address-hashed shards, each behind
/// a `std::shared_mutex`; hits take only the shared lock, and misses compute
/// `SupportCovers` (a pure function) outside any lock, so a race at worst
/// recomputes the same value. Post-seal the matrix is immutable, so sealed
/// hits are wait-free.
class SupportCoverageCache {
 public:
  bool Covers(const Granularity& target, const Granularity& source);

  /// Freezes coverage for `family` (listed in id order): precomputes
  /// SupportCovers for every ordered pair into a dense id×id matrix.
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
  using Key = std::pair<const Granularity*, const Granularity*>;

  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      std::size_t h = std::hash<const void*>()(key.first);
      return h ^ (std::hash<const void*>()(key.second) +
                  std::size_t{0x9e3779b97f4a7c15ULL} + (h << 6) + (h >> 2));
    }
  };

  static constexpr std::size_t kShards = 8;

  struct Shard {
    std::shared_mutex mutex;
    std::unordered_map<Key, bool, KeyHash> cache;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[KeyHash()(key) % kShards];
  }

  Shard shards_[kShards];

  /// Immutable after Seal. `sealed_matrix_[target_id * n + source_id]`
  /// holds the answer; `sealed_family_` doubles as the id → address guard
  /// (a slot is trusted only when both addresses match).
  std::vector<const Granularity*> sealed_family_;
  std::vector<bool> sealed_matrix_;
  bool sealed_ = false;
};

}  // namespace granmine

#endif  // GRANMINE_GRANULARITY_CONVERT_H_
