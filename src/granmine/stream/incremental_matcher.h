#ifndef GRANMINE_STREAM_INCREMENTAL_MATCHER_H_
#define GRANMINE_STREAM_INCREMENTAL_MATCHER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "granmine/common/ring_buffer.h"
#include "granmine/sequence/event.h"
#include "granmine/tag/step_kernel.h"

namespace granmine {

namespace persist {
class StreamSessionCodec;
}

/// Verdict of one resident (root, candidate) run.
enum class RunVerdict : std::uint8_t {
  kPending,   ///< frontier live; more groups may decide it
  kAccepted,  ///< anchored match found (monotone: final)
  kRejected,  ///< frontier died, or the root's deadline passed while pending
  kUnknown,   ///< per-run configuration budget exhausted
};

/// One resident anchored TAG run: the frontier (while pending) plus the
/// stats the batch matcher would have reported for the same run. Once
/// decided, the frontier is released and the stats freeze — a decided run
/// costs ~sizeof this struct until its root is evicted.
struct ResidentRun {
  TagRunState run;
  MatchStats stats;
  RunVerdict verdict = RunVerdict::kPending;
};

/// A reference occurrence committed from the stream: one resident run per
/// candidate assignment, anchored at the occurrence.
struct RootRuns {
  TimePoint t0 = 0;
  /// From ComputeRootWindows: groups after this instant cannot affect the
  /// root, so passing it finalizes every pending run as rejected (the main
  /// GC lever of the streaming subsystem).
  TimePoint deadline = 0;
  std::vector<ResidentRun> slots;  ///< indexed by candidate
  /// Active candidates still pending (skip-whole-root optimization).
  std::size_t pending = 0;
};

/// Keeps the TAG configuration sets of every live (root, candidate) pair
/// resident across committed groups, so each event is folded into every
/// affected run exactly once — the streaming replacement for batch step 5's
/// full re-scan.
///
/// Equivalence contract: after advancing over the same canonical group
/// sequence the batch matcher would scan, every slot's (verdict, stats) is
/// exactly what `TagMatcher::Run` returns for that (root suffix, candidate)
/// — both sides drive the shared `TagKernel` through identical group
/// advances. Roots are finalized (pending → rejected, frontier freed) as
/// soon as the first group beyond their deadline commits; the batch run
/// would simply never feed those groups, so outcomes and stats agree.
///
/// Roots advance one after another on the calling thread: the per-event
/// work is one group fold per live run, too small to pay for a fan-out.
/// Not thread-safe externally.
class IncrementalMatcher {
 public:
  /// A reference occurrence to spawn during AdvanceGroup: `pos` indexes the
  /// occurrence inside the (reduced, canonical) group — its first advance
  /// covers the group suffix from `pos`, mirroring the batch scan of
  /// `SuffixFrom(occurrence)`.
  struct NewRootSpawn {
    std::size_t pos = 0;
    TimePoint deadline = 0;
  };

  /// `tag` must outlive the matcher. `symbols[c]` / `(*active)[c]` describe
  /// candidate c (shared, immutable — snapshot clones alias them).
  /// Inactive candidates (statically refuted by type constraints) get no
  /// runs, matching the batch evaluator's early return.
  IncrementalMatcher(const Tag* tag,
                     std::shared_ptr<const std::vector<SymbolMap>> symbols,
                     std::shared_ptr<const std::vector<char>> active,
                     std::uint64_t max_configurations);

  /// Advances every live run over one committed group (non-empty, one
  /// timestamp, canonical order, already reduced), spawning `new_roots`
  /// first. `scratch` is the kernel scratch every advance reuses.
  void AdvanceGroup(std::span<const Event> group,
                    std::span<const NewRootSpawn> new_roots,
                    TagKernelScratch* scratch);

  /// Drops every root with t0 strictly below `horizon` (retention eviction;
  /// roots leave in commit order from the front).
  void EvictBefore(TimePoint horizon);

  std::size_t root_count() const { return roots_.size(); }
  /// Roots in commit (= canonical time) order — the batch scan order.
  const RootRuns& root(std::size_t i) const { return roots_[i]; }

  std::size_t candidate_count() const { return candidate_count_; }

  /// Live TAG configurations across all pending runs (telemetry; the E11
  /// resident-state metric).
  std::size_t resident_configurations() const;
  /// Pending (undecided) runs across all roots.
  std::size_t pending_runs() const;

 private:
  /// Checkpoint/restore (persist/stream_codec.cc): serializes roots_ (the
  /// only dynamic state); kernel/symbols/active are rebuilt by Create.
  friend class persist::StreamSessionCodec;

  void Finalize(RootRuns* root);

  TagKernel kernel_;
  std::shared_ptr<const std::vector<SymbolMap>> symbols_;
  std::shared_ptr<const std::vector<char>> active_;
  std::uint64_t max_configurations_;
  std::size_t candidate_count_;
  std::size_t active_count_;
  RingBuffer<RootRuns> roots_;
};

}  // namespace granmine

#endif  // GRANMINE_STREAM_INCREMENTAL_MATCHER_H_
