#ifndef GRANMINE_STREAM_ONLINE_MINER_H_
#define GRANMINE_STREAM_ONLINE_MINER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "granmine/common/math.h"
#include "granmine/common/result.h"
#include "granmine/common/ring_buffer.h"
#include "granmine/constraint/propagation.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/discovery.h"
#include "granmine/mining/miner.h"
#include "granmine/mining/reduction.h"
#include "granmine/stream/incremental_matcher.h"
#include "granmine/stream/ingestor.h"
#include "granmine/tag/builder.h"

namespace granmine {

namespace persist {
class StreamSessionCodec;
}

struct OnlineMinerOptions {
  /// Out-of-order tolerance of the input stream (see StreamIngestor).
  std::int64_t tolerance = 0;
  /// Retention horizon: reference occurrences anchored more than this far
  /// behind the watermark are evicted with their counts retracted, so a
  /// snapshot covers exactly the retained suffix. kInfinity = keep all.
  std::int64_t retention = kInfinity;
  /// Borrowed pool for snapshot candidate merges (the Engine sets its own);
  /// null = serial. Ingest never uses it. Same semantics as
  /// MinerOptions::executor.
  Executor* executor = nullptr;
  /// Candidate-space cap. Unlike the batch miner, the streaming miner keeps
  /// one resident run per (root, candidate), so memory is
  /// O(max_candidates × resident roots) — hence the much lower default.
  std::uint64_t max_candidates = 100'000;
  /// Matcher budget per anchored run.
  std::uint64_t max_configurations_per_run = 50'000'000;
  /// Reorder-buffer cap (see IngestorOptions::max_buffered_events): 0 =
  /// unbounded; otherwise arrivals beyond the cap are shed with a counted,
  /// retryable ResourceExhausted instead of growing the buffer. Shed
  /// arrivals never enter the retained prefix, so the equivalence contract
  /// holds over the *admitted* arrivals verbatim.
  std::size_t max_buffered_events = 0;
  /// Request id (obs/context.h) stamped by the Engine when the stream is
  /// opened; every ingest/evict/snapshot span and log line of this session
  /// attributes to it. Not part of the checkpoint fingerprint.
  std::uint64_t request_id = 0;

  /// The batch MinerOptions every snapshot is byte-identical to: steps 1/2
  /// and window deadlines on (they are per-event/per-root monotone), steps
  /// 3/4 off (their pruning depends on the whole sequence, which a stream
  /// never has), partial-result policy.
  MinerOptions BatchEquivalent() const {
    MinerOptions batch;
    batch.check_consistency = true;
    batch.reduce_sequence = true;
    batch.reduce_roots = false;
    batch.screening_depth = 0;
    batch.use_window_deadlines = true;
    batch.on_exhaustion = MinerOptions::ExhaustionPolicy::kPartial;
    batch.max_candidates = max_candidates;
    batch.max_configurations_per_run = max_configurations_per_run;
    batch.executor = executor;
    batch.request_id = request_id;
    return batch;
  }
};

/// Online §5 discovery over a live event stream: ingests boundedly
/// out-of-order events, folds each committed group into resident TAG runs
/// exactly once (IncrementalMatcher), and serves mining-report snapshots on
/// demand without rescanning history.
///
/// **Equivalence contract** (the subsystem's invariant, enforced by
/// tests/stream_test.cc): at any point, `Snapshot()` is byte-identical to
/// `Miner(system, options.BatchEquivalent()).Mine(problem, prefix)` where
/// `prefix` is the canonical sequence of every retained committed event plus
/// everything still buffered — at every thread count, and under any
/// governor whose trips are deterministic (injected kMine faults, local
/// budgets). Late events never enter `prefix`; evicted groups leave it,
/// with their root and frequency contributions retracted.
///
/// Differences from the batch entry point, all checked at Create:
///  - every non-root variable needs an explicit non-empty allowed set (the
///    batch default — "the sequence's distinct types" — is unknowable on a
///    stream);
///  - the problem is validated once, up front;
///  - an inconsistent structure still yields a miner (snapshots report
///    refuted_by_propagation, with only the event counters live).
///
/// `problem.structure` and `system` must outlive the miner. Not thread-safe
/// externally; only snapshot merges use the borrowed executor.
class OnlineMiner {
 public:
  static Result<OnlineMiner> Create(GranularitySystem* system,
                                    const DiscoveryProblem& problem,
                                    OnlineMinerOptions options);

  OnlineMiner(OnlineMiner&&) = default;
  OnlineMiner& operator=(OnlineMiner&&) = default;

  /// Feeds one arrival. InvalidArgument iff the event is late (rejected,
  /// stream stays usable); otherwise buffers it and folds every group the
  /// advanced watermark committed into the resident runs.
  Status Ingest(Event event);
  Status Ingest(EventTypeId type, TimePoint time) {
    return Ingest(Event{type, time});
  }

  /// Terminal flush: commits everything buffered (no further out-of-order
  /// slack) and makes every later arrival late. Use before the final
  /// snapshot at end of stream.
  void Seal();

  /// The mining report over the current retained prefix — see the
  /// equivalence contract above. Cheap relative to a batch re-scan: runs
  /// are already decided or resident; the snapshot clones the resident
  /// state, flushes the reorder buffer into the clone, and merges verdicts
  /// in candidate order (deterministic at every thread count). `governor`
  /// applies to the merge scan only, mirroring the batch step-5 charge
  /// points (GovernorScope::kMine, global candidate index).
  Result<MiningReport> Snapshot(const ResourceGovernor* governor = nullptr);

  // --- telemetry -----------------------------------------------------------
  TimePoint watermark() const { return ingestor_.watermark(); }
  TimePoint horizon() const { return ingestor_.horizon(); }
  std::size_t buffered_events() const { return ingestor_.buffered_events(); }
  std::uint64_t late_events() const { return ingestor_.late_events(); }
  std::uint64_t shed_events() const { return ingestor_.shed_events(); }
  /// Reference occurrences with resident (live or frozen) runs.
  std::size_t resident_roots() const {
    return core_.matcher.has_value() ? core_.matcher->root_count() : 0;
  }
  /// Live TAG configurations across all pending resident runs — the E11
  /// resident-state metric.
  std::size_t resident_configurations() const {
    return core_.matcher.has_value() ? core_.matcher->resident_configurations()
                                     : 0;
  }
  std::size_t pending_runs() const {
    return core_.matcher.has_value() ? core_.matcher->pending_runs() : 0;
  }
  std::uint64_t candidates() const { return scan_total_; }

 private:
  /// Checkpoint/restore (persist/stream_codec.cc): serializes the dynamic
  /// state (ingestor buffer, core counters/groups, resident runs) against a
  /// fingerprint of the static configuration; everything else is re-derived
  /// by Create on restore.
  friend class persist::StreamSessionCodec;

  /// Accounting for one committed equal-timestamp group, retained so
  /// eviction can retract exactly what the group contributed.
  struct GroupRecord {
    TimePoint time = 0;
    std::size_t raw = 0;        ///< raw events committed
    std::size_t raw_roots = 0;  ///< raw reference occurrences
    std::size_t reduced = 0;    ///< events surviving step-2 reduction
  };

  /// Every piece of mutable mining state a snapshot must see — deep-copied
  /// by Snapshot so the reorder buffer can be flushed into the copy without
  /// committing it on the live stream.
  struct Core {
    std::size_t raw_events = 0;
    std::size_t raw_roots = 0;
    std::size_t reduced_events = 0;
    RingBuffer<GroupRecord> groups;
    /// Absent when propagation refuted the structure (nothing to match).
    std::optional<IncrementalMatcher> matcher;
  };

  OnlineMiner(GranularitySystem* system, DiscoveryProblem problem,
              OnlineMinerOptions options, VariableId root,
              std::unique_ptr<PropagationResult> propagation);

  /// Folds every group the ingestor has made ready into `core_`, then
  /// applies retention eviction.
  void DrainReady();
  void CommitGroup(Core* core, std::span<const Event> raw_group);
  void EvictCore(Core* core, TimePoint horizon);

  GranularitySystem* system_;
  DiscoveryProblem problem_;
  OnlineMinerOptions options_;
  VariableId root_;
  /// Heap-allocated for address stability (reducer_ points into it).
  std::unique_ptr<PropagationResult> propagation_;
  bool consistent_;
  std::vector<std::vector<EventTypeId>> allowed_;
  int type_count_;
  std::uint64_t candidates_before_;
  std::uint64_t scan_total_;
  bool clamped_;
  /// Owns the skeleton Tag the resident kernels point at (address-stable);
  /// null when the structure is inconsistent.
  std::unique_ptr<TagBuildResult> skeleton_;
  std::optional<EventReducer> reducer_;

  StreamIngestor ingestor_;
  Core core_;

  // Commit scratch (contents ephemeral; kept to avoid reallocation).
  TagKernelScratch kernel_scratch_;
  std::vector<Event> reduced_scratch_;
  std::vector<IncrementalMatcher::NewRootSpawn> spawn_scratch_;
};

}  // namespace granmine

#endif  // GRANMINE_STREAM_ONLINE_MINER_H_
