#ifndef GRANMINE_MINING_SCAN_DRIVER_H_
#define GRANMINE_MINING_SCAN_DRIVER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "granmine/common/governor.h"
#include "granmine/common/result.h"
#include "granmine/mining/discovery.h"
#include "granmine/sequence/sequence.h"

namespace granmine {

class Executor;

/// Smallest type universe covering the sequence, σ and E0: the step-5 symbol
/// map's size. A stream passes no sequence, which behaves identically: step
/// 2 drops every event typed outside σ ∪ {E0} before the matcher sees it.
int TypeUniverseSize(const DiscoveryProblem& problem,
                     const EventSequence& sequence,
                     const std::vector<std::vector<EventTypeId>>& allowed);

/// Mixed-radix enumeration of candidate assignments over `allowed` with the
/// root variable pinned and the last variable least significant. `OdometerAt`
/// seeks straight to the state after `index` advances so chunked workers can
/// jump to their slice of the candidate space; `AdvanceOdometer` is one
/// enumeration step (false when wrapped).
std::vector<std::size_t> OdometerAt(
    const std::vector<std::vector<EventTypeId>>& allowed, VariableId root,
    std::uint64_t index);
bool AdvanceOdometer(const std::vector<std::vector<EventTypeId>>& allowed,
                     VariableId root, std::vector<std::size_t>* odometer);

/// Number of candidate assignments (product of non-root domain sizes),
/// saturating at 2^62; 0 when any non-root domain is empty.
std::uint64_t CandidateCount(
    const std::vector<std::vector<EventTypeId>>& allowed, VariableId root);

/// Per-range scan accounting. Every candidate of the scanned prefix ends in
/// exactly one bucket — confirmed, refuted, unknown, or not_evaluated — so
/// the merged buckets always sum to the candidate total (the
/// MiningCompleteness invariant).
struct ScanOutcome {
  std::vector<DiscoveredType> solutions;
  std::vector<UnknownCandidate> unknown_sample;  // chunk-local prefix
  std::uint64_t confirmed = 0;
  std::uint64_t refuted = 0;
  std::uint64_t unknown = 0;
  std::uint64_t not_evaluated = 0;
  std::uint64_t tag_runs = 0;
  std::uint64_t configurations = 0;
  /// Kernel transition / group totals behind this range's runs (accumulated
  /// from MatchStats by the evaluator; flushed to the obs layer on merge).
  std::uint64_t transitions = 0;
  std::uint64_t kernel_groups = 0;
  /// First cause (candidate order) that interrupted work in this range.
  StopCause first_stop = StopCause::kNone;
  /// The stopping candidate hit the matcher's local configuration budget
  /// (drives the legacy kAbort error message).
  bool budget_exhausted = false;
  /// False = the chunk was abandoned before scanning anything.
  bool ran = false;
};

enum class CandidateFate { kDecided, kUnknown };

/// Evaluates one candidate assignment φ. `index` is the global candidate
/// position in [0, scan_total) — the streaming miner uses it to address
/// resident per-candidate state. `worker` indexes per-worker scratch state
/// (in [0, executor->num_threads()); 0 on the serial path). The evaluator
/// records its verdict in `out` (confirmed/refuted counts, solutions,
/// tag_runs, configurations) and returns kDecided, or returns kUnknown with
/// `*reason` set to what interrupted it. It must not touch `out->unknown`,
/// `out->not_evaluated`, `out->first_stop`, or `out->unknown_sample` — the
/// driver owns those.
using CandidateEvaluator = std::function<CandidateFate(
    const std::vector<EventTypeId>& phi, std::uint64_t index, int worker,
    ScanOutcome* out, StopCause* reason)>;

struct ScanDriverOptions {
  /// Borrowed thread pool (e.g. the Engine's); null = the serial path. Size
  /// per-worker scratch by the pool's `num_threads()`. The merged report is
  /// identical either way.
  Executor* executor = nullptr;
  /// ExhaustionPolicy::kPartial: interruptions degrade candidates to unknown
  /// instead of aborting the scan.
  bool partial = false;
  /// Shared governor; charged once per candidate under GovernorScope::kMine
  /// with the global candidate index, so injection targets a candidate, not
  /// a thread.
  const ResourceGovernor* governor = nullptr;
  /// Request id carried into worker chunks (each chunk installs an
  /// obs::RequestScope before its scan_chunk span). 0 = unattributed.
  std::uint64_t request_id = 0;
};

/// The deterministically merged result of a candidate scan.
struct ScanMergeResult {
  std::vector<DiscoveredType> solutions;        ///< candidate order
  std::vector<UnknownCandidate> unknown_sample;  ///< first kUnknownSampleCap
  std::uint64_t confirmed = 0;
  std::uint64_t refuted = 0;
  std::uint64_t unknown = 0;
  std::uint64_t not_evaluated = 0;
  std::uint64_t tag_runs = 0;
  std::uint64_t configurations = 0;
  std::uint64_t transitions = 0;
  std::uint64_t kernel_groups = 0;
  /// First stop cause in candidate order, kNone when nothing was interrupted.
  StopCause first_stop = StopCause::kNone;
  /// Abort mode only: the first interruption as a Status (OK under kPartial
  /// or when the scan completed).
  Status status = Status::OK();
};

/// The step-5 candidate scan driver shared by the batch `Miner` and the
/// streaming `OnlineMiner`: enumerates candidates [0, scan_total) through the
/// odometer, fans them across an `Executor` in fixed-size chunks, charges the
/// governor per candidate (deterministic global index), and merges chunk
/// outcomes back in candidate order — solutions and unknown samples keep
/// their global order, the first stop cause in candidate order wins, and
/// chunks abandoned after a stop are accounted as not_evaluated. For a fixed
/// (allowed, root, scan_total, evaluator) the merged result is byte-identical
/// across thread counts and injected faults.
ScanMergeResult ScanCandidates(
    const std::vector<std::vector<EventTypeId>>& allowed, VariableId root,
    std::uint64_t scan_total, const ScanDriverOptions& options,
    const CandidateEvaluator& evaluator);

/// Flushes a merged scan's totals to the obs counters, then folds it into
/// `report` (runs, configurations, verdicts, solutions, unknown sample);
/// with `clamped`, the candidates past `scan_total` are not evaluated and
/// the stop defaults to kStepBudget. Returns the merged status, folding
/// nothing when it is not OK. A caller adds work done outside the candidate
/// scan (the miner's shared runs) to `merged` first.
Status FoldScanIntoReport(ScanMergeResult merged, std::uint64_t scan_total,
                          bool clamped, MiningReport* report);

}  // namespace granmine

#endif  // GRANMINE_MINING_SCAN_DRIVER_H_
