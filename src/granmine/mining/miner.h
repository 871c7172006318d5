#ifndef GRANMINE_MINING_MINER_H_
#define GRANMINE_MINING_MINER_H_

#include <cstdint>

#include "granmine/common/executor.h"
#include "granmine/common/result.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/discovery.h"
#include "granmine/sequence/sequence.h"
#include "granmine/tag/matcher.h"

namespace granmine {

/// Which of the §5 optimization steps run; every step is independently
/// toggleable for the E5 ablation benchmarks. The naive algorithm of §5 is
/// `MinerOptions::Naive()` (every optimization off, pure step-5 scan).
struct MinerOptions {
  /// Step 1: discard inconsistent structures via approximate propagation.
  bool check_consistency = true;
  /// Step 2: reduce the event sequence by definedness requirements.
  bool reduce_sequence = true;
  /// Step 3: discard reference occurrences whose derived windows are
  /// unsatisfiable, then cut roots per candidate: step 5 runs φ only at
  /// the roots where every φ(v) has a usable event in v's window, and stops
  /// once φ can no longer clear min_confidence. Off, step 5 runs every
  /// candidate at every reference occurrence.
  bool reduce_roots = true;
  /// Step 4: screen candidate types through induced discovery problems up
  /// to this many non-root variables (0 = off; 1 = window screening;
  /// >= 2 adds sub-chain induced problems).
  int screening_depth = 1;
  /// Truncate step-5 TAG scans at the derived per-root deadline.
  bool use_window_deadlines = true;

  /// What to do when a budget (matcher configurations, governor deadline /
  /// step budget / cancellation, max_candidates) interrupts the run.
  enum class ExhaustionPolicy {
    /// Fail the whole run with ResourceExhausted/Cancelled — the historical
    /// behavior, and the default.
    kAbort,
    /// Return OK with whatever was decided: undecided candidates become
    /// three-valued *unknown* verdicts (`MiningReport::completeness`,
    /// `unknown_sample`), never silently dropped.
    kPartial,
  };
  ExhaustionPolicy on_exhaustion = ExhaustionPolicy::kAbort;

  /// Degraded (screening-only) serving: run steps 1-4 — propagation,
  /// reduction, window viability, screening — but skip the step-5 exact
  /// scan entirely. Every candidate that survives screening is reported as
  /// *unknown* with StopCause::kDegraded (the screening verdicts that DID
  /// refute candidates remain exact, so the report still never says
  /// something wrong; it just says less). The Engine flips this on under
  /// admission pressure or after a memory stop; the report goes through the
  /// normal PARTIAL machinery regardless of `on_exhaustion`.
  bool degrade_to_screening = false;

  /// Abort with ResourceExhausted when the candidate space (after
  /// screening) still exceeds this. Under ExhaustionPolicy::kPartial the
  /// scan instead covers the first max_candidates candidates and reports
  /// the rest as not_evaluated.
  std::uint64_t max_candidates = 10'000'000;
  /// Cap on the number of k >= 2 induced problems evaluated.
  int max_induced_problems = 64;
  /// Matcher budget per anchored run.
  std::uint64_t max_configurations_per_run = 50'000'000;
  /// Borrowed thread pool fanning the step-5 (candidate × reference
  /// occurrence) TAG scans (the Engine threads its own here so every request
  /// shares one pool). Null (the default) runs the serial path. Any pool
  /// width yields the same MiningReport solutions in the same (lexicographic
  /// assignment) order — results are merged back in candidate-index order.
  Executor* executor = nullptr;
  /// Request id (obs/context.h) stamped by the Engine at admission; workers
  /// re-install it as their RequestScope so spans and log lines emitted from
  /// pool threads attribute to the originating request. 0 = unattributed.
  std::uint64_t request_id = 0;

  static MinerOptions Naive() {
    MinerOptions options;
    options.check_consistency = false;
    options.reduce_sequence = false;
    options.reduce_roots = false;
    options.screening_depth = 0;
    options.use_window_deadlines = false;
    return options;
  }
};

/// The §5 discovery procedure: steps 1-4 shrink the search space, step 5
/// scans the sequence with one anchored TAG run per (candidate, reference
/// occurrence), using a single skeleton TAG for every candidate. Steps 3 and
/// 4 read one window-usability table (screening.h): it drops hopeless roots,
/// counts the k = 1 screening hits and, with step 3 on, limits each
/// candidate's runs to the roots its types can match at; a candidate stops
/// as soon as it cannot clear the threshold, and tag_runs counts only the
/// runs made. With a `MinerOptions::executor` the step-5 scans fan out
/// across that borrowed pool: the skeleton TAG, the reduced sequence, the
/// table and the shared granularity caches are read-only by then, each
/// worker keeps its own match scratch, and per-candidate results are merged
/// deterministically.
class Miner {
 public:
  /// `system` provides the shared table/coverage caches; it must own every
  /// granularity used by the structures mined.
  explicit Miner(GranularitySystem* system,
                 MinerOptions options = MinerOptions{});

  /// Solves the discovery problem on `sequence`. Solutions are returned in
  /// lexicographic assignment order: ascending type ids, compared variable
  /// by variable in id order, whichever steps ran.
  ///
  /// `governor`, when given, imposes a shared wall-clock deadline / step
  /// budget / cancellation token on every phase (propagation, screening,
  /// matching, the step-5 scan). A trip either fails the run or degrades it
  /// to a partial report, per MinerOptions::on_exhaustion. The report is a
  /// deterministic function of (problem, sequence, options) for injected
  /// faults and local budgets — byte-identical across runs and thread
  /// counts; wall-clock deadline trips are inherently timing-dependent.
  Result<MiningReport> Mine(const DiscoveryProblem& problem,
                            const EventSequence& sequence,
                            const ResourceGovernor* governor = nullptr) const;

 private:
  GranularitySystem* system_;
  MinerOptions options_;
};

}  // namespace granmine

#endif  // GRANMINE_MINING_MINER_H_
