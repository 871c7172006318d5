#include "granmine/mining/scan_driver.h"

#include <algorithm>
#include <atomic>

#include "granmine/common/executor.h"
#include "granmine/common/governor_alloc.h"
#include "granmine/obs/context.h"
#include "granmine/obs/obs.h"

namespace granmine {

int TypeUniverseSize(const DiscoveryProblem& problem,
                     const EventSequence& sequence,
                     const std::vector<std::vector<EventTypeId>>& allowed) {
  EventTypeId max_type = problem.reference_type;
  for (const Event& event : sequence.events()) {
    max_type = std::max(max_type, event.type);
  }
  for (const std::vector<EventTypeId>& types : allowed) {
    for (EventTypeId type : types) max_type = std::max(max_type, type);
  }
  return max_type + 1;
}

std::uint64_t CandidateCount(
    const std::vector<std::vector<EventTypeId>>& allowed, VariableId root) {
  std::uint64_t product = 1;
  for (std::size_t v = 0; v < allowed.size(); ++v) {
    if (static_cast<VariableId>(v) == root) continue;
    std::uint64_t size = allowed[v].size();
    if (size == 0) return 0;
    if (product > (std::uint64_t{1} << 62) / size) {
      return std::uint64_t{1} << 62;  // saturate
    }
    product *= size;
  }
  return product;
}

std::vector<std::size_t> OdometerAt(
    const std::vector<std::vector<EventTypeId>>& allowed, VariableId root,
    std::uint64_t index) {
  const int n = static_cast<int>(allowed.size());
  std::vector<std::size_t> odometer(static_cast<std::size_t>(n), 0);
  for (int v = n - 1; v >= 0 && index > 0; --v) {
    if (static_cast<VariableId>(v) == root) continue;
    std::uint64_t size = allowed[static_cast<std::size_t>(v)].size();
    odometer[static_cast<std::size_t>(v)] =
        static_cast<std::size_t>(index % size);
    index /= size;
  }
  return odometer;
}

bool AdvanceOdometer(const std::vector<std::vector<EventTypeId>>& allowed,
                     VariableId root, std::vector<std::size_t>* odometer) {
  int v = static_cast<int>(allowed.size()) - 1;
  while (v >= 0) {
    if (static_cast<VariableId>(v) == root) {
      --v;
      continue;
    }
    if (++(*odometer)[static_cast<std::size_t>(v)] <
        allowed[static_cast<std::size_t>(v)].size()) {
      return true;
    }
    (*odometer)[static_cast<std::size_t>(v)] = 0;
    --v;
  }
  return false;
}

ScanMergeResult ScanCandidates(
    const std::vector<std::vector<EventTypeId>>& allowed, VariableId root,
    std::uint64_t scan_total, const ScanDriverOptions& options,
    const CandidateEvaluator& evaluator) {
  GM_TRACE_SPAN("scan_driver");
  const bool partial = options.partial;
  const ResourceGovernor* governor = options.governor;

  // Raised when the scan must wind down (abort-mode failure or a global
  // governor stop); the Executor observes it before claiming further chunks.
  std::atomic<bool> stop_scan{false};

  // Scans candidates [begin, end); used by the serial path (one range) and
  // by each parallel chunk. The governor ticket is created per range, so its
  // stride phase — and with check_stride == 1 the exact set of checked
  // indices — is a deterministic property of the range, not of scheduling.
  auto scan_range = [&](std::uint64_t begin, std::uint64_t end, int worker,
                        ScanOutcome* out) {
    out->ran = true;
    GovernorTicket ticket(governor, GovernorScope::kMine);
    const std::size_t n = allowed.size();
    // The range's own scratch (odometer + φ) is governed memory too. A
    // refusal forfeits the whole range as not_evaluated — range boundaries
    // depend on the worker count, so this charge point is a *global*-style
    // stop (invariant-checked, never part of a byte-identity sweep; the
    // deterministic alloc-injection points live in the matcher and the
    // exact search, whose indices are per-work-unit).
    GovernorAllocator arena(governor, GovernorScope::kMine);
    if (StopCause cause = arena.Charge(
            begin, n * (sizeof(EventTypeId) + sizeof(std::size_t)));
        cause != StopCause::kNone) {
      if (out->first_stop == StopCause::kNone) out->first_stop = cause;
      if (partial) out->not_evaluated += end - begin;
      stop_scan.store(true, std::memory_order_relaxed);
      return;
    }
    std::vector<std::size_t> odometer = OdometerAt(allowed, root, begin);
    std::vector<EventTypeId> phi(n);
    auto note_unknown = [&](StopCause reason) {
      ++out->unknown;
      if (out->first_stop == StopCause::kNone) out->first_stop = reason;
      if (out->unknown_sample.size() < kUnknownSampleCap) {
        out->unknown_sample.push_back(UnknownCandidate{phi, reason});
      }
    };
    for (std::uint64_t index = begin; index < end; ++index) {
      for (std::size_t v = 0; v < n; ++v) phi[v] = allowed[v][odometer[v]];
      // One governor step per candidate, indexed by the global candidate
      // position so injection targets a candidate, not a thread.
      if (StopCause cause = ticket.Charge(index); cause != StopCause::kNone) {
        // An injected fault with cancel_globally off is *local*: it fails
        // this candidate only, leaving the shared flag untouched — that is
        // what keeps the sweep deterministic across thread counts.
        const bool global = cause != StopCause::kFaultInjected ||
                            (governor != nullptr && governor->stopped());
        if (!partial || global) {
          if (out->first_stop == StopCause::kNone) out->first_stop = cause;
          if (partial) out->not_evaluated += end - index;
          stop_scan.store(true, std::memory_order_relaxed);
          return;
        }
        note_unknown(cause);
        AdvanceOdometer(allowed, root, &odometer);
        continue;
      }
      StopCause reason = StopCause::kNone;
      if (evaluator(phi, index, worker, out, &reason) ==
          CandidateFate::kUnknown) {
        if (!partial) {
          if (out->first_stop == StopCause::kNone) out->first_stop = reason;
          stop_scan.store(true, std::memory_order_relaxed);
          return;
        }
        note_unknown(reason);
        if (governor != nullptr && governor->stopped()) {
          // Global stop mid-candidate: the rest of the range is forfeit.
          out->not_evaluated += end - index - 1;
          stop_scan.store(true, std::memory_order_relaxed);
          return;
        }
      }
      AdvanceOdometer(allowed, root, &odometer);
    }
  };

  std::vector<ScanOutcome> outcomes;
  std::uint64_t merge_chunk_size = scan_total;
  Executor* executor = options.executor;
  if (executor == nullptr) {
    outcomes.resize(1);
    scan_range(0, scan_total, 0, &outcomes[0]);
  } else {
    // Chunks keep per-item dispatch cheap while staying numerous enough to
    // balance load; chunk size never affects the merged report.
    const std::uint64_t per_worker =
        scan_total /
            (8 * static_cast<std::uint64_t>(executor->num_threads())) +
        1;
    const std::uint64_t chunk_size =
        std::max<std::uint64_t>(1, std::min<std::uint64_t>(1024, per_worker));
    merge_chunk_size = chunk_size;
    const std::size_t chunk_count =
        static_cast<std::size_t>((scan_total + chunk_size - 1) / chunk_size);
    outcomes = executor->ParallelMap<ScanOutcome>(
        chunk_count,
        [&](std::size_t chunk, int worker) {
          // Pool threads outlive any one request: re-install the admitting
          // request's id so the chunk span (and any governor log line fired
          // from inside the scan) attributes to it, not to whatever request
          // this worker served last.
          obs::RequestScope gm_obs_request(options.request_id);
          GM_TRACE_SPAN("scan_chunk");
          ScanOutcome out;
          if (stop_scan.load(std::memory_order_relaxed)) return out;
          const std::uint64_t begin = chunk * chunk_size;
          const std::uint64_t end = std::min(scan_total, begin + chunk_size);
          scan_range(begin, end, worker, &out);
          return out;
        },
        &stop_scan);
  }

  // Merge in chunk (= candidate) order: solutions and unknown samples keep
  // their global order, and the first stop cause in candidate order wins.
  ScanMergeResult merged;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ScanOutcome& out = outcomes[i];
    if (!out.ran) {
      const std::uint64_t begin = i * merge_chunk_size;
      const std::uint64_t end =
          std::min(scan_total, begin + merge_chunk_size);
      merged.not_evaluated += end - begin;
      continue;
    }
    merged.tag_runs += out.tag_runs;
    merged.configurations += out.configurations;
    merged.transitions += out.transitions;
    merged.kernel_groups += out.kernel_groups;
    merged.confirmed += out.confirmed;
    merged.refuted += out.refuted;
    merged.unknown += out.unknown;
    merged.not_evaluated += out.not_evaluated;
    if (merged.first_stop == StopCause::kNone) {
      merged.first_stop = out.first_stop;
    }
    if (!partial && merged.status.ok() &&
        out.first_stop != StopCause::kNone) {
      merged.status =
          out.budget_exhausted
              ? Status::ResourceExhausted(
                    "TAG matcher exceeded its configuration budget")
              : StopCauseToStatus(out.first_stop, "the mining run");
    }
    for (DiscoveredType& solution : out.solutions) {
      merged.solutions.push_back(std::move(solution));
    }
    for (UnknownCandidate& unknown : out.unknown_sample) {
      if (merged.unknown_sample.size() < kUnknownSampleCap) {
        merged.unknown_sample.push_back(std::move(unknown));
      }
    }
  }
  return merged;
}

Status FoldScanIntoReport(ScanMergeResult merged, std::uint64_t scan_total,
                          bool clamped, MiningReport* report) {
  // One flush per scan, from the deterministically merged totals — byte-
  // identical across thread counts and worth a handful of atomic adds even
  // on the hottest workloads (no per-candidate metric traffic).
  GM_COUNTER_ADD("granmine_mine_scans_total", "", 1);
  GM_COUNTER_ADD("granmine_mine_candidates_total", "verdict=\"confirmed\"",
                 merged.confirmed);
  GM_COUNTER_ADD("granmine_mine_candidates_total", "verdict=\"refuted\"",
                 merged.refuted);
  GM_COUNTER_ADD("granmine_mine_candidates_total", "verdict=\"unknown\"",
                 merged.unknown);
  GM_COUNTER_ADD("granmine_mine_candidates_total", "verdict=\"not-evaluated\"",
                 merged.not_evaluated);
  GM_COUNTER_ADD("granmine_mine_tag_runs_total", "", merged.tag_runs);
  GM_COUNTER_ADD("granmine_tag_configurations_total", "",
                 merged.configurations);
  GM_COUNTER_ADD("granmine_tag_transitions_total", "", merged.transitions);
  GM_COUNTER_ADD("granmine_tag_groups_total", "", merged.kernel_groups);
  GM_RETURN_NOT_OK(merged.status);
  report->tag_runs += merged.tag_runs;
  report->matcher_configurations += merged.configurations;
  MiningCompleteness& completeness = report->completeness;
  completeness.confirmed = merged.confirmed;
  completeness.refuted = merged.refuted;
  completeness.unknown = merged.unknown;
  completeness.not_evaluated = merged.not_evaluated;
  report->solutions = std::move(merged.solutions);
  report->unknown_sample = std::move(merged.unknown_sample);
  StopCause first_stop = merged.first_stop;
  if (clamped) {
    completeness.not_evaluated +=
        report->candidates_after_screening - scan_total;
    if (first_stop == StopCause::kNone) first_stop = StopCause::kStepBudget;
  }
  completeness.stop = first_stop;
  completeness.complete =
      completeness.unknown == 0 && completeness.not_evaluated == 0;
  return Status::OK();
}

}  // namespace granmine
