#include "granmine/mining/miner.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <iterator>

#include "granmine/common/check.h"
#include "granmine/common/executor.h"
#include "granmine/common/governor_alloc.h"
#include "granmine/common/math.h"
#include "granmine/constraint/propagation.h"
#include "granmine/constraint/substructure.h"
#include "granmine/mining/reduction.h"
#include "granmine/mining/scan_driver.h"
#include "granmine/mining/screening.h"
#include "granmine/mining/windows.h"
#include "granmine/obs/context.h"
#include "granmine/obs/obs.h"
#include "granmine/tag/builder.h"

namespace granmine {

namespace {

// All size-k subsets of non-root variables that form a chain under
// reachability (every pair comparable) — the §5.1 sub-chain condition.
std::vector<std::vector<VariableId>> ChainSubsets(
    const EventStructure& structure, VariableId root, int k, int cap) {
  std::vector<std::vector<bool>> reach = structure.ReachabilityMatrix();
  const int n = structure.variable_count();
  std::vector<VariableId> candidates;
  for (VariableId v = 0; v < n; ++v) {
    if (v != root && reach[root][v]) candidates.push_back(v);
  }
  std::vector<std::vector<VariableId>> result;
  std::vector<VariableId> current;
  // DFS over candidates in id order; chain condition checked incrementally.
  std::function<void(std::size_t)> recurse = [&](std::size_t from) {
    if (static_cast<int>(result.size()) >= cap) return;
    if (static_cast<int>(current.size()) == k) {
      result.push_back(current);
      return;
    }
    for (std::size_t i = from; i < candidates.size(); ++i) {
      VariableId v = candidates[i];
      bool comparable = true;
      for (VariableId u : current) {
        if (!reach[u][v] && !reach[v][u]) {
          comparable = false;
          break;
        }
      }
      if (!comparable) continue;
      current.push_back(v);
      recurse(i + 1);
      current.pop_back();
    }
  };
  recurse(0);
  return result;
}

}  // namespace

Miner::Miner(GranularitySystem* system, MinerOptions options)
    : system_(system), options_(options) {
  GM_CHECK(system_ != nullptr);
}

Result<MiningReport> Miner::Mine(const DiscoveryProblem& problem,
                                 const EventSequence& sequence,
                                 const ResourceGovernor* governor) const {
  GM_ASSIGN_OR_RETURN(VariableId root, ValidateProblem(problem));
  const EventStructure& structure = *problem.structure;

  // Re-install the admitting request's id: Mine may run on the caller's
  // thread (Engine) or be re-entered from tests without an Engine, and the
  // "mine" span plus every downstream log line keys off the thread-local.
  obs::RequestScope gm_obs_request(options_.request_id);
  GM_TRACE_SPAN("mine");
  GM_COUNTER_ADD("granmine_mine_runs_total", "", 1);
  MiningReport report;
  report.total_roots = sequence.CountOf(problem.reference_type);
  report.events_before = sequence.size();
  if (report.total_roots == 0) {
    return report;  // the problem is defined only when E0 occurs
  }

  const bool needs_windows = options_.reduce_roots ||
                             options_.screening_depth > 0 ||
                             options_.use_window_deadlines;
  const bool needs_propagation = options_.check_consistency ||
                                 options_.reduce_sequence || needs_windows;

  PropagationResult propagation;
  if (needs_propagation) {
    GM_TRACE_SPAN("mine_propagate");
    PropagationOptions propagation_options;
    propagation_options.governor = governor;
    ConstraintPropagator propagator(&system_->tables(), &system_->coverage(),
                                    propagation_options);
    GM_ASSIGN_OR_RETURN(propagation, propagator.Propagate(structure));
    if (!propagation.consistent) {
      // No complex event can match an inconsistent structure.
      report.refuted_by_propagation = true;
      report.events_after_reduction = sequence.size();
      return report;
    }
  }

  std::vector<std::vector<EventTypeId>> allowed =
      ResolveAllowedTypes(problem, sequence, root);
  const int type_count = TypeUniverseSize(problem, sequence, allowed);
  report.candidates_before = CandidateCount(allowed, root);
  const bool partial =
      options_.on_exhaustion == MinerOptions::ExhaustionPolicy::kPartial;

  // Step 2: sequence reduction.
  EventSequence working = options_.reduce_sequence
                              ? ReduceSequence(sequence, propagation, allowed)
                              : sequence;
  report.events_after_reduction = working.size();

  // Steps 3 and 4 read one window-usability table, charged before it is
  // built so that a tight memory budget stops the mine here instead of
  // allocating. Its columns are the roots step 3 keeps: every root without
  // step 3.
  std::vector<std::size_t> surviving =
      working.OccurrencesOf(problem.reference_type);
  const bool use_table =
      options_.reduce_roots || options_.screening_depth >= 1;
  UsabilityTable table(
      use_table ? allowed : std::vector<std::vector<EventTypeId>>{}, root,
      surviving.size());
  GovernorAllocator table_arena(governor, GovernorScope::kMine);
  if (StopCause cause = use_table ? table_arena.Charge(0, table.bytes())
                                  : StopCause::kNone;
      cause != StopCause::kNone) {
    if (!partial) return StopCauseToStatus(cause, "the mining run");
    report.candidates_after_screening = report.candidates_before;
    report.completeness.not_evaluated = report.candidates_before;
    report.completeness.stop = cause;
    report.completeness.complete = false;
    return report;
  }
  std::vector<RootWindows> windows;
  {
    GM_TRACE_SPAN("mine_root_windows");
    if (needs_windows) {
      for (std::size_t idx : surviving) {
        windows.push_back(ComputeRootWindows(structure, root, propagation,
                                             working.events()[idx].time));
      }
    }
    if (use_table) {
      // Step 3: a dropped root counts as unmatched for every candidate.
      std::vector<std::size_t> kept =
          table.Build(working, propagation, windows, options_.reduce_roots);
      for (std::size_t i = 0; i < kept.size(); ++i) {
        surviving[i] = surviving[kept[i]];
        windows[i] = std::move(windows[kept[i]]);
      }
      surviving.resize(kept.size());
      windows.resize(kept.size());
    }
  }
  report.roots_after_reduction = surviving.size();

  // Step 4: candidate screening.
  if (options_.screening_depth >= 1) {
    table.Screen(report.total_roots, problem.min_confidence, &allowed);
  }
  if (options_.screening_depth >= 2) {
    GM_TRACE_SPAN("mine_screen");
    int budget = options_.max_induced_problems;
    for (int k = 2; k <= options_.screening_depth && budget > 0; ++k) {
      for (const std::vector<VariableId>& combo :
           ChainSubsets(structure, root, k, budget)) {
        --budget;
        std::vector<VariableId> subset;
        subset.push_back(root);
        subset.insert(subset.end(), combo.begin(), combo.end());
        Result<EventStructure> induced =
            InduceSubstructure(structure, propagation, subset);
        if (!induced.ok() || !induced->FindRoot().ok()) continue;
        DiscoveryProblem induced_problem;
        induced_problem.structure = &*induced;
        induced_problem.min_confidence = problem.min_confidence;
        induced_problem.reference_type = problem.reference_type;
        induced_problem.allowed.resize(subset.size());
        for (std::size_t i = 1; i < subset.size(); ++i) {
          induced_problem.allowed[i] =
              allowed[static_cast<std::size_t>(subset[i])];
        }
        MinerOptions nested = options_;
        nested.check_consistency = false;
        nested.reduce_sequence = false;
        nested.screening_depth = 1;  // no further recursion
        Miner nested_miner(system_, nested);
        Result<MiningReport> nested_report =
            nested_miner.Mine(induced_problem, working, governor);
        // Give up pruning (still sound) on failure — and also on a *partial*
        // nested report: its solution set is only a lower bound, so pruning
        // the missing types would wrongly refute undecided candidates.
        if (!nested_report.ok() || !nested_report->completeness.complete) {
          continue;
        }
        report.tag_runs += nested_report->tag_runs;
        report.matcher_configurations += nested_report->matcher_configurations;
        for (std::size_t i = 1; i < subset.size(); ++i) {
          std::vector<EventTypeId> survivors;
          for (const DiscoveredType& solution : nested_report->solutions) {
            survivors.push_back(solution.assignment[i]);
          }
          std::sort(survivors.begin(), survivors.end());
          std::vector<EventTypeId>& target =
              allowed[static_cast<std::size_t>(subset[i])];
          std::vector<EventTypeId> intersection;
          std::set_intersection(target.begin(), target.end(),
                                survivors.begin(), survivors.end(),
                                std::back_inserter(intersection));
          target = std::move(intersection);
        }
      }
    }
  }
  report.candidates_after_screening = CandidateCount(allowed, root);
  if (report.candidates_after_screening == 0) return report;
  std::uint64_t scan_total = report.candidates_after_screening;
  bool clamped = false;
  if (scan_total > options_.max_candidates) {
    if (!partial) {
      return Status::ResourceExhausted(
          "candidate space exceeds the configured limit after screening");
    }
    scan_total = options_.max_candidates;
    clamped = true;
  }

  if (options_.degrade_to_screening) {
    // Degraded serving: steps 1-4 already refuted everything screening could
    // refute exactly; the survivors were never exactly checked, so each one
    // is honestly *unknown* — never guessed. The sample enumerates the first
    // candidates in the same lexicographic order the scan would have used,
    // so a degraded report is byte-identical across thread counts for free.
    GM_COUNTER_ADD("granmine_mine_degraded_total", "", 1);
    report.completeness.unknown = scan_total;
    const std::size_t n = allowed.size();
    std::vector<std::size_t> odometer = OdometerAt(allowed, root, 0);
    std::vector<EventTypeId> phi(n);
    for (std::uint64_t i = 0; i < scan_total && i < kUnknownSampleCap; ++i) {
      for (std::size_t v = 0; v < n; ++v) phi[v] = allowed[v][odometer[v]];
      report.unknown_sample.push_back(
          UnknownCandidate{phi, StopCause::kDegraded});
      AdvanceOdometer(allowed, root, &odometer);
    }
    if (clamped) {
      report.completeness.not_evaluated +=
          report.candidates_after_screening - scan_total;
    }
    report.completeness.stop = StopCause::kDegraded;
    report.completeness.complete = false;
    return report;
  }

  // Step 3 per candidate; without step 3 every root is eligible.
  const UsabilityTable every_root({}, root, surviving.size());
  const UsabilityTable& eligibility =
      options_.reduce_roots ? table : every_root;

  // Step 5: one skeleton TAG for all candidates; anchored scans per root.
  // The skeleton, the reduced sequence, the windows and the system caches
  // are all read-only from here on, so the candidate space can fan out
  // across threads; per-candidate outcomes are merged back in candidate
  // (= lexicographic assignment) order, keeping the report deterministic.
  GM_ASSIGN_OR_RETURN(TagBuildResult skeleton,
                      BuildTagForStructure(structure));
  TagMatcher matcher(&skeleton.tag);

  // Per-worker match scratches, sized for the pool the scan driver will run
  // (worker 0 is the calling thread on the serial path).
  std::vector<MatchScratch> scratches(static_cast<std::size_t>(
      options_.executor != nullptr ? options_.executor->num_threads() : 1));
  std::vector<std::vector<std::uint64_t>> masks(
      scratches.size(), std::vector<std::uint64_t>(eligibility.words()));

  // The verdict's own test; the cut-off asks it of matched + the eligible
  // roots still to run.
  auto clears = [&](std::size_t matched) {
    return static_cast<double>(matched) /
               static_cast<double>(report.total_roots) >
           problem.min_confidence;
  };

  // Evaluates one candidate φ; kUnknown sets *reason.
  auto scan_candidate = [&](const std::vector<EventTypeId>& phi,
                            std::uint64_t /*index*/, int worker,
                            ScanOutcome* out, StopCause* reason) {
    MatchScratch* scratch = &scratches[static_cast<std::size_t>(worker)];
    for (const TypeConstraint& constraint : problem.type_constraints) {
      if (!constraint.SatisfiedBy(phi)) {
        ++out->refuted;  // statically excluded: decided without a scan
        return CandidateFate::kDecided;
      }
    }
    std::uint64_t* mask = masks[static_cast<std::size_t>(worker)].data();
    std::size_t remaining = eligibility.EligibleRoots(phi, mask);
    out->skipped_ineligible += surviving.size() - remaining;
    std::size_t matched = 0;
    // Step 3 on: refuted as soon as even every eligible root left could not
    // lift φ past θ.
    auto cut_off = [&] {
      if (!options_.reduce_roots || clears(matched + remaining)) return false;
      out->skipped_cutoff += remaining;
      ++out->refuted;
      return true;
    };
    if (cut_off()) return CandidateFate::kDecided;
    SymbolMap symbols = SymbolMap::FromAssignment(phi, type_count);
    for (std::size_t w = 0; w < eligibility.words(); ++w) {
      for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
        const std::size_t i =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        --remaining;
        MatchOptions match_options;
        match_options.anchored = true;
        match_options.max_configurations =
            options_.max_configurations_per_run;
        match_options.governor = governor;
        if (options_.use_window_deadlines && needs_windows) {
          match_options.deadline = windows[i].deadline;
        }
        MatchStats stats;
        MatchOutcome outcome =
            matcher.Run(working.SuffixFrom(surviving[i]), symbols,
                        match_options, &stats, scratch);
        ++out->tag_runs;
        out->configurations += stats.configurations;
        out->transitions += stats.transitions;
        out->kernel_groups += stats.groups_advanced;
        if (outcome == MatchOutcome::kUnknown) {
          *reason = stats.stopped != StopCause::kNone ? stats.stopped
                                                      : StopCause::kStepBudget;
          if (stats.budget_exhausted) out->budget_exhausted = true;
          return CandidateFate::kUnknown;
        }
        if (outcome == MatchOutcome::kAccepted) {
          ++matched;
        } else if (cut_off()) {
          return CandidateFate::kDecided;
        }
      }
    }
    if (clears(matched)) {
      out->solutions.push_back(DiscoveredType{
          phi,
          static_cast<double>(matched) /
              static_cast<double>(report.total_roots),
          matched});
      ++out->confirmed;
    } else {
      ++out->refuted;
    }
    return CandidateFate::kDecided;
  };

  ScanDriverOptions scan_options;
  scan_options.executor = options_.executor;
  scan_options.partial = partial;
  scan_options.governor = governor;
  scan_options.request_id = options_.request_id;
  ScanMergeResult merged =
      ScanCandidates(allowed, root, scan_total, scan_options, scan_candidate);
  GM_RETURN_NOT_OK(FoldScanIntoReport(std::move(merged), scan_total, clamped,
                                      &report));
  return report;
}

}  // namespace granmine
