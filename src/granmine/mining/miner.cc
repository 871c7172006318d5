#include "granmine/mining/miner.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <set>

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

  // Step 5: one skeleton TAG for all candidates (Theorem 3). The skeleton,
  // the reduced sequence, the windows and the system caches are all
  // read-only from here on, so the work can fan out across threads; results
  // are merged back in root and candidate (= lexicographic assignment)
  // order, keeping the report deterministic.
  GM_ASSIGN_OR_RETURN(TagBuildResult skeleton,
                      BuildTagForStructure(structure));
  TagMatcher matcher(&skeleton.tag);

  // Per-worker match scratches, sized for the pool the runs fan out on
  // (worker 0 is the calling thread on the serial path).
  std::vector<MatchScratch> scratches(static_cast<std::size_t>(
      options_.executor != nullptr ? options_.executor->num_threads() : 1));

  // The anchored run at kept root i.
  auto run_at = [&](std::size_t i, const SymbolMap& symbols, int worker,
                    MatchStats* stats,
                    std::vector<std::int64_t>* accepted = nullptr) {
    MatchOptions match_options;
    match_options.anchored = true;
    match_options.max_configurations = options_.max_configurations_per_run;
    match_options.governor = governor;
    if (options_.use_window_deadlines && needs_windows) {
      match_options.deadline = windows[i].deadline;
    }
    return matcher.Run(working.SuffixFrom(surviving[i]), symbols,
                       match_options, stats,
                       &scratches[static_cast<std::size_t>(worker)],
                       accepted);
  };
  auto add_run = [](const MatchStats& stats, ScanOutcome* out) {
    ++out->tag_runs;
    out->configurations += stats.configurations;
    out->transitions += stats.transitions;
    out->kernel_groups += stats.groups_advanced;
  };
  auto stop_of = [](const MatchStats& stats) {
    return stats.stopped != StopCause::kNone ? stats.stopped
                                             : StopCause::kStepBudget;
  };
  auto excluded = [&](const std::vector<EventTypeId>& phi) {
    for (const TypeConstraint& constraint : problem.type_constraints) {
      if (!constraint.SatisfiedBy(phi)) return true;
    }
    return false;
  };
  auto clears = [&](std::size_t matched) {
    return static_cast<double>(matched) /
               static_cast<double>(report.total_roots) >
           problem.min_confidence;
  };
  // Records the verdict on a φ known to match exactly `matched` roots.
  auto decide = [&](const std::vector<EventTypeId>& phi, std::size_t matched,
                    ScanOutcome* out) {
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
  ScanMergeResult merged;
  if (!options_.reduce_roots) {
    // The per-candidate scan (the oracle of MinerOptions::Naive()): φ runs
    // at every root under its own symbol map.
    auto scan_candidate = [&](const std::vector<EventTypeId>& phi,
                              std::uint64_t /*index*/, int worker,
                              ScanOutcome* out, StopCause* reason) {
      if (excluded(phi)) {
        ++out->refuted;  // statically excluded: decided without a scan
        return CandidateFate::kDecided;
      }
      const SymbolMap symbols = SymbolMap::FromAssignment(phi, type_count);
      std::size_t matched = 0;
      for (std::size_t i = 0; i < surviving.size(); ++i) {
        MatchStats stats;
        const MatchOutcome outcome = run_at(i, symbols, worker, &stats);
        add_run(stats, out);
        if (outcome == MatchOutcome::kUnknown) {
          *reason = stop_of(stats);
          if (stats.budget_exhausted) out->budget_exhausted = true;
          return CandidateFate::kUnknown;
        }
        if (outcome == MatchOutcome::kAccepted) ++matched;
      }
      return decide(phi, matched, out);
    };
    merged =
        ScanCandidates(allowed, root, scan_total, scan_options, scan_candidate);
  } else {
    // Phase A: one binding-carrying run per kept root serves every candidate
    // at once. A finished run yields the distinct φ it accepted; a stopped
    // run yields nothing, and its root joins U.
    const SymbolMap shared = SymbolMap::FromAllowed(allowed, type_count);
    const std::size_t n = allowed.size();
    struct RootRun {
      std::set<std::vector<EventTypeId>> accepted;
      MatchStats stats;
      bool stopped = false;
    };
    auto run_root = [&](std::size_t i, int worker) {
      GM_TRACE_SPAN("mine_shared_run");
      RootRun out;
      std::vector<std::int64_t> rows;
      out.stopped = run_at(i, shared, worker, &out.stats, &rows) ==
                    MatchOutcome::kUnknown;
      for (auto at = rows.begin(); !out.stopped && at != rows.end();
           at += n) {
        out.accepted.emplace(at, at + n);
      }
      return out;
    };
    std::vector<RootRun> runs;
    if (options_.executor == nullptr) {
      for (std::size_t i = 0; i < surviving.size(); ++i) {
        runs.push_back(run_root(i, 0));
      }
    } else {
      runs = options_.executor->ParallelMap<RootRun>(
          surviving.size(), [&](std::size_t i, int worker) {
            obs::RequestScope gm_obs_request(options_.request_id);
            return run_root(i, worker);
          });
    }

    // The tally, merged in root order: each accepted φ with the number of
    // finished roots that accepted it, plus U and its first cause.
    ScanOutcome run_totals;
    std::map<std::vector<EventTypeId>, std::size_t> tally;
    std::size_t stopped = 0;
    StopCause stop = StopCause::kNone;
    bool budget_exhausted = false;
    for (const RootRun& run : runs) {
      add_run(run.stats, &run_totals);
      if (run.stopped && stopped++ == 0) {
        stop = stop_of(run.stats);
        budget_exhausted = run.stats.budget_exhausted;
      }
      for (const std::vector<EventTypeId>& phi : run.accepted) ++tally[phi];
    }
    // A refused tally is lost as if every run had stopped.
    GovernorAllocator tally_arena(governor, GovernorScope::kMine);
    if (StopCause cause = tally_arena.Charge(
            0, tally.size() * (sizeof(*tally.begin()) +
                               n * sizeof(EventTypeId)));
        cause != StopCause::kNone) {
      tally.clear();
      stopped = surviving.size();
      stop = cause;
      budget_exhausted = false;
    }

    // Phase B: each φ is decided from the tally, without a TAG run. With m
    // its tallied roots, φ matched between m and m + |U| roots.
    auto tally_candidate = [&](const std::vector<EventTypeId>& phi,
                               std::uint64_t /*index*/, int /*worker*/,
                               ScanOutcome* out, StopCause* reason) {
      if (excluded(phi)) {
        ++out->refuted;
        return CandidateFate::kDecided;
      }
      auto it = tally.find(phi);
      const std::size_t matched = it != tally.end() ? it->second : 0;
      if (stopped == 0) return decide(phi, matched, out);
      if (!clears(matched + stopped)) {
        ++out->refuted;
        return CandidateFate::kDecided;
      }
      *reason = stop;
      if (budget_exhausted) out->budget_exhausted = true;
      return CandidateFate::kUnknown;
    };
    merged = ScanCandidates(allowed, root, scan_total, scan_options,
                            tally_candidate);
    merged.tag_runs += run_totals.tag_runs;
    merged.configurations += run_totals.configurations;
    merged.transitions += run_totals.transitions;
    merged.kernel_groups += run_totals.kernel_groups;
  }
  GM_RETURN_NOT_OK(FoldScanIntoReport(std::move(merged), scan_total, clamped,
                                      &report));
  return report;
}

}  // namespace granmine
