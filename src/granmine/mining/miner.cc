#include "granmine/mining/miner.h"

#include <algorithm>
#include <atomic>
#include <bit>

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

// Smallest type universe covering the sequence, σ and E0.
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

// Does some event usable for v with an allowed type fall in the window?
bool WindowSatisfiable(const EventSequence& sequence,
                       const PropagationResult& propagation, VariableId v,
                       const TimeSpan& window,
                       const std::vector<EventTypeId>& types) {
  if (window.empty()) return false;
  const std::vector<Event>& events = sequence.events();
  for (std::size_t i = FirstEventAtOrAfter(sequence, window.first);
       i < events.size() && events[i].time <= window.last; ++i) {
    if (std::find(types.begin(), types.end(), events[i].type) ==
        types.end()) {
      continue;
    }
    if (UsableForVariable(propagation, v, window, events[i].time)) {
      return true;
    }
  }
  return false;
}

// Step 3 per candidate. One bitset over the surviving roots for each
// non-root variable v and each type in allowed[v], the rows of v in odometer
// order: bit i is set iff windows[i].windows[v] holds a usable event of that
// type. A candidate can match only at the roots where every one of its rows
// is set — WindowSatisfiable's argument, kept per type. Without step 3 the
// table has no rows and every root is eligible.
struct EligibilityTable {
  std::size_t roots = 0;
  std::size_t words = 0;               // 64-bit words per row
  std::size_t rows = 0;
  std::vector<std::size_t> first_row;  // per variable; empty = no rows
  std::vector<std::uint64_t> bits;     // row-major
};

// Lays out the rows of `table`, whose roots and words are set.
void LayOutEligibility(const std::vector<std::vector<EventTypeId>>& allowed,
                       VariableId root, EligibilityTable* table) {
  for (std::size_t v = 0; v < allowed.size(); ++v) {
    table->first_row.push_back(table->rows);
    if (static_cast<VariableId>(v) != root) table->rows += allowed[v].size();
  }
}

// Sets the bits of a laid-out table.
void FillEligibility(const EventSequence& sequence,
                     const PropagationResult& propagation,
                     const std::vector<RootWindows>& windows,
                     const std::vector<std::vector<EventTypeId>>& allowed,
                     VariableId root, EligibilityTable* table_out) {
  EligibilityTable& table = *table_out;
  table.bits.assign(table.rows * table.words, 0);
  const std::vector<Event>& events = sequence.events();
  for (std::size_t i = 0; i < table.roots; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    for (std::size_t v = 0; v < allowed.size(); ++v) {
      if (static_cast<VariableId>(v) == root) continue;
      const TimeSpan& window = windows[i].windows[v];
      if (window.empty()) continue;
      const std::vector<EventTypeId>& types = allowed[v];
      for (std::size_t e = FirstEventAtOrAfter(sequence, window.first);
           e < events.size() && events[e].time <= window.last; ++e) {
        auto type = std::find(types.begin(), types.end(), events[e].type);
        if (type == types.end()) continue;
        std::uint64_t& word =
            table.bits[(table.first_row[v] +
                        static_cast<std::size_t>(type - types.begin())) *
                           table.words +
                       i / 64];
        if ((word & bit) == 0 &&
            UsableForVariable(propagation, static_cast<VariableId>(v),
                              window, events[e].time)) {
          word |= bit;
        }
      }
    }
  }
}

// Writes φ's eligible roots into `mask` (table.words words) and returns
// how many there are.
std::size_t EligibleRoots(const EligibilityTable& table,
                          const std::vector<std::vector<EventTypeId>>& allowed,
                          VariableId root, const std::vector<EventTypeId>& phi,
                          std::uint64_t* mask) {
  std::fill(mask, mask + table.words, ~std::uint64_t{0});
  if (table.roots % 64 != 0) {
    mask[table.words - 1] = (std::uint64_t{1} << (table.roots % 64)) - 1;
  }
  if (!table.first_row.empty()) {
    for (std::size_t v = 0; v < allowed.size(); ++v) {
      if (static_cast<VariableId>(v) == root) continue;
      const std::vector<EventTypeId>& types = allowed[v];
      const std::uint64_t* row =
          table.bits.data() +
          (table.first_row[v] +
           static_cast<std::size_t>(
               std::find(types.begin(), types.end(), phi[v]) -
               types.begin())) *
              table.words;
      for (std::size_t w = 0; w < table.words; ++w) mask[w] &= row[w];
    }
  }
  std::size_t count = 0;
  for (std::size_t w = 0; w < table.words; ++w) {
    count += static_cast<std::size_t>(std::popcount(mask[w]));
  }
  return count;
}

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
  if (problem.structure == nullptr) {
    return Status::Invalid("discovery problem has no structure");
  }
  GM_ASSIGN_OR_RETURN(VariableId root, problem.structure->FindRoot());
  const EventStructure& structure = *problem.structure;
  for (const TypeConstraint& constraint : problem.type_constraints) {
    if (constraint.a < 0 || constraint.a >= structure.variable_count() ||
        constraint.b < 0 || constraint.b >= structure.variable_count()) {
      return Status::Invalid("type constraint references unknown variables");
    }
  }

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

  // Step 2: sequence reduction.
  EventSequence working = options_.reduce_sequence
                              ? ReduceSequence(sequence, propagation, allowed)
                              : sequence;
  report.events_after_reduction = working.size();

  // Reference occurrences and their windows; step 3 discards hopeless ones.
  std::vector<std::size_t> surviving;
  std::vector<RootWindows> windows;
  {
    GM_TRACE_SPAN("mine_root_windows");
    std::vector<std::size_t> root_indices =
        working.OccurrencesOf(problem.reference_type);
    for (std::size_t idx : root_indices) {
      TimePoint t0 = working.events()[idx].time;
      RootWindows rw;
      if (needs_windows) {
        rw = ComputeRootWindows(structure, root, propagation, t0);
        if (options_.reduce_roots) {
          bool viable = rw.root_viable;
          for (VariableId v = 0; viable && v < structure.variable_count();
               ++v) {
            if (v == root) continue;
            viable = WindowSatisfiable(working, propagation, v,
                                       rw.windows[static_cast<std::size_t>(v)],
                                       allowed[static_cast<std::size_t>(v)]);
          }
          if (!viable) continue;  // counts as unmatched for every candidate
        }
      }
      surviving.push_back(idx);
      windows.push_back(std::move(rw));
    }
  }
  report.roots_after_reduction = surviving.size();

  // Step 4: candidate screening.
  if (options_.screening_depth >= 1 && needs_windows) {
    ScreenByWindows(propagation, working, windows, root, report.total_roots,
                    problem.min_confidence, &allowed);
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
        for (std::size_t i = 1; i < subset.size(); ++i) {
          std::vector<EventTypeId> survivors;
          for (const DiscoveredType& solution : nested_report->solutions) {
            EventTypeId type = solution.assignment[i];
            if (std::find(survivors.begin(), survivors.end(), type) ==
                survivors.end()) {
              survivors.push_back(type);
            }
          }
          std::vector<EventTypeId>& target =
              allowed[static_cast<std::size_t>(subset[i])];
          std::vector<EventTypeId> intersection;
          for (EventTypeId type : target) {
            if (std::find(survivors.begin(), survivors.end(), type) !=
                survivors.end()) {
              intersection.push_back(type);
            }
          }
          target = std::move(intersection);
        }
      }
    }
  }
  report.candidates_after_screening = CandidateCount(allowed, root);
  if (report.candidates_after_screening == 0) return report;
  const bool partial =
      options_.on_exhaustion == MinerOptions::ExhaustionPolicy::kPartial;
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

  // Step 3 per candidate, charged before it is built so that a tight memory
  // budget stops the mine here instead of allocating.
  GovernorAllocator table_arena(governor, GovernorScope::kMine);
  EligibilityTable eligibility;
  eligibility.roots = surviving.size();
  eligibility.words = (surviving.size() + 63) / 64;
  if (options_.reduce_roots) {
    LayOutEligibility(allowed, root, &eligibility);
    if (StopCause cause = table_arena.Charge(
            0, eligibility.rows * eligibility.words * sizeof(std::uint64_t));
        cause != StopCause::kNone) {
      if (!partial) return StopCauseToStatus(cause, "the mining run");
      report.completeness.not_evaluated = report.candidates_after_screening;
      report.completeness.stop = cause;
      report.completeness.complete = false;
      return report;
    }
    FillEligibility(working, propagation, windows, allowed, root,
                    &eligibility);
  }

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
      scratches.size(), std::vector<std::uint64_t>(eligibility.words));

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
    std::size_t remaining =
        EligibleRoots(eligibility, allowed, root, phi, mask);
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
    for (std::size_t w = 0; w < eligibility.words; ++w) {
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
  GM_RETURN_NOT_OK(merged.status);
  report.tag_runs += merged.tag_runs;
  report.matcher_configurations += merged.configurations;
  report.completeness.confirmed = merged.confirmed;
  report.completeness.refuted = merged.refuted;
  report.completeness.unknown = merged.unknown;
  report.completeness.not_evaluated = merged.not_evaluated;
  report.solutions = std::move(merged.solutions);
  report.unknown_sample = std::move(merged.unknown_sample);
  StopCause first_stop = merged.first_stop;
  if (clamped) {
    report.completeness.not_evaluated +=
        report.candidates_after_screening - scan_total;
    if (first_stop == StopCause::kNone) first_stop = StopCause::kStepBudget;
  }
  report.completeness.stop = first_stop;
  report.completeness.complete = report.completeness.unknown == 0 &&
                                 report.completeness.not_evaluated == 0;
  return report;
}

}  // namespace granmine
