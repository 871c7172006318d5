#include "granmine/stream/online_miner.h"

#include <algorithm>
#include <utility>

#include "granmine/common/check.h"
#include "granmine/mining/scan_driver.h"
#include "granmine/mining/windows.h"
#include "granmine/obs/context.h"
#include "granmine/obs/obs.h"

namespace granmine {

OnlineMiner::OnlineMiner(GranularitySystem* system, DiscoveryProblem problem,
                         OnlineMinerOptions options, VariableId root,
                         std::unique_ptr<PropagationResult> propagation)
    : system_(system),
      problem_(std::move(problem)),
      options_(options),
      root_(root),
      propagation_(std::move(propagation)),
      consistent_(propagation_->consistent),
      allowed_(ResolveAllowedTypes(problem_, EventSequence{}, root_)),
      type_count_(TypeUniverseSize(problem_, EventSequence{}, allowed_)),
      candidates_before_(CandidateCount(allowed_, root_)),
      scan_total_(std::min(candidates_before_, options_.max_candidates)),
      clamped_(candidates_before_ > options_.max_candidates),
      ingestor_(IngestorOptions{options_.tolerance, options_.retention,
                                options_.max_buffered_events}) {
  if (consistent_) reducer_.emplace(propagation_.get(), allowed_);
}

Result<OnlineMiner> OnlineMiner::Create(GranularitySystem* system,
                                        const DiscoveryProblem& problem,
                                        OnlineMinerOptions options) {
  GM_CHECK(system != nullptr);
  GM_ASSIGN_OR_RETURN(VariableId root, ValidateProblem(problem));
  const EventStructure& structure = *problem.structure;
  if (options.tolerance < 0) {
    return Status::Invalid("stream tolerance must be non-negative");
  }
  if (options.retention < 0) {
    return Status::Invalid("stream retention must be non-negative");
  }
  for (VariableId v = 0; v < structure.variable_count(); ++v) {
    if (v == root) continue;
    if (static_cast<std::size_t>(v) >= problem.allowed.size() ||
        problem.allowed[static_cast<std::size_t>(v)].empty()) {
      return Status::Invalid(
          "streaming discovery requires an explicit non-empty allowed-type "
          "set for every non-root variable (the batch default expands free "
          "variables to the sequence's distinct types, which a stream never "
          "knows)");
    }
  }

  ConstraintPropagator propagator(&system->tables(), &system->coverage(),
                                  PropagationOptions{});
  GM_ASSIGN_OR_RETURN(PropagationResult propagated,
                      propagator.Propagate(structure));
  OnlineMiner miner(system, problem, options, root,
                    std::make_unique<PropagationResult>(std::move(propagated)));

  if (miner.consistent_) {
    GM_ASSIGN_OR_RETURN(TagBuildResult skeleton,
                        BuildTagForStructure(structure));
    miner.skeleton_ = std::make_unique<TagBuildResult>(std::move(skeleton));

    // Precompute every candidate's symbol map and static (type-constraint)
    // verdict once; the resident matcher and every snapshot share them.
    auto symbols = std::make_shared<std::vector<SymbolMap>>();
    auto active = std::make_shared<std::vector<char>>();
    symbols->reserve(static_cast<std::size_t>(miner.scan_total_));
    active->reserve(static_cast<std::size_t>(miner.scan_total_));
    std::vector<std::size_t> odometer =
        OdometerAt(miner.allowed_, miner.root_, 0);
    std::vector<EventTypeId> phi(miner.allowed_.size());
    for (std::uint64_t index = 0; index < miner.scan_total_; ++index) {
      for (std::size_t v = 0; v < phi.size(); ++v) {
        phi[v] = miner.allowed_[v][odometer[v]];
      }
      bool satisfied = true;
      for (const TypeConstraint& constraint : problem.type_constraints) {
        if (!constraint.SatisfiedBy(phi)) {
          satisfied = false;
          break;
        }
      }
      active->push_back(satisfied ? char{1} : char{0});
      symbols->push_back(
          satisfied ? SymbolMap::FromAssignment(phi, miner.type_count_)
                    : SymbolMap{});
      AdvanceOdometer(miner.allowed_, miner.root_, &odometer);
    }
    miner.core_.matcher.emplace(&miner.skeleton_->tag, std::move(symbols),
                                std::move(active),
                                options.max_configurations_per_run);
  }
  return miner;
}

Status OnlineMiner::Ingest(Event event) {
  obs::RequestScope gm_obs_request(options_.request_id);
  GM_TRACE_SPAN("stream_ingest");
  GM_RETURN_NOT_OK(ingestor_.Ingest(event));
  GM_COUNTER_ADD("granmine_stream_events_ingested_total", "", 1);
  DrainReady();
  return Status::OK();
}

void OnlineMiner::Seal() {
  obs::RequestScope gm_obs_request(options_.request_id);
  ingestor_.Seal();
  DrainReady();
}

void OnlineMiner::DrainReady() {
  std::span<const Event> ready = ingestor_.Ready();
  std::size_t i = 0;
  while (i < ready.size()) {
    std::size_t j = i + 1;
    while (j < ready.size() && ready[j].time == ready[i].time) ++j;
    CommitGroup(&core_, ready.subspan(i, j - i));
    i = j;
  }
  if (!ready.empty()) ingestor_.Discard(ready.size());
  {
    GM_TRACE_SPAN("stream_evict");
    EvictCore(&core_, ingestor_.horizon());
  }
}

void OnlineMiner::CommitGroup(Core* core, std::span<const Event> raw_group) {
  GM_TRACE_SPAN("stream_commit_group");
  // Only the live core's commits count as stream progress; the snapshot path
  // re-commits the reorder buffer into a throwaway clone.
  if (core == &core_) {
    GM_COUNTER_ADD("granmine_stream_groups_committed_total", "", 1);
  }
  GroupRecord record;
  record.time = raw_group.front().time;
  record.raw = raw_group.size();
  for (const Event& event : raw_group) {
    if (event.type == problem_.reference_type) ++record.raw_roots;
  }
  reduced_scratch_.clear();
  if (consistent_) {
    for (const Event& event : raw_group) {
      if (reducer_->Keep(event)) reduced_scratch_.push_back(event);
    }
  }
  record.reduced = reduced_scratch_.size();
  core->raw_events += record.raw;
  core->raw_roots += record.raw_roots;
  core->reduced_events += record.reduced;
  core->groups.push_back(record);
  if (!core->matcher.has_value() || reduced_scratch_.empty()) return;

  spawn_scratch_.clear();
  bool have_windows = false;
  TimePoint deadline = kInfinity;
  for (std::size_t pos = 0; pos < reduced_scratch_.size(); ++pos) {
    if (reduced_scratch_[pos].type != problem_.reference_type) continue;
    if (!have_windows) {
      // One window computation serves every reference occurrence of the
      // group (they share t0).
      deadline = ComputeRootWindows(*problem_.structure, root_, *propagation_,
                                    record.time)
                     .deadline;
      have_windows = true;
    }
    spawn_scratch_.push_back({pos, deadline});
  }
  if (core == &core_ && !spawn_scratch_.empty()) {
    GM_COUNTER_ADD("granmine_stream_roots_spawned_total", "",
                   spawn_scratch_.size());
  }
  core->matcher->AdvanceGroup(reduced_scratch_, spawn_scratch_,
                              &kernel_scratch_);
}

void OnlineMiner::EvictCore(Core* core, TimePoint horizon) {
  while (!core->groups.empty() && core->groups.front().time < horizon) {
    const GroupRecord& record = core->groups.front();
    core->raw_events -= record.raw;
    core->raw_roots -= record.raw_roots;
    core->reduced_events -= record.reduced;
    core->groups.pop_front();
  }
  if (core->matcher.has_value()) core->matcher->EvictBefore(horizon);
}

Result<MiningReport> OnlineMiner::Snapshot(const ResourceGovernor* governor) {
  obs::RequestScope gm_obs_request(options_.request_id);
  GM_TRACE_SPAN("stream_snapshot");
  GM_COUNTER_ADD("granmine_stream_snapshots_total", "", 1);
  std::span<const Event> buffered = ingestor_.Buffered();

  MiningReport report;
  report.total_roots = core_.raw_roots;
  for (const Event& event : buffered) {
    if (event.type == problem_.reference_type) ++report.total_roots;
  }
  report.events_before = core_.raw_events + buffered.size();
  if (report.total_roots == 0) {
    return report;  // the problem is defined only when E0 occurs
  }
  if (!consistent_) {
    report.refuted_by_propagation = true;
    report.events_after_reduction = report.events_before;
    return report;
  }

  // Flush the reorder buffer into a clone of the resident state; the live
  // stream keeps its tolerance slack. Frontiers are flat row vectors, so the
  // clone copies one vector per pending run.
  Core flushed = core_;
  std::size_t i = 0;
  while (i < buffered.size()) {
    std::size_t j = i + 1;
    while (j < buffered.size() && buffered[j].time == buffered[i].time) ++j;
    CommitGroup(&flushed, buffered.subspan(i, j - i));
    i = j;
  }

  report.candidates_before = candidates_before_;
  report.events_after_reduction = flushed.reduced_events;
  report.roots_after_reduction = flushed.matcher->root_count();
  report.candidates_after_screening = candidates_before_;
  if (report.candidates_after_screening == 0) return report;

  // Step-5 merge: identical accounting to the batch scan, with each
  // (root, candidate) verdict read from its resident run instead of being
  // recomputed.
  const IncrementalMatcher& matcher = *flushed.matcher;
  const std::size_t root_count = matcher.root_count();
  const std::size_t total_roots = report.total_roots;
  auto evaluate = [&](const std::vector<EventTypeId>& phi,
                      std::uint64_t index, int /*worker*/, ScanOutcome* out,
                      StopCause* reason) {
    for (const TypeConstraint& constraint : problem_.type_constraints) {
      if (!constraint.SatisfiedBy(phi)) {
        ++out->refuted;  // statically excluded: decided without a scan
        return CandidateFate::kDecided;
      }
    }
    std::size_t matched = 0;
    for (std::size_t r = 0; r < root_count; ++r) {
      const ResidentRun& slot =
          matcher.root(r).slots[static_cast<std::size_t>(index)];
      ++out->tag_runs;
      out->configurations += slot.stats.configurations;
      out->transitions += slot.stats.transitions;
      out->kernel_groups += slot.stats.groups_advanced;
      if (slot.verdict == RunVerdict::kUnknown) {
        *reason = slot.stats.stopped != StopCause::kNone
                      ? slot.stats.stopped
                      : StopCause::kStepBudget;
        if (slot.stats.budget_exhausted) out->budget_exhausted = true;
        return CandidateFate::kUnknown;
      }
      // kPending at snapshot time = the batch run reaches end of prefix
      // without accepting: rejected.
      if (slot.verdict == RunVerdict::kAccepted) ++matched;
    }
    double frequency =
        static_cast<double>(matched) / static_cast<double>(total_roots);
    if (frequency > problem_.min_confidence) {
      out->solutions.push_back(DiscoveredType{phi, frequency, matched});
      ++out->confirmed;
    } else {
      ++out->refuted;
    }
    return CandidateFate::kDecided;
  };

  ScanDriverOptions scan_options;
  scan_options.executor = options_.executor;
  scan_options.partial = true;
  scan_options.governor = governor;
  scan_options.request_id = options_.request_id;
  ScanMergeResult merged =
      ScanCandidates(allowed_, root_, scan_total_, scan_options, evaluate);
  GM_RETURN_NOT_OK(FoldScanIntoReport(std::move(merged), scan_total_,
                                      clamped_, &report));
  return report;
}

}  // namespace granmine
