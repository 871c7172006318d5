#include "granmine/stream/incremental_matcher.h"

#include <algorithm>

#include "granmine/common/check.h"
#include "granmine/obs/obs.h"

namespace granmine {

IncrementalMatcher::IncrementalMatcher(
    const Tag* tag, std::shared_ptr<const std::vector<SymbolMap>> symbols,
    std::shared_ptr<const std::vector<char>> active,
    std::uint64_t max_configurations)
    : kernel_(tag),
      symbols_(std::move(symbols)),
      active_(std::move(active)),
      max_configurations_(max_configurations),
      candidate_count_(symbols_->size()),
      active_count_(static_cast<std::size_t>(
          std::count(active_->begin(), active_->end(), char{1}))) {
  GM_CHECK(active_->size() == candidate_count_);
}

void IncrementalMatcher::Finalize(RootRuns* root) {
  GM_COUNTER_ADD("granmine_stream_root_finalizations_total", "", 1);
  for (std::size_t c = 0; c < candidate_count_; ++c) {
    ResidentRun& slot = root->slots[c];
    if ((*active_)[c] != 0 && slot.verdict == RunVerdict::kPending) {
      // The batch run would scan to end-of-input and reject: no group at or
      // before the deadline accepted, and later groups are never fed.
      slot.verdict = RunVerdict::kRejected;
      slot.run = TagRunState{};
    }
  }
  root->pending = 0;
}

void IncrementalMatcher::AdvanceGroup(
    std::span<const Event> group, std::span<const NewRootSpawn> new_roots,
    TagKernelScratch* scratch) {
  if (group.empty()) {
    GM_CHECK(new_roots.empty());
    return;
  }
  const TimePoint time = group.front().time;
  const std::size_t first_new = roots_.size();
  for (const NewRootSpawn& spawn : new_roots) {
    GM_CHECK(spawn.pos < group.size() && spawn.deadline >= time);
    RootRuns root;
    root.t0 = time;
    root.deadline = spawn.deadline;
    root.slots.resize(candidate_count_);
    root.pending = active_count_;
    roots_.push_back(std::move(root));
  }

  for (std::size_t r = 0; r < roots_.size(); ++r) {
    RootRuns& root = roots_[r];
    // Retire a root whose deadline has passed before this group: the batch
    // run breaks before feeding any group beyond the deadline. (New roots
    // have deadline >= time.)
    if (root.pending > 0 && time > root.deadline) Finalize(&root);
    if (root.pending == 0) continue;
    const std::span<const Event> fed =
        r >= first_new ? group.subspan(new_roots[r - first_new].pos) : group;
    for (std::size_t c = 0; c < candidate_count_; ++c) {
      if ((*active_)[c] == 0) continue;
      ResidentRun& slot = root.slots[c];
      if (slot.verdict != RunVerdict::kPending) continue;
      switch (kernel_.AdvanceGroup(fed, (*symbols_)[c], /*anchored=*/true,
                                   &slot.run, scratch, &slot.stats,
                                   max_configurations_, /*ticket=*/nullptr)) {
        case TagKernel::GroupOutcome::kAccepted:
          slot.verdict = RunVerdict::kAccepted;
          slot.run = TagRunState{};
          --root.pending;
          break;
        case TagKernel::GroupOutcome::kDead:
          slot.verdict = RunVerdict::kRejected;
          slot.run = TagRunState{};
          --root.pending;
          break;
        case TagKernel::GroupOutcome::kStopped:
          slot.verdict = RunVerdict::kUnknown;
          slot.run = TagRunState{};
          --root.pending;
          break;
        case TagKernel::GroupOutcome::kAdvanced:
          break;
      }
    }
  }
}

void IncrementalMatcher::EvictBefore(TimePoint horizon) {
  std::size_t evicted = 0;
  while (!roots_.empty() && roots_.front().t0 < horizon) {
    roots_.pop_front();
    ++evicted;
  }
  if (evicted > 0) {
    GM_COUNTER_ADD("granmine_stream_roots_evicted_total", "", evicted);
  }
}

std::size_t IncrementalMatcher::resident_configurations() const {
  std::size_t total = 0;
  for (std::size_t r = 0; r < roots_.size(); ++r) {
    const RootRuns& root = roots_[r];
    if (root.pending == 0) continue;
    for (const ResidentRun& slot : root.slots) {
      if (slot.verdict == RunVerdict::kPending) {
        total += kernel_.FrontierSize(slot.run);
      }
    }
  }
  return total;
}

std::size_t IncrementalMatcher::pending_runs() const {
  std::size_t total = 0;
  for (std::size_t r = 0; r < roots_.size(); ++r) total += roots_[r].pending;
  return total;
}

}  // namespace granmine
