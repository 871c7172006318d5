#ifndef GRANMINE_TAG_MATCHER_H_
#define GRANMINE_TAG_MATCHER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "granmine/common/governor.h"
#include "granmine/common/math.h"
#include "granmine/sequence/event.h"
#include "granmine/sequence/sequence.h"
#include "granmine/tag/matcher_types.h"
#include "granmine/tag/step_kernel.h"
#include "granmine/tag/tag.h"

namespace granmine {

/// Reusable search buffers (the run's frontier rows, the kernel's closure
/// table and tick memo) for `TagMatcher::Run`. One scratch belongs to one
/// worker thread at a time; reusing it across runs keeps buffer capacity and
/// the memoized group ticks warm instead of rebuilding them per anchored
/// scan. Passing nullptr to Run simply uses fresh buffers for that run.
class MatchScratch {
 private:
  friend class TagMatcher;
  TagRunState run_;
  TagKernelScratch kernel_;
};

/// NFA-style simulation of a TAG over an event sequence (the Theorem-4
/// procedure): the frontier holds (state, clock-reset-tick vector)
/// configurations as sorted, distinct fixed-stride rows; clock values are
/// reconstructed as `tick(now) − tick(reset)`, so skipped events never
/// perturb clocks and undefined ticks only disable the guards that mention
/// them.
///
/// A matcher is an *immutable compiled view* of its TAG (clock →
/// granularity indexing, compiled guards and per-state labeled transitions
/// are resolved once at construction, inside the shared `TagKernel` that
/// also drives the streaming `IncrementalMatcher`): after that, every member
/// is read-only and `Run` keeps all run state on the stack or in the
/// caller's `MatchScratch`. One matcher over one skeleton TAG
/// may therefore be shared by any number of threads, each passing its own
/// scratch.
class TagMatcher {
 public:
  /// `tag` must outlive the matcher.
  explicit TagMatcher(const Tag* tag);

  /// Simulates the TAG over `events` and reports the three-valued outcome.
  /// `scratch`, when given, must not be used concurrently by another thread.
  MatchOutcome Run(std::span<const Event> events, const SymbolMap& symbols,
                   const MatchOptions& options = MatchOptions{},
                   MatchStats* stats = nullptr,
                   MatchScratch* scratch = nullptr) const;

  /// The shared transition kernel (also used by stream::IncrementalMatcher).
  const TagKernel& kernel() const { return kernel_; }

 private:
  TagKernel kernel_;
};

}  // namespace granmine

#endif  // GRANMINE_TAG_MATCHER_H_
