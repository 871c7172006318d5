#ifndef GRANMINE_TAG_STEP_KERNEL_H_
#define GRANMINE_TAG_STEP_KERNEL_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "granmine/common/governor.h"
#include "granmine/common/governor_alloc.h"
#include "granmine/sequence/event.h"
#include "granmine/tag/clock_constraint.h"
#include "granmine/tag/matcher_types.h"
#include "granmine/tag/tag.h"

namespace granmine {

/// Sentinel reset value: the clock was reset at an instant with no tick in
/// its granularity; its value stays undefined until the next reset.
inline constexpr std::int64_t kUndefinedTick =
    std::numeric_limits<std::int64_t>::min();

/// Bytes the memory budget charges per configuration on top of its 8-byte
/// per-clock resets (and, in a binding-carrying run, its 8-byte binding
/// slots): a configuration was once a 32-byte node (an int state plus a heap
/// reset vector) and the budget's trip points are pinned to that footprint,
/// so a given budget stops the same runs at the same indices.
inline constexpr std::uint64_t kGovernedConfigBaseBytes = 32;

/// Binding slot value of a variable a binding-carrying run has not consumed.
inline constexpr std::int64_t kUnbound = -1;

/// The resident state of one (possibly incremental) TAG run between
/// equal-timestamp groups: the configuration frontier plus whether the run
/// has consumed its first group (clocks read 0 there, per §4 initiation).
///
/// A configuration is a state plus, per clock, the tick at which the clock
/// was last reset (or kUndefinedTick); clock values are reconstructed as
/// `tick(now) − tick(reset)`, so skipped events never perturb clocks. The
/// frontier stores configurations as fixed-stride rows `[state, reset_0 ..
/// reset_{C-1}]` (TagKernel::row_width() values each), sorted and distinct
/// in (state, resets) order — the order the closure explores them in and
/// the checkpoint codec writes them in. A binding-carrying run appends
/// TagKernel::binding_width() binding slots to each row (see AdvanceGroup).
/// Copyable as a plain vector: a streaming snapshot clones pending runs to
/// flush the reorder buffer without committing it.
struct TagRunState {
  std::vector<std::int64_t> frontier;
  bool seeded = false;

  void Reset() {
    frontier.clear();
    seeded = false;
  }
};

/// Reusable per-worker buffers for TagKernel::AdvanceGroup. One scratch
/// belongs to one thread at a time; reusing it keeps every buffer's capacity
/// warm across runs. The contents are the kernel's business.
struct TagKernelScratch {
  // Per group: the distinct event types and how many events of each.
  std::vector<EventTypeId> group_types;
  std::vector<int> available;
  // Per closure node: its clock values (CompiledGuard::kUndefined when
  // undefined), its row, and a successor being built.
  std::vector<std::int64_t> values;
  std::vector<std::int64_t> node;
  std::vector<std::int64_t> successor;
  // The within-group closure: node rows [state, resets.., bindings..,
  // used[T].., pre_anchor] back to back, an open-addressing table of node
  // ids + 1 (0 = empty), and the LIFO stack of unexpanded node ids.
  std::vector<std::int64_t> nodes;
  std::vector<std::uint32_t> table;
  std::vector<std::uint32_t> stack;
  std::vector<const std::int64_t*> rows;
  // Tick memo: the clock-granularity ticks of each timestamp this scratch
  // has advanced a group at, for the kernel with id `tick_kernel`. Rows of
  // TagKernel's distinct granularities, keyed by time through an
  // open-addressing table of row index + 1.
  std::uint64_t tick_kernel = 0;
  std::vector<TimePoint> tick_times;
  std::vector<std::int64_t> tick_rows;
  std::vector<std::uint32_t> tick_table;
};

/// The TAG transition kernel shared by the batch matcher (`TagMatcher::Run`)
/// and the streaming `IncrementalMatcher`: an immutable compiled view of one
/// TAG exposing the per-group frontier advance of the Theorem-4 procedure.
/// Construction resolves each clock's granularity, compiles every labeled
/// transition's guard into per-clock `[lo, hi]` boxes (CompiledGuard) and
/// groups the labeled transitions by source state, so the hot loop reads
/// flat arrays only. Events with equal timestamps form one *group*; the
/// kernel explores every consumption order within a group (per-type
/// counts), seeds the frontier on the run's first group, and retires
/// configurations whose every labeled guard is expired forever. A group's
/// clock ticks are computed once per timestamp and scratch, then read from
/// the scratch's memo by every later run that advances a group there.
///
/// All members are read-only after construction, so one kernel may be shared
/// by any number of threads, each passing its own scratch and run state.
class TagKernel {
 public:
  /// `tag` must outlive the kernel.
  explicit TagKernel(const Tag* tag);

  const Tag& tag() const { return *tag_; }
  std::size_t clock_count() const { return clock_granularity_.size(); }
  /// Values per frontier row: the state plus one reset per clock.
  std::size_t row_width() const { return clock_count() + 1; }
  /// Binding slots per row of a binding-carrying run: one per symbol
  /// 0 .. (largest labeled symbol), i.e. one per variable of a skeleton TAG.
  std::size_t binding_width() const { return binding_width_; }
  /// Configurations in `run`'s frontier.
  std::size_t FrontierSize(const TagRunState& run) const {
    return run.frontier.size() / row_width();
  }

  /// What one group advance decided about the run.
  enum class GroupOutcome {
    kAdvanced,  ///< run continues; frontier updated
    kAccepted,  ///< an accepting state was entered (run decided; frontier
                ///< stale); never returned by a binding-carrying run
    kDead,      ///< frontier empty after the group — no run can ever recover
    kStopped,   ///< budget/governor stop; stats->stopped has the cause
  };

  /// Advances `run` over one equal-timestamp group `group` (non-empty, all
  /// events share one timestamp). If the run is not yet seeded, the frontier
  /// is initiated at this group (clocks read 0); with `anchored` the group's
  /// first event is the reference occurrence the run must consume first.
  /// `stats->configurations` accumulates across calls (it is the per-run
  /// budget counter compared against `max_configurations`); `ticket`, when
  /// non-null, is charged once per created configuration with the run's
  /// configuration count as the deterministic index (GovernorScope::kMatch).
  /// `arena`, when non-null, is charged kGovernedConfigBaseBytes + 8 bytes
  /// per clock for each created configuration against the governor's memory
  /// budget at the same index; a refusal stops the run with the refusal
  /// cause (kMemBudget or an injected alloc failure), never a wrong verdict.
  ///
  /// With `accepted` non-null the run carries bindings (binding width B =
  /// binding_width(); without it B = 0 and nothing below applies). Each row
  /// becomes `[state, resets.., binding_0 .. binding_{B-1}]`, seeded with
  /// every slot kUnbound and deduplicated on all three parts. A step on
  /// symbol X takes an event of type T when X is in `symbols.SymbolsFor(T)`
  /// and binding_X is kUnbound or T, and writes binding_X = T. A step into
  /// an accepting state appends its B binding values to `*accepted` and the
  /// closure goes on, so the group never returns kAccepted: the caller reads
  /// every accepted binding once the frontier dies or its deadline passes.
  /// The memory charge per configuration adds 8 bytes per binding slot.
  GroupOutcome AdvanceGroup(std::span<const Event> group,
                            const SymbolMap& symbols, bool anchored,
                            TagRunState* run, TagKernelScratch* scratch,
                            MatchStats* stats,
                            std::uint64_t max_configurations,
                            GovernorTicket* ticket,
                            GovernorAllocator* arena = nullptr,
                            std::vector<std::int64_t>* accepted =
                                nullptr) const;

 private:
  /// A labeled transition with its guard compiled.
  struct Step {
    int to;
    Symbol symbol;
    bool accepting;
    CompiledGuard guard;
    std::vector<int> resets;  ///< clock indices
  };

  /// The ticks of `time` in granularities_ (kUndefinedTick where `time` has
  /// no tick), from the scratch's memo.
  const std::int64_t* TicksAt(TimePoint time, TagKernelScratch* scratch) const;
  /// Fills scratch->values for the configuration `row` at ticks `now`.
  void ClockValues(const std::int64_t* row, const std::int64_t* now,
                   TagKernelScratch* scratch) const;

  const Tag* tag_;
  /// Never reused by another kernel: keys the scratch tick memo.
  std::uint64_t id_;
  /// Distinct clock granularities and each clock's index into them.
  std::vector<const Granularity*> granularities_;
  std::vector<int> clock_granularity_;
  /// Labeled transitions grouped by source state: state s owns
  /// steps_[step_begin_[s], step_begin_[s + 1]), in OutgoingOf order.
  std::vector<Step> steps_;
  std::vector<std::uint32_t> step_begin_;
  std::vector<int> start_states_;  ///< sorted
  std::size_t binding_width_ = 0;
};

}  // namespace granmine

#endif  // GRANMINE_TAG_STEP_KERNEL_H_
