#ifndef GRANMINE_MINING_DISCOVERY_H_
#define GRANMINE_MINING_DISCOVERY_H_

#include <cstdint>
#include <vector>

#include "granmine/common/governor.h"
#include "granmine/constraint/event_structure.h"
#include "granmine/sequence/event.h"

namespace granmine {

/// An *event-discovery problem* (S, θ, E0, σ) per §5: find every complex
/// event type derived from `structure` that assigns `reference_type` to the
/// root, respects σ on the other variables, and occurs with frequency
/// strictly greater than `min_confidence` — where frequency is the number
/// of reference occurrences extended by at least one occurrence of the
/// candidate type, divided by the total number of reference occurrences in
/// the input sequence.
/// §6 extension: "two or more variables could be constrained to be assigned
/// the same (or different) event types".
struct TypeConstraint {
  enum class Kind { kSameType, kDifferentType };
  Kind kind = Kind::kSameType;
  VariableId a = 0;
  VariableId b = 0;

  bool SatisfiedBy(const std::vector<EventTypeId>& phi) const {
    bool equal = phi[static_cast<std::size_t>(a)] ==
                 phi[static_cast<std::size_t>(b)];
    return kind == Kind::kSameType ? equal : !equal;
  }
};

struct DiscoveryProblem {
  const EventStructure* structure = nullptr;
  double min_confidence = 0.0;
  EventTypeId reference_type = 0;
  /// σ: allowed event types per variable; an empty inner vector means "every
  /// type occurring in the sequence" (the paper's free variable). Each σ(X)
  /// is a set: a repeated entry counts once and the order is ignored. The
  /// root's entry is ignored (the root is pinned to `reference_type`). May
  /// be empty overall, meaning all variables are free.
  std::vector<std::vector<EventTypeId>> allowed;
  /// §6: same-type / different-type constraints over the assignment φ.
  std::vector<TypeConstraint> type_constraints;
};

/// One solution: a complex event type (the structure with this assignment)
/// and its measured frequency.
struct DiscoveredType {
  std::vector<EventTypeId> assignment;  ///< φ, indexed by variable id
  double frequency = 0.0;
  std::size_t matched_roots = 0;
};

/// A candidate whose frequency could not be decided before the run stopped
/// (matcher budget, governor deadline/step budget, cancellation, injected
/// fault). It is neither confirmed nor refuted — resuming with a larger
/// budget may flip it either way.
struct UnknownCandidate {
  std::vector<EventTypeId> assignment;  ///< φ, indexed by variable id
  StopCause reason = StopCause::kNone;
};

/// How much of the candidate space a mining run actually decided. With
/// `ExhaustionPolicy::kPartial` an interrupted run still returns OK plus
/// this record; callers must treat `solutions` as a *lower bound* whenever
/// `complete` is false.
///
/// Invariant: confirmed + refuted + unknown + not_evaluated ==
/// candidates_after_screening (or the clamped candidate count when
/// max_candidates truncated the space).
struct MiningCompleteness {
  bool complete = true;
  /// First cause that stopped the scan, kNone when complete.
  StopCause stop = StopCause::kNone;
  std::uint64_t confirmed = 0;      ///< frequency decided, above threshold
  std::uint64_t refuted = 0;        ///< frequency decided, at/below threshold
  std::uint64_t unknown = 0;        ///< scan started but interrupted
  std::uint64_t not_evaluated = 0;  ///< never scanned at all
};

/// Cap on `MiningReport::unknown_sample` (the first unknowns in candidate
/// order); the full count lives in `completeness.unknown`.
inline constexpr std::size_t kUnknownSampleCap = 32;

/// Solutions plus per-step instrumentation (the E5/E6 benchmark series).
struct MiningReport {
  std::vector<DiscoveredType> solutions;

  /// Partial-result accounting; `completeness.complete` is true for a fully
  /// decided run (the only possibility under ExhaustionPolicy::kAbort).
  MiningCompleteness completeness;
  /// The first (candidate order) undecided candidates, at most
  /// kUnknownSampleCap, with the cause that interrupted each.
  std::vector<UnknownCandidate> unknown_sample;

  /// Occurrences of E0 in the *input* sequence (the frequency denominator).
  std::size_t total_roots = 0;
  /// Input / post-step-2 sequence sizes.
  std::size_t events_before = 0;
  std::size_t events_after_reduction = 0;
  /// Roots surviving step 3.
  std::size_t roots_after_reduction = 0;
  /// Candidate complex types before / after step-4 screening.
  std::uint64_t candidates_before = 0;
  std::uint64_t candidates_after_screening = 0;
  /// Anchored TAG runs executed in step 5.
  std::uint64_t tag_runs = 0;
  /// Total matcher configurations across all runs.
  std::uint64_t matcher_configurations = 0;
  /// True when step 1 refuted the structure outright.
  bool refuted_by_propagation = false;
};

}  // namespace granmine

#endif  // GRANMINE_MINING_DISCOVERY_H_
