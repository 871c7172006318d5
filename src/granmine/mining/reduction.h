#ifndef GRANMINE_MINING_REDUCTION_H_
#define GRANMINE_MINING_REDUCTION_H_

#include <vector>

#include "granmine/common/result.h"
#include "granmine/constraint/propagation.h"
#include "granmine/mining/discovery.h"
#include "granmine/sequence/sequence.h"

namespace granmine {

/// Checks what every miner needs of a discovery problem: a structure with
/// one root and type constraints over its variables. Returns the root.
Result<VariableId> ValidateProblem(const DiscoveryProblem& problem);

/// The per-variable candidate type sets of a discovery problem, in σ's one
/// normal form: each non-root set sorted ascending and distinct, σ's "free"
/// entries expanded to the sequence's distinct types, and the root pinned
/// to the reference type. Every later step reads σ in this form, so a
/// candidate's odometer order is ascending type order on every path.
std::vector<std::vector<EventTypeId>> ResolveAllowedTypes(
    const DiscoveryProblem& problem, const EventSequence& sequence,
    VariableId root);

/// The §5 step-2 per-event predicate, built once from (propagation, allowed)
/// and then applied event by event: an event survives iff some variable may
/// take its type AND its timestamp satisfies every definedness requirement
/// that variable carries. Exposed separately from `ReduceSequence` so the
/// streaming miner can reduce each committed group incrementally with the
/// same decision the batch reduction makes.
///
/// Holds a pointer to `propagation`, which must outlive the reducer.
class EventReducer {
 public:
  EventReducer(const PropagationResult* propagation,
               const std::vector<std::vector<EventTypeId>>& allowed);

  bool Keep(const Event& event) const;

 private:
  const PropagationResult* propagation_;
  /// candidate_vars_[type]: variables that may take this type.
  std::vector<std::vector<VariableId>> candidate_vars_;
};

/// §5 step 2: drops every event that cannot be bound to any variable — its
/// type is allowed nowhere, or its timestamp violates a definedness
/// requirement (e.g., a weekend event when every variable carries b-day
/// constraints). Sound: the matcher's ANY self-loops skip unrelated events
/// without touching clocks, so removing them never changes anchored-match
/// outcomes. Equivalent to filtering with `EventReducer::Keep`.
EventSequence ReduceSequence(
    const EventSequence& sequence, const PropagationResult& propagation,
    const std::vector<std::vector<EventTypeId>>& allowed);

}  // namespace granmine

#endif  // GRANMINE_MINING_REDUCTION_H_
