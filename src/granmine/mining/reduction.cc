#include "granmine/mining/reduction.h"

#include <algorithm>

#include "granmine/common/check.h"

namespace granmine {

Result<VariableId> ValidateProblem(const DiscoveryProblem& problem) {
  if (problem.structure == nullptr) {
    return Status::Invalid("discovery problem has no structure");
  }
  GM_ASSIGN_OR_RETURN(VariableId root, problem.structure->FindRoot());
  const int n = problem.structure->variable_count();
  for (const TypeConstraint& constraint : problem.type_constraints) {
    if (constraint.a < 0 || constraint.a >= n || constraint.b < 0 ||
        constraint.b >= n) {
      return Status::Invalid("type constraint references unknown variables");
    }
  }
  return root;
}

std::vector<std::vector<EventTypeId>> ResolveAllowedTypes(
    const DiscoveryProblem& problem, const EventSequence& sequence,
    VariableId root) {
  GM_CHECK(problem.structure != nullptr);
  const int n = problem.structure->variable_count();
  std::vector<EventTypeId> all_types = sequence.DistinctTypes();
  std::vector<std::vector<EventTypeId>> allowed(
      static_cast<std::size_t>(n));
  for (VariableId v = 0; v < n; ++v) {
    std::vector<EventTypeId>& types = allowed[static_cast<std::size_t>(v)];
    if (v == root) {
      types = {problem.reference_type};
    } else if (static_cast<std::size_t>(v) < problem.allowed.size() &&
               !problem.allowed[static_cast<std::size_t>(v)].empty()) {
      types = problem.allowed[static_cast<std::size_t>(v)];
      std::sort(types.begin(), types.end());
      types.erase(std::unique(types.begin(), types.end()), types.end());
    } else {
      types = all_types;
    }
  }
  return allowed;
}

EventReducer::EventReducer(
    const PropagationResult* propagation,
    const std::vector<std::vector<EventTypeId>>& allowed)
    : propagation_(propagation) {
  const int n = static_cast<int>(allowed.size());
  EventTypeId max_type = -1;
  for (const std::vector<EventTypeId>& types : allowed) {
    for (EventTypeId type : types) max_type = std::max(max_type, type);
  }
  candidate_vars_.resize(static_cast<std::size_t>(max_type) + 1);
  for (VariableId v = 0; v < n; ++v) {
    for (EventTypeId type : allowed[static_cast<std::size_t>(v)]) {
      candidate_vars_[static_cast<std::size_t>(type)].push_back(v);
    }
  }
}

bool EventReducer::Keep(const Event& event) const {
  if (event.type < 0 ||
      static_cast<std::size_t>(event.type) >= candidate_vars_.size()) {
    return false;
  }
  for (VariableId v : candidate_vars_[static_cast<std::size_t>(event.type)]) {
    bool usable = true;
    for (const Granularity* g : propagation_->granularities) {
      if (propagation_->IsDefinedIn(g, v) && !g->InSupport(event.time)) {
        usable = false;
        break;
      }
    }
    if (usable) return true;
  }
  return false;
}

EventSequence ReduceSequence(
    const EventSequence& sequence, const PropagationResult& propagation,
    const std::vector<std::vector<EventTypeId>>& allowed) {
  EventReducer reducer(&propagation, allowed);
  return sequence.Filter(
      [&](const Event& event) { return reducer.Keep(event); });
}

}  // namespace granmine
