#include "granmine/constraint/subset_sum.h"

#include <numeric>
#include <string>

#include "granmine/common/check.h"
#include "granmine/common/governor_alloc.h"

namespace granmine {

Result<SubsetSumStructure> BuildSubsetSumStructure(
    GranularitySystem* system, const Granularity* month,
    const SubsetSumInstance& instance) {
  GM_CHECK(system != nullptr && month != nullptr);
  const int k = static_cast<int>(instance.numbers.size());
  if (k == 0) return Status::Invalid("empty SUBSET SUM instance");
  if (instance.target < 0) return Status::Invalid("negative target");
  for (std::int64_t n : instance.numbers) {
    if (n < 1) return Status::Invalid("SUBSET SUM numbers must be >= 1");
  }

  SubsetSumStructure out;
  out.month = month;
  for (int i = 1; i <= k + 1; ++i) {
    out.x.push_back(out.structure.AddVariable("X" + std::to_string(i)));
  }
  for (int i = 1; i <= k; ++i) {
    out.v.push_back(out.structure.AddVariable("V" + std::to_string(i)));
    out.u.push_back(out.structure.AddVariable("U" + std::to_string(i)));
  }

  for (int i = 0; i < k; ++i) {
    const std::int64_t n_i = instance.numbers[static_cast<std::size_t>(i)];
    std::string group_name =
        std::to_string(n_i) + "x" + std::string(month->name());
    const Granularity* n_month = system->Find(group_name);
    if (n_month == nullptr) {
      n_month = system->AddGroup(group_name, month, n_i);
      if (n_month == nullptr) return system->last_add_error();
    }
    GM_RETURN_NOT_OK(out.structure.AddConstraint(
        out.x[i], out.x[i + 1], Tcg::Of(0, n_i, month)));
    GM_RETURN_NOT_OK(out.structure.AddConstraint(out.v[i], out.x[i],
                                                 Tcg::Same(n_month)));
    GM_RETURN_NOT_OK(out.structure.AddConstraint(
        out.v[i], out.x[i], Tcg::Of(n_i - 1, n_i - 1, month)));
    GM_RETURN_NOT_OK(out.structure.AddConstraint(out.u[i], out.x[i + 1],
                                                 Tcg::Same(n_month)));
    GM_RETURN_NOT_OK(out.structure.AddConstraint(
        out.u[i], out.x[i + 1], Tcg::Of(n_i - 1, n_i - 1, month)));
  }
  GM_RETURN_NOT_OK(out.structure.AddConstraint(
      out.x.front(), out.x.back(),
      Tcg::Of(instance.target, instance.target, month)));
  return out;
}

std::vector<bool> DecodeSubset(const SubsetSumStructure& reduction,
                               const std::vector<TimePoint>& witness) {
  const std::size_t k = reduction.v.size();
  std::vector<bool> chosen(k, false);
  for (std::size_t i = 0; i < k; ++i) {
    std::optional<std::int64_t> diff = TickDifference(
        *reduction.month, witness[reduction.x[i]], witness[reduction.x[i + 1]]);
    GM_CHECK(diff.has_value());
    chosen[i] = *diff != 0;
  }
  return chosen;
}

Result<std::optional<std::vector<bool>>> SolveSubsetSum(
    GranularitySystem* system, const Granularity* month,
    const SubsetSumInstance& instance, const ExactOptions& options) {
  GM_ASSIGN_OR_RETURN(SubsetSumStructure reduction,
                      BuildSubsetSumStructure(system, month, instance));
  // The reduction structure (3k+1 variables, 5k+1 constraint edges) is
  // governed scratch: charge it against the memory budget before the search
  // starts. Index 0 — the build precedes every explored node.
  GovernorAllocator arena(options.governor, GovernorScope::kExactSearch);
  std::uint64_t reduction_bytes =
      static_cast<std::uint64_t>(reduction.structure.variable_count()) *
      sizeof(TimePoint);
  for (const EventStructure::Edge& edge : reduction.structure.edges()) {
    reduction_bytes +=
        sizeof(EventStructure::Edge) + edge.tcgs.size() * sizeof(Tcg);
  }
  if (StopCause cause = arena.Charge(/*index=*/0, reduction_bytes);
      cause != StopCause::kNone) {
    // An unbudgeted solve is *unknown*, exactly like an interrupted one.
    return StopCauseToStatus(cause, "SUBSET SUM reduction");
  }
  ExactConsistencyChecker checker(&system->tables(), &system->coverage(),
                                  options);
  GM_ASSIGN_OR_RETURN(ExactResult result, checker.Check(reduction.structure));
  if (!result.decided()) {
    // An interrupted search is *unknown*: claiming "no subset" here would be
    // a silent wrong answer.
    return StopCauseToStatus(result.stopped, "SUBSET SUM search");
  }
  if (!result.consistent) {
    return std::optional<std::vector<bool>>(std::nullopt);
  }
  std::vector<bool> chosen = DecodeSubset(reduction, result.witness);
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    if (chosen[i]) sum += instance.numbers[i];
  }
  GM_CHECK(sum == instance.target)
      << "reduction witness decodes to sum " << sum << ", expected "
      << instance.target;
  return std::optional<std::vector<bool>>(std::move(chosen));
}

}  // namespace granmine
