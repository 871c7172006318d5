#ifndef GRANMINE_TAG_MATCHER_TYPES_H_
#define GRANMINE_TAG_MATCHER_TYPES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "granmine/common/governor.h"
#include "granmine/common/math.h"
#include "granmine/sequence/event.h"
#include "granmine/tag/tag.h"

namespace granmine {

/// Maps each event type to the TAG symbols an event of that type may drive.
/// For a symbol-substituted TAG this is the identity; for a *skeleton* TAG
/// (symbols = variable ids) under a candidate assignment φ it lists the
/// variables φ maps to each type — this is how one skeleton serves all
/// O(n^s) candidate complex types in the miner.
struct SymbolMap {
  std::vector<std::vector<Symbol>> symbols_by_type;

  /// type i -> symbol i.
  static SymbolMap Identity(int type_count);
  /// type E -> { v : phi[v] == E }.
  static SymbolMap FromAssignment(const std::vector<EventTypeId>& phi,
                                  int type_count);
  /// type E -> { v : E ∈ allowed[v] }: every candidate φ over `allowed` at
  /// once, for a binding-carrying run.
  static SymbolMap FromAllowed(
      const std::vector<std::vector<EventTypeId>>& allowed, int type_count);

  std::span<const Symbol> SymbolsFor(EventTypeId type) const;
};

struct MatchOptions {
  /// When true, the first event of the span must be consumed by a non-ANY
  /// transition out of a start state — it is the reference occurrence the
  /// §5 discovery procedure anchors the automaton on.
  bool anchored = false;
  /// Stop scanning events whose timestamp exceeds this (kInfinity = none).
  /// The §5 optimizations derive such deadlines from propagation windows.
  /// This deadline is *sound* (later events provably cannot matter), so
  /// truncation still yields a definite kRejected — unlike the governor
  /// below, whose trips yield kUnknown.
  TimePoint deadline = kInfinity;
  /// Configuration budget; exceeding it stops the run with
  /// MatchOutcome::kUnknown and stats->budget_exhausted set.
  std::uint64_t max_configurations = 50'000'000;
  /// Shared per-request governor (deadline / step budget / cancellation);
  /// may be null. A governor trip stops the run with kUnknown and records
  /// the cause in stats->stopped. Checked under GovernorScope::kMatch with
  /// the run's configuration count as the deterministic index.
  const ResourceGovernor* governor = nullptr;
};

/// The three-valued result of a TAG run. An interrupted run is *unknown*,
/// never "rejected": treating exhaustion as rejection silently corrupts
/// mined frequencies (see docs/robustness.md).
enum class MatchOutcome {
  kRejected = 0,  ///< no run over the events reaches an accepting state
  kAccepted,      ///< some run reaches an accepting state
  kUnknown,       ///< stopped early (budget / governor) before deciding
};

/// Instrumentation for the Theorem-4 complexity experiments.
struct MatchStats {
  std::uint64_t configurations = 0;  ///< configs created over the run
  std::size_t peak_frontier = 0;     ///< max simultaneous configs
  std::uint64_t events_scanned = 0;
  /// Guard-satisfied labeled transitions taken (successors generated,
  /// including duplicates later deduplicated). Plain field bumps in the
  /// kernel; the obs layer flushes them in batch at scan/snapshot merges.
  std::uint64_t transitions = 0;
  /// AdvanceGroup invocations this run.
  std::uint64_t groups_advanced = 0;
  /// The run hit its local max_configurations budget (outcome kUnknown).
  bool budget_exhausted = false;
  /// Why the run stopped early: kStepBudget for the local configuration
  /// budget, otherwise the governor's cause. kNone for decided runs.
  StopCause stopped = StopCause::kNone;
};

}  // namespace granmine

#endif  // GRANMINE_TAG_MATCHER_TYPES_H_
