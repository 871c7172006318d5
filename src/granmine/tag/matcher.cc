#include "granmine/tag/matcher.h"

#include "granmine/common/check.h"
#include "granmine/tag/step_kernel.h"

namespace granmine {

SymbolMap SymbolMap::Identity(int type_count) {
  SymbolMap map;
  map.symbols_by_type.resize(static_cast<std::size_t>(type_count));
  for (int i = 0; i < type_count; ++i) {
    map.symbols_by_type[static_cast<std::size_t>(i)] = {i};
  }
  return map;
}

SymbolMap SymbolMap::FromAssignment(const std::vector<EventTypeId>& phi,
                                    int type_count) {
  SymbolMap map;
  map.symbols_by_type.resize(static_cast<std::size_t>(type_count));
  for (std::size_t v = 0; v < phi.size(); ++v) {
    EventTypeId type = phi[v];
    GM_CHECK(type >= 0 && type < type_count);
    map.symbols_by_type[static_cast<std::size_t>(type)].push_back(
        static_cast<Symbol>(v));
  }
  return map;
}

SymbolMap SymbolMap::FromAllowed(
    const std::vector<std::vector<EventTypeId>>& allowed, int type_count) {
  SymbolMap map;
  map.symbols_by_type.resize(static_cast<std::size_t>(type_count));
  for (std::size_t v = 0; v < allowed.size(); ++v) {
    for (EventTypeId type : allowed[v]) {
      GM_CHECK(type >= 0 && type < type_count);
      map.symbols_by_type[static_cast<std::size_t>(type)].push_back(
          static_cast<Symbol>(v));
    }
  }
  return map;
}

std::span<const Symbol> SymbolMap::SymbolsFor(EventTypeId type) const {
  if (type < 0 || type >= static_cast<int>(symbols_by_type.size())) {
    return {};
  }
  return symbols_by_type[static_cast<std::size_t>(type)];
}

TagMatcher::TagMatcher(const Tag* tag) : kernel_(tag) {}

MatchOutcome TagMatcher::Run(std::span<const Event> events,
                             const SymbolMap& symbols,
                             const MatchOptions& options, MatchStats* stats,
                             MatchScratch* scratch,
                             std::vector<std::int64_t>* accepted) const {
  GM_CHECK(accepted == nullptr || options.anchored);
  MatchStats local_stats;
  MatchStats& st = stats != nullptr ? *stats : local_stats;
  st = MatchStats{};

  // One ticket per run: the stride countdown starts fresh, so for a fixed
  // input the governor is consulted at the same configuration counts every
  // time — the determinism the fault-injection sweeps rely on. The arena
  // follows the same per-run lifetime: every configuration byte charged
  // during this run is released when Run returns, so the memory budget
  // tracks the live frontier, not a lifetime total.
  GovernorTicket ticket(options.governor, GovernorScope::kMatch);
  GovernorAllocator arena(options.governor, GovernorScope::kMatch);

  MatchScratch local_scratch;
  MatchScratch& s = scratch != nullptr ? *scratch : local_scratch;

  const Tag& tag = kernel_.tag();
  const std::size_t accepted_before =
      accepted != nullptr ? accepted->size() : 0;
  // A run that ends without a stop: accepted iff it appended a binding
  // (a plain run returns kAccepted from the group that accepted).
  auto finished = [&] {
    return accepted != nullptr && accepted->size() > accepted_before
               ? MatchOutcome::kAccepted
               : MatchOutcome::kRejected;
  };

  // Empty input: accepted iff a start state is accepting (and the run is
  // not required to anchor on a first event).
  if (!options.anchored) {
    for (int state : tag.start_states()) {
      if (tag.IsAccepting(state)) return MatchOutcome::kAccepted;
    }
  }

  s.run_.Reset();

  // Events with equal timestamps form one *group*: the §3 occurrence
  // definition is insensitive to their listing order, so within a group the
  // matcher may consume them in any order (the kernel's closure explores all
  // orders; clock ticks are constant across a group, so only the per-type
  // consumption counts matter).
  std::size_t group_start = 0;
  while (group_start < events.size()) {
    if (StopCause cause = ticket.Charge(st.configurations);
        cause != StopCause::kNone) {
      st.stopped = cause;
      return MatchOutcome::kUnknown;
    }
    const TimePoint group_time = events[group_start].time;
    if (group_time > options.deadline) break;
    std::size_t group_end = group_start;
    while (group_end < events.size() && events[group_end].time == group_time) {
      ++group_end;
    }

    switch (kernel_.AdvanceGroup(
        events.subspan(group_start, group_end - group_start), symbols,
        options.anchored, &s.run_, &s.kernel_, &st, options.max_configurations,
        &ticket, &arena, accepted)) {
      case TagKernel::GroupOutcome::kAccepted:
        return MatchOutcome::kAccepted;
      case TagKernel::GroupOutcome::kStopped:
        return MatchOutcome::kUnknown;
      case TagKernel::GroupOutcome::kDead:
        return finished();  // no run recovers
      case TagKernel::GroupOutcome::kAdvanced:
        break;
    }
    group_start = group_end;
  }
  return finished();
}

}  // namespace granmine
