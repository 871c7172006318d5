// Quickstart: the paper's Figure 1(a) end to end —
//   1. build a granularity system and an event structure with TCGs,
//   2. check consistency with the approximate propagation of §3.2,
//   3. inspect derived constraints (the §5.1 induced sub-structure),
//   4. build the Theorem-3 TAG and match a small event sequence.
//
// Run: ./quickstart

#include <cstdio>

#include "granmine/constraint/propagation.h"
#include "granmine/constraint/substructure.h"
#include "granmine/granularity/civil_calendar.h"
#include "granmine/granularity/system.h"
#include "granmine/paper/figures.h"
#include "granmine/sequence/sequence.h"
#include "granmine/tag/builder.h"
#include "granmine/tag/matcher.h"

using namespace granmine;

int main() {
  // The standard second-based Gregorian system: second, minute, hour, day,
  // week, month, year, b-day, weekend-day, b-week, b-month.
  std::unique_ptr<GranularitySystem> system = GranularitySystem::Gregorian();

  // Figure 1(a): X0 -[1,1]b-day-> X1 -[0,1]week-> X3,
  //              X0 -[0,5]b-day-> X2 -[0,8]hour-> X3.
  Result<EventStructure> structure = BuildFigure1a(*system);
  if (!structure.ok()) {
    std::fprintf(stderr, "building structure: %s\n",
                 structure.status().ToString().c_str());
    return 1;
  }
  std::printf("Event structure:\n%s\n\n", structure->ToString().c_str());

  // Step 1: consistency via approximate propagation (Theorem 2).
  ConstraintPropagator propagator(&system->tables(), &system->coverage());
  Result<PropagationResult> propagation = propagator.Propagate(*structure);
  if (!propagation.ok()) {
    std::fprintf(stderr, "propagation: %s\n",
                 propagation.status().ToString().c_str());
    return 1;
  }
  std::printf("consistent (not refuted): %s, fixpoint after %d iterations\n",
              propagation->consistent ? "yes" : "no",
              propagation->iterations);

  // Derived constraints between the root X0 and the sink X3 (§5.1).
  Result<EventStructure> induced =
      InduceSubstructure(*structure, *propagation, {0, 3});
  if (induced.ok()) {
    std::printf("\nInduced approximated sub-structure on {X0, X3}:\n%s\n\n",
                induced->ToString().c_str());
  }

  // Theorem 3: the TAG (Figure 2).
  Result<TagBuildResult> built = BuildTagForStructure(*structure);
  if (!built.ok()) {
    std::fprintf(stderr, "TAG construction: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::printf("TAG (%zu chains):\n%s\n\n", built->chains.size(),
              built->tag.ToString().c_str());

  // A tiny sequence: IBM-rise Mon 10:00, report Tue 11:00, HP-rise Wed
  // 12:00, IBM-fall Wed 15:00 (plus noise). Day 4 = Monday 1970-01-05.
  enum : EventTypeId { kRise, kReport, kHpRise, kFall, kNoise };
  auto at = [](std::int64_t day, int hour) {
    return day * kSecondsPerDay + hour * 3600;
  };
  EventSequence sequence;
  sequence.Add(kRise, at(4, 10));
  sequence.Add(kNoise, at(4, 12));
  sequence.Add(kReport, at(5, 11));
  sequence.Add(kNoise, at(6, 9));
  sequence.Add(kHpRise, at(6, 12));
  sequence.Add(kFall, at(6, 15));

  TagMatcher matcher(&built->tag);
  SymbolMap symbols =
      SymbolMap::FromAssignment({kRise, kReport, kHpRise, kFall}, 5);
  MatchStats stats;
  bool accepted = matcher.Run(sequence.View(), symbols, {}, &stats) ==
                  MatchOutcome::kAccepted;
  std::printf("complex event type occurs in the sequence: %s\n",
              accepted ? "YES" : "no");
  std::printf("matcher explored %llu configurations over %llu events\n",
              static_cast<unsigned long long>(stats.configurations),
              static_cast<unsigned long long>(stats.events_scanned));
  return accepted ? 0 : 2;
}
