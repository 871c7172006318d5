// Deadline / cancellation / fault-injection coverage for the governor
// substrate: ResourceGovernor + GovernorTicket semantics, three-valued
// matcher and exact-checker verdicts, and deterministic partial mining
// reports under injected faults (byte-identical across runs and across
// thread counts; see docs/robustness.md).

#include "granmine/common/governor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "granmine/constraint/exact.h"
#include "granmine/constraint/propagation.h"
#include "granmine/constraint/subset_sum.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/miner.h"
#include "granmine/tag/builder.h"
#include "granmine/tag/matcher.h"
#include "test_pool.h"

namespace granmine {
namespace {

// ---------------------------------------------------------------------------
// Governor / ticket / injector unit tests.

TEST(GovernorTest, UnlimitedGovernorNeverTrips) {
  ResourceGovernor governor;
  GovernorTicket ticket(&governor, GovernorScope::kGeneral);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    ASSERT_EQ(ticket.Charge(i), StopCause::kNone);
  }
  EXPECT_FALSE(governor.stopped());
  EXPECT_EQ(governor.cause(), StopCause::kNone);
  EXPECT_GT(governor.steps(), 0u);  // batches were flushed
}

TEST(GovernorTest, DetachedTicketIsFree) {
  GovernorTicket detached;
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(detached.Charge(i), StopCause::kNone);
  }
}

TEST(GovernorTest, StepBudgetTripsOnceAndSticks) {
  GovernorLimits limits;
  limits.max_steps = 10;
  limits.check_stride = 1;
  ResourceGovernor governor(limits);
  GovernorTicket ticket(&governor, GovernorScope::kGeneral);
  std::uint64_t tripped_at = 0;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    if (ticket.Charge(i) == StopCause::kStepBudget) {
      tripped_at = i;
      break;
    }
  }
  EXPECT_EQ(tripped_at, 11u);  // the 11th step exceeds a budget of 10
  EXPECT_TRUE(governor.stopped());
  EXPECT_EQ(governor.cause(), StopCause::kStepBudget);
  // Sticky: every later check reports the first cause.
  EXPECT_EQ(ticket.Charge(12), StopCause::kStepBudget);
  GovernorTicket other(&governor, GovernorScope::kMatch);
  EXPECT_EQ(other.Charge(0), StopCause::kStepBudget);
}

TEST(GovernorTest, DeadlineTrips) {
  GovernorLimits limits;
  limits.deadline_ms = 1;
  limits.check_stride = 1;
  ResourceGovernor governor(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  GovernorTicket ticket(&governor, GovernorScope::kGeneral);
  EXPECT_EQ(ticket.Charge(0), StopCause::kDeadline);
  EXPECT_TRUE(governor.stopped());
  EXPECT_TRUE(governor.stop_flag().load());
}

TEST(GovernorTest, RequestCancelWinsTheRace) {
  GovernorLimits limits;
  limits.check_stride = 1;
  ResourceGovernor governor(limits);
  governor.RequestCancel();
  GovernorTicket ticket(&governor, GovernorScope::kMine);
  EXPECT_EQ(ticket.Charge(0), StopCause::kCancelled);
  EXPECT_EQ(governor.cause(), StopCause::kCancelled);
  // A later would-be cause does not overwrite the first one.
  governor.RequestCancel();
  EXPECT_EQ(governor.cause(), StopCause::kCancelled);
}

TEST(GovernorTest, StrideBatchesSlowPathChecks) {
  GovernorLimits limits;
  limits.check_stride = 4;
  ResourceGovernor governor(limits);
  FaultInjector injector(GovernorScope::kGeneral, /*trip_index=*/1'000'000);
  governor.InstallFaultInjector(&injector);
  GovernorTicket ticket(&governor, GovernorScope::kGeneral);
  for (std::uint64_t i = 0; i < 3; ++i) ticket.Charge(i);
  EXPECT_EQ(injector.checks_observed(), 0u);  // still on the cheap path
  ticket.Charge(3);
  EXPECT_EQ(injector.checks_observed(), 1u);
  EXPECT_EQ(governor.steps(), 4u);  // the whole batch was flushed at once
}

TEST(GovernorTest, InjectorScopeAndIndexGateTrips) {
  FaultInjector injector(GovernorScope::kMatch, /*trip_index=*/5);
  EXPECT_FALSE(injector.ShouldTrip(GovernorScope::kMine, 7));   // wrong scope
  EXPECT_FALSE(injector.ShouldTrip(GovernorScope::kMatch, 4));  // early
  EXPECT_TRUE(injector.ShouldTrip(GovernorScope::kMatch, 5));
  EXPECT_TRUE(injector.ShouldTrip(GovernorScope::kMatch, 9));
  EXPECT_EQ(injector.checks_observed(), 4u);
  EXPECT_EQ(injector.trips_fired(), 2u);
}

TEST(GovernorTest, LocalInjectionLeavesTheSharedFlagAlone) {
  GovernorLimits limits;
  limits.check_stride = 1;
  ResourceGovernor governor(limits);
  FaultInjector injector(GovernorScope::kMine, 0, /*cancel_globally=*/false);
  governor.InstallFaultInjector(&injector);
  GovernorTicket ticket(&governor, GovernorScope::kMine);
  EXPECT_EQ(ticket.Charge(0), StopCause::kFaultInjected);
  EXPECT_FALSE(governor.stopped());  // the fault stayed local

  ResourceGovernor global_governor(limits);
  FaultInjector global(GovernorScope::kMine, 0, /*cancel_globally=*/true);
  global_governor.InstallFaultInjector(&global);
  GovernorTicket global_ticket(&global_governor, GovernorScope::kMine);
  EXPECT_EQ(global_ticket.Charge(0), StopCause::kFaultInjected);
  EXPECT_TRUE(global_governor.stopped());
  EXPECT_EQ(global_governor.cause(), StopCause::kFaultInjected);
}

TEST(GovernorTest, StopCauseNamesAndStatuses) {
  EXPECT_EQ(StopCauseToString(StopCause::kNone), "none");
  EXPECT_EQ(StopCauseToString(StopCause::kDeadline), "deadline");
  EXPECT_EQ(StopCauseToString(StopCause::kStepBudget), "step-budget");
  EXPECT_EQ(StopCauseToString(StopCause::kCancelled), "cancelled");
  EXPECT_EQ(StopCauseToString(StopCause::kFaultInjected), "fault-injected");
  EXPECT_EQ(StopCauseToStatus(StopCause::kDeadline, "x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(StopCauseToStatus(StopCause::kStepBudget, "x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(StopCauseToStatus(StopCause::kCancelled, "x").code(),
            StatusCode::kCancelled);
  EXPECT_EQ(StopCauseToStatus(StopCause::kFaultInjected, "x").code(),
            StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Three-valued matcher verdicts.

class MatcherGovernorTest : public testing::Test {
 protected:
  MatcherGovernorTest() {
    unit_ = toy_.AddUniform("unit", 1);
    VariableId x0 = chain_.AddVariable("X0");
    VariableId x1 = chain_.AddVariable("X1");
    VariableId x2 = chain_.AddVariable("X2");
    EXPECT_TRUE(chain_.AddConstraint(x0, x1, Tcg::Of(0, 3, unit_)).ok());
    EXPECT_TRUE(chain_.AddConstraint(x1, x2, Tcg::Of(0, 3, unit_)).ok());
    auto built = BuildTagForStructure(chain_);
    EXPECT_TRUE(built.ok());
    skeleton_ = *std::move(built);
    for (int i = 0; i < 12; ++i) {
      seq_.Add(/*type=*/i % 3, /*time=*/i);
    }
  }

  GranularitySystem toy_;
  const Granularity* unit_;
  EventStructure chain_;
  TagBuildResult skeleton_;
  EventSequence seq_;
};

TEST_F(MatcherGovernorTest, BudgetExhaustionIsUnknownNotRejected) {
  TagMatcher matcher(&skeleton_.tag);
  SymbolMap symbols = SymbolMap::FromAssignment({0, 1, 2}, 3);
  MatchStats stats;
  ASSERT_EQ(matcher.Run(seq_.View(), symbols, {}, &stats),
            MatchOutcome::kAccepted);
  EXPECT_EQ(stats.stopped, StopCause::kNone);

  // A budget of one configuration cannot decide this instance.
  MatchOptions strangled;
  strangled.max_configurations = 1;
  EXPECT_EQ(matcher.Run(seq_.View(), symbols, strangled, &stats),
            MatchOutcome::kUnknown);
  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_EQ(stats.stopped, StopCause::kStepBudget);
}

TEST_F(MatcherGovernorTest, GovernorTripYieldsUnknownWithCause) {
  TagMatcher matcher(&skeleton_.tag);
  SymbolMap symbols = SymbolMap::FromAssignment({0, 1, 2}, 3);
  GovernorLimits limits;
  limits.check_stride = 1;
  ResourceGovernor governor(limits);
  FaultInjector injector(GovernorScope::kMatch, /*trip_index=*/0);
  governor.InstallFaultInjector(&injector);
  MatchOptions options;
  options.governor = &governor;
  MatchStats stats;
  EXPECT_EQ(matcher.Run(seq_.View(), symbols, options, &stats),
            MatchOutcome::kUnknown);
  EXPECT_EQ(stats.stopped, StopCause::kFaultInjected);
  EXPECT_FALSE(stats.budget_exhausted);

  ResourceGovernor cancelled(limits);
  cancelled.RequestCancel();
  options.governor = &cancelled;
  EXPECT_EQ(matcher.Run(seq_.View(), symbols, options, &stats),
            MatchOutcome::kUnknown);
  EXPECT_EQ(stats.stopped, StopCause::kCancelled);
}

// ---------------------------------------------------------------------------
// Exact checker: injection sweep with run-to-run determinism.

class ExactGovernorTest : public testing::Test {
 protected:
  ExactGovernorTest() {
    unit_ = toy_.AddUniform("unit", 1);
    three_ = toy_.AddUniform("three", 3);
    VariableId x0 = s_.AddVariable("X0");
    VariableId x1 = s_.AddVariable("X1");
    VariableId x2 = s_.AddVariable("X2");
    VariableId x3 = s_.AddVariable("X3");
    EXPECT_TRUE(s_.AddConstraint(x0, x1, Tcg::Of(0, 5, unit_)).ok());
    EXPECT_TRUE(s_.AddConstraint(x1, x2, Tcg::Of(0, 5, unit_)).ok());
    EXPECT_TRUE(s_.AddConstraint(x2, x3, Tcg::Of(1, 2, three_)).ok());
  }

  GranularitySystem toy_;
  const Granularity* unit_;
  const Granularity* three_;
  EventStructure s_;
};

TEST_F(ExactGovernorTest, InjectionSweepIsDeterministic) {
  ExactConsistencyChecker baseline_checker(&toy_.tables(), &toy_.coverage());
  auto baseline = baseline_checker.Check(s_);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_TRUE(baseline->decided());
  ASSERT_TRUE(baseline->consistent);
  ASSERT_GT(baseline->nodes_explored, 4u);

  const std::uint64_t sweep_end = baseline->nodes_explored + 5;
  for (std::uint64_t trip = 1; trip <= sweep_end && trip <= 40; ++trip) {
    ExactResult results[2];
    for (int run = 0; run < 2; ++run) {
      GovernorLimits limits;
      limits.check_stride = 1;
      ResourceGovernor governor(limits);
      FaultInjector injector(GovernorScope::kExactSearch, trip);
      governor.InstallFaultInjector(&injector);
      ExactOptions options;
      options.governor = &governor;
      ExactConsistencyChecker checker(&toy_.tables(), &toy_.coverage(),
                                      options);
      auto result = checker.Check(s_);
      ASSERT_TRUE(result.ok()) << result.status();
      results[run] = *std::move(result);
    }
    // Byte-identical across the two runs.
    EXPECT_EQ(results[0].nodes_explored, results[1].nodes_explored);
    EXPECT_EQ(results[0].candidates_generated, results[1].candidates_generated);
    EXPECT_EQ(results[0].stopped, results[1].stopped);
    EXPECT_EQ(results[0].consistent, results[1].consistent);
    EXPECT_EQ(results[0].witness, results[1].witness);
    if (trip <= baseline->nodes_explored) {
      // The search charges once per node, so tripping within the baseline's
      // node count must interrupt it: a three-valued *unknown*.
      EXPECT_FALSE(results[0].decided());
      EXPECT_EQ(results[0].stopped, StopCause::kFaultInjected);
    } else {
      EXPECT_TRUE(results[0].decided());
      EXPECT_EQ(results[0].consistent, baseline->consistent);
      EXPECT_EQ(results[0].nodes_explored, baseline->nodes_explored);
    }
  }
}

TEST_F(ExactGovernorTest, CancelledSearchIsUndecidedNotInconsistent) {
  GovernorLimits limits;
  limits.check_stride = 1;
  ResourceGovernor governor(limits);
  governor.RequestCancel();
  ExactOptions options;
  options.governor = &governor;
  ExactConsistencyChecker checker(&toy_.tables(), &toy_.coverage(), options);
  auto result = checker.Check(s_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->decided());
  EXPECT_EQ(result->stopped, StopCause::kCancelled);
}

TEST(SubsetSumGovernorTest, InterruptedSolveNeverClaimsNoSubset) {
  auto system = GranularitySystem::Gregorian();
  const Granularity* month = system->Find("month");
  ASSERT_NE(month, nullptr);
  SubsetSumInstance instance;
  instance.numbers = {2, 3, 5};
  instance.target = 8;

  auto solved = SolveSubsetSum(system.get(), month, instance, ExactOptions{});
  ASSERT_TRUE(solved.ok()) << solved.status();
  ASSERT_TRUE(solved->has_value());

  GovernorLimits limits;
  limits.check_stride = 1;
  ResourceGovernor governor(limits);
  governor.RequestCancel();
  ExactOptions options;
  options.governor = &governor;
  auto interrupted = SolveSubsetSum(system.get(), month, instance, options);
  // Not "no subset" (that would be a silent wrong answer) — an error.
  ASSERT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.status().code(), StatusCode::kCancelled);
}

TEST(PropagationGovernorTest, EarlyStopIsSoundAndMarked) {
  GranularitySystem toy;
  const Granularity* unit = toy.AddUniform("unit", 1);
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  ASSERT_TRUE(s.AddConstraint(x0, x1, Tcg::Of(0, 3, unit)).ok());

  GovernorLimits limits;
  limits.check_stride = 1;
  ResourceGovernor governor(limits);
  governor.RequestCancel();
  PropagationOptions options;
  options.governor = &governor;
  ConstraintPropagator propagator(&toy.tables(), &toy.coverage(), options);
  auto result = propagator.Propagate(s);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stopped, StopCause::kCancelled);
  // Early-stopped propagation must never refute.
  EXPECT_TRUE(result->consistent);
}

// ---------------------------------------------------------------------------
// Miner: deterministic fault-injection sweeps and graceful partial reports.

// Serializes everything observable about a report; byte equality of these
// strings is the determinism criterion of the injection sweeps.
std::string FormatReport(const MiningReport& report) {
  std::string out;
  char buffer[256];
  auto append = [&](const char* format, auto... args) {
    std::snprintf(buffer, sizeof(buffer), format, args...);
    out += buffer;
  };
  append("roots=%zu events=%zu/%zu cand=%llu/%llu runs=%llu configs=%llu\n",
         report.total_roots, report.events_before,
         report.events_after_reduction,
         static_cast<unsigned long long>(report.candidates_before),
         static_cast<unsigned long long>(report.candidates_after_screening),
         static_cast<unsigned long long>(report.tag_runs),
         static_cast<unsigned long long>(report.matcher_configurations));
  const MiningCompleteness& c = report.completeness;
  append("complete=%d stop=%d confirmed=%llu refuted=%llu unknown=%llu "
         "not_evaluated=%llu\n",
         c.complete ? 1 : 0, static_cast<int>(c.stop),
         static_cast<unsigned long long>(c.confirmed),
         static_cast<unsigned long long>(c.refuted),
         static_cast<unsigned long long>(c.unknown),
         static_cast<unsigned long long>(c.not_evaluated));
  for (const DiscoveredType& solution : report.solutions) {
    out += "sol";
    for (EventTypeId type : solution.assignment) {
      append(" %d", type);
    }
    append(" matched=%zu freq=%.17g\n", solution.matched_roots,
           solution.frequency);
  }
  for (const UnknownCandidate& unknown : report.unknown_sample) {
    out += "unk";
    for (EventTypeId type : unknown.assignment) {
      append(" %d", type);
    }
    append(" reason=%d\n", static_cast<int>(unknown.reason));
  }
  return out;
}

class MinerGovernorTest : public testing::Test {
 protected:
  static constexpr int kTypeCount = 6;

  MinerGovernorTest() {
    unit_ = toy_.AddUniform("unit", 1);
    VariableId x0 = s_.AddVariable("X0");
    VariableId x1 = s_.AddVariable("X1");
    VariableId x2 = s_.AddVariable("X2");
    EXPECT_TRUE(s_.AddConstraint(x0, x1, Tcg::Of(0, 8, unit_)).ok());
    EXPECT_TRUE(s_.AddConstraint(x1, x2, Tcg::Of(0, 8, unit_)).ok());
    // A small deterministic pseudo-random sequence over kTypeCount types,
    // dense enough that matcher runs build many configurations (the kMatch
    // injection sweep needs non-trivial per-run configuration counts).
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    TimePoint t = 0;
    for (int i = 0; i < 48; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      t += 1 + static_cast<TimePoint>((state >> 33) % 2);
      seq_.Add(static_cast<EventTypeId>((state >> 13) % kTypeCount), t);
    }
    problem_.structure = &s_;
    problem_.reference_type = 0;
    problem_.min_confidence = 0.05;
    EXPECT_GT(seq_.CountOf(0), 0u);
  }

  MiningReport MineInjected(int threads, GovernorScope scope,
                            std::uint64_t trip, bool cancel_globally) {
    std::unique_ptr<Executor> pool = PoolOf(threads);
    MinerOptions options;
    options.executor = pool.get();
    options.on_exhaustion = MinerOptions::ExhaustionPolicy::kPartial;
    Miner miner(&toy_, options);
    GovernorLimits limits;
    limits.check_stride = 1;
    ResourceGovernor governor(limits);
    FaultInjector injector(scope, trip, cancel_globally);
    governor.InstallFaultInjector(&injector);
    auto report = miner.Mine(problem_, seq_, &governor);
    EXPECT_TRUE(report.ok()) << report.status();
    return report.ok() ? *std::move(report) : MiningReport{};
  }

  static void CheckInvariant(const MiningReport& report) {
    const MiningCompleteness& c = report.completeness;
    EXPECT_EQ(c.confirmed + c.refuted + c.unknown + c.not_evaluated,
              report.candidates_after_screening);
    EXPECT_EQ(c.complete, c.unknown == 0 && c.not_evaluated == 0);
    if (!c.complete) {
      EXPECT_NE(c.stop, StopCause::kNone);
    }
    EXPECT_LE(report.unknown_sample.size(), kUnknownSampleCap);
    EXPECT_LE(report.unknown_sample.size(), c.unknown);
  }

  GranularitySystem toy_;
  const Granularity* unit_;
  EventStructure s_;
  EventSequence seq_;
  DiscoveryProblem problem_;
};

TEST_F(MinerGovernorTest, MineScopeSweepIsByteIdenticalAcrossThreadCounts) {
  Miner plain(&toy_);
  auto full = plain.Mine(problem_, seq_);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE(full->completeness.complete);
  const std::uint64_t total = full->candidates_after_screening;
  ASSERT_GE(total, 25u);  // the sweep needs a real candidate space

  for (std::uint64_t trip = 0; trip <= total + 2; ++trip) {
    MiningReport serial =
        MineInjected(1, GovernorScope::kMine, trip, /*cancel_globally=*/false);
    MiningReport serial_again =
        MineInjected(1, GovernorScope::kMine, trip, /*cancel_globally=*/false);
    MiningReport parallel =
        MineInjected(4, GovernorScope::kMine, trip, /*cancel_globally=*/false);
    CheckInvariant(serial);
    CheckInvariant(parallel);
    const std::string expected = FormatReport(serial);
    ASSERT_EQ(expected, FormatReport(serial_again)) << "trip=" << trip;
    ASSERT_EQ(expected, FormatReport(parallel)) << "trip=" << trip;
    if (trip >= total) {
      EXPECT_TRUE(serial.completeness.complete) << "trip=" << trip;
      EXPECT_EQ(expected, FormatReport(*full));
    } else {
      // A kMine injection fails exactly the candidates at index >= trip.
      EXPECT_EQ(serial.completeness.unknown, total - trip);
      EXPECT_EQ(serial.completeness.confirmed + serial.completeness.refuted,
                trip);
      EXPECT_EQ(serial.completeness.stop, StopCause::kFaultInjected);
    }
  }
}

TEST_F(MinerGovernorTest, MatchScopeSweepIsByteIdenticalAcrossThreadCounts) {
  Miner plain(&toy_);
  auto full = plain.Mine(problem_, seq_);
  ASSERT_TRUE(full.ok()) << full.status();
  int interrupted_points = 0;
  for (std::uint64_t trip = 0; trip <= 60; trip += 1) {
    MiningReport serial =
        MineInjected(1, GovernorScope::kMatch, trip, /*cancel_globally=*/false);
    MiningReport parallel =
        MineInjected(4, GovernorScope::kMatch, trip, /*cancel_globally=*/false);
    CheckInvariant(serial);
    CheckInvariant(parallel);
    ASSERT_EQ(FormatReport(serial), FormatReport(parallel)) << "trip=" << trip;
    if (serial.completeness.unknown > 0) {
      ++interrupted_points;
      EXPECT_EQ(serial.completeness.stop, StopCause::kFaultInjected);
      for (const UnknownCandidate& unknown : serial.unknown_sample) {
        EXPECT_EQ(unknown.reason, StopCause::kFaultInjected);
      }
      // Partial solutions are a subset of the full run's solutions.
      for (const DiscoveredType& solution : serial.solutions) {
        bool found = false;
        for (const DiscoveredType& reference : full->solutions) {
          if (reference.assignment == solution.assignment) {
            found = true;
            break;
          }
        }
        EXPECT_TRUE(found);
      }
    }
  }
  // Low trip indices interrupt matcher runs; the sweep must hit real faults.
  EXPECT_GT(interrupted_points, 5);
}

TEST_F(MinerGovernorTest, GlobalCancellationSweepKeepsInvariants) {
  Miner plain(&toy_);
  auto full = plain.Mine(problem_, seq_);
  ASSERT_TRUE(full.ok());
  const std::uint64_t total = full->candidates_after_screening;
  for (std::uint64_t trip = 0; trip < total; trip += 3) {
    MiningReport report =
        MineInjected(4, GovernorScope::kMine, trip, /*cancel_globally=*/true);
    CheckInvariant(report);
    EXPECT_FALSE(report.completeness.complete);
    EXPECT_EQ(report.completeness.stop, StopCause::kFaultInjected);
    // Global cancellation forfeits work (chunks past the trip index can set
    // the shared flag before earlier chunks run), but never silently: the
    // forfeited candidates are all accounted for as not_evaluated.
    EXPECT_GT(report.completeness.not_evaluated + report.completeness.unknown,
              0u);
  }
}

TEST_F(MinerGovernorTest, ExpiredDeadlineYieldsAllNotEvaluated) {
  MinerOptions options;
  options.on_exhaustion = MinerOptions::ExhaustionPolicy::kPartial;
  Miner miner(&toy_, options);
  GovernorLimits limits;
  limits.deadline_ms = 1;
  limits.check_stride = 1;
  ResourceGovernor governor(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto report = miner.Mine(problem_, seq_, &governor);
  ASSERT_TRUE(report.ok()) << report.status();
  CheckInvariant(*report);
  EXPECT_FALSE(report->completeness.complete);
  EXPECT_EQ(report->completeness.stop, StopCause::kDeadline);
  EXPECT_EQ(report->completeness.not_evaluated,
            report->candidates_after_screening);
  EXPECT_TRUE(report->solutions.empty());
}

TEST_F(MinerGovernorTest, AbortPolicySurfacesTheCauseAsAnError) {
  GovernorLimits limits;
  limits.check_stride = 1;
  {
    ResourceGovernor governor(limits);
    governor.RequestCancel();
    Miner miner(&toy_);  // kAbort is the default policy
    auto report = miner.Mine(problem_, seq_, &governor);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kCancelled);
  }
  {
    ResourceGovernor governor(limits);
    FaultInjector injector(GovernorScope::kMine, 3);
    governor.InstallFaultInjector(&injector);
    Miner miner(&toy_);
    auto report = miner.Mine(problem_, seq_, &governor);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST_F(MinerGovernorTest, CancellationBeforePartialMiningLosesNothingSilently) {
  Executor pool(4);
  MinerOptions options;
  options.on_exhaustion = MinerOptions::ExhaustionPolicy::kPartial;
  options.executor = &pool;
  Miner miner(&toy_, options);
  GovernorLimits limits;
  limits.check_stride = 1;
  ResourceGovernor governor(limits);
  governor.RequestCancel();
  auto report = miner.Mine(problem_, seq_, &governor);
  ASSERT_TRUE(report.ok()) << report.status();
  CheckInvariant(*report);
  EXPECT_EQ(report->completeness.stop, StopCause::kCancelled);
  EXPECT_EQ(report->completeness.not_evaluated,
            report->candidates_after_screening);
}

TEST_F(MinerGovernorTest, MatcherBudgetDegradesToUnknownUnderPartialPolicy) {
  MinerOptions options;
  options.on_exhaustion = MinerOptions::ExhaustionPolicy::kPartial;
  options.max_configurations_per_run = 1;
  Miner miner(&toy_, options);
  auto report = miner.Mine(problem_, seq_);
  ASSERT_TRUE(report.ok()) << report.status();
  CheckInvariant(*report);
  EXPECT_FALSE(report->completeness.complete);
  EXPECT_GT(report->completeness.unknown, 0u);
  EXPECT_EQ(report->completeness.stop, StopCause::kStepBudget);
  for (const UnknownCandidate& unknown : report->unknown_sample) {
    EXPECT_EQ(unknown.reason, StopCause::kStepBudget);
  }

  // The same budget under the legacy abort policy is the historical error.
  MinerOptions abort_options;
  abort_options.max_configurations_per_run = 1;
  Miner abort_miner(&toy_, abort_options);
  auto aborted = abort_miner.Mine(problem_, seq_);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(MinerGovernorTest, CandidateCapClampsInsteadOfAbortingUnderPartial) {
  MinerOptions options;
  options.on_exhaustion = MinerOptions::ExhaustionPolicy::kPartial;
  options.max_candidates = 5;
  Miner miner(&toy_, options);
  auto report = miner.Mine(problem_, seq_);
  ASSERT_TRUE(report.ok()) << report.status();
  CheckInvariant(*report);
  EXPECT_FALSE(report->completeness.complete);
  EXPECT_EQ(report->completeness.stop, StopCause::kStepBudget);
  EXPECT_EQ(report->completeness.confirmed + report->completeness.refuted, 5u);
  EXPECT_EQ(report->completeness.not_evaluated,
            report->candidates_after_screening - 5);
}

}  // namespace
}  // namespace granmine
