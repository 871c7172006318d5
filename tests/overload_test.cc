// Overload-resilience coverage: the memory-budget governor axis
// (ChargeMemory / GovernorAllocator, StopCause::kMemBudget), the
// AdmissionController in front of the Engine (bounded queue, deadline-aware
// shedding, sticky first cause, retryable sheds), degraded screening-only
// serving (StopCause::kDegraded), bounded stream buffers, and the chaos
// harness: alloc-failure / queue-full / slow-worker faults injected at
// deterministic progress indices, with partial reports byte-identical
// between serial and multithreaded runs at every injection point
// (docs/robustness.md).

#include "granmine/engine/admission.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "granmine/common/governor.h"
#include "granmine/common/governor_alloc.h"
#include "granmine/constraint/exact.h"
#include "granmine/constraint/subset_sum.h"
#include "granmine/engine/engine.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/miner.h"
#include "granmine/stream/ingestor.h"
#include "granmine/stream/online_miner.h"
#include "granmine/tag/builder.h"
#include "granmine/tag/matcher.h"
#include "test_pool.h"

namespace granmine {
namespace {

// ---------------------------------------------------------------------------
// FaultKind and the new StopCause vocabulary.

TEST(FaultKindTest, KindGatesTripsIndependentlyOfScopeAndIndex) {
  FaultInjector alloc(GovernorScope::kMatch, /*trip_index=*/2,
                      /*cancel_globally=*/false, FaultKind::kAllocFailure);
  // A kGovernorCheck probe at the matching scope/index never trips an
  // alloc-failure injector...
  EXPECT_FALSE(alloc.ShouldTrip(GovernorScope::kMatch, 5));
  // ...but it still counts as an observed check.
  EXPECT_EQ(alloc.checks_observed(), 1u);
  // The matching kind trips with the usual scope/index gating.
  EXPECT_FALSE(alloc.ShouldFail(FaultKind::kAllocFailure,
                                GovernorScope::kMine, 5));
  EXPECT_FALSE(alloc.ShouldFail(FaultKind::kAllocFailure,
                                GovernorScope::kMatch, 1));
  EXPECT_TRUE(alloc.ShouldFail(FaultKind::kAllocFailure,
                               GovernorScope::kMatch, 2));
  EXPECT_EQ(alloc.trips_fired(), 1u);

  EXPECT_EQ(FaultKindToString(FaultKind::kGovernorCheck), "governor-check");
  EXPECT_EQ(FaultKindToString(FaultKind::kAllocFailure), "alloc-failure");
  EXPECT_EQ(FaultKindToString(FaultKind::kQueueFull), "queue-full");
  EXPECT_EQ(FaultKindToString(FaultKind::kSlowWorker), "slow-worker");
}

TEST(FaultKindTest, NewStopCausesHaveNamesAndStatuses) {
  EXPECT_EQ(StopCauseToString(StopCause::kMemBudget), "mem-budget");
  EXPECT_EQ(StopCauseToString(StopCause::kDegraded), "degraded");
  EXPECT_EQ(StopCauseToStatus(StopCause::kMemBudget, "x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(StopCauseToStatus(StopCause::kDegraded, "x").code(),
            StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// The memory-budget axis: ChargeMemory + GovernorAllocator.

TEST(MemoryGovernorTest, BudgetTripsStickyAndRefusedBytesAreNotCharged) {
  GovernorLimits limits;
  limits.memory_budget_bytes = 1000;
  ResourceGovernor governor(limits);
  EXPECT_EQ(governor.ChargeMemory(GovernorScope::kGeneral, 0, 600),
            StopCause::kNone);
  EXPECT_EQ(governor.memory_bytes(), 600u);
  // The charge that would exceed the budget is refused and rolled back:
  // accounting tracks live *granted* bytes only.
  EXPECT_EQ(governor.ChargeMemory(GovernorScope::kGeneral, 1, 600),
            StopCause::kMemBudget);
  EXPECT_EQ(governor.memory_bytes(), 600u);
  EXPECT_EQ(governor.memory_peak_bytes(), 600u);
  EXPECT_TRUE(governor.stopped());
  EXPECT_EQ(governor.cause(), StopCause::kMemBudget);
  // Sticky: later charges report the first cause, even tiny ones.
  EXPECT_EQ(governor.ChargeMemory(GovernorScope::kGeneral, 2, 1),
            StopCause::kMemBudget);
  governor.ReleaseMemory(600);
  EXPECT_EQ(governor.memory_bytes(), 0u);
  EXPECT_EQ(governor.memory_peak_bytes(), 600u);  // peak is a high-water mark
}

TEST(MemoryGovernorTest, AllocatorReleasesEverythingItCharged) {
  GovernorLimits limits;
  limits.memory_budget_bytes = 10'000;
  ResourceGovernor governor(limits);
  {
    GovernorAllocator arena(&governor, GovernorScope::kExactSearch);
    EXPECT_EQ(arena.Charge(0, 400), StopCause::kNone);
    EXPECT_EQ(arena.ChargeGrowth(1, 400, 1000), StopCause::kNone);  // +600
    EXPECT_EQ(arena.ChargeGrowth(2, 1000, 500), StopCause::kNone);  // shrink
    EXPECT_EQ(arena.charged(), 1000u);
    EXPECT_EQ(governor.memory_bytes(), 1000u);
  }
  // Destructor returned the whole arena to the shared budget.
  EXPECT_EQ(governor.memory_bytes(), 0u);
  EXPECT_FALSE(governor.stopped());

  // A detached allocator is free, like a detached ticket.
  GovernorAllocator detached;
  EXPECT_EQ(detached.Charge(0, 1 << 30), StopCause::kNone);
}

TEST(MemoryGovernorTest, LocalAllocFaultRefusesWithoutGlobalStop) {
  GovernorLimits limits;
  limits.check_stride = 1;
  ResourceGovernor governor(limits);
  FaultInjector injector(GovernorScope::kMatch, /*trip_index=*/3,
                         /*cancel_globally=*/false,
                         FaultKind::kAllocFailure);
  governor.InstallFaultInjector(&injector);
  GovernorAllocator arena(&governor, GovernorScope::kMatch);
  EXPECT_EQ(arena.Charge(2, 64), StopCause::kNone);
  EXPECT_EQ(arena.Charge(3, 64), StopCause::kFaultInjected);
  // The refusal stayed local: no shared stop, no bytes charged for it.
  EXPECT_FALSE(governor.stopped());
  EXPECT_EQ(arena.charged(), 64u);
  // The same fault with cancel_globally raises the shared flag.
  ResourceGovernor global_governor(limits);
  FaultInjector global(GovernorScope::kMatch, 0, /*cancel_globally=*/true,
                       FaultKind::kAllocFailure);
  global_governor.InstallFaultInjector(&global);
  EXPECT_EQ(global_governor.ChargeMemory(GovernorScope::kMatch, 0, 8),
            StopCause::kFaultInjected);
  EXPECT_TRUE(global_governor.stopped());
}

// ---------------------------------------------------------------------------
// Three-valued mem-budget stops across the exact search, the matcher, and
// SUBSET SUM: a refused allocation may say less, never something wrong.

class MemBudgetFixture : public testing::Test {
 protected:
  MemBudgetFixture() {
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

TEST_F(MemBudgetFixture, ExactSearchUnderMemBudgetIsUndecidedNotRefuted) {
  GovernorLimits limits;
  limits.memory_budget_bytes = 1;  // nothing fits
  ResourceGovernor governor(limits);
  ExactOptions options;
  options.governor = &governor;
  ExactConsistencyChecker checker(&toy_.tables(), &toy_.coverage(), options);
  auto result = checker.Check(s_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->decided());
  EXPECT_EQ(result->stopped, StopCause::kMemBudget);

  // An adequate budget decides, and releases everything it charged.
  GovernorLimits roomy;
  roomy.memory_budget_bytes = 1 << 20;
  ResourceGovernor roomy_governor(roomy);
  ExactOptions roomy_options;
  roomy_options.governor = &roomy_governor;
  ExactConsistencyChecker ok_checker(&toy_.tables(), &toy_.coverage(),
                                     roomy_options);
  auto decided = ok_checker.Check(s_);
  ASSERT_TRUE(decided.ok()) << decided.status();
  EXPECT_TRUE(decided->decided());
  EXPECT_TRUE(decided->consistent);
  EXPECT_EQ(roomy_governor.memory_bytes(), 0u);
  EXPECT_GT(roomy_governor.memory_peak_bytes(), 0u);
}

TEST_F(MemBudgetFixture, MatcherUnderMemBudgetIsUnknownWithCause) {
  auto built = BuildTagForStructure(s_);
  ASSERT_TRUE(built.ok());
  TagMatcher matcher(&built->tag);
  SymbolMap symbols = SymbolMap::FromAssignment({0, 1, 2, 3}, 4);
  EventSequence seq;
  for (int i = 0; i < 16; ++i) seq.Add(i % 4, i);

  GovernorLimits limits;
  limits.memory_budget_bytes = 1;
  ResourceGovernor governor(limits);
  MatchOptions options;
  options.governor = &governor;
  MatchStats stats;
  EXPECT_EQ(matcher.Run(seq.View(), symbols, options, &stats),
            MatchOutcome::kUnknown);
  EXPECT_EQ(stats.stopped, StopCause::kMemBudget);
}

TEST_F(MemBudgetFixture, SubsetSumUnderMemBudgetIsAnErrorNotNoSubset) {
  auto system = GranularitySystem::Gregorian();
  const Granularity* month = system->Find("month");
  ASSERT_NE(month, nullptr);
  SubsetSumInstance instance;
  instance.numbers = {2, 3, 5};
  instance.target = 8;
  GovernorLimits limits;
  limits.memory_budget_bytes = 1;
  ResourceGovernor governor(limits);
  ExactOptions options;
  options.governor = &governor;
  auto refused = SolveSubsetSum(system.get(), month, instance, options);
  // Never a silent "no subset": a refused reduction is a loud error.
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Chaos harness over the miner: the same serializer + fixture shape as
// robustness_test.cc, extended with a FaultKind axis.

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

class OverloadMinerTest : public testing::Test {
 protected:
  static constexpr int kTypeCount = 6;

  OverloadMinerTest() {
    unit_ = toy_.AddUniform("unit", 1);
    VariableId x0 = s_.AddVariable("X0");
    VariableId x1 = s_.AddVariable("X1");
    VariableId x2 = s_.AddVariable("X2");
    EXPECT_TRUE(s_.AddConstraint(x0, x1, Tcg::Of(0, 8, unit_)).ok());
    EXPECT_TRUE(s_.AddConstraint(x1, x2, Tcg::Of(0, 8, unit_)).ok());
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

  MiningReport MineWithFault(int threads, FaultKind kind, GovernorScope scope,
                             std::uint64_t trip, bool cancel_globally) {
    std::unique_ptr<Executor> pool = PoolOf(threads);
    MinerOptions options;
    options.executor = pool.get();
    options.on_exhaustion = MinerOptions::ExhaustionPolicy::kPartial;
    Miner miner(&toy_, options);
    GovernorLimits limits;
    limits.check_stride = 1;
    ResourceGovernor governor(limits);
    FaultInjector injector(scope, trip, cancel_globally, kind);
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

  // Verdicts may weaken to unknown under faults but never flip: partial
  // solutions are a subset of the full run's, and nothing the full run
  // refuted is ever reported as a solution.
  static void CheckNeverWrong(const MiningReport& partial,
                              const MiningReport& full) {
    for (const DiscoveredType& solution : partial.solutions) {
      bool found = false;
      for (const DiscoveredType& reference : full.solutions) {
        if (reference.assignment == solution.assignment) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found);
    }
  }

  GranularitySystem toy_;
  const Granularity* unit_;
  EventStructure s_;
  EventSequence seq_;
  DiscoveryProblem problem_;
};

TEST_F(OverloadMinerTest, AllocFaultSweepIsByteIdenticalAcrossThreadCounts) {
  Miner plain(&toy_);
  auto full = plain.Mine(problem_, seq_);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_TRUE(full->completeness.complete);

  // Local alloc-failure faults in the matcher scope: each run's charge
  // indices are its own configuration counter, so exactly the runs whose
  // frontier would reach the trip index fail — at every thread count.
  int interrupted_points = 0;
  for (std::uint64_t trip = 0; trip <= 60; ++trip) {
    MiningReport serial =
        MineWithFault(1, FaultKind::kAllocFailure, GovernorScope::kMatch,
                      trip, /*cancel_globally=*/false);
    MiningReport serial_again =
        MineWithFault(1, FaultKind::kAllocFailure, GovernorScope::kMatch,
                      trip, /*cancel_globally=*/false);
    MiningReport parallel =
        MineWithFault(4, FaultKind::kAllocFailure, GovernorScope::kMatch,
                      trip, /*cancel_globally=*/false);
    CheckInvariant(serial);
    CheckInvariant(parallel);
    const std::string expected = FormatReport(serial);
    ASSERT_EQ(expected, FormatReport(serial_again)) << "trip=" << trip;
    ASSERT_EQ(expected, FormatReport(parallel)) << "trip=" << trip;
    if (serial.completeness.unknown > 0) {
      ++interrupted_points;
      EXPECT_EQ(serial.completeness.stop, StopCause::kFaultInjected);
      for (const UnknownCandidate& unknown : serial.unknown_sample) {
        EXPECT_EQ(unknown.reason, StopCause::kFaultInjected);
      }
      CheckNeverWrong(serial, *full);
    }
  }
  // Low trip indices must refuse real allocations (the matcher charges its
  // frontier seeding and every created configuration).
  EXPECT_GT(interrupted_points, 5);
}

TEST_F(OverloadMinerTest, GlobalAllocFaultSweepKeepsInvariants) {
  Miner plain(&toy_);
  auto full = plain.Mine(problem_, seq_);
  ASSERT_TRUE(full.ok());
  // The scan-range arena charge is keyed at the range start, which depends
  // on the worker count — so a global alloc fault there is invariant-checked
  // (accounted, never wrong), not byte-identity-checked.
  for (std::uint64_t trip = 0; trip < 8; ++trip) {
    MiningReport report =
        MineWithFault(4, FaultKind::kAllocFailure, GovernorScope::kMine, trip,
                      /*cancel_globally=*/true);
    CheckInvariant(report);
    EXPECT_FALSE(report.completeness.complete);
    EXPECT_EQ(report.completeness.stop, StopCause::kFaultInjected);
    CheckNeverWrong(report, *full);
  }
}

TEST_F(OverloadMinerTest, MemBudgetPartialMiningAccountsEveryCandidate) {
  Miner plain(&toy_);
  auto full = plain.Mine(problem_, seq_);
  ASSERT_TRUE(full.ok());
  // Sweep the budget from "nothing fits" upward: every report is accounted
  // and never wrong; a roomy budget is byte-identical to the ungoverned run.
  for (std::uint64_t budget : {1ull, 64ull, 512ull, 4096ull, 1ull << 22}) {
    for (int threads : {1, 4}) {
      std::unique_ptr<Executor> pool = PoolOf(threads);
      MinerOptions options;
      options.executor = pool.get();
      options.on_exhaustion = MinerOptions::ExhaustionPolicy::kPartial;
      Miner miner(&toy_, options);
      GovernorLimits limits;
      limits.check_stride = 1;
      limits.memory_budget_bytes = budget;
      ResourceGovernor governor(limits);
      auto report = miner.Mine(problem_, seq_, &governor);
      ASSERT_TRUE(report.ok()) << report.status();
      CheckInvariant(*report);
      CheckNeverWrong(*report, *full);
      if (!report->completeness.complete) {
        EXPECT_EQ(report->completeness.stop, StopCause::kMemBudget)
            << "budget=" << budget;
      } else {
        EXPECT_EQ(FormatReport(*report), FormatReport(*full))
            << "budget=" << budget;
      }
      // The governed bytes were all returned when the scratches died.
      EXPECT_EQ(governor.memory_bytes(), 0u);
    }
  }
}

TEST_F(OverloadMinerTest, DegradedMineIsScreeningOnlyAndDeterministic) {
  Miner plain(&toy_);
  auto full = plain.Mine(problem_, seq_);
  ASSERT_TRUE(full.ok());

  auto degraded_run = [&](int threads) {
    std::unique_ptr<Executor> pool = PoolOf(threads);
    MinerOptions options;
    options.executor = pool.get();
    options.degrade_to_screening = true;
    Miner miner(&toy_, options);
    auto report = miner.Mine(problem_, seq_);
    EXPECT_TRUE(report.ok()) << report.status();
    return report.ok() ? *std::move(report) : MiningReport{};
  };
  MiningReport serial = degraded_run(1);
  MiningReport parallel = degraded_run(4);
  ASSERT_EQ(FormatReport(serial), FormatReport(parallel));
  CheckInvariant(serial);
  // Screening-only: steps 1-4 ran (same screened candidate space as the full
  // run), step 5 did not — every survivor is honestly unknown, none guessed.
  EXPECT_EQ(serial.candidates_after_screening,
            full->candidates_after_screening);
  EXPECT_TRUE(serial.solutions.empty());
  EXPECT_FALSE(serial.completeness.complete);
  EXPECT_EQ(serial.completeness.stop, StopCause::kDegraded);
  EXPECT_EQ(serial.completeness.unknown, serial.candidates_after_screening);
  EXPECT_EQ(serial.completeness.confirmed, 0u);
  EXPECT_EQ(serial.completeness.refuted, 0u);
  ASSERT_FALSE(serial.unknown_sample.empty());
  for (const UnknownCandidate& unknown : serial.unknown_sample) {
    EXPECT_EQ(unknown.reason, StopCause::kDegraded);
  }
}

// ---------------------------------------------------------------------------
// AdmissionController unit tests.

TEST(AdmissionTest, DisabledControllerHandsOutEmptyTickets) {
  AdmissionController controller(AdmissionOptions{});  // enabled = false
  auto ticket = controller.Admit(RequestClass::kMine, nullptr, 0);
  ASSERT_TRUE(ticket.ok());
  EXPECT_FALSE(ticket->admitted());
  EXPECT_EQ(controller.admitted_total(), 0u);
  EXPECT_EQ(controller.shed_total(), 0u);
  EXPECT_EQ(controller.first_shed_cause(), StopCause::kNone);
}

TEST(AdmissionTest, QueueFullShedIsRetryableAndSticky) {
  AdmissionOptions options;
  options.enabled = true;
  options.mine_slots = 1;
  options.max_queue = 0;  // no waiting: saturation sheds immediately
  AdmissionController controller(options);

  auto first = controller.Admit(RequestClass::kMine, nullptr, 0);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->admitted());
  EXPECT_EQ(controller.admitted_total(), 1u);

  auto second = controller.Admit(RequestClass::kMine, nullptr, 0);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second.status().message().find("queue full"), std::string::npos)
      << second.status();
  // The retry contract: the shed names a backoff, and nothing was started.
  EXPECT_NE(second.status().message().find("retryable"), std::string::npos);
  EXPECT_NE(second.status().message().find("backoff"), std::string::npos);
  EXPECT_EQ(controller.shed_total(), 1u);
  EXPECT_EQ(controller.first_shed_cause(), StopCause::kStepBudget);

  // Other classes have their own slots: stream admits while mine is full.
  auto stream = controller.Admit(RequestClass::kStream, nullptr, 0);
  ASSERT_TRUE(stream.ok());
  EXPECT_TRUE(stream->admitted());

  // Releasing the slot re-opens the class; the first cause stays sticky.
  *first = AdmissionController::Ticket{};
  auto third = controller.Admit(RequestClass::kMine, nullptr, 0);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->admitted());
  EXPECT_EQ(controller.first_shed_cause(), StopCause::kStepBudget);
}

TEST(AdmissionTest, SlowWorkerFaultMakesDeadlinesInfeasible) {
  AdmissionOptions options;
  options.enabled = true;
  options.injected_slow_ms = 5000;
  AdmissionController controller(options);
  // The slow-worker fault fires at release time, keyed by the request's
  // arrival sequence number — deterministic, no wall-clock sleeps.
  FaultInjector slow(GovernorScope::kGeneral, /*trip_index=*/0,
                     /*cancel_globally=*/false, FaultKind::kSlowWorker);
  controller.InstallFaultInjector(&slow);
  {
    auto warmup = controller.Admit(RequestClass::kMine, nullptr, 0);
    ASSERT_TRUE(warmup.ok());
  }  // release records the synthetic 5000 ms service time
  EXPECT_EQ(controller.ServiceP95Ms(RequestClass::kMine), 5000.0);

  // A deadline the observed p95 cannot cover is shed up front.
  auto infeasible = controller.Admit(RequestClass::kMine, nullptr, 100);
  ASSERT_FALSE(infeasible.ok());
  EXPECT_EQ(infeasible.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(infeasible.status().message().find("p95"), std::string::npos)
      << infeasible.status();
  EXPECT_NE(infeasible.status().message().find("retryable"),
            std::string::npos);
  EXPECT_EQ(controller.first_shed_cause(), StopCause::kDeadline);

  // A deadline that covers the p95 is admitted.
  auto feasible = controller.Admit(RequestClass::kMine, nullptr, 10'000);
  ASSERT_TRUE(feasible.ok());
  EXPECT_TRUE(feasible->admitted());
}

TEST(AdmissionTest, InjectedQueueFullFaultShedsDeterministically) {
  AdmissionOptions options;
  options.enabled = true;
  AdmissionController controller(options);
  // Fires for every arrival sequence number >= 1: the first request is
  // admitted, all later ones shed.
  FaultInjector full(GovernorScope::kGeneral, /*trip_index=*/1,
                     /*cancel_globally=*/false, FaultKind::kQueueFull);
  controller.InstallFaultInjector(&full);
  auto first = controller.Admit(RequestClass::kStream, nullptr, 0);
  ASSERT_TRUE(first.ok());
  auto second = controller.Admit(RequestClass::kStream, nullptr, 0);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second.status().message().find("injected"), std::string::npos);
  EXPECT_EQ(controller.first_shed_cause(), StopCause::kFaultInjected);
}

TEST(AdmissionTest, CancelledGovernorLeavesTheQueue) {
  AdmissionOptions options;
  options.enabled = true;
  options.mine_slots = 1;
  options.max_queue = 4;
  options.queue_poll_ms = 1;
  AdmissionController controller(options);
  auto holder = controller.Admit(RequestClass::kMine, nullptr, 0);
  ASSERT_TRUE(holder.ok());

  ResourceGovernor governor;
  governor.RequestCancel();
  auto queued = controller.Admit(RequestClass::kMine, &governor, 0);
  ASSERT_FALSE(queued.ok());
  EXPECT_EQ(queued.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(controller.first_shed_cause(), StopCause::kCancelled);
  EXPECT_EQ(controller.queue_depth(), 0u);
}

TEST(AdmissionTest, QueuedRequestAdmitsWhenTheSlotFrees) {
  AdmissionOptions options;
  options.enabled = true;
  options.mine_slots = 1;
  options.max_queue = 4;
  options.queue_poll_ms = 1;
  AdmissionController controller(options);
  auto holder = controller.Admit(RequestClass::kMine, nullptr, 0);
  ASSERT_TRUE(holder.ok());

  std::thread waiter([&] {
    auto queued = controller.Admit(RequestClass::kMine, nullptr, 0);
    ASSERT_TRUE(queued.ok());
    EXPECT_TRUE(queued->admitted());
  });
  // Free the slot; the waiter must be admitted, not shed.
  *holder = AdmissionController::Ticket{};
  waiter.join();
  EXPECT_EQ(controller.admitted_total(), 2u);
  EXPECT_EQ(controller.shed_total(), 0u);
  EXPECT_EQ(controller.queue_depth(), 0u);
}

// ---------------------------------------------------------------------------
// Engine-level admission and the degradation ladder.

struct EngineFixture {
  std::unique_ptr<Engine> engine;
  EventStructure structure;
  EventSequence seq;
  DiscoveryProblem problem;
};

EngineFixture MakeEngineFixture(EngineOptions options) {
  EngineFixture fx;
  auto engine =
      Engine::Create(std::make_unique<GranularitySystem>(), options);
  EXPECT_TRUE(engine.ok());
  fx.engine = std::move(*engine);
  const Granularity* unit = fx.engine->system()->AddUniform("unit", 1);
  VariableId x0 = fx.structure.AddVariable("X0");
  VariableId x1 = fx.structure.AddVariable("X1");
  VariableId x2 = fx.structure.AddVariable("X2");
  EXPECT_TRUE(fx.structure.AddConstraint(x0, x1, Tcg::Of(0, 8, unit)).ok());
  EXPECT_TRUE(fx.structure.AddConstraint(x1, x2, Tcg::Of(0, 8, unit)).ok());
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  TimePoint t = 0;
  for (int i = 0; i < 48; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    t += 1 + static_cast<TimePoint>((state >> 33) % 2);
    fx.seq.Add(static_cast<EventTypeId>((state >> 13) % 6), t);
  }
  fx.problem.structure = &fx.structure;
  fx.problem.reference_type = 0;
  fx.problem.min_confidence = 0.05;
  return fx;
}

TEST(EngineAdmissionTest, ShedMineIsALoudRetryableError) {
  EngineOptions options;
  options.admission.enabled = true;
  EngineFixture fx = MakeEngineFixture(options);
  ASSERT_NE(fx.engine->admission(), nullptr);

  FaultInjector full(GovernorScope::kGeneral, 0, /*cancel_globally=*/false,
                     FaultKind::kQueueFull);
  fx.engine->admission()->InstallFaultInjector(&full);
  MineRequest request;
  request.problem = &fx.problem;
  request.sequence = &fx.seq;
  auto shed = fx.engine->Mine(request);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().message().find("retryable"), std::string::npos)
      << shed.status();
  EXPECT_EQ(fx.engine->admission()->shed_total(), 1u);
  EXPECT_EQ(fx.engine->admission()->first_shed_cause(),
            StopCause::kFaultInjected);

  // Without the injector, the identical request is served in full — nothing
  // was consumed by the shed (side-effect-free retry).
  fx.engine->admission()->InstallFaultInjector(nullptr);
  auto served = fx.engine->Mine(request);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_TRUE(served->report.completeness.complete);
}

TEST(EngineAdmissionTest, DegradationLadderServesScreeningOnly) {
  EngineOptions options;
  options.admission.enabled = true;
  options.admission.degrade_when_saturated = true;
  EngineFixture fx = MakeEngineFixture(options);

  FaultInjector full(GovernorScope::kGeneral, 0, /*cancel_globally=*/false,
                     FaultKind::kQueueFull);
  fx.engine->admission()->InstallFaultInjector(&full);

  // Mine demotes to screening-only instead of shedding.
  MineRequest mine;
  mine.problem = &fx.problem;
  mine.sequence = &fx.seq;
  auto degraded = fx.engine->Mine(mine);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(degraded->report.completeness.stop, StopCause::kDegraded);
  EXPECT_TRUE(degraded->report.solutions.empty());
  EXPECT_EQ(degraded->report.completeness.unknown +
                degraded->report.completeness.not_evaluated,
            degraded->report.candidates_after_screening);
  EXPECT_EQ(fx.engine->admission()->degraded_total(), 1u);
}

TEST(EngineAdmissionTest, MemoryBudgetThreadsThroughTheEngine) {
  EngineOptions options;
  options.limits.memory_budget_bytes = 1;  // nothing fits
  EngineFixture fx = MakeEngineFixture(options);
  // A memory budget alone produces a governor (the all-zero check).
  EXPECT_NE(fx.engine->MakeGovernor(), nullptr);

  MineRequest request;
  request.problem = &fx.problem;
  request.sequence = &fx.seq;
  request.options.on_exhaustion = MinerOptions::ExhaustionPolicy::kPartial;
  auto response = fx.engine->Mine(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_FALSE(response->report.completeness.complete);
  EXPECT_EQ(response->report.completeness.stop, StopCause::kMemBudget);
  EXPECT_TRUE(response->report.solutions.empty());
}

// ---------------------------------------------------------------------------
// Stream shedding: bounded reorder buffer with a counted, deterministic
// policy instead of unbounded growth.

TEST(StreamShedTest, IngestorShedsBeforeTheWatermarkObservesTheArrival) {
  IngestorOptions options;
  options.tolerance = 0;
  options.max_buffered_events = 1;
  StreamIngestor ingestor(options);
  ASSERT_TRUE(ingestor.Ingest(Event{0, 5}).ok());
  const TimePoint mark_before = ingestor.watermark();
  // The buffer is at capacity: the next arrival is shed — and because the
  // shed happens before the watermark observes it, the committed groups stay
  // a pure function of the admitted arrivals.
  Status shed = ingestor.Ingest(Event{1, 7});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.message().find("retry"), std::string::npos) << shed;
  EXPECT_EQ(ingestor.watermark(), mark_before);
  EXPECT_EQ(ingestor.shed_events(), 1u);
  EXPECT_EQ(ingestor.late_events(), 0u);
  EXPECT_EQ(ingestor.buffered_events(), 1u);
}

TEST(StreamShedTest, BoundedOnlineMinerMatchesBatchOverAdmittedArrivals) {
  GranularitySystem toy;
  const Granularity* unit = toy.AddUniform("unit", 1);
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  VariableId x2 = s.AddVariable("X2");
  ASSERT_TRUE(s.AddConstraint(x0, x1, Tcg::Of(0, 4, unit)).ok());
  ASSERT_TRUE(s.AddConstraint(x1, x2, Tcg::Of(0, 4, unit)).ok());
  DiscoveryProblem problem;
  problem.structure = &s;
  problem.reference_type = 0;
  problem.min_confidence = 0.05;
  problem.allowed.assign(3, std::vector<EventTypeId>{});
  problem.allowed[1] = {1, 3};
  problem.allowed[2] = {2, 4};

  // Deterministic arrival stream over 5 types, in-order timestamps: with
  // tolerance 6 the buffer holds the trailing window, so a cap of 3 sheds
  // under pressure while the stream stays usable.
  std::vector<Event> arrivals;
  std::uint64_t state = 0x2545F4914F6CDD1DULL;
  TimePoint t = 0;
  for (int i = 0; i < 80; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    t += static_cast<TimePoint>((state >> 33) % 2);
    arrivals.push_back(Event{static_cast<EventTypeId>((state >> 13) % 5), t});
  }

  OnlineMinerOptions options;
  options.tolerance = 6;
  options.max_buffered_events = 3;
  auto run = [&](int threads) {
    std::unique_ptr<Executor> pool = PoolOf(threads);
    OnlineMinerOptions run_options = options;
    run_options.executor = pool.get();
    auto miner = OnlineMiner::Create(&toy, problem, run_options);
    EXPECT_TRUE(miner.ok()) << miner.status();
    EventSequence admitted;
    for (const Event& event : arrivals) {
      Status status = miner->Ingest(event);
      if (status.ok()) {
        admitted.Add(event.type, event.time);
      } else {
        EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status;
      }
      EXPECT_LE(miner->buffered_events(), 3u);
    }
    miner->Seal();
    auto snapshot = miner->Snapshot();
    EXPECT_TRUE(snapshot.ok()) << snapshot.status();
    return std::make_tuple(FormatReport(*snapshot), miner->shed_events(),
                           std::move(admitted));
  };

  auto [serial_report, serial_shed, admitted] = run(1);
  auto [parallel_report, parallel_shed, parallel_admitted] = run(4);
  // The shed policy is deterministic: same arrivals → same sheds → same
  // snapshot, at every thread count.
  EXPECT_GT(serial_shed, 0u);
  EXPECT_EQ(serial_shed, parallel_shed);
  EXPECT_EQ(serial_report, parallel_report);
  EXPECT_EQ(admitted.size(), parallel_admitted.size());

  // Equivalence contract over the *admitted* arrivals verbatim: the bounded
  // snapshot is byte-identical to a batch mine of what was admitted.
  Miner batch(&toy, options.BatchEquivalent());
  auto batched = batch.Mine(problem, admitted);
  ASSERT_TRUE(batched.ok()) << batched.status();
  EXPECT_EQ(serial_report, FormatReport(*batched));
}

}  // namespace
}  // namespace granmine
