// Differential gate for the streaming subsystem: OnlineMiner snapshots must
// be byte-identical (FormatReport) to a batch Mine with the equivalent
// options over the canonical retained prefix — at every prefix, at every
// thread count, under injected kMine governor faults, out of order within
// tolerance, and across retention eviction. Run under sanitizers via the
// ctest "sanitizer" label.

#include "granmine/stream/online_miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "granmine/common/governor.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/miner.h"
#include "test_pool.h"

namespace granmine {
namespace {

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
  append("roots_reduced=%zu refuted_by_propagation=%d\n",
         report.roots_after_reduction, report.refuted_by_propagation ? 1 : 0);
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

// The canonical sequence a snapshot is compared against: (time, type) order.
EventSequence Canonical(std::span<const Event> events) {
  std::vector<Event> sorted(events.begin(), events.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event& a, const Event& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.type < b.type;
                   });
  return EventSequence(std::move(sorted));
}

class StreamTest : public testing::Test {
 protected:
  static constexpr int kTypeCount = 6;

  StreamTest() {
    unit_ = toy_.AddUniform("unit", 1);
    VariableId x0 = s_.AddVariable("X0");
    VariableId x1 = s_.AddVariable("X1");
    VariableId x2 = s_.AddVariable("X2");
    EXPECT_TRUE(s_.AddConstraint(x0, x1, Tcg::Of(0, 8, unit_)).ok());
    EXPECT_TRUE(s_.AddConstraint(x1, x2, Tcg::Of(0, 8, unit_)).ok());
    // Deterministic pseudo-random arrivals with frequent equal-timestamp
    // groups (time advances by 0 or 1), so group-suffix anchoring and
    // canonical intra-group ordering are genuinely exercised.
    std::uint64_t state = 0x51ed2701afe4c9b3ULL;
    TimePoint t = 1;
    for (int i = 0; i < 48; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      t += static_cast<TimePoint>((state >> 33) % 2);
      events_.push_back(
          Event{static_cast<EventTypeId>((state >> 13) % kTypeCount), t});
    }
    problem_.structure = &s_;
    problem_.reference_type = 0;
    problem_.min_confidence = 0.05;
    // Streaming requires explicit σ; the batch side uses the same sets.
    problem_.allowed.assign(3, {});
    problem_.allowed[1] = {0, 1, 2, 3, 4, 5};
    problem_.allowed[2] = {0, 1, 2, 3, 4, 5};
  }

  MiningReport BatchMine(std::span<const Event> prefix, int threads,
                         const ResourceGovernor* governor = nullptr) {
    std::unique_ptr<Executor> pool = PoolOf(threads);
    OnlineMinerOptions options;
    options.executor = pool.get();
    Miner miner(&toy_, options.BatchEquivalent());
    Result<MiningReport> report =
        miner.Mine(problem_, Canonical(prefix), governor);
    EXPECT_TRUE(report.ok()) << report.status();
    return report.ok() ? std::move(*report) : MiningReport{};
  }

  OnlineMiner MakeStream(OnlineMinerOptions options) {
    Result<OnlineMiner> miner = OnlineMiner::Create(&toy_, problem_, options);
    EXPECT_TRUE(miner.ok()) << miner.status();
    return std::move(*miner);
  }

  MiningReport StreamMine(std::span<const Event> prefix, int threads,
                          const ResourceGovernor* governor = nullptr) {
    std::unique_ptr<Executor> pool = PoolOf(threads);
    OnlineMinerOptions options;
    options.executor = pool.get();
    OnlineMiner miner = MakeStream(options);
    for (const Event& event : prefix) {
      EXPECT_TRUE(miner.Ingest(event).ok());
    }
    Result<MiningReport> report = miner.Snapshot(governor);
    EXPECT_TRUE(report.ok()) << report.status();
    return report.ok() ? std::move(*report) : MiningReport{};
  }

  GranularitySystem toy_;
  const Granularity* unit_;
  EventStructure s_;
  std::vector<Event> events_;
  DiscoveryProblem problem_;
};

// The tentpole invariant: a snapshot after ingesting any prefix is
// byte-identical to a batch Mine over that prefix (events still in the
// reorder buffer included).
TEST_F(StreamTest, SnapshotMatchesBatchAtEveryPrefix) {
  for (std::size_t p = 0; p <= events_.size(); ++p) {
    std::span<const Event> prefix(events_.data(), p);
    const std::string want = FormatReport(BatchMine(prefix, 1));
    const std::string got = FormatReport(StreamMine(prefix, 1));
    ASSERT_EQ(want, got) << "prefix length " << p;
  }
}

TEST_F(StreamTest, SnapshotIsByteIdenticalAcrossThreadCounts) {
  const std::string want = FormatReport(BatchMine(events_, 1));
  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(want, FormatReport(BatchMine(events_, threads)))
        << "batch threads=" << threads;
    EXPECT_EQ(want, FormatReport(StreamMine(events_, threads)))
        << "stream threads=" << threads;
  }
}

// One snapshot per ingested prefix from a single long-lived miner — the
// running-snapshot use case — must equal the fresh-miner result.
TEST_F(StreamTest, RunningSnapshotsNeverPerturbTheStream) {
  Executor pool(2);
  OnlineMinerOptions options;
  options.executor = &pool;
  OnlineMiner miner = MakeStream(options);
  for (std::size_t p = 0; p < events_.size(); ++p) {
    ASSERT_TRUE(miner.Ingest(events_[p]).ok());
    if (p % 7 != 6) continue;  // snapshot every 7th event
    std::span<const Event> prefix(events_.data(), p + 1);
    Result<MiningReport> got = miner.Snapshot();
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(FormatReport(BatchMine(prefix, 1)), FormatReport(*got))
        << "prefix length " << p + 1;
  }
  Result<MiningReport> final_report = miner.Snapshot();
  ASSERT_TRUE(final_report.ok());
  EXPECT_EQ(FormatReport(BatchMine(events_, 1)), FormatReport(*final_report));
}

// Local (cancel_globally = false) kMine faults degrade candidates at index
// >= trip to unknown, deterministically: streaming snapshots under
// injection stay byte-identical to the injected batch run, at every
// injection point and thread count. The acceptance gate asks for >= 20
// injection points; the sweep covers the whole candidate space (36) plus
// the no-trip edges.
TEST_F(StreamTest, MineScopeFaultSweepMatchesBatch) {
  const MiningReport full = BatchMine(events_, 1);
  ASSERT_TRUE(full.completeness.complete);
  const std::uint64_t total = full.candidates_after_screening;
  ASSERT_GE(total, 25u);

  for (std::uint64_t trip = 0; trip <= total + 2; ++trip) {
    GovernorLimits limits;
    limits.check_stride = 1;
    FaultInjector injector(GovernorScope::kMine, trip,
                           /*cancel_globally=*/false);
    std::string want;
    {
      ResourceGovernor governor(limits);
      governor.InstallFaultInjector(&injector);
      want = FormatReport(BatchMine(events_, 1, &governor));
    }
    for (int threads : {1, 4}) {
      ResourceGovernor governor(limits);
      governor.InstallFaultInjector(&injector);
      ASSERT_EQ(want, FormatReport(StreamMine(events_, threads, &governor)))
          << "trip=" << trip << " threads=" << threads;
    }
  }
}

// Any arrival order the tolerance admits commits the same canonical groups,
// so the snapshot cannot tell the orders apart.
TEST_F(StreamTest, OutOfOrderArrivalWithinToleranceMatchesBatch) {
  // Deterministic bounded shuffle: reverse runs of 5 consecutive arrivals.
  std::vector<Event> shuffled = events_;
  for (std::size_t i = 0; i + 5 <= shuffled.size(); i += 5) {
    std::reverse(shuffled.begin() + static_cast<std::ptrdiff_t>(i),
                 shuffled.begin() + static_cast<std::ptrdiff_t>(i + 5));
  }
  // The tolerance this arrival order needs: max regression below the
  // running maximum.
  std::int64_t tolerance = 0;
  TimePoint max_seen = shuffled.front().time;
  for (const Event& event : shuffled) {
    max_seen = std::max(max_seen, event.time);
    tolerance = std::max(tolerance, max_seen - event.time);
  }
  ASSERT_GT(tolerance, 0);  // the shuffle must be genuinely out of order

  Executor pool(2);
  OnlineMinerOptions options;
  options.tolerance = tolerance;
  options.executor = &pool;
  OnlineMiner miner = MakeStream(options);
  for (const Event& event : shuffled) {
    ASSERT_TRUE(miner.Ingest(event).ok());
  }
  Result<MiningReport> got = miner.Snapshot();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(FormatReport(BatchMine(events_, 1)), FormatReport(*got));
}

TEST_F(StreamTest, LateEventsAreRejectedWithoutCorruptingTheStream) {
  OnlineMinerOptions options;
  options.tolerance = 2;
  OnlineMiner miner = MakeStream(options);
  for (const Event& event : events_) {
    ASSERT_TRUE(miner.Ingest(event).ok());
  }
  const TimePoint last = events_.back().time;
  // Within tolerance: accepted even though it is behind the maximum.
  EXPECT_TRUE(miner.Ingest(1, last - 2).ok());
  // Beyond tolerance: a deterministic InvalidArgument; stream stays usable.
  Status late = miner.Ingest(1, last - 3);
  EXPECT_FALSE(late.ok());
  Status late_again = miner.Ingest(1, last - 3);
  EXPECT_EQ(late.ToString(), late_again.ToString());
  EXPECT_EQ(miner.late_events(), 2u);
  // The snapshot covers exactly the accepted events.
  std::vector<Event> accepted = events_;
  accepted.push_back(Event{1, last - 2});
  Result<MiningReport> got = miner.Snapshot();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(FormatReport(BatchMine(accepted, 1)), FormatReport(*got));
}

// Eviction retracts roots and counts: the snapshot equals a batch run over
// exactly the retained suffix (time >= horizon).
TEST_F(StreamTest, RetentionEvictsOldGroupsAndRetractsTheirCounts) {
  for (std::int64_t retention : {0, 2, 5, 10}) {
    OnlineMinerOptions options;
    options.retention = retention;
    OnlineMiner miner = MakeStream(options);
    for (const Event& event : events_) {
      ASSERT_TRUE(miner.Ingest(event).ok());
    }
    const TimePoint horizon = miner.horizon();
    std::vector<Event> retained;
    for (const Event& event : events_) {
      if (event.time >= horizon) retained.push_back(event);
    }
    ASSERT_LT(retained.size(), events_.size()) << "retention=" << retention;
    Result<MiningReport> got = miner.Snapshot();
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(FormatReport(BatchMine(retained, 1)), FormatReport(*got))
        << "retention=" << retention;
  }
}

TEST_F(StreamTest, SealFlushesTheBufferAndRejectsFurtherArrivals) {
  OnlineMinerOptions options;
  options.tolerance = 4;
  OnlineMiner miner = MakeStream(options);
  for (const Event& event : events_) {
    ASSERT_TRUE(miner.Ingest(event).ok());
  }
  EXPECT_GT(miner.buffered_events(), 0u);
  miner.Seal();
  EXPECT_EQ(miner.buffered_events(), 0u);
  EXPECT_FALSE(miner.Ingest(0, events_.back().time + 100).ok());
  Result<MiningReport> got = miner.Snapshot();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(FormatReport(BatchMine(events_, 1)), FormatReport(*got));
}

TEST_F(StreamTest, InconsistentStructureIsRefutedLikeBatch) {
  EventStructure contradiction;
  VariableId a = contradiction.AddVariable("A");
  VariableId b = contradiction.AddVariable("B");
  ASSERT_TRUE(contradiction.AddConstraint(a, b, Tcg::Of(5, 8, unit_)).ok());
  ASSERT_TRUE(contradiction.AddConstraint(a, b, Tcg::Of(0, 2, unit_)).ok());
  DiscoveryProblem impossible = problem_;
  impossible.structure = &contradiction;
  impossible.allowed.assign(2, {});
  impossible.allowed[1] = {0, 1, 2, 3, 4, 5};

  Result<OnlineMiner> miner =
      OnlineMiner::Create(&toy_, impossible, OnlineMinerOptions{});
  ASSERT_TRUE(miner.ok()) << miner.status();
  for (const Event& event : events_) {
    ASSERT_TRUE(miner->Ingest(event).ok());
  }
  Result<MiningReport> got = miner->Snapshot();
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->refuted_by_propagation);

  Miner batch(&toy_, OnlineMinerOptions{}.BatchEquivalent());
  Result<MiningReport> want = batch.Mine(impossible, Canonical(events_));
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(FormatReport(*want), FormatReport(*got));
}

TEST_F(StreamTest, CreateRejectsImplicitAllowedSets) {
  DiscoveryProblem implicit = problem_;
  implicit.allowed.clear();  // batch would expand from the sequence
  Result<OnlineMiner> miner =
      OnlineMiner::Create(&toy_, implicit, OnlineMinerOptions{});
  EXPECT_FALSE(miner.ok());
}

TEST_F(StreamTest, CreateRejectsNegativeStreamOptions) {
  OnlineMinerOptions negative_tolerance;
  negative_tolerance.tolerance = -1;
  EXPECT_FALSE(OnlineMiner::Create(&toy_, problem_, negative_tolerance).ok());
  OnlineMinerOptions negative_retention;
  negative_retention.retention = -1;
  EXPECT_FALSE(OnlineMiner::Create(&toy_, problem_, negative_retention).ok());
}

TEST_F(StreamTest, NoReferenceOccurrencesYieldsTheMinimalReport) {
  OnlineMiner miner = MakeStream(OnlineMinerOptions{});
  std::vector<Event> rootless;
  for (const Event& event : events_) {
    if (event.type != problem_.reference_type) rootless.push_back(event);
  }
  for (const Event& event : rootless) {
    ASSERT_TRUE(miner.Ingest(event).ok());
  }
  Result<MiningReport> got = miner.Snapshot();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(FormatReport(BatchMine(rootless, 1)), FormatReport(*got));
  EXPECT_EQ(got->total_roots, 0u);
  EXPECT_TRUE(got->solutions.empty());
}

// Candidate-space clamping (max_candidates below the space) must stream the
// same partial report the batch clamp produces.
TEST_F(StreamTest, ClampedCandidateSpaceMatchesBatch) {
  OnlineMinerOptions options;
  options.max_candidates = 10;  // < 36
  OnlineMiner miner = MakeStream(options);
  for (const Event& event : events_) {
    ASSERT_TRUE(miner.Ingest(event).ok());
  }
  Result<MiningReport> got = miner.Snapshot();
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->completeness.complete);

  Miner batch(&toy_, options.BatchEquivalent());
  Result<MiningReport> want = batch.Mine(problem_, Canonical(events_));
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(FormatReport(*want), FormatReport(*got));
}

// Resident-state telemetry: deadline passing must retire configurations
// (the mingap-based GC of docs/streaming.md), and eviction must drop roots.
TEST_F(StreamTest, DeadlinesRetireResidentConfigurations) {
  OnlineMiner miner = MakeStream(OnlineMinerOptions{});
  for (const Event& event : events_) {
    ASSERT_TRUE(miner.Ingest(event).ok());
  }
  EXPECT_GT(miner.resident_roots(), 0u);
  std::size_t resident_before = miner.resident_configurations();
  // The structure's windows span at most 16 units past a root; jumping the
  // watermark far beyond every deadline finalizes all pending runs.
  ASSERT_TRUE(miner.Ingest(5, events_.back().time + 1000).ok());
  ASSERT_TRUE(miner.Ingest(5, events_.back().time + 2000).ok());
  EXPECT_LT(miner.resident_configurations(), resident_before);
  EXPECT_EQ(miner.pending_runs(), 0u)
      << "every run should be decided or deadline-finalized";
}

}  // namespace
}  // namespace granmine
