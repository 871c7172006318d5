// Property tests for the streaming subsystem: any arrival permutation the
// out-of-order tolerance admits yields the same snapshot bytes; late events
// produce a deterministic Status without perturbing the stream; duplicate
// (type, time) pairs keep multiset semantics. Randomness is a fixed-seed
// std::mt19937_64 (fully specified by the standard), so every run checks
// the same permutations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "granmine/granularity/system.h"
#include "granmine/mining/miner.h"
#include "granmine/stream/online_miner.h"
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
  const MiningCompleteness& c = report.completeness;
  append("complete=%d confirmed=%llu refuted=%llu unknown=%llu "
         "not_evaluated=%llu\n",
         c.complete ? 1 : 0, static_cast<unsigned long long>(c.confirmed),
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
  return out;
}

// The smallest tolerance that admits `arrivals` without a late rejection:
// the maximum regression below the running time maximum.
std::int64_t RequiredTolerance(std::span<const Event> arrivals) {
  std::int64_t tolerance = 0;
  TimePoint max_seen = arrivals.front().time;
  for (const Event& event : arrivals) {
    max_seen = std::max(max_seen, event.time);
    tolerance = std::max(tolerance, max_seen - event.time);
  }
  return tolerance;
}

// Bounded permutation: repeatedly emit a uniformly random element from the
// next `window` undelivered events. Time regression is bounded by the time
// span inside the window, so the required tolerance stays small.
std::vector<Event> WindowShuffle(std::span<const Event> in_order,
                                 std::size_t window, std::mt19937_64* rng) {
  std::vector<Event> pool(in_order.begin(), in_order.end());
  std::vector<Event> out;
  out.reserve(pool.size());
  std::size_t head = 0;
  while (head < pool.size()) {
    const std::size_t limit = std::min(pool.size(), head + window);
    std::uniform_int_distribution<std::size_t> pick(head, limit - 1);
    const std::size_t chosen = pick(*rng);
    out.push_back(pool[chosen]);
    // Keep the pool's relative order: shift [head, chosen) right by one.
    for (std::size_t i = chosen; i > head; --i) pool[i] = pool[i - 1];
    ++head;
  }
  return out;
}

class StreamPropertyTest : public testing::Test {
 protected:
  static constexpr int kTypeCount = 5;

  StreamPropertyTest() {
    unit_ = toy_.AddUniform("unit", 1);
    VariableId x0 = s_.AddVariable("X0");
    VariableId x1 = s_.AddVariable("X1");
    VariableId x2 = s_.AddVariable("X2");
    EXPECT_TRUE(s_.AddConstraint(x0, x1, Tcg::Of(0, 6, unit_)).ok());
    EXPECT_TRUE(s_.AddConstraint(x1, x2, Tcg::Of(1, 6, unit_)).ok());
    problem_.structure = &s_;
    problem_.reference_type = 0;
    problem_.min_confidence = 0.05;
    problem_.allowed.assign(3, {});
    problem_.allowed[1] = {0, 1, 2, 3, 4};
    problem_.allowed[2] = {0, 1, 2, 3, 4};
  }

  // Deterministic workload with equal-timestamp groups and exact duplicate
  // (type, time) pairs (the `% 3 == 0` branch re-emits the previous event).
  std::vector<Event> MakeEvents(std::size_t count, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<Event> events;
    TimePoint t = 1;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t roll = rng();
      t += static_cast<TimePoint>(roll % 2);
      if (roll % 3 == 0 && !events.empty()) {
        events.push_back(events.back());
        events.back().time = t;
      } else {
        events.push_back(
            Event{static_cast<EventTypeId>((roll >> 7) % kTypeCount), t});
      }
    }
    return events;
  }

  std::string SnapshotOf(std::span<const Event> arrivals,
                         std::int64_t tolerance, int threads = 1) {
    std::unique_ptr<Executor> pool = PoolOf(threads);
    OnlineMinerOptions options;
    options.tolerance = tolerance;
    options.executor = pool.get();
    Result<OnlineMiner> miner = OnlineMiner::Create(&toy_, problem_, options);
    EXPECT_TRUE(miner.ok()) << miner.status();
    for (const Event& event : arrivals) {
      Status status = miner->Ingest(event);
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
    Result<MiningReport> report = miner->Snapshot();
    EXPECT_TRUE(report.ok()) << report.status();
    return report.ok() ? FormatReport(*report) : std::string();
  }

  GranularitySystem toy_;
  const Granularity* unit_;
  EventStructure s_;
  DiscoveryProblem problem_;
};

// Property: every arrival permutation the tolerance admits produces the
// exact snapshot bytes of the in-order stream.
TEST_F(StreamPropertyTest, AdmissiblePermutationsYieldIdenticalSnapshots) {
  const std::vector<Event> in_order = MakeEvents(40, 0xfeedULL);
  const std::string want = SnapshotOf(in_order, /*tolerance=*/0);
  std::mt19937_64 rng(0x9e3779b97f4a7c15ULL);
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t window = 2 + static_cast<std::size_t>(trial % 7);
    std::vector<Event> arrivals = WindowShuffle(in_order, window, &rng);
    ASSERT_TRUE(std::is_permutation(arrivals.begin(), arrivals.end(),
                                    in_order.begin(),
                                    [](const Event& a, const Event& b) {
                                      return a.type == b.type &&
                                             a.time == b.time;
                                    }));
    const std::int64_t tolerance = RequiredTolerance(arrivals);
    const int threads = 1 + trial % 3;
    ASSERT_EQ(want, SnapshotOf(arrivals, tolerance, threads))
        << "trial " << trial << " window " << window << " tolerance "
        << tolerance << " threads " << threads;
  }
}

// Property: a rejected late event leaves the stream exactly as it was —
// same deterministic Status every time, same snapshot as never sending it.
TEST_F(StreamPropertyTest, LateEventsAreDeterministicallyRejectedNoOps) {
  const std::vector<Event> in_order = MakeEvents(30, 0xabcdULL);
  const std::string want = SnapshotOf(in_order, /*tolerance=*/1);

  OnlineMinerOptions options;
  options.tolerance = 1;
  Result<OnlineMiner> miner = OnlineMiner::Create(&toy_, problem_, options);
  ASSERT_TRUE(miner.ok());
  std::string first_message;
  std::uint64_t rejected = 0;
  for (const Event& event : in_order) {
    ASSERT_TRUE(miner->Ingest(event).ok());
    // Probe below the watermark after every arrival that established one.
    if (miner->watermark() <= in_order.front().time) continue;
    Status late = miner->Ingest(2, miner->watermark() - 1);
    ASSERT_FALSE(late.ok());
    ++rejected;
    if (first_message.empty()) {
      first_message = late.ToString();
    }
  }
  ASSERT_GT(rejected, 0u);
  EXPECT_EQ(miner->late_events(), rejected);
  // Identical probe → identical message (stable across repeats).
  Status again = miner->Ingest(2, in_order.front().time);
  ASSERT_FALSE(again.ok());
  Status repeat = miner->Ingest(2, in_order.front().time);
  EXPECT_EQ(again.ToString(), repeat.ToString());
  Result<MiningReport> report = miner->Snapshot();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(want, FormatReport(*report));
}

// Property: duplicate (type, time) events are kept as a multiset — each
// copy counts — and any admissible arrival order of the duplicates agrees
// with the batch miner over the canonical sequence.
TEST_F(StreamPropertyTest, DuplicateTimestampsKeepMultisetSemantics) {
  std::vector<Event> events;
  for (TimePoint t = 1; t <= 12; ++t) {
    events.push_back(Event{0, t});          // a root every tick
    events.push_back(Event{1, t});
    events.push_back(Event{1, t});          // exact duplicate
    if (t % 2 == 0) events.push_back(Event{2, t});
  }
  std::vector<Event> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event& a, const Event& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.type < b.type;
                   });
  OnlineMinerOptions options;
  Miner batch(&toy_, options.BatchEquivalent());
  Result<MiningReport> want = batch.Mine(problem_, EventSequence(sorted));
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(want->total_roots, 12u);

  std::mt19937_64 rng(0x5bd1e995ULL);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Event> arrivals = WindowShuffle(events, 6, &rng);
    const std::int64_t tolerance = RequiredTolerance(arrivals);
    ASSERT_EQ(FormatReport(*want),
              SnapshotOf(arrivals, tolerance, 1 + trial % 2))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace granmine
