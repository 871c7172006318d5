// Unit tests for the miner internals: per-root windows (step 3), sequence
// reduction (step 2), and the window-usability table that step-3 root
// reduction, step-4 screening (k=1) and per-candidate eligibility read.

#include "granmine/mining/windows.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "granmine/common/random.h"
#include "granmine/constraint/propagation.h"
#include "granmine/granularity/civil_calendar.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/reduction.h"
#include "granmine/mining/screening.h"
#include "granmine/paper/figures.h"

namespace granmine {
namespace {

class WindowsTest : public testing::Test {
 protected:
  WindowsTest() : system_(GranularitySystem::Gregorian()) {}
  PropagationResult Propagate(const EventStructure& s) {
    ConstraintPropagator propagator(&system_->tables(), &system_->coverage());
    auto result = propagator.Propagate(s);
    EXPECT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->consistent);
    return *std::move(result);
  }
  std::unique_ptr<GranularitySystem> system_;
};

TEST_F(WindowsTest, SimpleDayWindow) {
  // X1 is 1..2 days after X0.
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  ASSERT_TRUE(
      s.AddConstraint(x0, x1, Tcg::Of(1, 2, system_->Find("day"))).ok());
  PropagationResult propagation = Propagate(s);
  TimePoint t0 = 10 * kSecondsPerDay + 5 * 3600;  // day 11 at 05:00
  RootWindows windows = ComputeRootWindows(s, x0, propagation, t0);
  ASSERT_TRUE(windows.root_viable);
  EXPECT_EQ(windows.windows[x0], TimeSpan::Point(t0));
  // Days 12..13 entirely: [start of day 12, end of day 13].
  EXPECT_EQ(windows.windows[x1],
            TimeSpan::Of(11 * kSecondsPerDay, 13 * kSecondsPerDay - 1));
  EXPECT_EQ(windows.deadline, 13 * kSecondsPerDay - 1);
}

TEST_F(WindowsTest, IntersectsAcrossGranularities) {
  // Same week AND 2..3 days after: the window is the intersection.
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  ASSERT_TRUE(
      s.AddConstraint(x0, x1, Tcg::Same(system_->Find("week"))).ok());
  ASSERT_TRUE(
      s.AddConstraint(x0, x1, Tcg::Of(2, 3, system_->Find("day"))).ok());
  PropagationResult propagation = Propagate(s);
  // Monday 1970-01-05 = day 4, 08:00.
  TimePoint t0 = 4 * kSecondsPerDay + 8 * 3600;
  RootWindows windows = ComputeRootWindows(s, x0, propagation, t0);
  ASSERT_TRUE(windows.root_viable);
  // Day window: days 6..7 (Wed..Thu); week window: through Sunday day 10.
  EXPECT_EQ(windows.windows[x1],
            TimeSpan::Of(6 * kSecondsPerDay, 8 * kSecondsPerDay - 1));
}

TEST_F(WindowsTest, RootViabilityRequiresDefinedTicks) {
  // A b-day constraint makes a Saturday root unviable.
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  ASSERT_TRUE(
      s.AddConstraint(x0, x1, Tcg::Of(0, 5, system_->Find("b-day"))).ok());
  PropagationResult propagation = Propagate(s);
  TimePoint saturday = 2 * kSecondsPerDay + 12 * 3600;
  EXPECT_FALSE(ComputeRootWindows(s, x0, propagation, saturday).root_viable);
  TimePoint monday = 4 * kSecondsPerDay + 12 * 3600;
  EXPECT_TRUE(ComputeRootWindows(s, x0, propagation, monday).root_viable);
}

TEST_F(WindowsTest, UsableForVariableChecksSupport) {
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  ASSERT_TRUE(
      s.AddConstraint(x0, x1, Tcg::Of(0, 5, system_->Find("b-day"))).ok());
  PropagationResult propagation = Propagate(s);
  TimeSpan window = TimeSpan::Of(0, 10 * kSecondsPerDay);
  TimePoint friday = kSecondsPerDay + 10 * 3600;
  TimePoint saturday = 2 * kSecondsPerDay + 10 * 3600;
  EXPECT_TRUE(UsableForVariable(propagation, x1, window, friday));
  EXPECT_FALSE(UsableForVariable(propagation, x1, window, saturday));
  EXPECT_FALSE(UsableForVariable(propagation, x1, TimeSpan::Of(0, 10),
                                 friday));  // outside window
}

TEST_F(WindowsTest, ReductionKeepsOnlyBindableEvents) {
  auto fig1a = BuildFigure1a(*system_);
  ASSERT_TRUE(fig1a.ok());
  PropagationResult propagation = Propagate(*fig1a);
  // allowed: X0 -> {0}, X1 -> {1}, X2 -> {2}, X3 -> {3}.
  std::vector<std::vector<EventTypeId>> allowed = {{0}, {1}, {2}, {3}};
  EventSequence seq;
  seq.Add(0, 4 * kSecondsPerDay);       // Monday: bindable to X0
  seq.Add(1, 2 * kSecondsPerDay);       // Saturday: X1 needs b-day ticks
  seq.Add(7, 4 * kSecondsPerDay);       // type no variable may take
  seq.Add(3, 5 * kSecondsPerDay);       // bindable to X3
  EventSequence reduced = ReduceSequence(seq, propagation, allowed);
  ASSERT_EQ(reduced.size(), 2u);
  EXPECT_EQ(reduced.events()[0].type, 0);
  EXPECT_EQ(reduced.events()[1].type, 3);
}

TEST_F(WindowsTest, ScreeningPrunesRareTypes) {
  // Roots at days 4, 11, 18 (Mondays); X1 one day after. Type 1 follows
  // every root, type 2 follows one root only.
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  ASSERT_TRUE(
      s.AddConstraint(x0, x1, Tcg::Of(1, 1, system_->Find("day"))).ok());
  PropagationResult propagation = Propagate(s);
  EventSequence seq;
  std::vector<RootWindows> windows;
  for (std::int64_t day : {4, 11, 18}) {
    TimePoint t0 = day * kSecondsPerDay + 9 * 3600;
    seq.Add(0, t0);
    seq.Add(1, t0 + 24 * 3600);
    windows.push_back(ComputeRootWindows(s, x0, propagation, t0));
  }
  seq.Add(2, 5 * kSecondsPerDay + 10 * 3600);  // follows the first root only
  std::vector<std::vector<EventTypeId>> allowed = {{0}, {1, 2}};
  ScreenByWindows(propagation, seq, windows, x0, /*total_roots=*/3,
                  /*min_confidence=*/0.5, &allowed);
  EXPECT_EQ(allowed[1], (std::vector<EventTypeId>{1}));
  // At a lower threshold type 2 (frequency 1/3) survives.
  allowed = {{0}, {1, 2}};
  ScreenByWindows(propagation, seq, windows, x0, 3, 0.2, &allowed);
  EXPECT_EQ(allowed[1], (std::vector<EventTypeId>{1, 2}));
}

TEST_F(WindowsTest, DroppedRootLeavesNoBitsInTheNextColumn) {
  // X1 and X2 fall on the root's day. The first root has a type-1 event for
  // X1 but nothing for X2; the second has type 3 for X1 and type 2 for X2.
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  VariableId x2 = s.AddVariable("X2");
  ASSERT_TRUE(s.AddConstraint(x0, x1, Tcg::Same(system_->Find("day"))).ok());
  ASSERT_TRUE(s.AddConstraint(x0, x2, Tcg::Same(system_->Find("day"))).ok());
  PropagationResult propagation = Propagate(s);
  const TimePoint first = 4 * kSecondsPerDay + 9 * 3600;
  const TimePoint second = 11 * kSecondsPerDay + 9 * 3600;
  EventSequence seq;
  seq.Add(0, first);
  seq.Add(1, first + 3600);
  seq.Add(0, second);
  seq.Add(3, second + 3600);
  seq.Add(2, second + 2 * 3600);
  const std::vector<RootWindows> windows = {
      ComputeRootWindows(s, x0, propagation, first),
      ComputeRootWindows(s, x0, propagation, second)};
  const std::vector<std::vector<EventTypeId>> allowed = {{0}, {1, 3}, {2}};

  UsabilityTable reduced(allowed, x0, windows.size());
  EXPECT_EQ(reduced.Build(seq, propagation, windows, /*reduce=*/true),
            (std::vector<std::size_t>{1}));
  // The first root's type-1 bit for X1 must not survive into column 0.
  std::vector<std::vector<EventTypeId>> screened = allowed;
  reduced.Screen(/*total_roots=*/2, /*min_confidence=*/0.0, &screened);
  EXPECT_EQ(screened[1], (std::vector<EventTypeId>{3}));
  EXPECT_EQ(screened[2], (std::vector<EventTypeId>{2}));

  // Without step 3 both roots stay, and the first keeps its type-1 bit.
  UsabilityTable kept(allowed, x0, windows.size());
  EXPECT_EQ(kept.Build(seq, propagation, windows, /*reduce=*/false),
            (std::vector<std::size_t>{0, 1}));
  screened = allowed;
  kept.Screen(2, 0.0, &screened);
  EXPECT_EQ(screened[1], (std::vector<EventTypeId>{1, 3}));
}

TEST_F(WindowsTest, TableAgreesWithPerWindowCounts) {
  // X1 within 0..2 business days of the root, X2 1..3 days after it, over
  // 100 days of roots (weekend roots are not viable) and random events:
  // more than 64 columns, so the rows span two words.
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  VariableId x2 = s.AddVariable("X2");
  ASSERT_TRUE(
      s.AddConstraint(x0, x1, Tcg::Of(0, 2, system_->Find("b-day"))).ok());
  ASSERT_TRUE(
      s.AddConstraint(x0, x2, Tcg::Of(1, 3, system_->Find("day"))).ok());
  PropagationResult propagation = Propagate(s);
  Rng rng(31);
  EventSequence seq;
  std::vector<RootWindows> windows;
  for (std::int64_t day = 0; day < 100; ++day) {
    const TimePoint t0 = day * kSecondsPerDay + 9 * 3600;
    if (day % 3 != 2) {
      seq.Add(0, t0);
      windows.push_back(ComputeRootWindows(s, x0, propagation, t0));
    }
    for (int k = static_cast<int>(rng.Uniform(0, 2)); k > 0; --k) {
      seq.Add(static_cast<EventTypeId>(rng.Uniform(1, 4)),
              t0 + rng.Uniform(1, 12) * 3600);
    }
  }
  ASSERT_GT(windows.size(), 64u);
  // σ as a caller may write it; the table reads it in the normal form.
  DiscoveryProblem problem;
  problem.structure = &s;
  problem.allowed = {{}, {4, 1, 3, 2, 1}, {2, 3, 4, 1}};
  const std::vector<std::vector<EventTypeId>> allowed =
      ResolveAllowedTypes(problem, seq, x0);
  ASSERT_EQ(allowed[x1], (std::vector<EventTypeId>{1, 2, 3, 4}));

  // The per-window count: does root i's v-window hold a usable event of
  // the type? Every event is tested, without a window search.
  auto usable = [&](std::size_t i, VariableId v, EventTypeId type) {
    for (const Event& event : seq.events()) {
      if (event.type == type &&
          UsableForVariable(propagation, v, windows[i].windows[v],
                            event.time)) {
        return true;
      }
    }
    return false;
  };
  const std::size_t total = windows.size();
  for (std::size_t k = 0; k <= total; ++k) {
    std::vector<std::vector<EventTypeId>> screened = allowed;
    ScreenByWindows(propagation, seq, windows, x0, total,
                    static_cast<double>(k) / static_cast<double>(total),
                    &screened);
    for (VariableId v : {x1, x2}) {
      std::vector<EventTypeId> expected;
      for (EventTypeId type = 1; type <= 4; ++type) {
        std::size_t hits = 0;
        for (std::size_t i = 0; i < total; ++i) hits += usable(i, v, type);
        if (hits > k) expected.push_back(type);
      }
      EXPECT_EQ(screened[v], expected) << "v=" << v << " k=" << k;
    }
  }

  // Step 3 keeps the viable roots where every variable has a usable type,
  // and a row's bits are its type's usable kept roots: screening the kept
  // columns counts exactly those.
  UsabilityTable table(allowed, x0, total);
  const std::vector<std::size_t> kept =
      table.Build(seq, propagation, windows, /*reduce=*/true);
  std::vector<std::size_t> expected_kept;
  for (std::size_t i = 0; i < total; ++i) {
    bool keep = windows[i].root_viable;
    for (VariableId v : {x1, x2}) {
      bool any = false;
      for (EventTypeId type = 1; type <= 4; ++type) any |= usable(i, v, type);
      keep = keep && any;
    }
    if (keep) expected_kept.push_back(i);
  }
  ASSERT_EQ(kept, expected_kept);
  ASSERT_GT(kept.size(), 0u);
  ASSERT_LT(kept.size(), total);
  for (std::size_t k = 0; k <= kept.size(); ++k) {
    std::vector<std::vector<EventTypeId>> screened = allowed;
    table.Screen(total, static_cast<double>(k) / static_cast<double>(total),
                 &screened);
    for (VariableId v : {x1, x2}) {
      std::vector<EventTypeId> expected;
      for (EventTypeId type = 1; type <= 4; ++type) {
        std::size_t hits = 0;
        for (std::size_t c : kept) hits += usable(c, v, type);
        if (hits > k) expected.push_back(type);
      }
      EXPECT_EQ(screened[v], expected) << "v=" << v << " k=" << k;
    }
  }
}

TEST_F(WindowsTest, FirstEventAtOrAfterBinarySearch) {
  EventSequence seq;
  seq.Add(0, 10);
  seq.Add(0, 20);
  seq.Add(0, 20);
  seq.Add(0, 30);
  EXPECT_EQ(FirstEventAtOrAfter(seq, 5), 0u);
  EXPECT_EQ(FirstEventAtOrAfter(seq, 10), 0u);
  EXPECT_EQ(FirstEventAtOrAfter(seq, 11), 1u);
  EXPECT_EQ(FirstEventAtOrAfter(seq, 20), 1u);
  EXPECT_EQ(FirstEventAtOrAfter(seq, 21), 3u);
  EXPECT_EQ(FirstEventAtOrAfter(seq, 31), 4u);
}

}  // namespace
}  // namespace granmine
