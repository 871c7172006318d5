#include "granmine/granularity/granularity.h"

#include <gtest/gtest.h>

#include "granmine/common/random.h"
#include "granmine/granularity/civil_calendar.h"
#include "granmine/granularity/system.h"

namespace granmine {
namespace {

TEST(CivilCalendarTest, EpochIsKnown) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(CivilFromDays(0), (CivilDate{1970, 1, 1}));
  EXPECT_EQ(WeekdayFromDays(0), 3);  // Thursday
}

TEST(CivilCalendarTest, KnownDates) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 2), 1);
  EXPECT_EQ(DaysFromCivil(1971, 1, 1), 365);
  EXPECT_EQ(DaysFromCivil(2000, 1, 1), 10957);
  EXPECT_EQ(DaysFromCivil(1969, 12, 31), -1);
  EXPECT_EQ(CivilFromDays(10957), (CivilDate{2000, 1, 1}));
  // 2000-01-01 was a Saturday.
  EXPECT_EQ(WeekdayFromDays(10957), 5);
}

TEST(CivilCalendarTest, LeapYears) {
  EXPECT_TRUE(IsLeapYear(1972));
  EXPECT_TRUE(IsLeapYear(2000));
  EXPECT_FALSE(IsLeapYear(1900));
  EXPECT_FALSE(IsLeapYear(1970));
  EXPECT_EQ(DaysInMonth(1972, 2), 29);
  EXPECT_EQ(DaysInMonth(1970, 2), 28);
  EXPECT_EQ(DaysInMonth(1970, 12), 31);
}

TEST(CivilCalendarTest, RoundTripProperty) {
  Rng rng(1234);
  for (int i = 0; i < 2000; ++i) {
    std::int64_t days = rng.Uniform(-200000, 200000);
    CivilDate date = CivilFromDays(days);
    EXPECT_EQ(DaysFromCivil(date.year, date.month, date.day), days);
    EXPECT_GE(date.month, 1);
    EXPECT_LE(date.month, 12);
    EXPECT_GE(date.day, 1);
    EXPECT_LE(date.day, DaysInMonth(date.year, date.month));
  }
}

TEST(CivilCalendarTest, GregorianEraIsPeriodic) {
  EXPECT_EQ(DaysFromCivil(2370, 1, 1) - DaysFromCivil(1970, 1, 1),
            kDaysPerEra);
  // The 400-year cycle preserves weekdays (kDaysPerEra divisible by 7).
  EXPECT_EQ(kDaysPerEra % 7, 0);
}

class GregorianDaysTest : public testing::Test {
 protected:
  GregorianDaysTest() : system_(GranularitySystem::GregorianDays()) {}
  const Granularity& Get(const char* name) {
    const Granularity* g = system_->Find(name);
    EXPECT_NE(g, nullptr) << name;
    return *g;
  }
  std::unique_ptr<GranularitySystem> system_;
};

TEST_F(GregorianDaysTest, DayTicks) {
  const Granularity& day = Get("day");
  EXPECT_EQ(day.TickContaining(0), 1);
  EXPECT_EQ(day.TickContaining(364), 365);
  EXPECT_EQ(day.TickContaining(-1), std::nullopt);
  EXPECT_EQ(day.TickHull(1), TimeSpan::Of(0, 0));
  EXPECT_TRUE(day.HasFullSupport());
}

TEST_F(GregorianDaysTest, WeekTicksAreMondayAnchored) {
  const Granularity& week = Get("week");
  // Tick 1 spans Mon 1969-12-29 .. Sun 1970-01-04 (days -3..3).
  EXPECT_EQ(week.TickHull(1), TimeSpan::Of(-3, 3));
  EXPECT_EQ(week.TickContaining(0), 1);
  EXPECT_EQ(week.TickContaining(4), 2);  // Mon 1970-01-05
}

TEST_F(GregorianDaysTest, MonthTicks) {
  const Granularity& month = Get("month");
  EXPECT_EQ(month.TickHull(1), TimeSpan::Of(0, 30));    // Jan 1970
  EXPECT_EQ(month.TickHull(2), TimeSpan::Of(31, 58));   // Feb 1970 (28 days)
  EXPECT_EQ(month.TickContaining(31), 2);
  EXPECT_EQ(month.TickContaining(58), 2);
  EXPECT_EQ(month.TickContaining(59), 3);
  EXPECT_EQ(month.TickContaining(-5), std::nullopt);
  // Feb 1972 is a leap February.
  Tick feb72 = (1972 - 1970) * 12 + 2;
  EXPECT_EQ(month.TickHull(feb72)->length(), 29);
}

TEST_F(GregorianDaysTest, YearTicks) {
  const Granularity& year = Get("year");
  EXPECT_EQ(year.TickHull(1)->length(), 365);  // 1970
  EXPECT_EQ(year.TickHull(3)->length(), 366);  // 1972 leap
  EXPECT_EQ(year.TickContaining(365), 2);
}

TEST_F(GregorianDaysTest, BusinessDays) {
  const Granularity& b_day = Get("b-day");
  // Day 0 = Thu, 1 = Fri, 2 = Sat, 3 = Sun, 4 = Mon.
  EXPECT_EQ(b_day.TickContaining(0), 1);
  EXPECT_EQ(b_day.TickContaining(1), 2);
  EXPECT_EQ(b_day.TickContaining(2), std::nullopt);
  EXPECT_EQ(b_day.TickContaining(3), std::nullopt);
  EXPECT_EQ(b_day.TickContaining(4), 3);
  EXPECT_EQ(b_day.TickHull(3), TimeSpan::Of(4, 4));
  EXPECT_FALSE(b_day.HasFullSupport());
}

TEST_F(GregorianDaysTest, WeekendDays) {
  const Granularity& weekend = Get("weekend-day");
  EXPECT_EQ(weekend.TickContaining(2), 1);  // Sat 1970-01-03
  EXPECT_EQ(weekend.TickContaining(3), 2);  // Sun
  EXPECT_EQ(weekend.TickContaining(4), std::nullopt);
  EXPECT_EQ(weekend.TickHull(3), TimeSpan::Of(9, 9));  // next Saturday
}

TEST_F(GregorianDaysTest, BusinessWeeks) {
  const Granularity& b_week = Get("b-week");
  // Week 1 = Mon 12-29..Sun 01-04; its business days are Thu(0) and Fri(1).
  EXPECT_EQ(b_week.TickHull(1), TimeSpan::Of(0, 1));
  // Week 2 = days 4..10, business part Mon..Fri = days 4..8.
  EXPECT_EQ(b_week.TickHull(2), TimeSpan::Of(4, 8));
  EXPECT_EQ(b_week.TickContaining(6), 2);
  EXPECT_EQ(b_week.TickContaining(9), std::nullopt);  // Saturday
  // The interval guarantee is conservative for group-by types.
  EXPECT_FALSE(b_week.ticks_are_intervals());
}

TEST_F(GregorianDaysTest, BusinessMonths) {
  const Granularity& b_month = Get("b-month");
  // Jan 1970: first b-day is Thu Jan 1 (day 0); last is Fri Jan 30 (day 29).
  EXPECT_EQ(b_month.TickHull(1), TimeSpan::Of(0, 29));
  EXPECT_EQ(b_month.TickContaining(0), 1);
  EXPECT_EQ(b_month.TickContaining(2), std::nullopt);  // Saturday
  std::vector<TimeSpan> extent;
  b_month.TickExtent(1, &extent);
  // Jan 1970 has 22 business days in 5 runs: Thu-Fri, then four Mon-Fri.
  ASSERT_EQ(extent.size(), 5u);
  EXPECT_EQ(extent.front(), TimeSpan::Of(0, 1));
  std::int64_t total = 0;
  for (const TimeSpan& piece : extent) total += piece.length();
  EXPECT_EQ(total, 22);
}

TEST_F(GregorianDaysTest, HolidaysShiftBusinessNumbering) {
  // Remove Fri 1970-01-02 (day tick 2).
  auto system = GranularitySystem::GregorianDays({CivilDate{1970, 1, 2}});
  const Granularity& b_day = *system->Find("b-day");
  EXPECT_EQ(b_day.TickContaining(0), 1);              // Thu Jan 1
  EXPECT_EQ(b_day.TickContaining(1), std::nullopt);   // holiday
  EXPECT_EQ(b_day.TickContaining(4), 2);              // Mon Jan 5
  EXPECT_EQ(b_day.TickHull(2), TimeSpan::Of(4, 4));
  EXPECT_FALSE(b_day.IsStrictlyPeriodic());
  EXPECT_GE(b_day.LastDeviantTick(), 1);
}

TEST_F(GregorianDaysTest, StraddlingGroupByIsRefused) {
  // Weeks straddle month boundaries; such a week would belong to no month
  // while its instants still mapped to one, so the definition is refused.
  EXPECT_EQ(system_->AddGroupBy("week-by-month", &Get("week"), &Get("month")),
            nullptr);
  EXPECT_EQ(system_->last_add_error().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(system_->last_add_error().message().find("crosses the boundary"),
            std::string::npos)
      << system_->last_add_error();
  const Granularity* days =
      system_->AddGroupBy("day-by-month", &Get("day"), &Get("month"));
  ASSERT_NE(days, nullptr) << system_->last_add_error();
  EXPECT_EQ(days->TickHull(2), Get("month").TickHull(2));
  EXPECT_TRUE(days->HasFullSupport());
}

TEST(PeriodicCompileTest, DeviantWindowPastTheCapIsRefused) {
  // One holiday near day 2^30 is cheap for the filter (removed ticks stay a
  // sparse list) but would put ~3e7 outer ticks into a group-by's deviant
  // window, past the 2^20 ticks one compile may materialize.
  GranularitySystem system;
  const Granularity* day = system.AddUniform("day", 1);
  const Tick far_monday = 7 * (Tick{1} << 27) + 1;
  const Granularity* b_day = system.AddFilter(
      "b-day", day, PeriodicPattern{7, {0, 1, 2, 3, 4}}, {far_monday});
  ASSERT_NE(b_day, nullptr) << system.last_add_error();
  EXPECT_EQ(b_day->TickHull(1), TimeSpan::Of(0, 0));
  const Granularity* month = system.AddUniform("month", 30);
  EXPECT_EQ(system.AddGroupBy("b-month", b_day, month), nullptr);
  EXPECT_EQ(system.last_add_error().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(system.last_add_error().message().find("too large"),
            std::string::npos)
      << system.last_add_error();
  EXPECT_EQ(system.AddGroup("b-days", b_day, 1), nullptr);
  EXPECT_EQ(system.last_add_error().code(), StatusCode::kInvalidArgument);
}

TEST_F(GregorianDaysTest, GroupedMonths) {
  // `quarter` ships in the standard family as Group(month, 3).
  const Granularity& quarter = Get("quarter");
  // Q1 1970 = Jan+Feb+Mar = 31+28+31 = 90 days.
  EXPECT_EQ(quarter.TickHull(1), TimeSpan::Of(0, 89));
  EXPECT_EQ(quarter.TickContaining(89), 1);
  EXPECT_EQ(quarter.TickContaining(90), 2);
  // Q4 ends with the year.
  EXPECT_EQ(quarter.TickHull(4)->last, Get("year").TickHull(1)->last);
  EXPECT_EQ(quarter.periodicity().ticks_per_period, 1600);
}

TEST_F(GregorianDaysTest, PeriodicityHoldsForAllTypes) {
  for (const char* name : {"day", "week", "month", "year", "b-day",
                           "weekend-day", "b-week", "b-month"}) {
    const Granularity& g = Get(name);
    const Granularity::Periodicity p = g.periodicity();
    ASSERT_GT(p.period, 0) << name;
    ASSERT_GT(p.ticks_per_period, 0) << name;
    Tick base = g.LastDeviantTick();
    for (Tick z : {base + 1, base + 2, base + 7, base + 40}) {
      std::optional<TimeSpan> a = g.TickHull(z);
      std::optional<TimeSpan> b = g.TickHull(z + p.ticks_per_period);
      ASSERT_TRUE(a.has_value() && b.has_value()) << name;
      EXPECT_EQ(b->first, a->first + p.period) << name << " tick " << z;
      EXPECT_EQ(b->last, a->last + p.period) << name << " tick " << z;
    }
  }
}

TEST_F(GregorianDaysTest, TickContainingMatchesHulls) {
  Rng rng(99);
  for (const char* name :
       {"day", "week", "month", "year", "b-day", "b-week", "b-month"}) {
    const Granularity& g = Get(name);
    for (int i = 0; i < 300; ++i) {
      TimePoint t = rng.Uniform(0, 100000);
      std::optional<Tick> z = g.TickContaining(t);
      if (!z.has_value()) continue;
      std::optional<TimeSpan> hull = g.TickHull(*z);
      ASSERT_TRUE(hull.has_value());
      EXPECT_TRUE(hull->Contains(t)) << name << " t=" << t;
      // Hull endpoints belong to the same tick.
      EXPECT_EQ(g.TickContaining(hull->first), *z) << name;
      EXPECT_EQ(g.TickContaining(hull->last), *z) << name;
    }
  }
}

TEST_F(GregorianDaysTest, HullsAreMonotone) {
  for (const char* name :
       {"day", "week", "month", "year", "b-day", "b-week", "b-month"}) {
    const Granularity& g = Get(name);
    std::optional<TimeSpan> prev = g.TickHull(1);
    for (Tick z = 2; z <= 200; ++z) {
      std::optional<TimeSpan> cur = g.TickHull(z);
      ASSERT_TRUE(cur.has_value());
      EXPECT_GT(cur->first, prev->last) << name << " tick " << z;
      prev = cur;
    }
  }
}

TEST_F(GregorianDaysTest, SearchHelpers) {
  const Granularity& b_day = Get("b-day");
  // Day 2 is a Saturday; the first b-day ending at-or-after it is Monday
  // day 4, i.e., tick 3.
  EXPECT_EQ(FirstTickEndingAtOrAfter(b_day, 2), 3);
  EXPECT_EQ(FirstTickEndingAtOrAfter(b_day, 0), 1);
  EXPECT_EQ(LastTickStartingAtOrBefore(b_day, 2), 2);  // Fri day 1 = tick 2
  EXPECT_EQ(LastTickStartingAtOrBefore(b_day, -1), std::nullopt);
  const Granularity& month = Get("month");
  EXPECT_EQ(FirstTickEndingAtOrAfter(month, 31), 2);
  EXPECT_EQ(LastTickStartingAtOrBefore(month, 30), 1);
}

TEST_F(GregorianDaysTest, TickDifferenceSemantics) {
  const Granularity& day = Get("day");
  const Granularity& b_day = Get("b-day");
  EXPECT_EQ(TickDifference(day, 0, 10), 10);
  EXPECT_EQ(TickDifference(b_day, 0, 4), 2);  // Thu -> Mon = 2 b-days apart
  EXPECT_EQ(TickDifference(b_day, 0, 2), std::nullopt);  // Saturday
}

TEST(SecondsGregorianTest, SubdayTypes) {
  auto system = GranularitySystem::Gregorian();
  const Granularity& second = *system->Find("second");
  const Granularity& minute = *system->Find("minute");
  const Granularity& hour = *system->Find("hour");
  const Granularity& day = *system->Find("day");
  EXPECT_EQ(second.TickContaining(0), 1);
  EXPECT_EQ(minute.TickContaining(59), 1);
  EXPECT_EQ(minute.TickContaining(60), 2);
  EXPECT_EQ(hour.TickHull(1), TimeSpan::Of(0, 3599));
  EXPECT_EQ(day.TickHull(1), TimeSpan::Of(0, 86399));
  EXPECT_EQ(day.TickContaining(86400), 2);
}

TEST(SyntheticTest, GappedToyType) {
  GranularitySystem system;
  // Period 10: tick A = [0,2], tick B = [5,6]; gaps elsewhere.
  const Granularity* toy = system.AddSynthetic(
      "toy", 10, {TimeSpan::Of(0, 2), TimeSpan::Of(5, 6)});
  EXPECT_EQ(toy->TickContaining(0), 1);
  EXPECT_EQ(toy->TickContaining(2), 1);
  EXPECT_EQ(toy->TickContaining(3), std::nullopt);
  EXPECT_EQ(toy->TickContaining(5), 2);
  EXPECT_EQ(toy->TickContaining(10), 3);
  EXPECT_EQ(toy->TickContaining(15), 4);
  EXPECT_EQ(toy->TickHull(3), TimeSpan::Of(10, 12));
  EXPECT_EQ(toy->TickHull(4), TimeSpan::Of(15, 16));
  EXPECT_FALSE(toy->HasFullSupport());
  EXPECT_EQ(toy->periodicity().period, 10);
  EXPECT_EQ(toy->periodicity().ticks_per_period, 2);
}

TEST(SyntheticTest, FullSupportDetection) {
  GranularitySystem system;
  const Granularity* tiled = system.AddSynthetic(
      "tiled", 6, {TimeSpan::Of(0, 1), TimeSpan::Of(2, 5)});
  EXPECT_TRUE(tiled->HasFullSupport());
  const Granularity* gapped =
      system.AddSynthetic("gapped", 6, {TimeSpan::Of(0, 4)});
  EXPECT_FALSE(gapped->HasFullSupport());
}

TEST(SyntheticTest, OriginShiftsEverything) {
  GranularitySystem system;
  const Granularity* toy =
      system.AddSynthetic("shifted", 5, {TimeSpan::Of(0, 4)}, /*origin=*/100);
  EXPECT_EQ(toy->TickContaining(99), std::nullopt);
  EXPECT_EQ(toy->TickContaining(100), 1);
  EXPECT_EQ(toy->TickHull(2), TimeSpan::Of(105, 109));
}

}  // namespace
}  // namespace granmine
