#include "granmine/granularity/convert.h"

#include <gtest/gtest.h>

#include "granmine/granularity/system.h"

namespace granmine {
namespace {

class ConvertGranTest : public testing::Test {
 protected:
  ConvertGranTest() : system_(GranularitySystem::GregorianDays()) {}
  const Granularity& Get(const char* name) {
    const Granularity* g = system_->Find(name);
    EXPECT_NE(g, nullptr) << name;
    return *g;
  }
  std::unique_ptr<GranularitySystem> system_;
};

TEST_F(ConvertGranTest, CoveringTickMonthOfDay) {
  // ⌈z⌉^month_day is always defined: day 31 (Feb 1) is in month 2.
  EXPECT_EQ(CoveringTick(Get("month"), Get("day"), 32), 2);
  EXPECT_EQ(CoveringTick(Get("month"), Get("day"), 1), 1);
  EXPECT_EQ(CoveringTick(Get("month"), Get("day"), 31), 1);  // Jan 31
}

TEST_F(ConvertGranTest, CoveringTickMonthOfWeekOftenUndefined) {
  // The paper: ⌈z⌉^month_week is undefined when week z straddles two months.
  const Granularity& month = Get("month");
  const Granularity& week = Get("week");
  // Week 5 = days 25..31 (Mon Jan 26 .. Sun Feb 1): straddles Jan/Feb.
  EXPECT_EQ(week.TickHull(5), TimeSpan::Of(25, 31));
  EXPECT_EQ(CoveringTick(month, week, 5), std::nullopt);
  // Week 2 = days 4..10 lies inside January.
  EXPECT_EQ(CoveringTick(month, week, 2), 1);
}

TEST_F(ConvertGranTest, CoveringTickBdayOfDayUndefinedOnWeekends) {
  // ⌈z⌉^b-day_day is undefined when day z is a Saturday/Sunday.
  const Granularity& b_day = Get("b-day");
  const Granularity& day = Get("day");
  EXPECT_EQ(CoveringTick(b_day, day, 1), 1);              // Thu
  EXPECT_EQ(CoveringTick(b_day, day, 3), std::nullopt);   // Sat
  EXPECT_EQ(CoveringTick(b_day, day, 5), 3);              // Mon
}

TEST_F(ConvertGranTest, CoveringTickWithGappedCoarseType) {
  // b-month covers a b-day; a month-of-b-days covers each of its b-days.
  EXPECT_EQ(CoveringTick(Get("b-month"), Get("b-day"), 1), 1);
  EXPECT_EQ(CoveringTick(Get("b-month"), Get("b-day"), 22), 1);
  EXPECT_EQ(CoveringTick(Get("b-month"), Get("b-day"), 23), 2);
  // But b-month does NOT cover a full week (weekends are outside b-month).
  EXPECT_EQ(CoveringTick(Get("b-month"), Get("week"), 2), std::nullopt);
  // b-month covers a b-week that lies within one month.
  EXPECT_EQ(CoveringTick(Get("b-month"), Get("b-week"), 2), 1);
}

TEST_F(ConvertGranTest, SupportCoversWalksGapsAcrossTicks) {
  // Weekly sources (day 0 = Thu 1970-01-01) checked against b-day's
  // support: each source piece spans several b-day ticks, so the walk must
  // coalesce touching target ticks and stop at the weekend gap.
  const Granularity& b_day = Get("b-day");
  const Granularity* thu_fri =
      system_->AddSynthetic("thu-fri", 7, {TimeSpan::Of(0, 1)});
  const Granularity* thu_sat =
      system_->AddSynthetic("thu-sat", 7, {TimeSpan::Of(0, 2)});
  const Granularity* mon_fri =
      system_->AddSynthetic("mon-fri", 7, {TimeSpan::Of(0, 4)}, /*origin=*/4);
  const Granularity* sun =
      system_->AddSynthetic("sun", 7, {TimeSpan::Of(3, 3)});
  EXPECT_TRUE(SupportCovers(b_day, *thu_fri));
  EXPECT_FALSE(SupportCovers(b_day, *thu_sat));  // hits Sat
  EXPECT_TRUE(SupportCovers(b_day, *mon_fri));
  EXPECT_FALSE(SupportCovers(b_day, *sun));
  EXPECT_TRUE(SupportCovers(Get("day"), *thu_sat));
}

TEST_F(ConvertGranTest, SupportCoversTerminatesWhenGappedTicksTileTheLine) {
  // A filter keeping every day reports gapped support, yet its ticks tile
  // the line: the walk may only coalesce as far as each source piece needs.
  const Granularity* tiles =
      system_->AddFilter("every-day", &Get("day"), PeriodicPattern{2, {0, 1}});
  const Granularity* week_long =
      system_->AddSynthetic("week-long", 14, {TimeSpan::Of(0, 12)});
  EXPECT_TRUE(SupportCovers(*tiles, *week_long));
  EXPECT_FALSE(SupportCovers(*week_long, *tiles));
}

TEST_F(ConvertGranTest, SupportCoversSeeksAcrossASparseSourcesGaps) {
  // One kept day every 3e9 days (a multiple of 7, so every kept day is a
  // Monday like day 5): the target's support is reached by seeking to the
  // tick under each source piece, not by walking billions of b-days.
  const Granularity* sparse = system_->AddFilter(
      "sparse", &Get("day"), PeriodicPattern{3'000'000'003, {4}});
  ASSERT_NE(sparse, nullptr);
  EXPECT_TRUE(SupportCovers(Get("b-day"), *sparse));
  EXPECT_FALSE(SupportCovers(Get("weekend-day"), *sparse));
  EXPECT_FALSE(SupportCovers(*sparse, Get("b-day")));
}

TEST_F(ConvertGranTest, FullSupportCoverage) {
  // day covers b-day's support, not vice versa.
  EXPECT_TRUE(SupportCovers(Get("day"), Get("b-day")));
  EXPECT_FALSE(SupportCovers(Get("b-day"), Get("day")));
  // month covers everything full-support and b-day too.
  EXPECT_TRUE(SupportCovers(Get("month"), Get("day")));
  EXPECT_TRUE(SupportCovers(Get("month"), Get("b-day")));
  EXPECT_TRUE(SupportCovers(Get("month"), Get("week")));
  EXPECT_TRUE(SupportCovers(Get("year"), Get("month")));
  EXPECT_TRUE(SupportCovers(Get("day"), Get("week")));
}

TEST_F(ConvertGranTest, GappedPairCoverage) {
  // The paper's examples: b-week converts into week, month, or b-day, but
  // not into weekend-day.
  EXPECT_TRUE(SupportCovers(Get("week"), Get("b-week")));
  EXPECT_TRUE(SupportCovers(Get("month"), Get("b-week")));
  EXPECT_TRUE(SupportCovers(Get("b-day"), Get("b-week")));
  EXPECT_FALSE(SupportCovers(Get("weekend-day"), Get("b-week")));
  // Same-support family: b-day <-> b-month both ways.
  EXPECT_TRUE(SupportCovers(Get("b-month"), Get("b-day")));
  EXPECT_TRUE(SupportCovers(Get("b-day"), Get("b-month")));
  // Disjoint patterns fail.
  EXPECT_FALSE(SupportCovers(Get("b-day"), Get("weekend-day")));
  EXPECT_FALSE(SupportCovers(Get("weekend-day"), Get("b-day")));
}

TEST_F(ConvertGranTest, HolidayShrinksSourceCoverage) {
  auto holiday_system =
      GranularitySystem::GregorianDays({CivilDate{1970, 1, 2}});
  const Granularity& b_day_h = *holiday_system->Find("b-day");
  const Granularity& b_day = Get("b-day");
  // The plain b-day support includes Fri 1970-01-02, which the holiday
  // version lacks — so the holiday type cannot serve as a target for the
  // plain one, while the reverse direction works.
  EXPECT_FALSE(SupportCovers(b_day_h, b_day));
  EXPECT_TRUE(SupportCovers(b_day, b_day_h));
}

TEST_F(ConvertGranTest, CoverageCacheMemoizes) {
  SupportCoverageCache cache;
  EXPECT_TRUE(cache.Covers(Get("day"), Get("b-day")));
  EXPECT_TRUE(cache.Covers(Get("day"), Get("b-day")));
  EXPECT_FALSE(cache.Covers(Get("b-day"), Get("day")));
}

}  // namespace
}  // namespace granmine
