// Build→freeze→serve lifecycle of GranularitySystem: the dense id-indexed
// caches must answer byte-identically to the pre-freeze memo path, Add*
// after Freeze() must fail with a clear Status, and a frozen system must be
// shareable across threads with no synchronization beyond the seal itself.

#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "granmine/granularity/convert.h"
#include "granmine/granularity/system.h"
#include "granmine/granularity/tables.h"
#include "granmine/io/text_format.h"
#include "granmine/obs/metrics.h"
#include "granmine/obs/obs.h"

namespace granmine {
namespace {

std::vector<CivilDate> TestHolidays() {
  // 1970-12-25 (Friday) and 1971-01-01 (Friday): real exception-window
  // overlays on the business types.
  return {{1970, 12, 25}, {1971, 1, 1}};
}

// The frozen system must return byte-identical table values to an identical
// unfrozen twin, across the full family — including the holiday-overlay
// business types — both under the sealed cap and past it (memo fallback).
TEST(FreezeEquivalenceTest, TablesMatchHashedPathAcrossFamily) {
  auto frozen = GranularitySystem::GregorianDays(TestHolidays());
  auto hashed = GranularitySystem::GregorianDays(TestHolidays());
  ASSERT_TRUE(frozen->Freeze().ok());
  ASSERT_TRUE(frozen->frozen());
  ASSERT_FALSE(hashed->frozen());

  const std::int64_t past_cap = GranularityTables::kSealedKCap + 10;
  for (const Granularity* g : frozen->family()) {
    const Granularity* twin = hashed->Find(g->name());
    ASSERT_NE(twin, nullptr) << g->name();
    for (std::int64_t k = 0; k <= past_cap; ++k) {
      EXPECT_EQ(frozen->tables().MinSize(*g, k),
                hashed->tables().MinSize(*twin, k))
          << g->name() << " minsize k=" << k;
      EXPECT_EQ(frozen->tables().MaxSize(*g, k),
                hashed->tables().MaxSize(*twin, k))
          << g->name() << " maxsize k=" << k;
      EXPECT_EQ(frozen->tables().MinGap(*g, k),
                hashed->tables().MinGap(*twin, k))
          << g->name() << " mingap k=" << k;
    }
  }
}

TEST(FreezeEquivalenceTest, LeastQueriesMatchHashedPath) {
  auto frozen = GranularitySystem::GregorianDays(TestHolidays());
  auto hashed = GranularitySystem::GregorianDays(TestHolidays());
  ASSERT_TRUE(frozen->Freeze().ok());
  for (const Granularity* g : frozen->family()) {
    const Granularity* twin = hashed->Find(g->name());
    ASSERT_NE(twin, nullptr);
    for (std::int64_t x : {1, 2, 5, 30, 365, 1000}) {
      EXPECT_EQ(frozen->tables().LeastTicksCovering(*g, x),
                hashed->tables().LeastTicksCovering(*twin, x))
          << g->name() << " x=" << x;
      EXPECT_EQ(frozen->tables().LeastTicksExceeding(*g, x),
                hashed->tables().LeastTicksExceeding(*twin, x))
          << g->name() << " x=" << x;
      EXPECT_EQ(frozen->tables().LeastTicksWithGapExceeding(*g, x),
                hashed->tables().LeastTicksWithGapExceeding(*twin, x))
          << g->name() << " x=" << x;
    }
  }
}

TEST(FreezeEquivalenceTest, CoverageMatchesHashedPathAcrossAllPairs) {
  auto frozen = GranularitySystem::GregorianDays(TestHolidays());
  auto hashed = GranularitySystem::GregorianDays(TestHolidays());
  ASSERT_TRUE(frozen->Freeze().ok());
  for (const Granularity* target : frozen->family()) {
    const Granularity* target_twin = hashed->Find(target->name());
    for (const Granularity* source : frozen->family()) {
      const Granularity* source_twin = hashed->Find(source->name());
      EXPECT_EQ(frozen->coverage().Covers(*target, *source),
                hashed->coverage().Covers(*target_twin, *source_twin))
          << target->name() << " covers " << source->name();
    }
  }
}

// Warm the memo first, then freeze: the precomputed arrays must agree
// with what the memo already served (seal-after-use, not just seal-fresh).
TEST(FreezeEquivalenceTest, SealAfterWarmingMemoIsConsistent) {
  auto system = GranularitySystem::GregorianDays(TestHolidays());
  const Granularity* b_day = system->Find("b-day");
  ASSERT_NE(b_day, nullptr);
  std::vector<std::optional<std::int64_t>> before;
  for (std::int64_t k = 1; k <= 32; ++k) {
    before.push_back(system->tables().MinSize(*b_day, k));
  }
  ASSERT_TRUE(system->Freeze().ok());
  for (std::int64_t k = 1; k <= 32; ++k) {
    EXPECT_EQ(system->tables().MinSize(*b_day, k),
              before[static_cast<std::size_t>(k - 1)])
        << "k=" << k;
  }
}

// A granularity from a *different* system must not alias a sealed slot even
// when its dense id collides; it falls back to the memo and still answers
// correctly.
TEST(FreezeEquivalenceTest, ForeignGranularityFallsBackToMemo) {
  auto frozen = GranularitySystem::GregorianDays();
  auto other = GranularitySystem::GregorianDays();
  ASSERT_TRUE(frozen->Freeze().ok());
  const Granularity* foreign = other->Find("week");
  const Granularity* local = frozen->Find("week");
  ASSERT_NE(foreign, nullptr);
  // Same id, different object: the guard must reject the sealed slot.
  ASSERT_EQ(foreign->id(), local->id());
  for (std::int64_t k = 1; k <= 8; ++k) {
    EXPECT_EQ(frozen->tables().MinSize(*foreign, k),
              frozen->tables().MinSize(*local, k));
  }
  EXPECT_EQ(frozen->coverage().Covers(*local, *foreign),
            frozen->coverage().Covers(*local, *local));
}

// The seal computes every sealed value straight from the pure functions: a
// freeze neither reads nor fills the memos, so with metrics on it counts no
// table or coverage lookup of any result.
TEST(FreezeTest, FreezeCountsNoMemoLookups) {
#if !GRANMINE_OBS_ENABLED
  GTEST_SKIP() << "lookup counters are compiled out";
#else
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto count = [&registry](const char* name, const char* labels) {
    const obs::MetricsSnapshot snapshot = registry.Snapshot();
    const obs::MetricValue* metric = snapshot.Find(name, labels);
    return metric == nullptr ? std::uint64_t{0} : metric->value;
  };
  const auto totals = [&count] {
    return std::vector<std::uint64_t>{
        count("granmine_coverage_lookups_total", "result=\"miss\""),
        count("granmine_coverage_lookups_total", "result=\"hit\""),
        count("granmine_tables_lookups_total", "result=\"miss\""),
        count("granmine_tables_lookups_total", "result=\"hit\"")};
  };
  auto system = GranularitySystem::Gregorian(TestHolidays());
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const std::vector<std::uint64_t> before = totals();
  ASSERT_TRUE(system->Freeze().ok());
  const std::vector<std::uint64_t> after = totals();
  registry.set_enabled(was_enabled);
  EXPECT_EQ(after, before) << "coverage miss/hit, tables miss/hit";
#endif
}

TEST(FreezeTest, IdsAreDenseRegistrationOrder) {
  auto system = GranularitySystem::GregorianDays();
  const auto& family = system->family();
  ASSERT_FALSE(family.empty());
  for (std::size_t i = 0; i < family.size(); ++i) {
    EXPECT_EQ(family[i]->id(), static_cast<GranularityId>(i));
    EXPECT_EQ(system->Find(family[i]->name()), family[i]);
  }
  Granularity* unregistered = nullptr;
  (void)unregistered;
  UniformGranularity loose("loose", 10);
  EXPECT_EQ(loose.id(), kInvalidGranularityId);
}

TEST(FreezeTest, AddAfterFreezeFailsWithClearStatus) {
  auto system = GranularitySystem::GregorianDays();
  const Granularity* day = system->Find("day");
  ASSERT_TRUE(system->Freeze().ok());
  EXPECT_TRUE(system->last_add_error().ok());

  EXPECT_EQ(system->AddUniform("fortnight", 14), nullptr);
  EXPECT_FALSE(system->last_add_error().ok());
  EXPECT_EQ(system->last_add_error().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(system->last_add_error().message().find("frozen"),
            std::string::npos);
  EXPECT_NE(system->last_add_error().message().find("fortnight"),
            std::string::npos);

  EXPECT_EQ(system->AddGroup("decade", day, 3650), nullptr);
  EXPECT_EQ(system->AddMonths("month2", 1), nullptr);
  EXPECT_EQ(system->AddYears("year2", 1), nullptr);
  EXPECT_EQ(system->AddFilter("odd-day", day,
                              PeriodicPattern{2, {0}, 0}),
            nullptr);
  EXPECT_EQ(system->AddGroupBy("x", day, day), nullptr);
  EXPECT_EQ(system->AddSynthetic("shift", 10, {TimeSpan::Of(0, 3)}), nullptr);
  // The family is unchanged.
  EXPECT_EQ(system->Find("fortnight"), nullptr);
}

TEST(FreezeTest, TextFormatSurfacesFrozenAddError) {
  auto system = GranularitySystem::GregorianDays();
  ASSERT_TRUE(system->Freeze().ok());
  auto result =
      ParseGranularityDefinition("fortnight", "uniform(14)", system.get());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("frozen"), std::string::npos);
}

TEST(FreezeTest, FreezeIsIdempotentAndWorksOnEveryFactory) {
  auto gregorian = GranularitySystem::Gregorian(TestHolidays());
  EXPECT_TRUE(gregorian->Freeze().ok());
  EXPECT_TRUE(gregorian->Freeze().ok());  // idempotent
  EXPECT_TRUE(gregorian->frozen());

  auto days = GranularitySystem::GregorianDays();
  EXPECT_TRUE(days->Freeze().ok());
  EXPECT_TRUE(days->frozen());

  auto synthetic = std::make_unique<GranularitySystem>();
  synthetic->AddUniform("tick", 1);
  synthetic->AddSynthetic("phase", 10,
                          {TimeSpan::Of(0, 2), TimeSpan::Of(5, 6)});
  EXPECT_TRUE(synthetic->Freeze().ok());
  EXPECT_TRUE(synthetic->frozen());

  auto empty = std::make_unique<GranularitySystem>();
  EXPECT_TRUE(empty->Freeze().ok());  // freeze-before-build succeeds
  EXPECT_TRUE(empty->frozen());
  EXPECT_EQ(empty->AddUniform("late", 1), nullptr);
}

// Sealed lookups are wait-free reads of immutable arrays: hammer the frozen
// caches from several threads (run under TSAN via the sanitizer label) and
// check every thread sees the same answers.
TEST(FreezeTest, FrozenSystemIsShareableAcrossThreadsWithoutLocks) {
  auto system = GranularitySystem::GregorianDays(TestHolidays());
  ASSERT_TRUE(system->Freeze().ok());

  // Reference answers from the sealed arrays, single-threaded.
  const Granularity* b_day = system->Find("b-day");
  const Granularity* b_week = system->Find("b-week");
  const Granularity* month = system->Find("month");
  ASSERT_NE(b_day, nullptr);
  ASSERT_NE(b_week, nullptr);
  ASSERT_NE(month, nullptr);
  const auto expect_minsize = system->tables().MinSize(*b_week, 4);
  const auto expect_mingap = system->tables().MinGap(*b_day, 7);
  const bool expect_covers = system->coverage().Covers(*month, *b_day);

  constexpr int kThreads = 4;
  constexpr int kIterations = 2000;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        if (system->tables().MinSize(*b_week, 4) != expect_minsize ||
            system->tables().MinGap(*b_day, 7) != expect_mingap ||
            system->coverage().Covers(*month, *b_day) != expect_covers) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace granmine
