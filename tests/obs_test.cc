// Tests for the observability layer (src/granmine/obs): registry aggregation
// under concurrent writers (run under TSAN via the ctest "sanitizer" label),
// power-of-two histogram bucket boundaries, Prometheus text exposition, trace
// JSON export, and — the contract the instrumentation design exists for —
// metric snapshots that are byte-identical across thread counts on the
// streaming differential fixture. In a GRANMINE_OBS=OFF build the macro
// expansions are proven empty at compile time; the registry tests still run
// (only the call-site macros are compiled out, never the classes).

#include "granmine/obs/obs.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "granmine/obs/metrics.h"
#include "granmine/mining/miner.h"
#include "granmine/obs/trace.h"
#include "granmine/stream/online_miner.h"
#include "granmine/granularity/system.h"
#include "test_pool.h"

namespace granmine {
namespace {

using obs::MetricId;
using obs::MetricKind;
using obs::MetricsRegistry;
using obs::MetricValue;
using obs::TraceCollector;
using obs::TraceSpan;

// Every test drives the process-global registry; start it from a clean,
// enabled state and leave it disabled so later tests see no stray cost.
class ObsTest : public testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().set_enabled(false);
    MetricsRegistry::Global().Reset();
    MetricsRegistry::Global().set_enabled(true);
    TraceCollector::Global().set_enabled(false);
    TraceCollector::Global().Clear();
  }
  void TearDown() override {
    MetricsRegistry::Global().set_enabled(false);
    TraceCollector::Global().set_enabled(false);
  }
};

TEST_F(ObsTest, CounterAggregatesExactTotalsAcrossThreads) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricId id = registry.RegisterCounter("obs_test_thread_total");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, id] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) registry.Add(id);
    });
  }
  for (std::thread& t : threads) t.join();  // quiesce for exact totals

  // Keep the snapshot alive: Find returns a pointer into it.
  const auto snapshot = registry.Snapshot();
  const MetricValue* metric = snapshot.Find("obs_test_thread_total");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->kind, MetricKind::kCounter);
  EXPECT_EQ(metric->value, kThreads * kPerThread);
}

// Shards released at thread exit must keep their counts: totals survive the
// writer threads that produced them.
TEST_F(ObsTest, ReleasedShardsStillCountInSnapshots) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricId id = registry.RegisterCounter("obs_test_released_total");
  for (int round = 0; round < 4; ++round) {
    std::thread([&registry, id] { registry.Add(id, 5); }).join();
  }
  const auto snapshot = registry.Snapshot();
  const MetricValue* metric = snapshot.Find("obs_test_released_total");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->value, 20u);
}

TEST_F(ObsTest, RegistrationIsIdempotentAndLabelsDistinguish) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricId a = registry.RegisterCounter("obs_test_idem_total",
                                              "result=\"hit\"");
  const MetricId b = registry.RegisterCounter("obs_test_idem_total",
                                              "result=\"hit\"");
  const MetricId c = registry.RegisterCounter("obs_test_idem_total",
                                              "result=\"miss\"");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  registry.Add(a, 3);
  registry.Add(c, 4);
  const auto snapshot = registry.Snapshot();
  const MetricValue* hit =
      snapshot.Find("obs_test_idem_total", "result=\"hit\"");
  const MetricValue* miss =
      snapshot.Find("obs_test_idem_total", "result=\"miss\"");
  ASSERT_NE(hit, nullptr);
  ASSERT_NE(miss, nullptr);
  EXPECT_EQ(hit->value, 3u);
  EXPECT_EQ(miss->value, 4u);
}

TEST_F(ObsTest, DisabledRegistryRecordsNothing) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricId id = registry.RegisterCounter("obs_test_disabled_total");
  registry.set_enabled(false);
  registry.Add(id, 100);
  registry.set_enabled(true);
  const auto snapshot = registry.Snapshot();
  const MetricValue* metric = snapshot.Find("obs_test_disabled_total");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->value, 0u);
}

// Bucket b holds values of bit width exactly b: [2^(b-1), 2^b - 1], with
// bucket 0 reserved for zero. Pin the boundaries on both sides of each power
// of two.
TEST_F(ObsTest, HistogramBucketBoundaries) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricId id = registry.RegisterHistogram("obs_test_latency_us");
  const std::uint64_t big = std::uint64_t{1} << 20;
  for (std::uint64_t value : {std::uint64_t{0}, std::uint64_t{1},
                              std::uint64_t{2}, std::uint64_t{3},
                              std::uint64_t{4}, std::uint64_t{7},
                              std::uint64_t{8}, big}) {
    registry.Observe(id, value);
  }
  const auto snapshot = registry.Snapshot();
  const MetricValue* metric = snapshot.Find("obs_test_latency_us");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->kind, MetricKind::kHistogram);
  ASSERT_EQ(metric->buckets.size(),
            static_cast<std::size_t>(obs::kHistogramBuckets));
  EXPECT_EQ(metric->buckets[0], 1u);   // 0
  EXPECT_EQ(metric->buckets[1], 1u);   // 1
  EXPECT_EQ(metric->buckets[2], 2u);   // 2, 3
  EXPECT_EQ(metric->buckets[3], 2u);   // 4, 7
  EXPECT_EQ(metric->buckets[4], 1u);   // 8
  EXPECT_EQ(metric->buckets[21], 1u);  // 2^20
  EXPECT_EQ(metric->value, 8u);        // observation count
  EXPECT_EQ(metric->sum, 0u + 1 + 2 + 3 + 4 + 7 + 8 + big);
}

TEST_F(ObsTest, HistogramMaxValueLandsInTopBucket) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricId id = registry.RegisterHistogram("obs_test_top_bucket_us");
  registry.Observe(id, ~std::uint64_t{0});
  const auto snapshot = registry.Snapshot();
  const MetricValue* metric = snapshot.Find("obs_test_top_bucket_us");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->buckets[64], 1u);
  EXPECT_EQ(metric->sum, ~std::uint64_t{0});
}

TEST_F(ObsTest, HistogramConcurrentObserversKeepExactCount) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricId id = registry.RegisterHistogram("obs_test_mt_hist_us");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, id, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        registry.Observe(id, i % (16u << t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto snapshot = registry.Snapshot();
  const MetricValue* metric = snapshot.Find("obs_test_mt_hist_us");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->value, kThreads * kPerThread);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricId id = registry.RegisterGauge("obs_test_queue_depth");
  registry.GaugeSet(id, 12);
  registry.GaugeAdd(id, -5);
  const auto snapshot = registry.Snapshot();
  const MetricValue* metric = snapshot.Find("obs_test_queue_depth");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->kind, MetricKind::kGauge);
  EXPECT_EQ(metric->gauge, 7);
}

TEST_F(ObsTest, PrometheusTextExposition) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.Add(registry.RegisterCounter("obs_test_expo_total",
                                        "result=\"hit\""),
               2);
  registry.GaugeSet(registry.RegisterGauge("obs_test_expo_depth"), -3);
  const MetricId hist = registry.RegisterHistogram("obs_test_expo_us");
  registry.Observe(hist, 0);
  registry.Observe(hist, 5);

  const std::string text = registry.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("# TYPE obs_test_expo_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_total{result=\"hit\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_expo_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_depth -3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_expo_us histogram\n"),
            std::string::npos);
  // Cumulative buckets: the zero lands in le="0", 5 (bit width 3) in le="7".
  EXPECT_NE(text.find("obs_test_expo_us_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_us_bucket{le=\"7\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_us_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_us_sum 5\n"), std::string::npos);
  EXPECT_NE(text.find("obs_test_expo_us_count 2\n"), std::string::npos);
  // Exposition must be deterministic: two snapshots render identically.
  EXPECT_EQ(text, registry.Snapshot().ToPrometheusText());
}

TEST_F(ObsTest, PrometheusLabelValueEscaping) {
  // The text-exposition spec requires \\ for backslash, \" for double-quote
  // and \n for newline inside quoted label values.
  EXPECT_EQ(obs::EscapeLabelValue("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");

  MetricsRegistry& registry = MetricsRegistry::Global();
  // A value escaped at registration time passes through unchanged.
  registry.Add(registry.RegisterCounter(
                   "obs_test_escape_total",
                   "path=\"" + obs::EscapeLabelValue("a\\b\"c\nd") + "\""),
               1);
  // A pre-rendered body carrying raw backslash / newline is repaired; the
  // exposition must never emit a raw newline inside a quoted value.
  registry.Add(registry.RegisterCounter("obs_test_escape_raw_total",
                                        "note=\"x\ny\\z\""),
               1);
  const std::string text = registry.Snapshot().ToPrometheusText();
  EXPECT_NE(
      text.find("obs_test_escape_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
      std::string::npos);
  EXPECT_NE(text.find("obs_test_escape_raw_total{note=\"x\\ny\\\\z\"} 1\n"),
            std::string::npos);
}

TEST_F(ObsTest, TraceSpansExportChromeJson) {
  TraceCollector& collector = TraceCollector::Global();
  collector.set_enabled(true);
  {
    TraceSpan outer("obs_test_outer");
    TraceSpan inner("obs_test_inner");
  }
  EXPECT_EQ(collector.size(), 2u);
  const std::string json = collector.ExportJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"obs_test_outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"obs_test_inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Structurally a JSON object; Perfetto accepts the trace_event schema.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
}

TEST_F(ObsTest, DisabledTraceRecordsNothing) {
  TraceCollector& collector = TraceCollector::Global();
  ASSERT_FALSE(collector.enabled());
  { TraceSpan span("obs_test_ignored"); }
  EXPECT_EQ(collector.size(), 0u);
}

TEST_F(ObsTest, SpanStraddlingADisableIsDroppedNotCorrupted) {
  TraceCollector& collector = TraceCollector::Global();
  collector.set_enabled(true);
  {
    TraceSpan span("obs_test_straddle");
    // Record() re-checks the switch, so a span whose scope straddles a
    // disable is dropped cleanly — and a later re-enable does not resurrect
    // it.
    collector.set_enabled(false);
  }
  collector.set_enabled(true);
  EXPECT_EQ(collector.size(), 0u);
  { TraceSpan span("obs_test_after"); }
  EXPECT_EQ(collector.size(), 1u);
}

#if GRANMINE_OBS_ENABLED

// The determinism contract on the streaming differential fixture (the same
// deterministic pseudo-random stream stream_test.cc uses): every metric
// family except granmine_executor_* — whose chunk accounting legitimately
// depends on the worker count — must be byte-identical between a serial and
// a 4-thread run of the identical workload. `batch` mines the same events
// with the batch Miner instead of streaming them. `*tag_runs` receives the
// summed tag_runs of every report the run produced.
std::string FilteredMetrics(int threads, bool batch, std::uint64_t* tag_runs) {
  *tag_runs = 0;
  GranularitySystem toy;
  const Granularity* unit = toy.AddUniform("unit", 1);
  EventStructure s;
  VariableId x0 = s.AddVariable("X0");
  VariableId x1 = s.AddVariable("X1");
  VariableId x2 = s.AddVariable("X2");
  EXPECT_TRUE(s.AddConstraint(x0, x1, Tcg::Of(0, 8, unit)).ok());
  EXPECT_TRUE(s.AddConstraint(x1, x2, Tcg::Of(0, 8, unit)).ok());
  std::vector<Event> events;
  std::uint64_t state = 0x51ed2701afe4c9b3ULL;
  TimePoint t = 1;
  for (int i = 0; i < 48; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    t += static_cast<TimePoint>((state >> 33) % 2);
    events.push_back(Event{static_cast<EventTypeId>((state >> 13) % 6), t});
  }
  DiscoveryProblem problem;
  problem.structure = &s;
  problem.reference_type = 0;
  problem.min_confidence = 0.05;
  problem.allowed.assign(3, {});
  problem.allowed[1] = {0, 1, 2, 3, 4, 5};
  problem.allowed[2] = {0, 1, 2, 3, 4, 5};

  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.set_enabled(false);
  registry.Reset();
  registry.set_enabled(true);

  std::unique_ptr<Executor> pool = PoolOf(threads);
  if (batch) {
    problem.min_confidence = 0.5;  // high enough to refute some candidates
    EventSequence sequence;
    for (const Event& event : events) sequence.Add(event.type, event.time);
    MinerOptions options;
    options.executor = pool.get();
    Result<MiningReport> report = Miner(&toy, options).Mine(problem, sequence);
    EXPECT_TRUE(report.ok()) << report.status();
    if (report.ok()) *tag_runs += report->tag_runs;
  } else {
    OnlineMinerOptions options;
    options.executor = pool.get();
    Result<OnlineMiner> miner = OnlineMiner::Create(&toy, problem, options);
    EXPECT_TRUE(miner.ok()) << miner.status();
    for (const Event& event : events) {
      EXPECT_TRUE(miner->Ingest(event).ok());
    }
    Result<MiningReport> mid = miner->Snapshot();
    EXPECT_TRUE(mid.ok());
    miner->Seal();
    Result<MiningReport> report = miner->Snapshot();
    EXPECT_TRUE(report.ok());
    if (mid.ok() && report.ok()) *tag_runs += mid->tag_runs + report->tag_runs;
  }
  registry.set_enabled(false);

  std::istringstream lines(registry.Snapshot().ToPrometheusText());
  std::string filtered;
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("granmine_executor_") != std::string::npos) continue;
    filtered += line;
    filtered += '\n';
  }
  return filtered;
}

// The exposition's granmine_mine_tag_runs_total line must read `tag_runs`.
void ExpectTagRunsTotal(const std::string& exposition,
                        std::uint64_t tag_runs) {
  EXPECT_GT(tag_runs, 0u);
  EXPECT_NE(exposition.find("granmine_mine_tag_runs_total " +
                            std::to_string(tag_runs) + "\n"),
            std::string::npos)
      << "tag_runs=" << tag_runs << "\n"
      << exposition;
}

TEST_F(ObsTest, StreamMetricsAreByteIdenticalAcrossThreadCounts) {
  std::uint64_t tag_runs = 0;
  const std::string serial = FilteredMetrics(1, /*batch=*/false, &tag_runs);
  // The instrumented families must actually be present, not vacuously equal.
  EXPECT_NE(serial.find("granmine_stream_events_ingested_total 48"),
            std::string::npos)
      << serial;
  EXPECT_NE(serial.find("granmine_tag_transitions_total"), std::string::npos);
  EXPECT_NE(serial.find("granmine_mine_scans_total"), std::string::npos);
  ExpectTagRunsTotal(serial, tag_runs);
  for (int threads : {2, 4}) {
    std::uint64_t ignored = 0;
    EXPECT_EQ(serial, FilteredMetrics(threads, /*batch=*/false, &ignored))
        << "threads=" << threads;
  }
}

TEST_F(ObsTest, MineMetricsAreByteIdenticalAcrossThreadCounts) {
  std::uint64_t tag_runs = 0;
  const std::string serial = FilteredMetrics(1, /*batch=*/true, &tag_runs);
  // The shared runs are counted once each, as the report counts them.
  ExpectTagRunsTotal(serial, tag_runs);
  for (int threads : {2, 4}) {
    std::uint64_t ignored = 0;
    EXPECT_EQ(serial, FilteredMetrics(threads, /*batch=*/true, &ignored))
        << "threads=" << threads;
  }
}

#else  // !GRANMINE_OBS_ENABLED

// The kill-switch proof: with GRANMINE_OBS=OFF every instrumentation macro
// must expand to *nothing* — stringifying the expansion yields the empty
// string, so there is no code, no branch, and no registry reference left at
// any call site.
#define GM_OBS_TEST_STR_IMPL(...) #__VA_ARGS__
#define GM_OBS_TEST_STR(...) GM_OBS_TEST_STR_IMPL(__VA_ARGS__)

static_assert(sizeof(GM_OBS_TEST_STR(GM_COUNTER_ADD("n", "", 1))) == 1,
              "GM_COUNTER_ADD must compile to nothing when GRANMINE_OBS=OFF");
static_assert(sizeof(GM_OBS_TEST_STR(GM_GAUGE_SET("n", "", 1))) == 1,
              "GM_GAUGE_SET must compile to nothing when GRANMINE_OBS=OFF");
static_assert(sizeof(GM_OBS_TEST_STR(GM_HISTOGRAM_OBSERVE("n", "", 1))) == 1,
              "GM_HISTOGRAM_OBSERVE must compile to nothing when "
              "GRANMINE_OBS=OFF");
static_assert(sizeof(GM_OBS_TEST_STR(GM_TRACE_SPAN("n"))) == 1,
              "GM_TRACE_SPAN must compile to nothing when GRANMINE_OBS=OFF");
static_assert(sizeof(GM_OBS_TEST_STR(GM_OBS_ONLY(int unused;))) == 1,
              "GM_OBS_ONLY must compile to nothing when GRANMINE_OBS=OFF");
static_assert(sizeof(GM_OBS_TEST_STR(GM_LOG(
                  ::granmine::obs::LogLevel::kWarn, "c", "m",
                  {"k", "v"}))) == 1,
              "GM_LOG must compile to nothing when GRANMINE_OBS=OFF");

TEST(ObsKillSwitchTest, MacrosExpandToNothing) {
  // The static_asserts above are the real test; this records the config.
  SUCCEED() << "GRANMINE_OBS=OFF build: macros verified empty at compile time";
}

#endif  // GRANMINE_OBS_ENABLED

}  // namespace
}  // namespace granmine
