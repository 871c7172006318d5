// The Engine facade: one object owning the frozen system, the shared
// executor, the governor factory and the obs handles. The key invariant is
// that routing through the facade changes no answers — Mine/OpenStream are
// byte-identical to hand-wired Miner/OnlineMiner calls on an unfrozen twin
// system.

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "granmine/engine/engine.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/miner.h"
#include "granmine/paper/figures.h"
#include "granmine/sequence/generators.h"

namespace granmine {
namespace {

Workload MakeWorkload(const GranularitySystem& system, unsigned seed) {
  StockWorkloadOptions options;
  options.trading_days = 25;
  options.plant_probability = 0.6;
  options.noise_events_per_day = 1.0;
  options.seed = seed;
  return MakeStockWorkload(system, options);
}

TEST(EngineTest, CreateRejectsNullSystem) {
  auto engine = Engine::Create(nullptr);
  ASSERT_FALSE(engine.ok());
}

TEST(EngineTest, FreezeHappensOnFirstServeCall) {
  auto engine = Engine::CreateGregorian();
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE((*engine)->frozen());
  // Build phase: the family is still extensible through system().
  EXPECT_NE((*engine)->system()->AddUniform("fortnight", 14 * kSecondsPerDay),
            nullptr);

  Workload workload = MakeWorkload(*(*engine)->system(), 99);
  auto structure = BuildFigure1a(*(*engine)->system());
  ASSERT_TRUE(structure.ok());
  DiscoveryProblem problem;
  problem.structure = &*structure;
  problem.min_confidence = 0.4;
  problem.reference_type = *workload.registry.Find("IBM-rise");

  MineRequest request;
  request.problem = &problem;
  request.sequence = &workload.sequence;
  auto response = (*engine)->Mine(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE((*engine)->frozen());
  // Serve phase: the family is immutable now.
  EXPECT_EQ((*engine)->system()->AddUniform("late", 60), nullptr);
  EXPECT_FALSE((*engine)->system()->last_add_error().ok());
}

TEST(EngineTest, MineMatchesHandWiredMiner) {
  auto engine = Engine::CreateGregorian();
  ASSERT_TRUE(engine.ok());
  auto twin = GranularitySystem::Gregorian();

  Workload workload = MakeWorkload(*(*engine)->system(), 4242);
  Workload twin_workload = MakeWorkload(*twin, 4242);
  auto structure = BuildFigure1a(*(*engine)->system());
  auto twin_structure = BuildFigure1a(*twin);
  ASSERT_TRUE(structure.ok());
  ASSERT_TRUE(twin_structure.ok());

  DiscoveryProblem problem;
  problem.structure = &*structure;
  problem.min_confidence = 0.3;
  problem.reference_type = *workload.registry.Find("IBM-rise");
  DiscoveryProblem twin_problem = problem;
  twin_problem.structure = &*twin_structure;
  twin_problem.reference_type = *twin_workload.registry.Find("IBM-rise");

  MineRequest request;
  request.problem = &problem;
  request.sequence = &workload.sequence;
  auto via_engine = (*engine)->Mine(request);
  ASSERT_TRUE(via_engine.ok()) << via_engine.status();

  Miner miner(twin.get());
  auto direct = miner.Mine(twin_problem, twin_workload.sequence);
  ASSERT_TRUE(direct.ok()) << direct.status();

  const MiningReport& a = via_engine->report;
  const MiningReport& b = *direct;
  EXPECT_EQ(a.candidates_before, b.candidates_before);
  EXPECT_EQ(a.candidates_after_screening, b.candidates_after_screening);
  EXPECT_EQ(a.total_roots, b.total_roots);
  EXPECT_EQ(a.tag_runs, b.tag_runs);
  ASSERT_EQ(a.solutions.size(), b.solutions.size());
  for (std::size_t i = 0; i < a.solutions.size(); ++i) {
    EXPECT_EQ(a.solutions[i].assignment, b.solutions[i].assignment);
    EXPECT_EQ(a.solutions[i].matched_roots, b.solutions[i].matched_roots);
    EXPECT_EQ(a.solutions[i].frequency, b.solutions[i].frequency);
  }
}

TEST(EngineTest, OpenStreamSnapshotMatchesBatchMine) {
  auto engine = Engine::CreateGregorian();
  ASSERT_TRUE(engine.ok());
  Workload workload = MakeWorkload(*(*engine)->system(), 555);
  auto structure = BuildFigure1a(*(*engine)->system());
  ASSERT_TRUE(structure.ok());

  DiscoveryProblem problem;
  problem.structure = &*structure;
  problem.min_confidence = 0.3;
  problem.reference_type = *workload.registry.Find("IBM-rise");
  // Streams need the non-root universe up front.
  problem.allowed.assign(
      static_cast<std::size_t>(structure->variable_count()), {});
  problem.allowed[1] = {*workload.registry.Find("IBM-earnings-report")};
  problem.allowed[2] = {*workload.registry.Find("HP-rise")};
  problem.allowed[3] = {*workload.registry.Find("IBM-fall")};

  StreamRequest request;
  request.problem = &problem;
  auto session = (*engine)->OpenStream(request);
  ASSERT_TRUE(session.ok()) << session.status();
  for (const Event& event : workload.sequence.events()) {
    ASSERT_TRUE(session->Ingest(event).ok());
  }
  session->Seal();
  auto snapshot = session->Snapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();

  MineRequest batch;
  batch.problem = &problem;
  batch.sequence = &workload.sequence;
  batch.options = OnlineMinerOptions{}.BatchEquivalent();
  auto mined = (*engine)->Mine(batch);
  ASSERT_TRUE(mined.ok()) << mined.status();
  ASSERT_EQ(snapshot->solutions.size(), mined->report.solutions.size());
  for (std::size_t i = 0; i < snapshot->solutions.size(); ++i) {
    EXPECT_EQ(snapshot->solutions[i].assignment,
              mined->report.solutions[i].assignment);
    EXPECT_EQ(snapshot->solutions[i].matched_roots,
              mined->report.solutions[i].matched_roots);
  }
}

TEST(EngineTest, GovernorFactoryResolvesAgainstDefaults) {
  EngineOptions options;
  options.limits.deadline_ms = 50;
  auto engine = Engine::CreateGregorian(options);
  ASSERT_TRUE(engine.ok());
  // Engine default limits produce a governor.
  EXPECT_NE((*engine)->MakeGovernor(), nullptr);
  // An explicit all-zero override produces none.
  EXPECT_EQ((*engine)->MakeGovernor(GovernorLimits{}), nullptr);
  // A step budget alone is enough.
  GovernorLimits steps;
  steps.max_steps = 10;
  EXPECT_NE((*engine)->MakeGovernor(steps), nullptr);

  auto ungoverned = Engine::CreateGregorian();
  ASSERT_TRUE(ungoverned.ok());
  EXPECT_EQ((*ungoverned)->MakeGovernor(), nullptr);
}

TEST(EngineTest, MineRequestValidation) {
  auto engine = Engine::CreateGregorian();
  ASSERT_TRUE(engine.ok());
  MineRequest request;  // no problem, no sequence
  EXPECT_FALSE((*engine)->Mine(request).ok());
  StreamRequest stream;  // no problem
  EXPECT_FALSE((*engine)->OpenStream(stream).ok());
}

// Request validation and serving must hold up when Mine and OpenStream hit
// one engine from different threads: the first serve call freezes the
// system exactly once, valid requests on both paths succeed, and invalid
// ones keep failing loudly instead of racing into a half-built session.
TEST(EngineTest, ConcurrentMineAndOpenStreamValidate) {
  auto engine = Engine::CreateGregorian();
  ASSERT_TRUE(engine.ok());
  Workload workload = MakeWorkload(*(*engine)->system(), 808);
  auto structure = BuildFigure1a(*(*engine)->system());
  ASSERT_TRUE(structure.ok());

  DiscoveryProblem problem;
  problem.structure = &*structure;
  problem.min_confidence = 0.3;
  problem.reference_type = *workload.registry.Find("IBM-rise");
  DiscoveryProblem stream_problem = problem;
  stream_problem.allowed.assign(
      static_cast<std::size_t>(structure->variable_count()), {});
  stream_problem.allowed[1] = {*workload.registry.Find("IBM-earnings-report")};
  stream_problem.allowed[2] = {*workload.registry.Find("HP-rise")};
  stream_problem.allowed[3] = {*workload.registry.Find("IBM-fall")};

  std::atomic<int> mine_ok{0};
  std::atomic<int> invalid_rejected{0};
  std::thread miner_thread([&] {
    MineRequest request;
    request.problem = &problem;
    request.sequence = &workload.sequence;
    for (int i = 0; i < 3; ++i) {
      auto response = (*engine)->Mine(request);
      if (response.ok()) mine_ok.fetch_add(1);
      // Interleave invalid requests: validation must stay per-request.
      MineRequest invalid;
      if (!(*engine)->Mine(invalid).ok()) invalid_rejected.fetch_add(1);
    }
  });

  StreamRequest stream_request;
  stream_request.problem = &stream_problem;
  for (int i = 0; i < 3; ++i) {
    auto session = (*engine)->OpenStream(stream_request);
    ASSERT_TRUE(session.ok()) << session.status();
    for (const Event& event : workload.sequence.events()) {
      ASSERT_TRUE(session->Ingest(event).ok());
    }
    session->Seal();
    auto snapshot = session->Snapshot();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    StreamRequest invalid;  // no problem
    EXPECT_FALSE((*engine)->OpenStream(invalid).ok());
  }
  miner_thread.join();
  EXPECT_EQ(mine_ok.load(), 3);
  EXPECT_EQ(invalid_rejected.load(), 3);
  EXPECT_TRUE((*engine)->frozen());
}

TEST(EngineTest, ParallelMineOnEnginePoolMatchesSerial) {
  EngineOptions parallel_options;
  parallel_options.num_threads = 4;
  auto parallel = Engine::CreateGregorian(parallel_options);
  auto serial = Engine::CreateGregorian();
  ASSERT_TRUE(parallel.ok());
  ASSERT_TRUE(serial.ok());
  ASSERT_NE((*parallel)->executor(), nullptr);
  ASSERT_EQ((*serial)->executor(), nullptr);

  Workload workload = MakeWorkload(*(*parallel)->system(), 1212);
  Workload serial_workload = MakeWorkload(*(*serial)->system(), 1212);
  auto structure = BuildFigure1a(*(*parallel)->system());
  auto serial_structure = BuildFigure1a(*(*serial)->system());
  ASSERT_TRUE(structure.ok());
  ASSERT_TRUE(serial_structure.ok());

  DiscoveryProblem problem;
  problem.structure = &*structure;
  problem.min_confidence = 0.3;
  problem.reference_type = *workload.registry.Find("IBM-rise");
  DiscoveryProblem serial_problem = problem;
  serial_problem.structure = &*serial_structure;
  serial_problem.reference_type =
      *serial_workload.registry.Find("IBM-rise");

  MineRequest request;
  request.problem = &problem;
  request.sequence = &workload.sequence;
  MineRequest serial_request;
  serial_request.problem = &serial_problem;
  serial_request.sequence = &serial_workload.sequence;

  auto a = (*parallel)->Mine(request);
  auto b = (*serial)->Mine(serial_request);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_EQ(a->report.solutions.size(), b->report.solutions.size());
  for (std::size_t i = 0; i < a->report.solutions.size(); ++i) {
    EXPECT_EQ(a->report.solutions[i].assignment,
              b->report.solutions[i].assignment);
    EXPECT_EQ(a->report.solutions[i].matched_roots,
              b->report.solutions[i].matched_roots);
  }
  // The engine pool is reusable: a second request on the same engine works.
  auto again = (*parallel)->Mine(request);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->report.solutions.size(), a->report.solutions.size());
}

// Two requests share the engine's pool with admission off, so both scans
// reach Executor::ParallelFor at once. The one that finds the pool busy runs
// inline; every answer equals the one-at-a-time answer.
TEST(EngineTest, ConcurrentMinesShareTheEnginePool) {
  EngineOptions options;
  options.num_threads = 2;
  auto engine = Engine::CreateGregorian(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_EQ((*engine)->admission(), nullptr);
  Workload workload = MakeWorkload(*(*engine)->system(), 808);
  auto structure = BuildFigure1a(*(*engine)->system());
  ASSERT_TRUE(structure.ok());
  DiscoveryProblem problem;
  problem.structure = &*structure;
  problem.min_confidence = 0.3;
  problem.reference_type = *workload.registry.Find("IBM-rise");
  MineRequest request;
  request.problem = &problem;
  request.sequence = &workload.sequence;

  auto want = (*engine)->Mine(request);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_GT(want->report.tag_runs, 0u);

  std::atomic<int> ready{0};
  std::atomic<int> mismatches{0};
  auto hammer = [&] {
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    for (int round = 0; round < 8; ++round) {
      auto got = (*engine)->Mine(request);
      if (!got.ok() || got->report.tag_runs != want->report.tag_runs ||
          got->report.solutions.size() != want->report.solutions.size()) {
        mismatches.fetch_add(1);
        continue;
      }
      for (std::size_t i = 0; i < want->report.solutions.size(); ++i) {
        if (got->report.solutions[i].assignment !=
                want->report.solutions[i].assignment ||
            got->report.solutions[i].matched_roots !=
                want->report.solutions[i].matched_roots) {
          mismatches.fetch_add(1);
          break;
        }
      }
    }
  };
  std::thread other(hammer);
  hammer();
  other.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(EngineTest, WriteMetricsAndTraceProduceFiles) {
  EngineOptions options;
  options.enable_metrics = true;
  options.enable_tracing = true;
  auto engine = Engine::CreateGregorian(options);
  ASSERT_TRUE(engine.ok());
  const std::string metrics_path =
      testing::TempDir() + "/engine_test_metrics.prom";
  const std::string trace_path =
      testing::TempDir() + "/engine_test_trace.json";
  EXPECT_TRUE((*engine)->WriteMetrics(metrics_path).ok());
  EXPECT_TRUE((*engine)->WriteTrace(trace_path).ok());
  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.good());
  std::stringstream contents;
  contents << trace.rdbuf();
  EXPECT_NE(contents.str().find("traceEvents"), std::string::npos);
  EXPECT_FALSE((*engine)->WriteMetrics("/nonexistent-dir/x.prom").ok());
  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace granmine
