// Golden pin of the miner's §5 steps (src/granmine/mining/miner.cc): for
// seeded discovery problems under every MinerOptions ablation, each mine's
// step counters, its verdict buckets, its solutions in order and the TAG
// runs the obs counter saw must equal the recorded values in
// tests/golden/mining_steps.txt.
//
// Solutions alone are pinned by AblationsAgreeWithNaive; this pins how the
// miner gets there: how many roots step 3 keeps, how many candidates step 4
// keeps, and how many TAG runs and configurations step 5 spends — one
// per-candidate run per (candidate, root) without step 3, one shared run
// per kept root with it. A rewrite of steps 3 to 5 that keeps the answers
// but changes the work fails here.
//
// The problems are
//  - the AblationsAgreeWithNaive family: random 3-variable structures over a
//    toy calendar with a gapped granularity, random sequences, and θ both
//    random and exactly k / total_roots;
//  - the Example-1 structure over MakeStockWorkload sequences, with free
//    variables, a pinned X3, and an unsorted σ(X1) with a repeated type.
// Each runs under the 16 option masks of AblationsAgreeWithNaive (mask 0 is
// MinerOptions::Naive()), the default options, and degraded serving.
//
// On a mismatch the test writes the lines it computed next to the other
// test temporaries and names the file; regenerate the golden only for a
// change that is meant to alter what the steps do.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "granmine/common/random.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/miner.h"
#include "granmine/obs/metrics.h"
#include "granmine/obs/obs.h"
#include "granmine/paper/figures.h"
#include "granmine/sequence/generators.h"

namespace granmine {
namespace {

// The part of a line after this marker holds the obs counters; a build
// with GRANMINE_OBS=OFF compares only what precedes it.
constexpr char kCounterMarker[] = " |";

std::uint64_t CountedTagRuns() {
#if GRANMINE_OBS_ENABLED
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  const obs::MetricValue* metric =
      snapshot.Find("granmine_mine_tag_runs_total", "");
  return metric == nullptr ? 0 : metric->value;
#else
  return 0;
#endif
}

// The 16 masks of AblationsAgreeWithNaive, then the defaults and degraded
// serving.
std::vector<std::pair<std::string, MinerOptions>> Variants() {
  std::vector<std::pair<std::string, MinerOptions>> variants;
  for (int mask = 0; mask < 16; ++mask) {
    MinerOptions options = MinerOptions::Naive();
    options.check_consistency = mask & 1;
    options.reduce_sequence = mask & 2;
    options.reduce_roots = mask & 4;
    options.screening_depth = (mask & 8) ? 2 : 0;
    options.use_window_deadlines = mask & 4;
    variants.emplace_back(std::string("m").append(std::to_string(mask)),
                          options);
  }
  variants.emplace_back("default", MinerOptions{});
  MinerOptions degraded;
  degraded.degrade_to_screening = true;
  variants.emplace_back("degraded", degraded);
  return variants;
}

class StepCorpus {
 public:
  // Mines `problem` under every variant and records one line each.
  void MineAll(GranularitySystem* system, const std::string& id,
               const DiscoveryProblem& problem, const EventSequence& seq) {
    std::size_t all_roots = 0;
    std::uint64_t all_candidates = 0;
    for (const auto& [name, options] : Variants()) {
      const std::uint64_t counted = CountedTagRuns();
      Miner miner(system, options);
      Result<MiningReport> report = miner.Mine(problem, seq);
      ASSERT_TRUE(report.ok()) << id << " " << name << ": "
                               << report.status();
      const MiningCompleteness& c = report->completeness;
      std::ostringstream os;
      os << id << " " << name << " roots=" << report->roots_after_reduction
         << " cands=" << report->candidates_after_screening
         << " runs=" << report->tag_runs
         << " configs=" << report->matcher_configurations << " v="
         << c.confirmed << "/" << c.refuted << "/" << c.unknown << "/"
         << c.not_evaluated << " s=" << static_cast<int>(c.stop) << " sol=";
      for (const DiscoveredType& solution : report->solutions) {
        os << "[";
        for (EventTypeId type : solution.assignment) os << type << ",";
        os << solution.matched_roots << "]";
      }
      os << kCounterMarker << " counted=" << CountedTagRuns() - counted;
#if GRANMINE_OBS_ENABLED
      EXPECT_EQ(CountedTagRuns() - counted, report->tag_runs)
          << id << " " << name;
#endif
      lines_.push_back(os.str());
      if ((name == "default" || name == "m4" || name == "m5" ||
           name == "m6" || name == "m7") &&
          report->candidates_after_screening > 0 &&
          report->tag_runs != report->roots_after_reduction) {
        ++unshared_;
      }
      if (name == "m0") {
        all_roots = report->roots_after_reduction;
        all_candidates = report->candidates_after_screening;
      }
      if (name == "m4" && report->roots_after_reduction < all_roots) {
        ++reduced_;
      }
      if (name == "m8" &&
          report->candidates_after_screening < all_candidates) {
        ++screened_;
      }
    }
  }

  const std::vector<std::string>& lines() const { return lines_; }
  // Problems where step 3 alone dropped a root / step 4 alone a candidate.
  int reduced() const { return reduced_; }
  int screened() const { return screened_; }
  // Lines with step 3 on, no nested screening and a candidate left whose
  // TAG runs are not one per kept root.
  int unshared() const { return unshared_; }

 private:
  std::vector<std::string> lines_;
  int reduced_ = 0;
  int screened_ = 0;
  int unshared_ = 0;
};

// The AblationsAgreeWithNaive family, generated by the same seed and draws.
void ToyCorpus(StepCorpus* corpus) {
  GranularitySystem toy;
  const Granularity* types[] = {toy.AddUniform("unit", 1),
                                toy.AddUniform("three", 3),
                                toy.AddSynthetic("gapped", 4,
                                                 {TimeSpan::Of(0, 2)})};
  Rng rng(4242);
  for (int trial = 0; trial < 25; ++trial) {
    EventStructure s;
    const int n = 3;
    for (int v = 0; v < n; ++v) {
      s.AddVariable(std::string("X").append(std::to_string(v)));
    }
    for (int v = 1; v < n; ++v) {
      std::int64_t lo = rng.Uniform(0, 2);
      ASSERT_TRUE(s.AddConstraint(static_cast<int>(rng.Uniform(0, v - 1)), v,
                                  Tcg::Of(lo, lo + rng.Uniform(0, 2),
                                          types[rng.Index(3)]))
                      .ok());
    }
    if (!s.FindRoot().ok()) continue;

    const int kTypeCount = 3;
    EventSequence seq;
    TimePoint t = 0;
    for (int i = 0; i < 40; ++i) {
      t += rng.Uniform(0, 3);
      seq.Add(static_cast<EventTypeId>(rng.Uniform(0, kTypeCount - 1)), t);
    }

    DiscoveryProblem problem;
    problem.structure = &s;
    problem.reference_type = 0;
    const std::size_t total = seq.CountOf(0);
    if (total == 0) continue;
    std::vector<double> thetas = {0.05 + 0.3 * rng.UniformReal()};
    for (std::size_t k = 0; k <= total; ++k) {
      thetas.push_back(static_cast<double>(k) / static_cast<double>(total));
    }
    for (std::size_t k = 0; k < thetas.size(); ++k) {
      problem.min_confidence = thetas[k];
      corpus->MineAll(&toy,
                      std::string("toy t")
                          .append(std::to_string(trial))
                          .append(" th")
                          .append(std::to_string(k)),
                      problem, seq);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

// Example 1 over the stock workload: free variables, a pinned X3, and an
// unsorted σ(X1) with a repeated type; then a sequence with over 64 roots,
// so step 3's columns span several words.
void StockCorpus(StepCorpus* corpus) {
  auto system = GranularitySystem::Gregorian();
  Result<EventStructure> fig1a = BuildFigure1a(*system);
  ASSERT_TRUE(fig1a.ok());
  auto mine = [&](const std::string& id, int days, std::uint64_t seed,
                  auto sigmas_of) {
    StockWorkloadOptions stock;
    stock.trading_days = days;
    stock.noise_events_per_day = 2.0;
    stock.noise_ticker_count = 2;
    stock.seed = seed;
    Workload workload = MakeStockWorkload(*system, stock);
    const std::vector<std::vector<std::vector<EventTypeId>>> sigmas =
        sigmas_of(workload.registry);
    const double thetas[] = {0.15, 0.4, 0.7};
    for (std::size_t g = 0; g < sigmas.size(); ++g) {
      for (std::size_t k = 0; k < 3; ++k) {
        DiscoveryProblem problem;
        problem.structure = &*fig1a;
        problem.reference_type = *workload.registry.Find("IBM-rise");
        problem.min_confidence = thetas[k];
        problem.allowed = sigmas[g];
        corpus->MineAll(system.get(),
                        id + " g" + std::to_string(g) + " th" +
                            std::to_string(k),
                        problem, workload.sequence);
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  };
  for (std::uint64_t seed : {3, 8}) {
    mine(std::string("stock s").append(std::to_string(seed)), 24, seed,
         [](const EventTypeRegistry& registry) {
           const EventTypeId fall = *registry.Find("IBM-fall");
           const EventTypeId report = *registry.Find("IBM-earnings-report");
           const EventTypeId hp_rise = *registry.Find("HP-rise");
           return std::vector<std::vector<std::vector<EventTypeId>>>{
               {{}, {}, {}, {}},
               {{}, {}, {}, {fall}},
               {{}, {hp_rise, report, fall, report}, {}, {fall}},
           };
         });
    if (testing::Test::HasFatalFailure()) return;
  }
  mine("stock long", 400, 13, [](const EventTypeRegistry& registry) {
    const EventTypeId rise = *registry.Find("IBM-rise");
    const EventTypeId fall = *registry.Find("IBM-fall");
    const EventTypeId report = *registry.Find("IBM-earnings-report");
    const EventTypeId hp_rise = *registry.Find("HP-rise");
    const EventTypeId hp_fall = *registry.Find("HP-fall");
    return std::vector<std::vector<std::vector<EventTypeId>>>{
        {{}, {report, fall, hp_rise}, {hp_rise, rise}, {fall, hp_fall}},
    };
  });
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Drops the obs counters of every line when they are compiled out.
std::vector<std::string> Comparable(std::vector<std::string> lines) {
#if !GRANMINE_OBS_ENABLED
  for (std::string& line : lines) {
    line = line.substr(0, line.find(kCounterMarker));
  }
#endif
  return lines;
}

TEST(MiningStepsGoldenTest, StepCountersMatchTheRecordedCorpus) {
#if GRANMINE_OBS_ENABLED
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
#endif
  StepCorpus corpus;
  ToyCorpus(&corpus);
  StockCorpus(&corpus);
#if GRANMINE_OBS_ENABLED
  registry.set_enabled(was_enabled);
#endif
  ASSERT_FALSE(HasFatalFailure());

  // The corpus must reach what it claims to pin: solutions, and step-3
  // reduction and step-4 screening that each prune alone. With step 3 on
  // (and no nested mines) step 5 makes exactly one run per kept root.
  int with_solutions = 0;
  for (const std::string& line : corpus.lines()) {
    if (line.find("sol=[") != std::string::npos) ++with_solutions;
  }
  EXPECT_GT(with_solutions, 100);
  EXPECT_GT(corpus.reduced(), 10);
  EXPECT_GT(corpus.screened(), 10);
  EXPECT_EQ(corpus.unshared(), 0);

  const std::string golden_path =
      std::string(GRANMINE_TEST_GOLDEN_DIR) + "/mining_steps.txt";
  const std::vector<std::string> golden = Comparable(ReadLines(golden_path));
  const std::vector<std::string> actual = Comparable(corpus.lines());
  if (golden != actual) {
    const std::string actual_path =
        testing::TempDir() + "granmine_mining_steps.actual.txt";
    std::ofstream out(actual_path);
    for (const std::string& line : corpus.lines()) out << line << "\n";
    std::size_t first = 0;
    while (first < golden.size() && first < actual.size() &&
           golden[first] == actual[first]) {
      ++first;
    }
    FAIL() << "mining step counters diverge from " << golden_path
           << " at line " << first + 1 << " (golden has " << golden.size()
           << " lines, this build " << actual.size() << ")\n  golden: "
           << (first < golden.size() ? golden[first] : "<end>")
           << "\n  actual: "
           << (first < actual.size() ? actual[first] : "<end>")
           << "\nthis build's lines were written to " << actual_path;
  }
}

}  // namespace
}  // namespace granmine
