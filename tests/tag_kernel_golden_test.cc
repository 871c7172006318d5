// Golden pin of the TAG step kernel (src/granmine/tag/step_kernel.h): for a
// seeded corpus of runs, every run's outcome and full MatchStats must equal
// the recorded values in tests/golden/tag_kernel_runs.txt. The counters are
// functions of the kernel's exploration order (the accept early exit), its
// dedup points and its expiry prune, so any rewrite of the kernel that
// changes how it searches — not just what it decides — fails here.
//
// The corpus covers
//  - the Example-1 TAG over anchored MakeStockWorkload suffixes, with and
//    without a deadline, for a spread of candidate assignments;
//  - random TAGs from the tag_match_test generator (toy granularities,
//    including one with gaps, so undefined ticks occur), unanchored and
//    anchored, with equal-timestamp groups;
//  - runs stopped by max_configurations and by the governor's memory budget
//    (the per-configuration charge decides where that budget trips);
//  - binding-carrying runs of the Example-1 TAG over the same suffixes, one
//    per root serving a whole candidate space, with every binding they
//    accepted — plain, windowed, and stopped by max_configurations and by
//    the memory budget (whose charge includes the binding slots).
// One MatchScratch is shared by every run, as a miner worker shares it. The
// binding-carrying section comes last, so the plain runs' lines also prove
// that a run without bindings searches exactly as it did before.
//
// On a mismatch the test writes the corpus it computed next to the other
// test temporaries and names the file; regenerate the golden only for a
// change that is meant to alter the kernel's search.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "granmine/common/governor.h"
#include "granmine/common/random.h"
#include "granmine/granularity/system.h"
#include "granmine/paper/figures.h"
#include "granmine/sequence/generators.h"
#include "granmine/tag/builder.h"
#include "granmine/tag/matcher.h"

namespace granmine {
namespace {

class Corpus {
 public:
  void Record(const std::string& id, MatchOutcome outcome,
              const MatchStats& stats, const std::string& suffix = "") {
    std::ostringstream os;
    os << id << " o=" << static_cast<int>(outcome)
       << " c=" << stats.configurations << " t=" << stats.transitions
       << " p=" << stats.peak_frontier << " g=" << stats.groups_advanced
       << " e=" << stats.events_scanned
       << " b=" << (stats.budget_exhausted ? 1 : 0)
       << " s=" << static_cast<int>(stats.stopped) << suffix;
    lines_.push_back(os.str());
  }

  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
};

void RunInto(Corpus* corpus, const std::string& id, const TagMatcher& matcher,
             std::span<const Event> events, const SymbolMap& symbols,
             const MatchOptions& options, MatchScratch* scratch) {
  MatchStats stats;
  MatchOutcome outcome = matcher.Run(events, symbols, options, &stats, scratch);
  corpus->Record(id, outcome, stats);
}

// A binding-carrying run, recorded with how many bindings it appended and
// the distinct ones in order.
void SharedRunInto(Corpus* corpus, const std::string& id,
                   const TagMatcher& matcher, std::span<const Event> events,
                   const SymbolMap& symbols, const MatchOptions& options,
                   MatchScratch* scratch) {
  MatchStats stats;
  std::vector<std::int64_t> accepted;
  MatchOutcome outcome =
      matcher.Run(events, symbols, options, &stats, scratch, &accepted);
  const std::size_t width = matcher.kernel().binding_width();
  std::vector<std::vector<std::int64_t>> bindings;
  for (auto at = accepted.begin(); at != accepted.end(); at += width) {
    bindings.emplace_back(at, at + width);
  }
  std::sort(bindings.begin(), bindings.end());
  bindings.erase(std::unique(bindings.begin(), bindings.end()),
                 bindings.end());
  std::ostringstream os;
  os << " n=" << accepted.size() / width << " acc=";
  for (const std::vector<std::int64_t>& binding : bindings) {
    os << "[";
    for (std::size_t v = 0; v < width; ++v) {
      os << (v > 0 ? "," : "") << binding[v];
    }
    os << "]";
  }
  corpus->Record(id, outcome, stats, os.str());
}

// Example-1 (Figure 2) over the stock workload: anchored at every IBM-rise,
// for candidates that move each non-root variable across the ticker types.
// With `shared`, one binding-carrying run per root serves all of them.
void Example1Corpus(Corpus* corpus, MatchScratch* scratch, bool shared) {
  auto system = GranularitySystem::Gregorian();
  Result<EventStructure> fig1a = BuildFigure1a(*system);
  ASSERT_TRUE(fig1a.ok());
  Result<TagBuildResult> built = BuildTagForStructure(*fig1a);
  ASSERT_TRUE(built.ok());
  TagMatcher matcher(&built->tag);

  StockWorkloadOptions stock;
  stock.trading_days = 20;
  stock.noise_events_per_day = 4.0;
  stock.seed = 5;
  Workload workload = MakeStockWorkload(*system, stock);
  const int type_count = workload.registry.size();
  const EventTypeId rise = *workload.registry.Find("IBM-rise");
  const EventTypeId fall = *workload.registry.Find("IBM-fall");
  const EventTypeId report = *workload.registry.Find("IBM-earnings-report");
  const EventTypeId hp_rise = *workload.registry.Find("HP-rise");
  const EventTypeId hp_fall = *workload.registry.Find("HP-fall");

  std::vector<std::vector<EventTypeId>> candidates;
  for (EventTypeId x1 : {report, fall}) {
    for (EventTypeId x2 : {hp_rise, hp_fall, rise}) {
      for (EventTypeId x3 : {fall, hp_fall}) {
        candidates.push_back({rise, x1, x2, x3});
      }
    }
  }
  const EventSequence& seq = workload.sequence;
  const std::vector<std::size_t> roots = seq.OccurrencesOf(rise);
  ASSERT_GT(roots.size(), 5u);
  if (shared) {
    const SymbolMap symbols = SymbolMap::FromAllowed(
        {{rise}, {report, fall}, {hp_rise, hp_fall, rise}, {fall, hp_fall}},
        type_count);
    for (std::size_t at : roots) {
      const std::span<const Event> suffix = seq.SuffixFrom(at);
      const std::string id = "shared r" + std::to_string(at);
      MatchOptions anchored;
      anchored.anchored = true;
      SharedRunInto(corpus, id, matcher, suffix, symbols, anchored, scratch);
      MatchOptions windowed = anchored;
      windowed.deadline = suffix.front().time + 3 * kSecondsPerDay;
      SharedRunInto(corpus, id + " d3", matcher, suffix, symbols, windowed,
                    scratch);
      MatchOptions capped = anchored;
      capped.max_configurations = 12;
      SharedRunInto(corpus, id + " cap12", matcher, suffix, symbols, capped,
                    scratch);
      GovernorLimits limits;
      limits.check_stride = 1;
      limits.memory_budget_bytes = 2000;
      ResourceGovernor governor(limits);
      MatchOptions budgeted = anchored;
      budgeted.governor = &governor;
      SharedRunInto(corpus, id + " mem2000", matcher, suffix, symbols,
                    budgeted, scratch);
    }
    return;
  }
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    SymbolMap symbols = SymbolMap::FromAssignment(candidates[c], type_count);
    for (std::size_t at : roots) {
      const std::span<const Event> suffix = seq.SuffixFrom(at);
      const std::string id =
          "ex1 c" + std::to_string(c) + " r" + std::to_string(at);
      MatchOptions anchored;
      anchored.anchored = true;
      RunInto(corpus, id, matcher, suffix, symbols, anchored, scratch);
      MatchOptions windowed = anchored;
      windowed.deadline = suffix.front().time + 3 * kSecondsPerDay;
      RunInto(corpus, id + " d3", matcher, suffix, symbols, windowed, scratch);
      MatchOptions capped = anchored;
      capped.max_configurations = 6;
      RunInto(corpus, id + " cap6", matcher, suffix, symbols, capped, scratch);
      GovernorLimits limits;
      limits.check_stride = 1;
      limits.memory_budget_bytes = 400;
      ResourceGovernor governor(limits);
      MatchOptions budgeted = anchored;
      budgeted.governor = &governor;
      RunInto(corpus, id + " mem400", matcher, suffix, symbols, budgeted,
              scratch);
    }
  }
}

// The tag_match_test generator: a random rooted DAG with random toy TCGs.
class ToyStructures {
 public:
  ToyStructures() {
    unit_ = toy_.AddUniform("unit", 1);
    three_ = toy_.AddUniform("three", 3);
    five_ = toy_.AddUniform("five", 5);
    gapped_ = toy_.AddSynthetic("gapped", 4, {TimeSpan::Of(0, 2)});
  }

  EventStructure Random(Rng& rng, int n) {
    const Granularity* types[] = {unit_, three_, five_, gapped_};
    EventStructure s;
    for (int v = 0; v < n; ++v) s.AddVariable("X" + std::to_string(v));
    for (int v = 1; v < n; ++v) {
      int parent = static_cast<int>(rng.Uniform(0, v - 1));
      std::int64_t lo = rng.Uniform(0, 2);
      EXPECT_TRUE(s.AddConstraint(parent, v,
                                  Tcg::Of(lo, lo + rng.Uniform(0, 2),
                                          types[rng.Index(4)]))
                      .ok());
    }
    if (n >= 3 && rng.Bernoulli(0.5)) {
      int a = static_cast<int>(rng.Uniform(0, n - 2));
      int b = static_cast<int>(rng.Uniform(a + 1, n - 1));
      if (s.FindEdge(a, b) == nullptr) {
        std::int64_t lo = rng.Uniform(0, 2);
        EXPECT_TRUE(s.AddConstraint(a, b,
                                    Tcg::Of(lo, lo + rng.Uniform(0, 2),
                                            types[rng.Index(4)]))
                        .ok());
      }
    }
    return s;
  }

 private:
  GranularitySystem toy_;
  const Granularity* unit_;
  const Granularity* three_;
  const Granularity* five_;
  const Granularity* gapped_;
};

void RandomTagCorpus(Corpus* corpus, MatchScratch* scratch) {
  ToyStructures toy;
  Rng rng(20261017);
  const int kTypeCount = 3;
  for (int trial = 0; trial < 120; ++trial) {
    const int n = static_cast<int>(rng.Uniform(2, 5));
    EventStructure s = toy.Random(rng, n);
    Result<TagBuildResult> built = BuildTagForStructure(s);
    ASSERT_TRUE(built.ok()) << built.status();
    TagMatcher matcher(&built->tag);
    std::vector<EventTypeId> phi;
    for (int v = 0; v < n; ++v) {
      phi.push_back(static_cast<EventTypeId>(rng.Uniform(0, kTypeCount - 1)));
    }
    SymbolMap symbols = SymbolMap::FromAssignment(phi, kTypeCount);
    EventSequence seq;
    const std::size_t length = static_cast<std::size_t>(rng.Uniform(4, 24));
    TimePoint t = 0;
    for (std::size_t i = 0; i < length; ++i) {
      t += rng.Uniform(0, 3);  // zero gaps make equal-timestamp groups
      seq.Add(static_cast<EventTypeId>(rng.Uniform(0, kTypeCount - 1)), t);
    }
    const std::string id = "rnd t" + std::to_string(trial);
    RunInto(corpus, id + " free", matcher, seq.View(), symbols, {}, scratch);
    MatchOptions capped;
    capped.max_configurations = static_cast<std::uint64_t>(rng.Uniform(1, 12));
    RunInto(corpus, id + " cap", matcher, seq.View(), symbols, capped,
            scratch);

    VariableId root = *s.FindRoot();
    for (std::size_t at : seq.OccurrencesOf(phi[root])) {
      const std::span<const Event> suffix = seq.SuffixFrom(at);
      const std::string rid = id + " r" + std::to_string(at);
      MatchOptions anchored;
      anchored.anchored = true;
      RunInto(corpus, rid, matcher, suffix, symbols, anchored, scratch);
      MatchOptions windowed = anchored;
      windowed.deadline = suffix.front().time + rng.Uniform(0, 6);
      RunInto(corpus, rid + " d", matcher, suffix, symbols, windowed,
              scratch);
      GovernorLimits limits;
      limits.check_stride = 1;
      limits.memory_budget_bytes =
          static_cast<std::uint64_t>(rng.Uniform(40, 600));
      ResourceGovernor governor(limits);
      MatchOptions budgeted = anchored;
      budgeted.governor = &governor;
      RunInto(corpus, rid + " mem", matcher, suffix, symbols, budgeted,
              scratch);
    }
  }
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(TagKernelGoldenTest, RunStatsMatchTheRecordedCorpus) {
  Corpus corpus;
  MatchScratch scratch;
  Example1Corpus(&corpus, &scratch, /*shared=*/false);
  RandomTagCorpus(&corpus, &scratch);
  Example1Corpus(&corpus, &scratch, /*shared=*/true);
  ASSERT_FALSE(HasFatalFailure());

  // The corpus must reach every kind of run it claims to pin, with and
  // without bindings.
  int accepted = 0, rejected = 0, capped = 0, over_budget = 0;
  int shared_accepted = 0, shared_capped = 0, shared_over_budget = 0;
  const std::string mem_stop =
      " s=" + std::to_string(static_cast<int>(StopCause::kMemBudget));
  for (const std::string& line : corpus.lines()) {
    const bool shared = line.starts_with("shared ");
    if (line.find(" o=1 ") != std::string::npos) {
      ++(shared ? shared_accepted : accepted);
    }
    if (line.find(" o=0 ") != std::string::npos) ++rejected;
    if (line.find(" b=1 ") != std::string::npos) {
      ++(shared ? shared_capped : capped);
    }
    if (line.find(mem_stop) != std::string::npos) {
      ++(shared ? shared_over_budget : over_budget);
    }
  }
  EXPECT_GT(accepted, 50);
  EXPECT_GT(rejected, 50);
  EXPECT_GT(capped, 50);
  EXPECT_GT(over_budget, 50);
  EXPECT_GT(shared_accepted, 3);
  EXPECT_GT(shared_capped, 3);
  EXPECT_GT(shared_over_budget, 3);

  const std::string golden_path =
      std::string(GRANMINE_TEST_GOLDEN_DIR) + "/tag_kernel_runs.txt";
  const std::vector<std::string> golden = ReadLines(golden_path);
  if (golden != corpus.lines()) {
    const std::string actual_path =
        testing::TempDir() + "granmine_tag_kernel_runs.actual.txt";
    std::ofstream out(actual_path);
    for (const std::string& line : corpus.lines()) out << line << "\n";
    std::size_t first = 0;
    while (first < golden.size() && first < corpus.lines().size() &&
           golden[first] == corpus.lines()[first]) {
      ++first;
    }
    FAIL() << "kernel run stats diverge from " << golden_path << " at line "
           << first + 1 << " (golden has " << golden.size()
           << " lines, this build " << corpus.lines().size()
           << ")\n  golden: "
           << (first < golden.size() ? golden[first] : "<end>")
           << "\n  actual: "
           << (first < corpus.lines().size() ? corpus.lines()[first]
                                             : "<end>")
           << "\nthis build's corpus was written to " << actual_path;
  }
}

}  // namespace
}  // namespace granmine
