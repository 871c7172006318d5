// Malformed-input hardening for the text parsers: every prefix truncation,
// single-byte corruption, and seeded random mutation of realistic inputs
// must either parse or return InvalidArgument — never crash, hang, or
// invoke UB (run under GRANMINE_SANITIZE=address,undefined to certify).

#include "granmine/io/text_format.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "granmine/common/random.h"

namespace granmine {
namespace {

const char* const kStructureSeeds[] = {
    "# the Figure-1(a) structure\n"
    "rise -> report : [1,1] b-day\n"
    "report -> fall : [0,1] week\n"
    "rise -> hp     : [0,5] b-day\n"
    "hp -> fall     : [0,8] hour\n",

    "granularity shift       = group(hour, 8)\n"
    "granularity fiscal-year = group(month, 12, 3)\n"
    "granularity oddball     = synthetic(7, 0-1 3-3 5-6)\n"
    "granularity sparse      = filter(day, 10, 0 2 4)\n"
    "granularity fine        = uniform(30, 5)\n"
    "open -> close : [0,0] shift\n"
    "close -> audit : [1,2] fiscal-year, [0,9] oddball\n",

    "granularity dup = filter(day, 7, 0 0)\n"
    "granularity empty = groupby(month, day)\n"
    "a -> b : [0,1] b-day\n",

    "a -> b : [0,inf] day\n"
    "b -> c : [-3,3] hour, [0,1] week\n"
    "c -> a : [2,2] month\n",
};

const char* const kSequenceSeeds[] = {
    "1970-01-05 10:00:00  IBM-rise\n"
    "1970-01-06           IBM-earnings-report   # midnight\n"
    "3600                 tick                  # raw seconds also fine\n"
    "-86400               before-epoch\n"
    "2024-02-29 23:59:59  leap-day\n",

    "0 alpha\n"
    "1 beta\n"
    "1 alpha\n"
    "9223372036854775807 max\n",
};

// A cheap stand-in for the Gregorian system defining every granularity name
// the seeds mention. Building the real calendar costs tens of milliseconds —
// far too much for tens of thousands of mutants — and the parsers only need
// name resolution, not calendar semantics.
std::unique_ptr<GranularitySystem> MakeToySystem() {
  auto system = std::make_unique<GranularitySystem>();
  const Granularity* hour = system->AddUniform("hour", 1);
  const Granularity* day = system->AddGroup("day", hour, 24);
  system->AddGroup("week", day, 7);
  system->AddGroup("month", day, 30);
  system->AddFilter("b-day", day, PeriodicPattern{7, {0, 1, 2, 3, 4}});
  return system;
}

// Runs one corrupted input through every parser entry point and asserts the
// malformed-input contract for each.
void ExpectParsersSurvive(const std::string& text) {
  {
    auto system = MakeToySystem();
    std::vector<std::string> names;
    Result<EventStructure> structure =
        ParseEventStructure(text, system.get(), &names);
    if (!structure.ok()) {
      EXPECT_EQ(structure.status().code(), StatusCode::kInvalidArgument)
          << structure.status() << "\ninput:\n"
          << text;
    }
  }
  {
    // The const overload must also reject granularity declarations cleanly.
    auto system = MakeToySystem();
    const GranularitySystem& const_system = *system;
    Result<EventStructure> structure = ParseEventStructure(text, const_system);
    if (!structure.ok()) {
      EXPECT_EQ(structure.status().code(), StatusCode::kInvalidArgument);
    }
  }
  for (std::int64_t units_per_day : {std::int64_t{86400}, std::int64_t{1}}) {
    EventTypeRegistry registry;
    Result<EventSequence> sequence =
        ParseEventSequence(text, &registry, units_per_day);
    if (!sequence.ok()) {
      EXPECT_EQ(sequence.status().code(), StatusCode::kInvalidArgument)
          << sequence.status() << "\ninput:\n"
          << text;
    }
  }
}

std::vector<std::string> AllSeeds() {
  std::vector<std::string> seeds;
  for (const char* seed : kStructureSeeds) seeds.emplace_back(seed);
  for (const char* seed : kSequenceSeeds) seeds.emplace_back(seed);
  return seeds;
}

TEST(TextFormatFuzzTest, EveryPrefixTruncationIsHandled) {
  for (const std::string& seed : AllSeeds()) {
    for (std::size_t length = 0; length <= seed.size(); ++length) {
      ExpectParsersSurvive(seed.substr(0, length));
    }
  }
}

TEST(TextFormatFuzzTest, EverySingleByteCorruptionIsHandled) {
  // A spread of corruptions: syntax characters the grammars key on, NUL,
  // high-bit bytes, and a bit flip of the original.
  const char kReplacements[] = {'[', ']', ',', ':', '-', '>', '(',  ')',
                                '#', '=', ' ', '\n', '\0', '\x80', '9'};
  for (const std::string& seed : AllSeeds()) {
    for (std::size_t position = 0; position < seed.size(); ++position) {
      for (char replacement : kReplacements) {
        std::string mutated = seed;
        mutated[position] = replacement;
        ExpectParsersSurvive(mutated);
      }
      std::string flipped = seed;
      flipped[position] = static_cast<char>(flipped[position] ^ 0x10);
      ExpectParsersSurvive(flipped);
    }
  }
}

TEST(TextFormatFuzzTest, SeededRandomMutationsAreHandled) {
  const std::vector<std::string> seeds = AllSeeds();
  Rng rng(20260805);
  const char kAlphabet[] = "[],:->()#=ab19 \n\t\0inf-uniform,group";
  for (int iteration = 0; iteration < 3000; ++iteration) {
    std::string text = seeds[rng.Index(seeds.size())];
    const int edits = static_cast<int>(rng.Uniform(1, 8));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      switch (rng.Uniform(0, 2)) {
        case 0:  // replace a byte
          text[rng.Index(text.size())] =
              kAlphabet[rng.Index(sizeof(kAlphabet) - 1)];
          break;
        case 1:  // delete a byte
          text.erase(rng.Index(text.size()), 1);
          break;
        default:  // insert a byte
          text.insert(rng.Index(text.size() + 1), 1,
                      kAlphabet[rng.Index(sizeof(kAlphabet) - 1)]);
          break;
      }
    }
    ExpectParsersSurvive(text);
  }
}

TEST(TextFormatFuzzTest, HostileTimePointsAreRejectedNotCrashed) {
  const char* const kStamps[] = {
      "",
      "-",
      "--",
      "1970-01-05",
      "1970-1-5",
      "1970-01-05 10:00:00",
      "1970-13-01",
      "1970-00-01",
      "1970-02-30",
      "1900-02-29",  // not a leap year
      "2000-02-29",  // a leap year
      "1970-01-05 24:00:00",
      "1970-01-05 10:60:00",
      "1970-01-05 10:00:60",
      "1970-01-05 -1:00:00",
      "2147483647-01-01",
      "-2147483648-12-31",
      "99999999999999999999-01-01",
      "1970-01-05 10:00",
      "nonsense",
      "1970--01--05",
      "١٩٧٠-٠١-٠٥",  // non-ASCII digits
  };
  for (const char* stamp : kStamps) {
    for (std::int64_t units_per_day : {std::int64_t{86400}, std::int64_t{1}}) {
      Result<TimePoint> parsed = ParseTimePoint(stamp, units_per_day);
      if (!parsed.ok()) {
        EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
            << stamp;
      }
    }
  }
  // Round-trip sanity on the seeds that must parse.
  auto epoch_week = ParseTimePoint("1970-01-05");
  ASSERT_TRUE(epoch_week.ok());
  EXPECT_EQ(*epoch_week, 4 * 86400);
}

TEST(TextFormatFuzzTest, HostileGranularityDefinitionsAreRejected) {
  const char* const kExpressions[] = {
      "uniform()",
      "uniform(0)",
      "uniform(-5)",
      "uniform(1, 2, 3)",
      "uniform(9223372036854775808)",  // int64 overflow
      "group(day)",
      "group(nope, 2)",
      "group(day, 0)",
      "group(day, 2, -1)",
      "groupby(day)",
      "groupby(day, nope)",
      "filter(day, 7)",
      "filter(day, 7, )",
      "filter(day, 7, 9)",
      "filter(day, 7, -1)",
      "filter(day, 7, 0 0)",      // repeated offset
      "filter(day, 7, 3 1 3)",    // repeated after sorting
      "filter(day, 9223372036854775807, 0)",  // hulls overflow int64
      "groupby(month, day)",      // outer ticks hold no inner tick
      "groupby(week, b-day)",     // no b-day holds a whole week
      "groupby(week, month)",     // weeks straddle months
      "group(day, 200000000000000)",
      "group(month, 9000000000000000)",
      "synthetic(7)",
      "synthetic(7, 5)",
      "synthetic(7, 5-3)",
      "synthetic(7, 0-9)",
      "synthetic(7, -1-2)",
      "synthetic(7, 3-3 0-1)",    // unsorted
      "synthetic(7, 0-3 2-5)",    // overlapping
      "wat(1)",
      "uniform",
      "uniform(",
      "(1)",
      "",
  };
  int index = 0;
  for (const char* expression : kExpressions) {
    auto system = MakeToySystem();
    std::string name = "fuzz-" + std::to_string(index++);
    Result<const Granularity*> defined =
        ParseGranularityDefinition(name, expression, system.get());
    if (!defined.ok()) {
      EXPECT_EQ(defined.status().code(), StatusCode::kInvalidArgument)
          << expression;
    }
  }
  // Shapes the parser accepts syntactically but the granularity layer must
  // refuse (they once aborted the process on a GM_CHECK).
  for (const char* expression :
       {"filter(day, 7, 0 0)", "groupby(month, day)", "groupby(week, b-day)",
        "filter(day, 9223372036854775807, 0)", "groupby(week, month)",
        "synthetic(7, 3-3 0-1)", "synthetic(7, 0-3 2-5)",
        "group(month, 9000000000000000)"}) {
    auto system = MakeToySystem();
    Result<const Granularity*> defined =
        ParseGranularityDefinition("hostile", expression, system.get());
    ASSERT_FALSE(defined.ok()) << expression;
    EXPECT_EQ(defined.status().code(), StatusCode::kInvalidArgument)
        << expression;
  }
  // In a structure file they are parse errors naming the line.
  for (const char* definition : {"granularity x = synthetic(7, 3-3 0-1)\n",
                                 "granularity x = synthetic(7, 0-3 2-5)\n",
                                 "granularity x = groupby(week, month)\n"}) {
    auto system = MakeToySystem();
    Result<EventStructure> structure = ParseEventStructure(
        std::string("a -> b : [0,1] day\n") + definition, system.get());
    ASSERT_FALSE(structure.ok()) << definition;
    EXPECT_EQ(structure.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(structure.status().message().rfind("line 2: ", 0), 0u)
        << structure.status();
  }
  // On the real calendar, with holidays: groupings whose hulls overflow
  // int64 are refused, and grouping the eventually periodic b-day compiles.
  auto calendar = GranularitySystem::Gregorian(
      {CivilDate{1970, 1, 2}, CivilDate{1970, 12, 25}});
  for (const char* expression :
       {"group(day, 200000000000000)", "group(month, 9000000000000000)"}) {
    Result<const Granularity*> defined =
        ParseGranularityDefinition("hostile", expression, calendar.get());
    ASSERT_FALSE(defined.ok()) << expression;
    EXPECT_EQ(defined.status().code(), StatusCode::kInvalidArgument)
        << expression;
  }
  Result<const Granularity*> five =
      ParseGranularityDefinition("five", "group(b-day, 5)", calendar.get());
  ASSERT_TRUE(five.ok()) << five.status();
  const Granularity& b_day = *calendar->Find("b-day");
  for (Tick z : {1, 2, 50, 51, 52, 400}) {
    EXPECT_EQ((*five)->TickHull(z),
              TimeSpan::Of(b_day.TickHull(5 * z - 4)->first,
                           b_day.TickHull(5 * z)->last))
        << z;
  }
}

}  // namespace
}  // namespace granmine
