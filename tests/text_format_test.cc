#include "granmine/io/text_format.h"

#include <gtest/gtest.h>

#include "granmine/granularity/civil_calendar.h"

namespace granmine {
namespace {

class TextFormatTest : public testing::Test {
 protected:
  TextFormatTest() : system_(GranularitySystem::Gregorian()) {}
  std::unique_ptr<GranularitySystem> system_;
};

TEST_F(TextFormatTest, ParsesFigure1a) {
  const char* kText = R"(
    # Figure 1(a)
    rise -> report : [1,1] b-day
    report -> fall : [0,1] week
    rise -> hp     : [0,5] b-day
    hp -> fall     : [0,8] hour
  )";
  std::vector<std::string> names;
  auto structure = ParseEventStructure(kText, *system_, &names);
  ASSERT_TRUE(structure.ok()) << structure.status();
  EXPECT_EQ(structure->variable_count(), 4);
  EXPECT_EQ(names, (std::vector<std::string>{"rise", "report", "fall", "hp"}));
  EXPECT_TRUE(structure->FindRoot().ok());
  const std::vector<Tcg>* tcgs = structure->FindEdge(0, 1);
  ASSERT_NE(tcgs, nullptr);
  EXPECT_EQ((*tcgs)[0].ToString(), "[1,1]b-day");
}

TEST_F(TextFormatTest, ParsesConjunctionsAndInf) {
  auto structure = ParseEventStructure(
      "a -> b : [11,11] month, [0,0] year\n"
      "a -> c : [1,inf] day\n",
      *system_);
  ASSERT_TRUE(structure.ok()) << structure.status();
  const std::vector<Tcg>* ab = structure->FindEdge(0, 1);
  ASSERT_NE(ab, nullptr);
  ASSERT_EQ(ab->size(), 2u);
  EXPECT_EQ((*ab)[1].ToString(), "[0,0]year");
  const std::vector<Tcg>* ac = structure->FindEdge(0, 2);
  ASSERT_NE(ac, nullptr);
  EXPECT_EQ((*ac)[0].ToString(), "[1,inf]day");
}

TEST_F(TextFormatTest, StructureParserRejectsGarbage) {
  EXPECT_FALSE(ParseEventStructure("a b : [0,1] day", *system_).ok());
  EXPECT_FALSE(ParseEventStructure("a -> b [0,1] day", *system_).ok());
  EXPECT_FALSE(ParseEventStructure("a -> b : [0,1] years!", *system_).ok());
  EXPECT_FALSE(ParseEventStructure("a -> b : [x,1] day", *system_).ok());
  EXPECT_FALSE(ParseEventStructure("a -> b : [5,1] day", *system_).ok());
  EXPECT_FALSE(ParseEventStructure("a -> a : [0,1] day", *system_).ok());
  EXPECT_TRUE(ParseEventStructure("  # only comments\n\n", *system_).ok());
}

TEST_F(TextFormatTest, StructureErrorsCarryLineAndColumn) {
  // Bad interval bound on line 2: "a -> b : [x,1] day". The 'x' sits at
  // column 11 of the trimmed-at-source line below (1-based, counting from
  // the raw line start including leading spaces).
  auto bad_lo = ParseEventStructure(
      "a -> c : [0,1] day\n"
      "a -> b : [x,1] day\n",
      *system_);
  ASSERT_FALSE(bad_lo.ok());
  EXPECT_NE(bad_lo.status().message().find("line 2"), std::string::npos)
      << bad_lo.status();
  EXPECT_NE(bad_lo.status().message().find("column 11"), std::string::npos)
      << bad_lo.status();
  EXPECT_NE(bad_lo.status().message().find("expected an integer"),
            std::string::npos)
      << bad_lo.status();

  // Bad upper bound, with leading whitespace shifting the column.
  auto bad_hi = ParseEventStructure("  a -> b : [0,?] day\n", *system_);
  ASSERT_FALSE(bad_hi.ok());
  EXPECT_NE(bad_hi.status().message().find("line 1, column 15"),
            std::string::npos)
      << bad_hi.status();

  // Unknown granularity names point at the name, not the line start.
  auto bad_gran = ParseEventStructure("a -> b : [0,1] years!\n", *system_);
  ASSERT_FALSE(bad_gran.ok());
  EXPECT_NE(bad_gran.status().message().find("line 1, column 16"),
            std::string::npos)
      << bad_gran.status();
  EXPECT_NE(bad_gran.status().message().find("unknown granularity"),
            std::string::npos)
      << bad_gran.status();
}

TEST_F(TextFormatTest, SequenceErrorsCarryLineAndColumn) {
  EventTypeRegistry registry;
  auto bad = ParseEventSequence(
      "3600 tick\n"
      "1970-99-01 foo\n",
      &registry);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2, column 1"),
            std::string::npos)
      << bad.status();
}

TEST_F(TextFormatTest, GranularityDefinitions) {
  auto system = GranularitySystem::Gregorian();
  // Every constructor once.
  auto shift = ParseGranularityDefinition("shift", "group(hour, 8)",
                                          system.get());
  ASSERT_TRUE(shift.ok()) << shift.status();
  EXPECT_EQ((*shift)->TickHull(1), TimeSpan::Of(0, 8 * 3600 - 1));
  auto fiscal = ParseGranularityDefinition(
      "fiscal-year", "group(month, 12, 3)", system.get());
  ASSERT_TRUE(fiscal.ok()) << fiscal.status();
  auto tiny = ParseGranularityDefinition("tiny", "uniform(10, -3)",
                                         system.get());
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ((*tiny)->TickHull(1), TimeSpan::Of(-3, 6));
  auto odd = ParseGranularityDefinition("odd-day", "filter(day, 2, 0)",
                                        system.get());
  ASSERT_TRUE(odd.ok()) << odd.status();
  EXPECT_EQ((*odd)->TickHull(2)->first, 2 * 86400);
  auto synth = ParseGranularityDefinition("blip", "synthetic(10, 0-2 5-6)",
                                          system.get());
  ASSERT_TRUE(synth.ok()) << synth.status();
  EXPECT_EQ((*synth)->TickHull(2), TimeSpan::Of(5, 6));
  auto by = ParseGranularityDefinition("odd-by-month",
                                       "groupby(odd-day, month)",
                                       system.get());
  ASSERT_TRUE(by.ok()) << by.status();

  // Errors.
  EXPECT_FALSE(
      ParseGranularityDefinition("shift", "uniform(5)", system.get()).ok());
  EXPECT_FALSE(
      ParseGranularityDefinition("x", "frobnicate(3)", system.get()).ok());
  EXPECT_FALSE(
      ParseGranularityDefinition("y", "group(nope, 2)", system.get()).ok());
  EXPECT_FALSE(
      ParseGranularityDefinition("z", "uniform(0)", system.get()).ok());
  EXPECT_FALSE(
      ParseGranularityDefinition("w", "synthetic(5, 3-9)", system.get())
          .ok());
}

TEST_F(TextFormatTest, StructureWithInlineGranularity) {
  auto system = GranularitySystem::Gregorian();
  const char* kText = R"(
    granularity shift = group(hour, 8)
    open -> close : [0,0] shift
  )";
  auto structure = ParseEventStructure(kText, system.get());
  ASSERT_TRUE(structure.ok()) << structure.status();
  EXPECT_EQ(structure->variable_count(), 2);
  ASSERT_NE(system->Find("shift"), nullptr);
  const std::vector<Tcg>* tcgs = structure->FindEdge(0, 1);
  ASSERT_NE(tcgs, nullptr);
  EXPECT_EQ((*tcgs)[0].granularity, system->Find("shift"));
  // The const overload rejects declarations.
  EXPECT_FALSE(ParseEventStructure(
                   kText, static_cast<const GranularitySystem&>(*system))
                   .ok());
}

// Two structure files that used to abort granmine_cli and granmine_serve
// --structure (exit 134) on a failed GM_CHECK: a filter repeating a kept
// offset, and a group-by whose outer ticks hold no inner tick. Both must
// be parse errors that leave the system usable.
TEST_F(TextFormatTest, MalformedFilterAndGroupByAreParseErrors) {
  auto system = GranularitySystem::Gregorian();
  const struct {
    const char* text;
    const char* reason;
  } kCases[] = {
      {"granularity x = filter(day, 7, 0 0)\na -> b : [0,1] x\n",
       "sorted and distinct"},
      {"granularity x = groupby(month, day)\na -> b : [0,1] x\n",
       "contains no tick of month"},
      {"granularity x = filter(day, 9223372036854775807, 0)\n"
       "a -> b : [0,1] x\n",
       "too large for its base's hull arithmetic"},
  };
  for (const auto& c : kCases) {
    auto structure = ParseEventStructure(c.text, system.get());
    ASSERT_FALSE(structure.ok()) << c.text;
    EXPECT_EQ(structure.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(structure.status().message().find(c.reason), std::string::npos)
        << structure.status();
    EXPECT_EQ(system->Find("x"), nullptr);
  }
  // The refused definitions left no trace: the name is still free.
  auto fine = ParseEventStructure(
      "granularity x = filter(day, 7, 0 1)\na -> b : [0,1] x\n",
      system.get());
  EXPECT_TRUE(fine.ok()) << fine.status();
}

TEST_F(TextFormatTest, ParsesCivilTimestamps) {
  auto t = ParseTimePoint("1970-01-05 10:30:00");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 4 * kSecondsPerDay + 10 * 3600 + 30 * 60);
  auto midnight = ParseTimePoint("1970-01-02");
  ASSERT_TRUE(midnight.ok());
  EXPECT_EQ(*midnight, kSecondsPerDay);
  EXPECT_FALSE(ParseTimePoint("1970-13-01").ok());
  EXPECT_FALSE(ParseTimePoint("1970-02-30").ok());
  EXPECT_FALSE(ParseTimePoint("1970-01-01 25:00:00").ok());
  EXPECT_FALSE(ParseTimePoint("yesterday").ok());
  // Day-grained calendars reject time-of-day.
  EXPECT_FALSE(ParseTimePoint("1970-01-01 10:00:00", 1).ok());
  auto day_grained = ParseTimePoint("1970-01-03", 1);
  ASSERT_TRUE(day_grained.ok());
  EXPECT_EQ(*day_grained, 2);
}

TEST_F(TextFormatTest, ParsesEventSequences) {
  EventTypeRegistry registry;
  auto seq = ParseEventSequence(
      "1970-01-05 10:00:00  IBM-rise\n"
      "1970-01-06           IBM-earnings-report  # midnight\n"
      "3600                 tick\n",
      &registry);
  ASSERT_TRUE(seq.ok()) << seq.status();
  ASSERT_EQ(seq->size(), 3u);
  EXPECT_EQ(registry.size(), 3);
  // Sorted by time: the raw-seconds event comes first.
  EXPECT_EQ(seq->events()[0].time, 3600);
  EXPECT_EQ(registry.name(seq->events()[0].type), "tick");
  EXPECT_EQ(seq->events()[1].time, 4 * kSecondsPerDay + 10 * 3600);
}

TEST_F(TextFormatTest, SequenceParserRejectsGarbage) {
  EventTypeRegistry registry;
  EXPECT_FALSE(ParseEventSequence("loneword\n", &registry).ok());
  EXPECT_FALSE(ParseEventSequence("1970-99-01 foo\n", &registry).ok());
}

TEST_F(TextFormatTest, FormatTimePointRoundTrip) {
  EXPECT_EQ(FormatTimePoint(0), "1970-01-01 Thu 00:00:00");
  EXPECT_EQ(FormatTimePoint(4 * kSecondsPerDay + 10 * 3600 + 30 * 60 + 5),
            "1970-01-05 Mon 10:30:05");
  EXPECT_EQ(FormatTimePoint(2, 1), "1970-01-03 Sat");
  // Round trip through the parser.
  auto parsed = ParseTimePoint("2001-09-09 01:46:40");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(FormatTimePoint(*parsed), "2001-09-09 Sun 01:46:40");
}

}  // namespace
}  // namespace granmine
