// Golden pin of the frozen granularity caches: for the Gregorian families
// (second- and day-grained, each with and without a holiday list running
// past 2000), every sealed Appendix-A.1 table row and the support-coverage
// matrix that `ExportFrozenImage` returns must equal the recorded values in
// tests/golden/frozen_images.txt. A warm start trusts exactly these values,
// so any rewrite of the seal scans or of the tick arithmetic under them must
// reproduce them bit for bit.
//
// On a mismatch the test writes the image it computed next to the other
// test temporaries and names the file; regenerate the golden only for a
// change that is meant to alter a table value or a coverage answer.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "granmine/granularity/system.h"

namespace granmine {
namespace {

// Weekday and weekend dates from 1970 to 2004; the weekend ones are dropped
// by the factory, the weekday ones stretch the business types' exception
// window past 2000.
std::vector<CivilDate> LongHolidayList() {
  return {{1970, 12, 25}, {1971, 1, 1},  {1976, 7, 5},   {1985, 7, 4},
          {1992, 12, 25}, {1999, 12, 31}, {2000, 1, 1}, {2000, 2, 29},
          {2001, 12, 25}, {2004, 7, 5}};
}

void AppendRow(const char* label, const std::vector<std::int64_t>& values,
               std::vector<std::string>* lines) {
  std::ostringstream os;
  os << "  " << label;
  for (std::size_t k = 1; k < values.size(); ++k) {
    os << ' ';
    if (values[k] == GranularityTables::kSealedNoValue) {
      os << '-';
    } else {
      os << values[k];
    }
  }
  lines->push_back(os.str());
}

void AppendImage(const std::string& family, GranularitySystem* system,
                 std::vector<std::string>* lines) {
  ASSERT_TRUE(system->Freeze().ok());
  Result<FrozenSystemImage> image = system->ExportFrozenImage();
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  lines->push_back("family " + family + " k_cap " +
                   std::to_string(image->sealed_k_cap));
  const std::size_t n = image->names.size();
  ASSERT_EQ(image->table_rows.size(), n);
  for (std::size_t id = 0; id < n; ++id) {
    lines->push_back("gran " + image->names[id]);
    AppendRow("minsize", image->table_rows[id].minsize, lines);
    AppendRow("maxsize", image->table_rows[id].maxsize, lines);
    AppendRow("mingap", image->table_rows[id].mingap, lines);
  }
  ASSERT_EQ(image->coverage.size(), n * n);
  for (std::size_t target = 0; target < n; ++target) {
    std::string row = "covers " + image->names[target] + " ";
    for (std::size_t source = 0; source < n; ++source) {
      row += image->coverage[target * n + source] ? '1' : '0';
    }
    lines->push_back(row);
  }
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(FrozenImageGoldenTest, SealedTablesAndCoverageMatchTheRecordedImages) {
  std::vector<std::string> lines;
  AppendImage("Gregorian", GranularitySystem::Gregorian().get(), &lines);
  AppendImage("GregorianDays", GranularitySystem::GregorianDays().get(),
              &lines);
  AppendImage("Gregorian+holidays",
              GranularitySystem::Gregorian(LongHolidayList()).get(), &lines);
  AppendImage("GregorianDays+holidays",
              GranularitySystem::GregorianDays(LongHolidayList()).get(),
              &lines);
  ASSERT_FALSE(HasFatalFailure());

  const std::string golden_path =
      std::string(GRANMINE_TEST_GOLDEN_DIR) + "/frozen_images.txt";
  const std::vector<std::string> golden = ReadLines(golden_path);
  if (golden != lines) {
    const std::string actual_path =
        testing::TempDir() + "granmine_frozen_images.actual.txt";
    std::ofstream out(actual_path);
    for (const std::string& line : lines) out << line << "\n";
    std::size_t first = 0;
    while (first < golden.size() && first < lines.size() &&
           golden[first] == lines[first]) {
      ++first;
    }
    FAIL() << "frozen image diverges from " << golden_path << " at line "
           << first + 1 << " (golden has " << golden.size()
           << " lines, this build " << lines.size() << ")\n  golden: "
           << (first < golden.size() ? golden[first] : "<end>")
           << "\n  actual: "
           << (first < lines.size() ? lines[first] : "<end>")
           << "\nthis build's image was written to " << actual_path;
  }
}

}  // namespace
}  // namespace granmine
