#include "bench/table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "bench/parallel_runner.h"

namespace speedkit::bench {
namespace {

// Prints a table under capture and returns its lines (title line dropped).
std::vector<std::string> PrintedLines(
    const std::vector<Column>& columns,
    const std::vector<std::vector<JsonValue>>& rows) {
  ::testing::internal::CaptureStdout();
  Table table("", "", columns);
  for (const auto& cells : rows) table.Add(cells);
  std::istringstream out(::testing::internal::GetCapturedStdout());
  std::vector<std::string> lines;
  for (std::string line; std::getline(out, line);) lines.push_back(line);
  return lines;
}

// Where each space-separated field of a line ends, in code points.
std::vector<size_t> FieldEnds(const std::string& line) {
  std::vector<size_t> ends;
  size_t column = 0;
  bool in_field = false;
  for (char c : line) {
    if ((c & 0xC0) == 0x80) continue;  // UTF-8 continuation byte
    bool space = c == ' ';
    if (in_field && space) ends.push_back(column);
    in_field = !space;
    ++column;
  }
  if (in_field) ends.push_back(column);
  return ends;
}

TEST(TableTest, RowJsonMatchesTheHandBuiltRow) {
  ::testing::internal::CaptureStdout();
  Table table("title", "sec",
              {{"name"}, {"count"}, {"ratio", 3, true}, {"bytes"},
               {.key = "per_seed", .json_only = true}});
  const uint64_t bytes = uint64_t{1} << 40;  // a double would print 1.1e+12
  JsonValue stats = JsonSeedStats(SeedStatsOfValues({1.0, 3.0}));
  JsonValue row = table.Add({"x", 42, 0.125, bytes, stats});
  ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(row.Dump(), JsonRow({{"section", "sec"},
                                 {"name", "x"},
                                 {"count", 42},
                                 {"ratio", 0.125},
                                 {"bytes", bytes},
                                 {"per_seed", stats}})
                            .Dump());
}

TEST(TableTest, PercentColumnPrintsHundredfoldButStoresTheRatio) {
  ::testing::internal::CaptureStdout();
  Table table("", "", {{"hit_rate", 1, true}});
  JsonValue row = table.Add({0.1234});
  std::string text = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(text.find("12.3%"), std::string::npos) << text;
  EXPECT_EQ(row.Dump(0), JsonRow({{"hit_rate", 0.1234}}).Dump(0));
}

TEST(TableTest, SeedStatsCellPrintsMeanAndStddev) {
  std::vector<std::string> lines = PrintedLines(
      {{"hit_rate", 1, true}},
      {{JsonSeedStats(SeedStatsOfValues({0.25, 0.35}))}});
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("30.0%±5.0"), std::string::npos) << lines[1];
}

TEST(TableTest, JsonOnlyColumnIsNotPrinted) {
  ::testing::internal::CaptureStdout();
  Table table("", "", {{"shown"}, {.key = "hidden", .json_only = true}});
  JsonValue row = table.Add({1, 987654});
  std::string text = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(text.find("hidden"), std::string::npos) << text;
  EXPECT_EQ(text.find("987654"), std::string::npos) << text;
  ASSERT_NE(row.Find("hidden"), nullptr);
  EXPECT_EQ(row.Find("hidden")->Dump(), "987654");
}

// A header and its cells share one width per column, so no column can
// print to the right of its header.
TEST(TableTest, HeaderAndEveryRowEndEachColumnAtTheSameOffset) {
  const std::vector<std::vector<Column>> tables = {
      {{"delta_s"}, {"sketch_refreshes"}, {"max_stale_s"}},
      {{.key = "system", .width = 18}, {"p50_ms", 1}, {"hit_rate", 1, true}},
      {{"k"}, {.key = "skipped", .json_only = true}, {"measured_fpr", 4, true}},
  };
  const std::vector<std::vector<std::vector<JsonValue>>> rows = {
      {{5, uint64_t{931}, 0.0}, {120, uint64_t{196}, 27.2}},
      {{"speed_kit", 112.6,
        JsonSeedStats(SeedStatsOfValues({0.28, 0.30}))},
       {"pure_invalidation", 108.5,
        JsonSeedStats(SeedStatsOfValues({0.34, 0.35}))}},
      {{1, "x", 0.0841}, {12, "y", 0.0003}},
  };
  for (size_t t = 0; t < tables.size(); ++t) {
    std::vector<std::string> lines = PrintedLines(tables[t], rows[t]);
    ASSERT_EQ(lines.size(), rows[t].size() + 1);
    const std::vector<size_t> header = FieldEnds(lines[0]);
    for (size_t r = 1; r < lines.size(); ++r) {
      EXPECT_EQ(FieldEnds(lines[r]), header)
          << "table " << t << ":\n" << lines[0] << "\n" << lines[r];
    }
  }
}

TEST(TableDeathTest, CellCountMismatchDiesNamingTheTable) {
  ::testing::internal::CaptureStdout();
  Table table("", "delta_traffic", {{"delta_s"}, {"reads"}});
  ::testing::internal::GetCapturedStdout();
  EXPECT_DEATH(table.Add({5}), "table 'delta_traffic' got 1 cells for 2");
}

TEST(HarnessTest, BareJsonAndTheThreadBudget) {
  char* argv[] = {const_cast<char*>("fig_x"), const_cast<char*>("--json"),
                  const_cast<char*>("--shards=2"),
                  const_cast<char*>("--threads=4")};
  Harness h(4, argv, "x");
  EXPECT_EQ(h.json_path(), "BENCH_x.json");

  // One trial: the whole budget runs the trial's shards.
  RunSpec single = h.Spec();
  EXPECT_EQ(single.stack.shards, 2);
  EXPECT_EQ(single.run_threads, 4);
  std::vector<RunSpec> one = {DefaultRunSpec()};
  EXPECT_EQ(h.Apply(&one, /*num_seeds=*/1), 1);
  EXPECT_EQ(one[0].run_threads, 4);

  // More than one trial: the budget fans out, each trial runs on one.
  std::vector<RunSpec> seeded = {DefaultRunSpec()};
  EXPECT_EQ(h.Apply(&seeded, /*num_seeds=*/3), 4);
  EXPECT_EQ(seeded[0].run_threads, 1);
  EXPECT_EQ(seeded[0].stack.shards, 2);
  std::vector<RunSpec> two = {DefaultRunSpec(), DefaultRunSpec()};
  EXPECT_EQ(h.Apply(&two, /*num_seeds=*/1), 4);
  EXPECT_EQ(two[1].run_threads, 1);
}

// A harness built from `args` (after the program name). Flags copies what
// it parses, so `args` may go once the harness is built.
Harness HarnessWith(std::vector<std::string> args) {
  args.insert(args.begin(), "fig_x");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return Harness(static_cast<int>(argv.size()), argv.data(), "x");
}

// Every harness checks its flags before its first run: a flag nothing
// reads exits 2, whether misspelled or of no use to that harness, and the
// shared flags the harness reads later pass.
TEST(HarnessDeathTest, RejectUnreadFlagsExitsTwoOnAFlagNothingReads) {
  Harness sweep = HarnessWith({"--json=x.json", "--seeds=3", "--threads=2",
                               "--shards=1", "--coherence=serializable",
                               "--trace"});
  sweep.RejectUnreadFlags(SharedFlags::kSweep);  // returns: all were read

  auto check = [](std::string arg, SharedFlags later) {
    HarnessWith({std::move(arg)}).RejectUnreadFlags(later);
  };
  EXPECT_EXIT(check("--sedes=3", SharedFlags::kSweep),
              ::testing::ExitedWithCode(2), "x: unused flag --sedes");
  // --seeds is a sweep's flag; a RunSpec-driven harness has no use for it.
  EXPECT_EXIT(check("--seeds=3", SharedFlags::kSpec),
              ::testing::ExitedWithCode(2), "unused flag --seeds");
  EXPECT_EXIT(check("--jsn=x.json", SharedFlags::kNone),
              ::testing::ExitedWithCode(2), "unused flag --jsn");
  EXPECT_EXIT(check("--trace", SharedFlags::kNone),
              ::testing::ExitedWithCode(2), "unused flag --trace");

  // A harness's own flag passes once the harness has read it.
  Harness own = HarnessWith({"--num-clients=8"});
  EXPECT_EQ(own.flags().GetInt("num-clients", 256), 8);
  own.RejectUnreadFlags(SharedFlags::kNone);
}

TEST(JsonWriterTest, JsonPathFromFlagResolution) {
  EXPECT_EQ(Harness::JsonPath("", "baselines"), "");
  EXPECT_EQ(Harness::JsonPath("true", "baselines"), "BENCH_baselines.json");
  EXPECT_EQ(Harness::JsonPath("/tmp/out.json", "baselines"), "/tmp/out.json");
}

}  // namespace
}  // namespace speedkit::bench
