#include "tools/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace speedkit::tools {
namespace {

// Flags copies what it parses, so `args` may go once it is built.
Flags Parse(std::vector<std::string> args) {
  args.insert(args.begin(), "tool");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

// Every getter and Has marks its flag read; what no call asked for is
// reported, whether misspelled or ignored by the mode the tool ran in.
TEST(FlagsTest, UnreadNamesTheFlagsNoGetterAsked) {
  Flags flags = Parse({"--coherance=serializable", "--seed=3", "--zipf", "0.9",
                       "--verbose", "--width=7", "--trace=t.csv", "input"});
  EXPECT_EQ(flags.Unread(),
            (std::vector<std::string>{"coherance", "seed", "trace", "verbose",
                                      "width", "zipf"}));

  EXPECT_EQ(flags.GetString("coherence", "delta_atomic"), "delta_atomic");
  EXPECT_EQ(flags.GetInt("seed", 42), 3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("zipf", 0.95), 0.9);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_TRUE(flags.Has("trace"));
  EXPECT_EQ(flags.Unread(), (std::vector<std::string>{"coherance", "width"}));

  EXPECT_EQ(flags.GetInt("width", 56), 7);
  EXPECT_EQ(flags.Unread(), std::vector<std::string>{"coherance"});
  // Positional arguments are not flags.
  EXPECT_EQ(flags.positional(), std::vector<std::string>{"input"});
}

TEST(FlagsTest, ReportBadFlagsIsFalseOnceEveryFlagWasRead) {
  Flags flags = Parse({"--seed=3"});
  EXPECT_FALSE(flags.Has("help"));
  EXPECT_EQ(flags.GetInt("clients", 40), 40);
  ::testing::internal::CaptureStderr();
  EXPECT_TRUE(ReportBadFlags(flags, "tool"));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "tool: unused flag --seed (misspelled, or no effect here)\n");

  EXPECT_EQ(flags.GetInt("seed", 42), 3);
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(ReportBadFlags(flags, "tool"));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

// A catalog size or category count below 1 (or no number at all) and a
// skew that is negative or not finite read as the fallback and are named,
// so a tool exits 2 instead of running on an empty catalog or a NaN CDF.
TEST(FlagsTest, CheckedGettersRefuseValuesTheModelCannotRun) {
  Flags flags = Parse({"--products=0", "--categories=-1", "--edges=many",
                       "--skew=nan", "--zipf=-0.5", "--alpha=inf"});
  EXPECT_EQ(flags.GetCount("products", 5000), 5000u);
  EXPECT_EQ(flags.GetCount("categories", 40), 40u);
  EXPECT_EQ(flags.GetCount("edges", 4), 4u);
  EXPECT_DOUBLE_EQ(flags.GetSkew("skew", 0.9), 0.9);
  EXPECT_DOUBLE_EQ(flags.GetSkew("zipf", 0.95), 0.95);
  EXPECT_DOUBLE_EQ(flags.GetSkew("alpha", 1.0), 1.0);
  EXPECT_TRUE(flags.Unread().empty());
  EXPECT_EQ(flags.Refused(),
            (std::vector<std::string>{
                "--alpha must be finite and not negative (got inf)",
                "--categories must be at least 1 (got -1)",
                "--edges must be at least 1 (got many)",
                "--products must be at least 1 (got 0)",
                "--skew must be finite and not negative (got nan)",
                "--zipf must be finite and not negative (got -0.5)"}));
  std::string expected;
  for (const std::string& why : flags.Refused()) {
    expected += "tool: " + why + "\n";
  }
  ::testing::internal::CaptureStderr();
  EXPECT_TRUE(ReportBadFlags(flags, "tool"));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), expected);
}

TEST(FlagsTest, CheckedGettersPassValidValuesThrough) {
  Flags flags = Parse({"--products=1", "--categories=2000", "--skew=0",
                       "--zipf=400"});
  EXPECT_EQ(flags.GetCount("products", 5000), 1u);
  EXPECT_EQ(flags.GetCount("categories", 40), 2000u);
  EXPECT_DOUBLE_EQ(flags.GetSkew("skew", 0.9), 0.0);
  EXPECT_DOUBLE_EQ(flags.GetSkew("zipf", 0.95), 400.0);
  EXPECT_DOUBLE_EQ(flags.GetSkew("absent", 0.95), 0.95);
  EXPECT_TRUE(flags.Refused().empty());
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(ReportBadFlags(flags, "tool"));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

}  // namespace
}  // namespace speedkit::tools
