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

TEST(FlagsTest, ReportUnreadIsFalseOnceEveryFlagWasRead) {
  Flags flags = Parse({"--seed=3"});
  EXPECT_FALSE(flags.Has("help"));
  EXPECT_EQ(flags.GetInt("clients", 40), 40);
  ::testing::internal::CaptureStderr();
  EXPECT_TRUE(ReportUnread(flags, "tool"));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "tool: unused flag --seed (misspelled, or no effect here)\n");

  EXPECT_EQ(flags.GetInt("seed", 42), 3);
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(ReportUnread(flags, "tool"));
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

}  // namespace
}  // namespace speedkit::tools
