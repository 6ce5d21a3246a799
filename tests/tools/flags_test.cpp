// The CLI flag parser shared by every tool: accepted spellings, repeated
// flags, and the exit-2 error for an unknown flag.
#include "tools/flags.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace md::tools {
namespace {

/// Builds a mutable argv ("tool" first) for the parser.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    args_.insert(args_.begin(), "tool");
    for (std::string& a : args_) ptrs_.push_back(a.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

TEST(FlagsTest, ParsesSpaceAndEqualsFormsAndBareFlags) {
  Argv a({"--port", "8800", "--event-loop=io_uring", "--batching"});
  Flags flags;
  EXPECT_EQ(flags.Parse(a.argc(), a.argv(),
                        {"port", "event-loop", "batching", "workers"}),
            "");
  EXPECT_EQ(flags.GetInt("port", 0), 8800);
  EXPECT_EQ(flags.Get("event-loop"), "io_uring");
  EXPECT_TRUE(flags.GetBool("batching"));
  EXPECT_FALSE(flags.Has("workers"));
  EXPECT_EQ(flags.GetInt("workers", 2), 2);
}

TEST(FlagsTest, RepeatedFlagKeepsEveryValueAndGetReturnsTheLast) {
  Argv a({"--peer", "a", "--peer=b"});
  Flags flags;
  ASSERT_EQ(flags.Parse(a.argc(), a.argv(), {"peer"}), "");
  EXPECT_EQ(flags.GetAll("peer"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(flags.Get("peer"), "b");
}

TEST(FlagsTest, UnknownFlagIsNamedInTheError) {
  Argv a({"--port", "1", "--batchng"});
  Flags flags;
  const std::string error =
      flags.Parse(a.argc(), a.argv(), {"port", "batching"});
  EXPECT_EQ(error.rfind("unknown flag: --batchng", 0), 0u) << error;
  EXPECT_NE(error.find("--batching"), std::string::npos) << error;
}

TEST(FlagsTest, UnknownFlagInEqualsFormIsNamedWithoutItsValue) {
  Argv a({"--wokers=4"});
  Flags flags;
  EXPECT_EQ(flags.Parse(a.argc(), a.argv(), {"workers"}).rfind(
                "unknown flag: --wokers (", 0),
            0u);
}

TEST(FlagsTest, PositionalArgumentIsRejected) {
  Argv a({"8800"});
  Flags flags;
  EXPECT_EQ(flags.Parse(a.argc(), a.argv(), {"port"}),
            "unexpected argument: 8800");
}

TEST(FlagsDeathTest, ConstructorExitsWithStatusTwoOnUnknownFlag) {
  Argv a({"--batchng"});
  EXPECT_EXIT(Flags(a.argc(), a.argv(), {"batching"}),
              ::testing::ExitedWithCode(2), "unknown flag: --batchng");
}

}  // namespace
}  // namespace md::tools
