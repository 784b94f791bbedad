#include "util/flags.h"

#include <vector>

#include <gtest/gtest.h>

namespace adalsh {
namespace {

/// Builds argv from literals (argv[0] is the program name).
class ArgvBuilder {
 public:
  explicit ArgvBuilder(std::vector<std::string> args)
      : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "test_binary");
    for (std::string& s : storage_) pointers_.push_back(s.data());
  }
  int argc() { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

TEST(FlagsTest, EqualsForm) {
  ArgvBuilder args({"--k=10", "--threshold=0.4"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.GetInt("k", 0), 10);
  EXPECT_DOUBLE_EQ(flags.GetDouble("threshold", 0.0), 0.4);
  flags.CheckNoUnusedFlags();
}

TEST(FlagsTest, SpaceForm) {
  ArgvBuilder args({"--scale", "4"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.GetInt("scale", 1), 4);
}

TEST(FlagsTest, BareBooleanFlag) {
  ArgvBuilder args({"--quick"});
  Flags flags(args.argc(), args.argv());
  EXPECT_TRUE(flags.GetBool("quick", false));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  ArgvBuilder args({});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.GetInt("k", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 1.5), 1.5);
  EXPECT_FALSE(flags.GetBool("quick", false));
  EXPECT_EQ(flags.GetString("name", "default"), "default");
}

TEST(FlagsTest, IntList) {
  ArgvBuilder args({"--ks=2,5,10,20"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.GetIntList("ks", {}),
            (std::vector<int64_t>{2, 5, 10, 20}));
}

TEST(FlagsTest, DoubleList) {
  ArgvBuilder args({"--thresholds=0.3,0.4,0.5"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.GetDoubleList("thresholds", {}),
            (std::vector<double>{0.3, 0.4, 0.5}));
}

TEST(FlagsTest, Int32InRange) {
  ArgvBuilder args({"--k=-2147483648", "--bk=2147483647"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.GetInt32("k", 0), -2147483647 - 1);
  EXPECT_EQ(flags.GetInt32("bk", 0), 2147483647);
  EXPECT_EQ(flags.GetInt32("absent", 7), 7);
}

// A command-line mistake is a usage error: `<program>: <message>` on stderr
// and exit status 1, never an abort.

TEST(FlagsDeathTest, UnusedFlagExits) {
  ArgvBuilder args({"--typo=3"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EXIT(flags.CheckNoUnusedFlags(), testing::ExitedWithCode(1),
              "test_binary: unknown flag --typo");
}

TEST(FlagsDeathTest, NonNumericIntExits) {
  ArgvBuilder args({"--k=abc"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EXIT(flags.GetInt("k", 0), testing::ExitedWithCode(1),
              "--k=abc is not an integer");
}

TEST(FlagsDeathTest, PositionalArgumentExits) {
  ArgvBuilder args({"positional"});
  EXPECT_EXIT(Flags(args.argc(), args.argv()), testing::ExitedWithCode(1),
              "positional");
}

TEST(FlagsDeathTest, MalformedValuesExit) {
  ArgvBuilder args({"--flag=yes", "--x=1.5q", "--n=99999999999999999999",
                    "--ks=2,x", "--xs=0.5,,1"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EXIT(flags.GetBool("flag", false), testing::ExitedWithCode(1),
              "--flag=yes is not a boolean");
  EXPECT_EXIT(flags.GetDouble("x", 0.0), testing::ExitedWithCode(1),
              "--x=1.5q is not a number");
  EXPECT_EXIT(flags.GetInt("n", 0), testing::ExitedWithCode(1),
              "--n=99999999999999999999 is out of range");
  EXPECT_EXIT(flags.GetIntList("ks", {}), testing::ExitedWithCode(1),
              "--ks: 'x' is not an integer");
  EXPECT_EXIT(flags.GetDoubleList("xs", {}), testing::ExitedWithCode(1),
              "--xs: '' is not a number");
}

TEST(FlagsDeathTest, Int32OutOfRangeExits) {
  // 2^32 + 1 would narrow to 1 through a plain cast.
  ArgvBuilder args({"--k=4294967297", "--threads=-2147483649"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EXIT(flags.GetInt32("k", 10), testing::ExitedWithCode(1),
              "--k=4294967297 does not fit in an int");
  EXPECT_EXIT(flags.GetInt32("threads", 0), testing::ExitedWithCode(1),
              "--threads=-2147483649 does not fit in an int");
}

}  // namespace
}  // namespace adalsh
