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

TEST(FlagsTest, BoundedIntAndCheckedLists) {
  ArgvBuilder args({"--batches=1", "--ks=-3,0,2147483647", "--scales=0,1,8"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.GetInt32AtLeast("batches", 6, 1), 1);
  EXPECT_EQ(flags.GetInt32AtLeast("absent", 6, 1), 6);
  EXPECT_EQ(flags.GetInt32List("ks", {}),
            (std::vector<int>{-3, 0, 2147483647}));
  EXPECT_EQ(flags.GetSizeList("scales", {}),
            (std::vector<size_t>{0, 1, 8}));
  EXPECT_EQ(flags.GetInt32List("bks", {5, 10}), (std::vector<int>{5, 10}));
  EXPECT_EQ(flags.GetSizeList("sizes", {4}), (std::vector<size_t>{4}));
  flags.CheckNoUnusedFlags();
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

TEST(FlagsDeathTest, NegativeSizeExits) {
  // -1 would wrap to 2^64 - 1 through a plain cast.
  ArgvBuilder args({"--records=-1", "--scale=3"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EQ(flags.GetSize("scale", 1), 3u);
  EXPECT_EQ(flags.GetSize("batch", 32), 32u);
  EXPECT_EXIT(flags.GetSize("records", 10), testing::ExitedWithCode(1),
              "--records=-1 must be >= 0");
}

TEST(FlagsDeathTest, BelowLowerBoundExits) {
  // A count the program divides by: 0 would be a division by zero.
  ArgvBuilder args({"--batches=0", "--checkpoints=-4"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EXIT(flags.GetInt32AtLeast("batches", 6, 1),
              testing::ExitedWithCode(1),
              "test_binary: --batches=0 must be >= 1");
  EXPECT_EXIT(flags.GetInt32AtLeast("checkpoints", 8, 1),
              testing::ExitedWithCode(1), "--checkpoints=-4 must be >= 1");
}

TEST(FlagsDeathTest, Int32ListOutOfRangeExits) {
  // 2^32 + 1 would narrow to k = 1 through a plain cast.
  ArgvBuilder args({"--ks=2,4294967297", "--xs=-2147483649"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EXIT(flags.GetInt32List("ks", {}), testing::ExitedWithCode(1),
              "test_binary: --ks: '4294967297' does not fit in an int");
  EXPECT_EXIT(flags.GetInt32List("xs", {}), testing::ExitedWithCode(1),
              "--xs: '-2147483649' does not fit in an int");
}

TEST(FlagsDeathTest, NegativeSizeListExits) {
  // -1 would ask for 2^64 - 1 copies through a plain cast.
  ArgvBuilder args({"--scales=1,-1", "--sizes=2,x"});
  Flags flags(args.argc(), args.argv());
  EXPECT_EXIT(flags.GetSizeList("scales", {}), testing::ExitedWithCode(1),
              "test_binary: --scales: '-1' must be >= 0");
  EXPECT_EXIT(flags.GetSizeList("sizes", {}), testing::ExitedWithCode(1),
              "--sizes: 'x' is not an integer");
}

}  // namespace
}  // namespace adalsh
