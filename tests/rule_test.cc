#include "distance/rule.h"

#include <limits>

#include <gtest/gtest.h>

namespace adalsh {
namespace {

/// Two token-set fields plus one dense field.
Record MakeRecord(std::vector<uint64_t> f0, std::vector<uint64_t> f1,
                  std::vector<float> f2) {
  std::vector<Field> fields;
  fields.push_back(Field::TokenSet(std::move(f0)));
  fields.push_back(Field::TokenSet(std::move(f1)));
  fields.push_back(Field::DenseVector(std::move(f2)));
  return Record(std::move(fields));
}

TEST(FieldDistanceTest, DispatchesByKind) {
  Field tokens_a = Field::TokenSet({1, 2, 3});
  Field tokens_b = Field::TokenSet({2, 3, 4});
  EXPECT_DOUBLE_EQ(FieldDistance(tokens_a, tokens_b), 0.5);
  Field dense_a = Field::DenseVector({1, 0});
  Field dense_b = Field::DenseVector({0, 1});
  EXPECT_NEAR(FieldDistance(dense_a, dense_b), 0.5, 1e-9);
}

TEST(FieldDistanceDeathTest, MixedKindsAbort) {
  Field tokens = Field::TokenSet({1});
  Field dense = Field::DenseVector({1.0f});
  EXPECT_DEATH(FieldDistance(tokens, dense), "kinds differ");
}

TEST(MatchRuleTest, LeafMatch) {
  MatchRule rule = MatchRule::Leaf(0, 0.6);  // Jaccard sim >= 0.4
  Record a = MakeRecord({1, 2, 3, 4}, {}, {1});
  Record b = MakeRecord({1, 2, 3, 9}, {}, {1});  // sim 3/5 = 0.6 -> dist 0.4
  Record c = MakeRecord({7, 8, 9, 10}, {}, {1});
  EXPECT_TRUE(rule.Matches(a, b));
  EXPECT_FALSE(rule.Matches(a, c));
  EXPECT_NEAR(rule.Distance(a, b), 0.4, 1e-12);
}

TEST(MatchRuleTest, WeightedAverageDistance) {
  MatchRule rule = MatchRule::WeightedAverage({0, 1}, {0.5, 0.5}, 0.3);
  // Field 0 distance 0.5, field 1 distance 0.0 -> average 0.25 <= 0.3.
  Record a = MakeRecord({1, 2, 3}, {10, 11}, {1});
  Record b = MakeRecord({2, 3, 4}, {10, 11}, {1});
  EXPECT_NEAR(rule.Distance(a, b), 0.25, 1e-12);
  EXPECT_TRUE(rule.Matches(a, b));
}

TEST(MatchRuleTest, WeightedAverageUnequalWeights) {
  MatchRule rule = MatchRule::WeightedAverage({0, 1}, {0.9, 0.1}, 0.3);
  Record a = MakeRecord({1, 2, 3}, {10, 11}, {1});
  Record b = MakeRecord({2, 3, 4}, {10, 11}, {1});
  // 0.9 * 0.5 + 0.1 * 0 = 0.45 > 0.3.
  EXPECT_FALSE(rule.Matches(a, b));
}

TEST(MatchRuleTest, AndRequiresAll) {
  MatchRule rule =
      MatchRule::And({MatchRule::Leaf(0, 0.5), MatchRule::Leaf(1, 0.5)});
  Record a = MakeRecord({1, 2}, {10, 11}, {1});
  Record both = MakeRecord({1, 2}, {10, 11}, {1});
  Record only_first = MakeRecord({1, 2}, {20, 21}, {1});
  EXPECT_TRUE(rule.Matches(a, both));
  EXPECT_FALSE(rule.Matches(a, only_first));
}

TEST(MatchRuleTest, OrRequiresAny) {
  MatchRule rule =
      MatchRule::Or({MatchRule::Leaf(0, 0.5), MatchRule::Leaf(1, 0.5)});
  Record a = MakeRecord({1, 2}, {10, 11}, {1});
  Record only_second = MakeRecord({5, 6}, {10, 11}, {1});
  Record neither = MakeRecord({5, 6}, {20, 21}, {1});
  EXPECT_TRUE(rule.Matches(a, only_second));
  EXPECT_FALSE(rule.Matches(a, neither));
}

TEST(MatchRuleTest, CoraShapedRule) {
  // And(WeightedAvg({0,1}, .5/.5) <= 0.3, Leaf(2) <= 0.8) over mixed kinds —
  // the dense third field under cosine.
  MatchRule rule =
      MatchRule::And({MatchRule::WeightedAverage({0, 1}, {0.5, 0.5}, 0.3),
                      MatchRule::Leaf(2, 0.8)});
  Record a = MakeRecord({1, 2, 3}, {7, 8}, {1.0f, 0.1f});
  Record b = MakeRecord({1, 2, 3}, {7, 8}, {1.0f, 0.2f});
  EXPECT_TRUE(rule.Matches(a, b));
}

TEST(MatchRuleTest, ValidateCatchesBadFields) {
  Record prototype = MakeRecord({1}, {2}, {1.0f});
  EXPECT_TRUE(MatchRule::Leaf(2, 0.5).Validate(prototype).ok());
  EXPECT_FALSE(MatchRule::Leaf(3, 0.5).Validate(prototype).ok());
  EXPECT_FALSE(MatchRule::Leaf(0, 1.5).Validate(prototype).ok());
  EXPECT_FALSE(MatchRule::WeightedAverage({0, 1}, {0.5, 0.4}, 0.3)
                   .Validate(prototype)
                   .ok());
  EXPECT_TRUE(MatchRule::WeightedAverage({0, 1}, {0.5, 0.5}, 0.3)
                  .Validate(prototype)
                  .ok());
  // NaN compares false against every bound, so each check must fail on it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {nan, inf, -inf}) {
    EXPECT_FALSE(MatchRule::Leaf(0, bad).Validate(prototype).ok()) << bad;
    EXPECT_FALSE(MatchRule::WeightedAverage({0, 1}, {0.5, 0.5}, bad)
                     .Validate(prototype)
                     .ok())
        << bad;
    EXPECT_FALSE(MatchRule::WeightedAverage({0, 1}, {bad, 0.5}, 0.3)
                     .Validate(prototype)
                     .ok())
        << bad;
  }
}

TEST(MatchRuleTest, ValidateRecurses) {
  Record prototype = MakeRecord({1}, {2}, {1.0f});
  MatchRule bad_nested =
      MatchRule::And({MatchRule::Leaf(0, 0.5), MatchRule::Leaf(9, 0.5)});
  EXPECT_FALSE(bad_nested.Validate(prototype).ok());
}

TEST(MatchRuleTest, DebugStringShapes) {
  EXPECT_EQ(MatchRule::Leaf(2, 0.8).DebugString(), "Leaf(2)<=0.8");
  MatchRule rule =
      MatchRule::And({MatchRule::WeightedAverage({0, 1}, {0.5, 0.5}, 0.3),
                      MatchRule::Leaf(2, 0.8)});
  EXPECT_EQ(rule.DebugString(),
            "And(WeightedAvg({0,1},{0.5,0.5})<=0.3, Leaf(2)<=0.8)");
}

TEST(MatchRuleDeathTest, DistanceOnCompositeAborts) {
  MatchRule rule = MatchRule::And({MatchRule::Leaf(0, 0.5)});
  Record a = MakeRecord({1}, {2}, {1.0f});
  EXPECT_DEATH(rule.Distance(a, a), "composite");
}

}  // namespace
}  // namespace adalsh
