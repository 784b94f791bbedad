#include "distance/rule_parser.h"

#include <gtest/gtest.h>

namespace adalsh {
namespace {

TEST(RuleParserTest, Leaf) {
  StatusOr<MatchRule> rule = ParseRule("leaf(0; 0.6)");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule->type(), MatchRule::Type::kLeaf);
  EXPECT_EQ(rule->fields()[0], 0u);
  EXPECT_DOUBLE_EQ(rule->threshold(), 0.6);
}

TEST(RuleParserTest, WhitespaceAndCaseInsensitive) {
  StatusOr<MatchRule> rule = ParseRule("  LEAF ( 2 ;  0.25 )  ");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule->fields()[0], 2u);
  EXPECT_DOUBLE_EQ(rule->threshold(), 0.25);
}

TEST(RuleParserTest, WeightedAverage) {
  StatusOr<MatchRule> rule = ParseRule("wavg(0,1; 0.5,0.5; 0.3)");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule->type(), MatchRule::Type::kWeightedAverage);
  EXPECT_EQ(rule->fields(), (std::vector<FieldId>{0, 1}));
  EXPECT_EQ(rule->weights(), (std::vector<double>{0.5, 0.5}));
  EXPECT_DOUBLE_EQ(rule->threshold(), 0.3);
}

TEST(RuleParserTest, CoraRuleRoundTrip) {
  StatusOr<MatchRule> rule =
      ParseRule("and(wavg(0,1;0.5,0.5;0.3), leaf(2;0.8))");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule->DebugString(),
            "And(WeightedAvg({0,1},{0.5,0.5})<=0.3, Leaf(2)<=0.8)");
}

TEST(RuleParserTest, NestedOrOfAnd) {
  StatusOr<MatchRule> rule = ParseRule(
      "or(leaf(0;0.1), and(leaf(1;0.2), leaf(2;0.3)))");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule->type(), MatchRule::Type::kOr);
  ASSERT_EQ(rule->children().size(), 2u);
  EXPECT_EQ(rule->children()[1].type(), MatchRule::Type::kAnd);
}

TEST(RuleParserTest, ScientificNotationThreshold) {
  StatusOr<MatchRule> rule = ParseRule("leaf(0; 2.2e-2)");
  ASSERT_TRUE(rule.ok());
  EXPECT_NEAR(rule->threshold(), 0.022, 1e-12);
}

TEST(RuleParserTest, Errors) {
  EXPECT_FALSE(ParseRule("").ok());
  EXPECT_FALSE(ParseRule("banana(0;0.5)").ok());
  EXPECT_FALSE(ParseRule("leaf(0)").ok());             // missing threshold
  EXPECT_FALSE(ParseRule("leaf(0; 0.5").ok());         // missing ')'
  EXPECT_FALSE(ParseRule("leaf(0;0.5) extra").ok());   // trailing input
  EXPECT_FALSE(ParseRule("and(leaf(0;0.5))").ok());    // single child
  EXPECT_FALSE(ParseRule("wavg(0,1; 0.5; 0.3)").ok()); // weight arity
  EXPECT_FALSE(ParseRule("leaf(-1; 0.5)").ok());       // negative field
  EXPECT_FALSE(ParseRule("leaf(1.5; 0.5)").ok());      // fractional field
  EXPECT_FALSE(ParseRule("leaf(1e30; 0.5)").ok());     // field past FieldId
  EXPECT_FALSE(ParseRule("wavg(0,4294967296; 0.5,0.5; 0.3)").ok());
  EXPECT_TRUE(ParseRule("leaf(4294967295; 0.5)").ok());
  // Not finite: a NaN threshold would fail every comparison and silently
  // cluster nothing.
  for (const char* text : {"leaf(0;nan)", "leaf(0;inf)", "leaf(nan;0.5)",
                           "wavg(0;nan;0.3)", "wavg(0;1;nan)",
                           "and(leaf(0;0.5), leaf(1;-inf))"}) {
    StatusOr<MatchRule> rule = ParseRule(text);
    ASSERT_FALSE(rule.ok()) << text;
    EXPECT_NE(rule.status().message().find("finite"), std::string::npos)
        << text;
  }
}

TEST(RuleParserTest, ErrorsNamePosition) {
  StatusOr<MatchRule> rule = ParseRule("leaf(0)");
  ASSERT_FALSE(rule.ok());
  EXPECT_NE(rule.status().message().find("position"), std::string::npos);
}

}  // namespace
}  // namespace adalsh
