#include "distance/rule_parser.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

namespace adalsh {
namespace {

/// True when `value` is a whole number a FieldId holds; checked before the
/// cast, which is undefined for a value out of range.
bool IsFieldIndex(double value) {
  return value >= 0 && value <= std::numeric_limits<FieldId>::max() &&
         value == std::floor(value);
}

/// Recursive-descent parser over the DSL of the header comment.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<MatchRule> Parse() {
    StatusOr<MatchRule> rule = ParseRuleExpr();
    if (!rule.ok()) return rule;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing input after rule");
    }
    return rule;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("rule parse error at position " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Reads a lowercase keyword (letters only).
  std::string ReadKeyword() {
    SkipSpace();
    std::string keyword;
    while (pos_ < text_.size() &&
           std::isalpha(static_cast<unsigned char>(text_[pos_]))) {
      keyword.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(text_[pos_]))));
      ++pos_;
    }
    return keyword;
  }

  StatusOr<double> ReadNumber() {
    SkipSpace();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    double value = std::strtod(start, &end);
    if (end == start) return Error("expected a number");
    // strtod also reads "nan" and "inf", which no threshold, weight or
    // field index can be (a NaN threshold fails every comparison).
    if (!std::isfinite(value)) return Error("expected a finite number");
    pos_ += static_cast<size_t>(end - start);
    return value;
  }

  StatusOr<std::vector<double>> ReadNumberList() {
    std::vector<double> values;
    for (;;) {
      StatusOr<double> value = ReadNumber();
      if (!value.ok()) return value.status();
      values.push_back(*value);
      if (!Consume(',')) break;
    }
    return values;
  }

  StatusOr<MatchRule> ParseRuleExpr() {
    std::string keyword = ReadKeyword();
    if (keyword.empty()) return Error("expected leaf/wavg/and/or");
    if (!Consume('(')) return Error("expected '(' after '" + keyword + "'");

    if (keyword == "leaf") {
      StatusOr<double> field = ReadNumber();
      if (!field.ok()) return field.status();
      if (!Consume(';')) return Error("expected ';' in leaf()");
      StatusOr<double> threshold = ReadNumber();
      if (!threshold.ok()) return threshold.status();
      if (!Consume(')')) return Error("expected ')' closing leaf()");
      if (!IsFieldIndex(*field)) {
        return Error("leaf field must be a non-negative integer");
      }
      return MatchRule::Leaf(static_cast<FieldId>(*field), *threshold);
    }

    if (keyword == "wavg") {
      StatusOr<std::vector<double>> fields = ReadNumberList();
      if (!fields.ok()) return fields.status();
      if (!Consume(';')) return Error("expected ';' after wavg fields");
      StatusOr<std::vector<double>> weights = ReadNumberList();
      if (!weights.ok()) return weights.status();
      if (!Consume(';')) return Error("expected ';' after wavg weights");
      StatusOr<double> threshold = ReadNumber();
      if (!threshold.ok()) return threshold.status();
      if (!Consume(')')) return Error("expected ')' closing wavg()");
      if (fields->size() != weights->size()) {
        return Error("wavg needs as many weights as fields");
      }
      std::vector<FieldId> field_ids;
      for (double f : *fields) {
        if (!IsFieldIndex(f)) {
          return Error("wavg fields must be non-negative integers");
        }
        field_ids.push_back(static_cast<FieldId>(f));
      }
      return MatchRule::WeightedAverage(field_ids, *weights, *threshold);
    }

    if (keyword == "and" || keyword == "or") {
      std::vector<MatchRule> children;
      for (;;) {
        StatusOr<MatchRule> child = ParseRuleExpr();
        if (!child.ok()) return child;
        children.push_back(std::move(child).value());
        if (!Consume(',')) break;
      }
      if (!Consume(')')) {
        return Error("expected ')' closing " + keyword + "()");
      }
      if (children.size() < 2) {
        return Error(keyword + "() needs at least two sub-rules");
      }
      return keyword == "and" ? MatchRule::And(std::move(children))
                              : MatchRule::Or(std::move(children));
    }

    return Error("unknown rule '" + keyword + "'");
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<MatchRule> ParseRule(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace adalsh
