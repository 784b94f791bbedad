#include "distance/rule.h"

#include <cmath>
#include <sstream>

#include "distance/cosine.h"
#include "distance/jaccard.h"
#include "util/check.h"

namespace adalsh {

double FieldDistance(const Field& a, const Field& b) {
  ADALSH_CHECK(a.kind() == b.kind()) << "field kinds differ";
  if (a.is_dense()) return CosineDistance(a.dense(), b.dense());
  return JaccardDistance(a.tokens(), b.tokens());
}

MatchRule MatchRule::Leaf(FieldId field, double threshold) {
  MatchRule rule;
  rule.type_ = Type::kLeaf;
  rule.fields_ = {field};
  rule.weights_ = {1.0};
  rule.threshold_ = threshold;
  return rule;
}

MatchRule MatchRule::WeightedAverage(std::vector<FieldId> fields,
                                     std::vector<double> weights,
                                     double threshold) {
  ADALSH_CHECK(!fields.empty());
  ADALSH_CHECK_EQ(fields.size(), weights.size());
  MatchRule rule;
  rule.type_ = Type::kWeightedAverage;
  rule.fields_ = std::move(fields);
  rule.weights_ = std::move(weights);
  rule.threshold_ = threshold;
  return rule;
}

MatchRule MatchRule::And(std::vector<MatchRule> children) {
  ADALSH_CHECK(!children.empty());
  MatchRule rule;
  rule.type_ = Type::kAnd;
  rule.children_ = std::move(children);
  return rule;
}

MatchRule MatchRule::Or(std::vector<MatchRule> children) {
  ADALSH_CHECK(!children.empty());
  MatchRule rule;
  rule.type_ = Type::kOr;
  rule.children_ = std::move(children);
  return rule;
}

bool MatchRule::Matches(const Record& a, const Record& b) const {
  switch (type_) {
    case Type::kLeaf: {
      const Field& fa = a.field(fields_[0]);
      const Field& fb = b.field(fields_[0]);
      if (fa.is_token_set() && fb.is_token_set()) {
        // Threshold-aware evaluation abandons the set merge early for
        // far-apart pairs — the hot path of the P function.
        return JaccardSimilarityAtLeast(fa.tokens(), fb.tokens(),
                                        1.0 - threshold_);
      }
      return Distance(a, b) <= threshold_;
    }
    case Type::kWeightedAverage:
      return Distance(a, b) <= threshold_;
    case Type::kAnd:
      for (const MatchRule& child : children_) {
        if (!child.Matches(a, b)) return false;
      }
      return true;
    case Type::kOr:
      for (const MatchRule& child : children_) {
        if (child.Matches(a, b)) return true;
      }
      return false;
  }
  ADALSH_CHECK(false) << "unknown rule type";
  return false;
}

double MatchRule::Distance(const Record& a, const Record& b) const {
  ADALSH_CHECK(is_leaf_like()) << "Distance() on a composite rule";
  double sum = 0.0;
  for (size_t i = 0; i < fields_.size(); ++i) {
    sum += weights_[i] * FieldDistance(a.field(fields_[i]), b.field(fields_[i]));
  }
  return sum;
}

double MatchRule::threshold() const {
  ADALSH_CHECK(is_leaf_like());
  return threshold_;
}

const std::vector<FieldId>& MatchRule::fields() const {
  ADALSH_CHECK(is_leaf_like());
  return fields_;
}

const std::vector<double>& MatchRule::weights() const {
  ADALSH_CHECK(is_leaf_like());
  return weights_;
}

const std::vector<MatchRule>& MatchRule::children() const {
  ADALSH_CHECK(!is_leaf_like());
  return children_;
}

Status MatchRule::Validate(const Record& prototype) const {
  if (is_leaf_like()) {
    // Every check is written to fail on NaN, which compares false.
    if (!(threshold_ >= 0.0 && threshold_ <= 1.0)) {
      return Status::InvalidArgument("rule threshold outside [0, 1]");
    }
    double weight_sum = 0.0;
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (fields_[i] >= prototype.num_fields()) {
        return Status::InvalidArgument("rule references missing field");
      }
      if (!(weights_[i] > 0.0 && std::isfinite(weights_[i]))) {
        return Status::InvalidArgument(
            "rule weights must be positive and finite");
      }
      weight_sum += weights_[i];
    }
    if (type_ == Type::kWeightedAverage &&
        !(std::abs(weight_sum - 1.0) <= 1e-9)) {
      return Status::InvalidArgument("weighted-average weights must sum to 1");
    }
    return Status::Ok();
  }
  for (const MatchRule& child : children_) {
    Status status = child.Validate(prototype);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

std::string MatchRule::DebugString() const {
  std::ostringstream out;
  switch (type_) {
    case Type::kLeaf:
      out << "Leaf(" << fields_[0] << ")<=" << threshold_;
      break;
    case Type::kWeightedAverage: {
      out << "WeightedAvg({";
      for (size_t i = 0; i < fields_.size(); ++i) {
        if (i > 0) out << ",";
        out << fields_[i];
      }
      out << "},{";
      for (size_t i = 0; i < weights_.size(); ++i) {
        if (i > 0) out << ",";
        out << weights_[i];
      }
      out << "})<=" << threshold_;
      break;
    }
    case Type::kAnd:
    case Type::kOr: {
      out << (type_ == Type::kAnd ? "And(" : "Or(");
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out << ", ";
        out << children_[i].DebugString();
      }
      out << ")";
      break;
    }
  }
  return out.str();
}

}  // namespace adalsh
