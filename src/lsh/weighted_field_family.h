#ifndef ADALSH_LSH_WEIGHTED_FIELD_FAMILY_H_
#define ADALSH_LSH_WEIGHTED_FIELD_FAMILY_H_

#include <memory>
#include <vector>

#include "lsh/hash_family.h"
#include "record/record.h"

namespace adalsh {

/// The family for weighted-average rules (Appendix C.3, Definition 7):
/// hash function j (a) picks one of the F fields with probability equal to
/// its weight alpha_i — the pick is a deterministic function of j so every
/// record agrees on it — and (b) uses function j of that field's own family.
/// By Theorem 3, if each per-field family has collision probability
/// 1 - d_i, the combined family has collision probability
/// 1 - sum_i alpha_i d_i = 1 - weighted_average_distance.
class WeightedFieldFamily : public HashFamily {
 public:
  /// `families[i]` is the per-field family for weight `weights[i]`; weights
  /// must sum to 1. `seed` drives the per-index field picks.
  WeightedFieldFamily(std::vector<std::unique_ptr<HashFamily>> families,
                      std::vector<double> weights, uint64_t seed);

  void HashRange(const Record& record, size_t begin, size_t end,
                 uint64_t* out) override;

  /// Prepares every sub-family (each is indexed with the same j space).
  void Prepare(size_t count) override {
    for (auto& family : families_) family->Prepare(count);
  }

  /// Binary only if every sub-family is binary (otherwise values mix widths
  /// and must be stored wide).
  bool is_binary() const override { return all_binary_; }

  /// The field index function `j` delegates to (exposed for tests).
  size_t FieldPickForIndex(size_t j) const;

 private:
  std::vector<std::unique_ptr<HashFamily>> families_;
  std::vector<double> cumulative_weights_;
  uint64_t seed_;
  std::vector<bool> binary_;  // per family
  bool all_binary_;
  bool any_binary_;
};

/// Builds the canonical family for a leaf-like rule component: the field's
/// own family for a single field (MinHash for token sets, random hyperplanes
/// for dense vectors), or a WeightedFieldFamily over the per-field families
/// for a weighted-average component. `prototype` supplies field kinds and
/// dimensionalities.
std::unique_ptr<HashFamily> MakeFamilyForFields(
    const std::vector<FieldId>& fields, const std::vector<double>& weights,
    const Record& prototype, uint64_t seed);

}  // namespace adalsh

#endif  // ADALSH_LSH_WEIGHTED_FIELD_FAMILY_H_
