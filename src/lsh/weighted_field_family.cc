#include "lsh/weighted_field_family.h"

#include <algorithm>
#include <cmath>

#include "lsh/minhash.h"
#include "lsh/random_hyperplane.h"
#include "util/check.h"
#include "util/rng.h"

namespace adalsh {

WeightedFieldFamily::WeightedFieldFamily(
    std::vector<std::unique_ptr<HashFamily>> families,
    std::vector<double> weights, uint64_t seed)
    : families_(std::move(families)), seed_(seed) {
  ADALSH_CHECK(!families_.empty());
  ADALSH_CHECK_EQ(families_.size(), weights.size());
  double total = 0.0;
  for (double w : weights) {
    ADALSH_CHECK_GT(w, 0.0);
    total += w;
    cumulative_weights_.push_back(total);
  }
  ADALSH_CHECK(std::abs(total - 1.0) < 1e-9) << "weights must sum to 1";
  cumulative_weights_.back() = 1.0;  // guard against rounding
  for (const auto& family : families_) binary_.push_back(family->is_binary());
  const auto binaries = std::count(binary_.begin(), binary_.end(), true);
  all_binary_ = binaries == static_cast<ptrdiff_t>(binary_.size());
  any_binary_ = binaries > 0;
}

size_t WeightedFieldFamily::FieldPickForIndex(size_t j) const {
  // Deterministic uniform draw in [0,1) from the function index.
  double u = static_cast<double>(DeriveSeed(seed_, j) >> 11) * 0x1.0p-53;
  for (size_t i = 0; i < cumulative_weights_.size(); ++i) {
    if (u < cumulative_weights_[i]) return i;
  }
  return cumulative_weights_.size() - 1;
}

void WeightedFieldFamily::HashRange(const Record& record, size_t begin,
                                    size_t end, uint64_t* out) {
  // Index j uses the picked family's function j; sibling families are
  // independently seeded so index reuse is harmless. A wide family (MinHash)
  // pays per index and is called as each index comes. A binary one (random
  // hyperplanes) evaluates whole blocks of 8 indices, so its picks are
  // collected and hashed in one HashIndices call. Per thread: Ensure runs
  // concurrently for distinct records.
  //
  // The field pick is mixed into non-binary values so that, in the
  // astronomically unlikely event two fields' functions collide numerically,
  // records still only match when the *same* field produced the value.
  // (Binary values are compared per-position within a table key, where the
  // pick is already fixed by the index, and must stay 0/1 for packing.)
  thread_local std::vector<std::vector<size_t>> deferred;
  if (any_binary_) {
    deferred.resize(families_.size());
    for (std::vector<size_t>& indices : deferred) indices.clear();
  }
  for (size_t j = begin; j < end; ++j) {
    const size_t pick = FieldPickForIndex(j);
    if (binary_[pick]) {
      deferred[pick].push_back(j);
      continue;
    }
    // A wide family's values make the whole family wide: always mixed.
    families_[pick]->HashRange(record, j, j + 1, &out[j - begin]);
    out[j - begin] = SplitMix64(out[j - begin] ^ DeriveSeed(seed_, pick));
  }
  if (!any_binary_) return;
  thread_local std::vector<uint64_t> values;
  for (size_t pick = 0; pick < families_.size(); ++pick) {
    const std::vector<size_t>& indices = deferred[pick];
    if (indices.empty()) continue;
    values.resize(indices.size());
    families_[pick]->HashIndices(record, indices.data(), indices.size(),
                                 values.data());
    for (size_t i = 0; i < indices.size(); ++i) {
      out[indices[i] - begin] =
          all_binary_ ? values[i]
                      : SplitMix64(values[i] ^ DeriveSeed(seed_, pick));
    }
  }
}

std::unique_ptr<HashFamily> MakeFamilyForFields(
    const std::vector<FieldId>& fields, const std::vector<double>& weights,
    const Record& prototype, uint64_t seed) {
  ADALSH_CHECK(!fields.empty());
  ADALSH_CHECK_EQ(fields.size(), weights.size());

  auto make_single = [&](FieldId f, uint64_t s) -> std::unique_ptr<HashFamily> {
    const Field& field = prototype.field(f);
    if (field.is_dense()) {
      return std::make_unique<RandomHyperplaneFamily>(f, field.size(), s);
    }
    return std::make_unique<MinHashFamily>(f, s);
  };

  if (fields.size() == 1) return make_single(fields[0], seed);

  std::vector<std::unique_ptr<HashFamily>> families;
  families.reserve(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    families.push_back(make_single(fields[i], DeriveSeed(seed, 1000 + i)));
  }
  return std::make_unique<WeightedFieldFamily>(std::move(families), weights,
                                               DeriveSeed(seed, 999));
}

}  // namespace adalsh
