// The hyperplane family's block layout and the packed-bit path behind the
// binary HashCache: every value is the canonical sign of the documented
// normal, whatever range, step or index set asks for it.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "lsh/hash_cache.h"
#include "lsh/random_hyperplane.h"
#include "lsh/weighted_field_family.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/simd_kernels.h"

namespace adalsh {
namespace {

std::vector<float> GaussianVector(size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(dim);
  for (float& v : values) v = static_cast<float>(rng.NextGaussian());
  return values;
}

Record DenseRecord(std::vector<float> v) {
  std::vector<Field> fields;
  fields.push_back(Field::DenseVector(std::move(v)));
  return Record(std::move(fields));
}

// The documented value of function j: the sign of the canonical dot product
// of normal j (component d is the d-th Gaussian of Rng(DeriveSeed(seed, j)))
// with x.
uint64_t CanonicalSign(uint64_t seed, size_t j, const std::vector<float>& x) {
  const std::vector<float> normal =
      GaussianVector(x.size(), DeriveSeed(seed, j));
  return simd::DotProductF32At(SimdLevel::kScalar, normal.data(), x.data(),
                               x.size()) >= 0.0
             ? 1
             : 0;
}

TEST(RandomHyperplaneTest, ValuesAreCanonicalSignsOfDocumentedNormals) {
  constexpr uint64_t kSeed = 77;
  // Range ends off the block size, single indices, and a range inside one
  // block, each on a fresh family so every request materializes its own
  // blocks, at every supported level.
  const std::vector<std::pair<size_t, size_t>> ranges = {
      {0, 20}, {3, 29}, {5, 6}, {13, 77}, {17, 23}, {40, 48}, {0, 1}};
  for (size_t dim : {size_t{1}, size_t{17}, size_t{64}, size_t{100}}) {
    const std::vector<float> x = GaussianVector(dim, 5 + dim);
    Record record = DenseRecord(x);
    for (SimdLevel level : SupportedSimdLevels()) {
      const int previous = SetSimdPin(static_cast<int>(level));
      for (const auto& [begin, end] : ranges) {
        RandomHyperplaneFamily family(0, dim, kSeed);
        std::vector<uint64_t> out(end - begin);
        family.HashRange(record, begin, end, out.data());
        for (size_t j = begin; j < end; ++j) {
          EXPECT_EQ(out[j - begin], CanonicalSign(kSeed, j, x))
              << "j=" << j << " dim=" << dim << " range [" << begin << ","
              << end << ") level " << SimdLevelName(level);
        }
      }
      SetSimdPin(previous);
    }
  }
}

TEST(RandomHyperplaneTest, PrepareMaterializesWholeBlocks) {
  RandomHyperplaneFamily family(0, 5, 3);
  family.Prepare(13);
  EXPECT_EQ(family.num_materialized(), 16u);
  family.Prepare(16);
  EXPECT_EQ(family.num_materialized(), 16u);
  family.Prepare(17);
  EXPECT_EQ(family.num_materialized(), 24u);
}

TEST(RandomHyperplaneTest, PackRangePacksThroughTheEndOfTheLastBlock) {
  const size_t dim = 33;
  const std::vector<float> x = GaussianVector(dim, 9);
  Record record = DenseRecord(x);
  RandomHyperplaneFamily family(0, dim, 21);
  // Bits outside [begin, PackEnd(end)) hold a pattern the packing must keep.
  const uint64_t pattern = 0xA5A5A5A5A5A5A5A5ULL;
  for (const auto& [begin, end] :
       std::vector<std::pair<size_t, size_t>>{{3, 29}, {60, 70}, {0, 128}}) {
    const size_t packed_end = family.PackEnd(end);
    EXPECT_EQ(packed_end, (end + 7) / 8 * 8);
    std::vector<uint64_t> words(2, 0);
    for (size_t j = 0; j < 128; ++j) {
      if ((j < begin || j >= packed_end) && ((pattern >> (j % 64)) & 1)) {
        words[j / 64] |= uint64_t{1} << (j % 64);
      }
    }
    family.PackRange(record, begin, end, words.data());
    for (size_t j = 0; j < 128; ++j) {
      const uint64_t bit = (words[j / 64] >> (j % 64)) & 1;
      const uint64_t want = (j >= begin && j < packed_end)
                                ? CanonicalSign(21, j, x)
                                : (pattern >> (j % 64)) & 1;
      EXPECT_EQ(bit, want) << "j=" << j << " range [" << begin << "," << end
                           << ")";
    }
  }
}

TEST(RandomHyperplaneTest, HashIndicesMatchesHashRange) {
  const size_t dim = 64;
  Record record = DenseRecord(GaussianVector(dim, 4));
  RandomHyperplaneFamily family(0, dim, 8);
  std::vector<uint64_t> all(200);
  family.HashRange(record, 0, 200, all.data());
  // Scattered, adjacent-block and same-block runs.
  const std::vector<size_t> indices = {0, 2, 7, 8, 9, 31, 33, 90, 91, 150, 199};
  RandomHyperplaneFamily fresh(0, dim, 8);
  std::vector<uint64_t> out(indices.size());
  fresh.HashIndices(record, indices.data(), indices.size(), out.data());
  for (size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(out[i], all[indices[i]]) << indices[i];
  }
}

TEST(HashCacheTest, BinaryGrowthInOddStepsMatchesOneEnsure) {
  const size_t dim = 64;
  Record record = DenseRecord(GaussianVector(dim, 12));
  HashCache stepped(std::make_unique<RandomHyperplaneFamily>(0, dim, 31), 1);
  for (size_t count : {0, 5, 13, 60, 70, 130}) stepped.Ensure(record, 0, count);
  HashCache direct(std::make_unique<RandomHyperplaneFamily>(0, dim, 31), 1);
  direct.Ensure(record, 0, 130);
  EXPECT_EQ(stepped.total_hashes_computed(), 130u);
  EXPECT_EQ(direct.total_hashes_computed(), 130u);
  for (size_t j = 0; j < 130; ++j) {
    EXPECT_EQ(stepped.ValueForTest(0, j), direct.ValueForTest(0, j)) << j;
    EXPECT_EQ(direct.ValueForTest(0, j),
              CanonicalSign(31, j, record.field(0).dense()));
  }
  // Whole words, folded: 64 + 64 + 2 bits.
  EXPECT_EQ(stepped.CombineRange(0, 0, 130, 1),
            direct.CombineRange(0, 0, 130, 1));
}

// Forwards to a hyperplane family and records what the cache asks it to
// pack.
class CountingFamily : public HashFamily {
 public:
  CountingFamily(size_t dim, uint64_t seed) : inner_(0, dim, seed) {}
  void HashRange(const Record& record, size_t begin, size_t end,
                 uint64_t* out) override {
    inner_.HashRange(record, begin, end, out);
  }
  void PackRange(const Record& record, size_t begin, size_t end,
                 uint64_t* words) override {
    packed.emplace_back(begin, end);
    inner_.PackRange(record, begin, end, words);
  }
  size_t pack_block() const override { return inner_.pack_block(); }
  bool is_binary() const override { return true; }

  std::vector<std::pair<size_t, size_t>> packed;

 private:
  RandomHyperplaneFamily inner_;
};

TEST(HashCacheTest, BinaryGrowthEvaluatesEachBlockOnce) {
  Record record = DenseRecord(GaussianVector(17, 3));
  auto owned = std::make_unique<CountingFamily>(17, 5);
  CountingFamily* family = owned.get();
  HashCache cache(std::move(owned), 1);
  // A multi-unit plan's small steps: 13 is inside the block [8, 16) that
  // Ensure(10) packed whole, so it evaluates nothing.
  for (size_t count : {10, 13, 20, 32, 45}) cache.Ensure(record, 0, count);
  const std::vector<std::pair<size_t, size_t>> want = {
      {0, 10}, {16, 20}, {24, 32}, {32, 45}};
  EXPECT_EQ(family->packed, want);
  EXPECT_EQ(cache.total_hashes_computed(), 45u);
  for (size_t j = 0; j < 45; ++j) {
    EXPECT_EQ(cache.ValueForTest(0, j),
              CanonicalSign(5, j, record.field(0).dense()))
        << j;
  }
}

Record TwoDenseRecord(size_t dim0, size_t dim1, uint64_t seed) {
  std::vector<Field> fields;
  fields.push_back(Field::DenseVector(GaussianVector(dim0, seed)));
  fields.push_back(Field::DenseVector(GaussianVector(dim1, seed + 1)));
  return Record(std::move(fields));
}

TEST(WeightedFieldFamilyTest, TwoDenseFieldsMatchPerIndexSubFamilyCalls) {
  const Record record = TwoDenseRecord(7, 64, 40);
  for (const std::vector<double>& weights :
       {std::vector<double>{0.5, 0.5}, std::vector<double>{0.9, 0.1}}) {
    auto make = [&] {
      std::vector<std::unique_ptr<HashFamily>> subs;
      subs.push_back(std::make_unique<RandomHyperplaneFamily>(0, 7, 101));
      subs.push_back(std::make_unique<RandomHyperplaneFamily>(1, 64, 102));
      return WeightedFieldFamily(std::move(subs), weights, 103);
    };
    WeightedFieldFamily family = make();
    ASSERT_TRUE(family.is_binary());
    // The reference: one call per index on separately built sub-families.
    RandomHyperplaneFamily sub0(0, 7, 101);
    RandomHyperplaneFamily sub1(1, 64, 102);
    HashFamily* subs[] = {&sub0, &sub1};
    std::vector<uint64_t> expected(150);
    for (size_t j = 0; j < expected.size(); ++j) {
      subs[family.FieldPickForIndex(j)]->HashRange(record, j, j + 1,
                                                   &expected[j]);
    }
    std::vector<uint64_t> range(147);
    family.HashRange(record, 3, 150, range.data());
    for (size_t j = 3; j < 150; ++j) {
      EXPECT_EQ(range[j - 3], expected[j]) << "j=" << j;
    }
    WeightedFieldFamily one_index = make();
    for (size_t j = 0; j < expected.size(); ++j) {
      uint64_t value = 2;
      one_index.HashRange(record, j, j + 1, &value);
      EXPECT_EQ(value, expected[j]) << "j=" << j;
    }
    // Through the cache, in odd steps (the default PackRange).
    HashCache cache(std::make_unique<WeightedFieldFamily>(make()), 1);
    for (size_t count : {5, 13, 60, 70, 130}) cache.Ensure(record, 0, count);
    for (size_t j = 0; j < 130; ++j) {
      EXPECT_EQ(cache.ValueForTest(0, j), expected[j]) << "j=" << j;
    }
  }
}

}  // namespace
}  // namespace adalsh
