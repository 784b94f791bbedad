#include "lsh/hash_cache.h"

#include <memory>

#include <gtest/gtest.h>

#include "lsh/minhash.h"
#include "lsh/random_hyperplane.h"

namespace adalsh {
namespace {

Record TokenRecord(std::vector<uint64_t> tokens) {
  std::vector<Field> fields;
  fields.push_back(Field::TokenSet(std::move(tokens)));
  return Record(std::move(fields));
}

Record DenseRecord(std::vector<float> v) {
  std::vector<Field> fields;
  fields.push_back(Field::DenseVector(std::move(v)));
  return Record(std::move(fields));
}

TEST(HashCacheTest, IncrementalGrowthCountsOnlyNewHashes) {
  HashCache cache(std::make_unique<MinHashFamily>(0, 3), /*num_records=*/4);
  Record r = TokenRecord({1, 2, 3});
  cache.Ensure(r, 0, 10);
  EXPECT_EQ(cache.computed_count(0), 10u);
  EXPECT_EQ(cache.total_hashes_computed(), 10u);
  // Property 4: extending reuses the prefix — only 10 new evaluations.
  cache.Ensure(r, 0, 20);
  EXPECT_EQ(cache.computed_count(0), 20u);
  EXPECT_EQ(cache.total_hashes_computed(), 20u);
  // Re-ensuring a covered prefix is free.
  cache.Ensure(r, 0, 15);
  EXPECT_EQ(cache.total_hashes_computed(), 20u);
}

TEST(HashCacheTest, PrefixValuesAreStableAcrossGrowth) {
  // The cached prefix must be identical whether computed in one or many
  // steps — the incremental-computation property at value level.
  Record r = TokenRecord({5, 9, 14});
  HashCache grow(std::make_unique<MinHashFamily>(0, 7), 1);
  grow.Ensure(r, 0, 4);
  grow.Ensure(r, 0, 32);
  HashCache direct(std::make_unique<MinHashFamily>(0, 7), 1);
  direct.Ensure(r, 0, 32);
  for (size_t j = 0; j < 32; ++j) {
    EXPECT_EQ(grow.ValueForTest(0, j), direct.ValueForTest(0, j)) << j;
  }
}

TEST(HashCacheTest, BinaryPacking) {
  HashCache cache(std::make_unique<RandomHyperplaneFamily>(0, 2, 3), 1);
  EXPECT_TRUE(cache.is_binary());
  Record r = DenseRecord({0.5f, -0.25f});
  cache.Ensure(r, 0, 100);
  for (size_t j = 0; j < 100; ++j) {
    EXPECT_LE(cache.ValueForTest(0, j), 1u);
  }
}

TEST(HashCacheTest, CombineRangeEqualForEqualRecords) {
  HashCache cache(std::make_unique<MinHashFamily>(0, 3), 2);
  Record a = TokenRecord({1, 2, 3});
  Record b = TokenRecord({1, 2, 3});
  cache.Ensure(a, 0, 16);
  cache.Ensure(b, 1, 16);
  EXPECT_EQ(cache.CombineRange(0, 0, 16, 0), cache.CombineRange(1, 0, 16, 0));
  EXPECT_EQ(cache.CombineRange(0, 4, 12, 7), cache.CombineRange(1, 4, 12, 7));
}

TEST(HashCacheTest, CombineRangeDiffersForDifferentRecords) {
  HashCache cache(std::make_unique<MinHashFamily>(0, 3), 2);
  Record a = TokenRecord({1, 2, 3});
  Record b = TokenRecord({7, 8, 9});
  cache.Ensure(a, 0, 16);
  cache.Ensure(b, 1, 16);
  EXPECT_NE(cache.CombineRange(0, 0, 16, 0), cache.CombineRange(1, 0, 16, 0));
}

TEST(HashCacheTest, CombineRangeBinaryCrossesBlockBoundaries) {
  HashCache cache(std::make_unique<RandomHyperplaneFamily>(0, 3, 9), 2);
  Record a = DenseRecord({0.1f, 0.9f, -0.4f});
  Record b = DenseRecord({0.1f, 0.9f, -0.4f});
  cache.Ensure(a, 0, 130);
  cache.Ensure(b, 1, 130);
  // Ranges spanning the 64-bit block boundary must agree for equal records.
  EXPECT_EQ(cache.CombineRange(0, 60, 70, 1), cache.CombineRange(1, 60, 70, 1));
  EXPECT_EQ(cache.CombineRange(0, 0, 130, 1), cache.CombineRange(1, 0, 130, 1));
}

TEST(HashCacheTest, SaltChangesKey) {
  HashCache cache(std::make_unique<MinHashFamily>(0, 3), 1);
  Record a = TokenRecord({1, 2, 3});
  cache.Ensure(a, 0, 8);
  EXPECT_NE(cache.CombineRange(0, 0, 8, 1), cache.CombineRange(0, 0, 8, 2));
}

TEST(HashCacheTest, SwapSlotLendsAPrefixAndTakesBackItsExtension) {
  // The cross-shard merge's borrow: a slot moves to another cache over the
  // same stream, grows there, and comes back. Each cache counts only what it
  // computed, and the returned prefix is the one this cache would have
  // computed itself — binary families included, whose words hold a whole
  // block past the prefix.
  for (bool binary : {false, true}) {
    SCOPED_TRACE(binary ? "binary" : "wide");
    auto family = [binary]() -> std::unique_ptr<HashFamily> {
      if (binary) return std::make_unique<RandomHyperplaneFamily>(0, 2, 3);
      return std::make_unique<MinHashFamily>(0, 7);
    };
    const Record r = binary ? DenseRecord({0.5f, -0.25f})
                            : TokenRecord({5, 9, 14});
    HashCache shard(family(), /*num_records=*/3);
    HashCache merge(family(), /*num_records=*/2);
    HashCache direct(family(), /*num_records=*/1);
    shard.Ensure(r, 2, 13);
    merge.SwapSlot(0, &shard, 2);  // borrow
    EXPECT_EQ(merge.computed_count(0), 13u);
    EXPECT_EQ(shard.computed_count(2), 0u);
    EXPECT_EQ(merge.cached_values(), 13u);
    EXPECT_EQ(shard.cached_values(), 0u);
    merge.Ensure(r, 0, 70);  // only the extension is evaluated
    EXPECT_EQ(merge.total_hashes_computed(), 57u);
    merge.SwapSlot(0, &shard, 2);  // return
    EXPECT_EQ(shard.computed_count(2), 70u);
    EXPECT_EQ(merge.computed_count(0), 0u);
    EXPECT_EQ(shard.total_hashes_computed(), 13u);
    shard.Ensure(r, 2, 70);  // covered: free
    EXPECT_EQ(shard.total_hashes_computed(), 13u);
    direct.Ensure(r, 0, 90);
    shard.Ensure(r, 2, 90);
    for (size_t j = 0; j < 90; ++j) {
      EXPECT_EQ(shard.ValueForTest(2, j), direct.ValueForTest(0, j)) << j;
    }
  }
}

TEST(HashCacheTest, ClearForgetsAndFreesTheSlot) {
  HashCache cache(std::make_unique<MinHashFamily>(0, 3), 2);
  const Record r = TokenRecord({1, 2, 3});
  cache.Ensure(r, 0, 40);
  cache.Ensure(r, 1, 10);
  EXPECT_EQ(cache.cached_values(), 50u);
  cache.Clear(0);
  EXPECT_EQ(cache.computed_count(0), 0u);
  EXPECT_EQ(cache.cached_values(), 10u);
  cache.Ensure(r, 0, 40);  // recomputed and counted again
  EXPECT_EQ(cache.total_hashes_computed(), 90u);
}

TEST(HashCacheDeathTest, CombinePastPrefixAborts) {
  HashCache cache(std::make_unique<MinHashFamily>(0, 3), 1);
  Record a = TokenRecord({1});
  cache.Ensure(a, 0, 4);
  EXPECT_DEATH(cache.CombineRange(0, 0, 8, 0), "computed prefix");
}

}  // namespace
}  // namespace adalsh
