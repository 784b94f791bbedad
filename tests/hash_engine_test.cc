#include "core/hash_engine.h"

#include <vector>

#include <gtest/gtest.h>

#include "core/scheme_optimizer.h"
#include "test_util.h"

namespace adalsh {
namespace {

struct EngineFixture {
  GeneratedDataset generated;
  RuleHashStructure structure;
  SchemePlan plan;

  explicit EngineFixture(int budget, uint64_t seed = 3)
      : generated(test::MakePlantedDataset({6, 4}, seed)),
        structure(CompileRuleForHashing(generated.rule).value()),
        plan(BuildPlan(structure, OptimizeComposite(structure, budget,
                                                    OptimizerConfig{},
                                                    nullptr))) {}
};

std::vector<uint64_t> Keys(const HashEngine& engine, RecordId r,
                           const SchemePlan& plan) {
  std::vector<uint64_t> keys(plan.tables.size());
  engine.TableKeys(r, plan, keys.data());
  return keys;
}

TEST(HashEngineTest, TableKeysEqualForIdenticalRecords) {
  // Records 0 and 1 differ; a record compared with itself must key equal.
  EngineFixture fixture(80);
  HashEngine engine(fixture.generated.dataset, fixture.structure, 7);
  engine.EnsureHashes(0, fixture.plan);
  EXPECT_EQ(Keys(engine, 0, fixture.plan), Keys(engine, 0, fixture.plan));
}

TEST(HashEngineTest, SimilarRecordsShareSomeTables) {
  // Planted same-entity records (J ~0.8) share at least one bucket under a
  // generous scheme; different entities share none.
  EngineFixture fixture(160);
  HashEngine engine(fixture.generated.dataset, fixture.structure, 7);
  engine.EnsureHashes(0, fixture.plan);
  engine.EnsureHashes(1, fixture.plan);  // same entity as 0
  engine.EnsureHashes(6, fixture.plan);  // different entity
  const std::vector<uint64_t> keys0 = Keys(engine, 0, fixture.plan);
  const std::vector<uint64_t> keys1 = Keys(engine, 1, fixture.plan);
  const std::vector<uint64_t> keys6 = Keys(engine, 6, fixture.plan);
  int same_entity_collisions = 0, cross_entity_collisions = 0;
  for (size_t t = 0; t < fixture.plan.tables.size(); ++t) {
    same_entity_collisions += (keys0[t] == keys1[t]);
    cross_entity_collisions += (keys0[t] == keys6[t]);
  }
  EXPECT_GT(same_entity_collisions, 0);
  EXPECT_EQ(cross_entity_collisions, 0);
}

TEST(HashEngineTest, StridedTableKeysMatchPerRecordKeys) {
  // The table-major layout TransitiveHasher uses (key of record i in table t
  // at [t * m + i]) holds exactly each record's own keys.
  EngineFixture fixture(160);
  HashEngine engine(fixture.generated.dataset, fixture.structure, 7);
  const std::vector<RecordId> ids = {0, 1, 6, 9};
  const size_t m = ids.size();
  const size_t z = fixture.plan.tables.size();
  std::vector<uint64_t> table_major(m * z);
  for (size_t i = 0; i < m; ++i) {
    engine.EnsureHashes(ids[i], fixture.plan);
    engine.TableKeys(ids[i], fixture.plan, table_major.data() + i, m);
  }
  for (size_t i = 0; i < m; ++i) {
    const std::vector<uint64_t> own = Keys(engine, ids[i], fixture.plan);
    for (size_t t = 0; t < z; ++t) {
      ASSERT_EQ(table_major[t * m + i], own[t]) << "record " << ids[i];
    }
  }
}

TEST(HashEngineTest, HashCountTracksEnsures) {
  EngineFixture fixture(40);
  HashEngine engine(fixture.generated.dataset, fixture.structure, 7);
  EXPECT_EQ(engine.total_hashes_computed(), 0u);
  engine.EnsureHashes(0, fixture.plan);
  EXPECT_EQ(engine.total_hashes_computed(), fixture.plan.total_hashes());
  // Idempotent.
  engine.EnsureHashes(0, fixture.plan);
  EXPECT_EQ(engine.total_hashes_computed(), fixture.plan.total_hashes());
  engine.EnsureHashes(1, fixture.plan);
  EXPECT_EQ(engine.total_hashes_computed(), 2 * fixture.plan.total_hashes());
}

TEST(HashEngineTest, SeedChangesKeys) {
  EngineFixture fixture(40);
  HashEngine a(fixture.generated.dataset, fixture.structure, 1);
  HashEngine b(fixture.generated.dataset, fixture.structure, 2);
  a.EnsureHashes(0, fixture.plan);
  b.EnsureHashes(0, fixture.plan);
  EXPECT_NE(Keys(a, 0, fixture.plan), Keys(b, 0, fixture.plan));
}

TEST(HashEngineDeathTest, KeyBeforeEnsureAborts) {
  EngineFixture fixture(40);
  HashEngine engine(fixture.generated.dataset, fixture.structure, 7);
  std::vector<uint64_t> keys(fixture.plan.tables.size());
  EXPECT_DEATH(engine.TableKeys(0, fixture.plan, keys.data()),
               "computed prefix");
}

}  // namespace
}  // namespace adalsh
