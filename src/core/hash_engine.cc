#include "core/hash_engine.h"

#include "lsh/weighted_field_family.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "util/check.h"
#include "util/rng.h"

namespace adalsh {

HashEngine::HashEngine(const Dataset& dataset, RuleHashStructure structure,
                       uint64_t seed)
    : dataset_(&dataset), structure_(std::move(structure)) {
  ADALSH_CHECK_GT(dataset.num_records(), 0u);
  caches_.reserve(structure_.units.size());
  for (size_t u = 0; u < structure_.units.size(); ++u) {
    const HashUnitSpec& unit = structure_.units[u];
    caches_.emplace_back(
        MakeFamilyForFields(unit.fields, unit.weights, dataset.record(0),
                            DeriveSeed(seed, 0xa110c + u)),
        dataset.num_records());
  }
}

void HashEngine::GrowTo(size_t num_records) {
  ADALSH_CHECK_LE(num_records, dataset_->num_records());
  for (HashCache& cache : caches_) cache.GrowTo(num_records);
}

void HashEngine::EnsureHashes(RecordId r, const SchemePlan& plan) {
  ADALSH_CHECK_EQ(plan.hashes_per_unit.size(), caches_.size());
  const Record& record = dataset_->record(r);
  for (size_t u = 0; u < caches_.size(); ++u) {
    if (plan.hashes_per_unit[u] > 0) {
      caches_[u].Ensure(record, r, plan.hashes_per_unit[u]);
    }
  }
}

void HashEngine::ClearHashes(RecordId r) {
  for (HashCache& cache : caches_) cache.Clear(r);
}

void HashEngine::PreparePlan(const SchemePlan& plan) {
  ADALSH_CHECK_EQ(plan.hashes_per_unit.size(), caches_.size());
  for (size_t u = 0; u < caches_.size(); ++u) {
    if (plan.hashes_per_unit[u] > 0) {
      caches_[u].Prepare(plan.hashes_per_unit[u]);
    }
  }
}

void HashEngine::EnsureHashesParallel(std::span<const RecordId> records,
                                      const SchemePlan& plan,
                                      ThreadPool* pool) {
  const bool observed = instr_.enabled();
  const uint64_t hashes_before = observed ? total_hashes_computed() : 0;
  TraceRecorder::Span span(instr_.trace, "hash_pass", "hash");
  PreparePlan(plan);
  ParallelFor(pool, records.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) EnsureHashes(records[i], plan);
  });
  if (observed) {
    const uint64_t hashes = total_hashes_computed() - hashes_before;
    span.AddArg("records", static_cast<double>(records.size()));
    span.AddArg("hashes", static_cast<double>(hashes));
    if (instr_.metrics != nullptr) {
      instr_.metrics->AddCounter("hashes_computed", hashes);
      instr_.metrics->AddCounter("hash_passes", 1);
    }
  }
}

void HashEngine::ReserveHashes(std::span<const RecordId> records,
                               const SchemePlan& plan) {
  ADALSH_CHECK_EQ(plan.hashes_per_unit.size(), caches_.size());
  for (size_t u = 0; u < caches_.size(); ++u) {
    if (plan.hashes_per_unit[u] == 0) continue;
    for (RecordId r : records) caches_[u].Reserve(r, plan.hashes_per_unit[u]);
  }
}

void HashEngine::SwapRecordHashes(RecordId r, HashEngine* other,
                                  RecordId other_r) {
  ADALSH_CHECK_EQ(other->caches_.size(), caches_.size());
  for (size_t u = 0; u < caches_.size(); ++u) {
    caches_[u].SwapSlot(r, &other->caches_[u], other_r);
  }
}

void HashEngine::TableKeys(RecordId r, const SchemePlan& plan, uint64_t* out,
                           size_t stride) const {
  ADALSH_CHECK_EQ(plan.hashes_per_unit.size(), caches_.size());
  for (size_t u = 0; u < caches_.size(); ++u) {
    caches_[u].CheckComputed(r, plan.hashes_per_unit[u]);
  }
  for (size_t t = 0; t < plan.tables.size(); ++t) {
    uint64_t key = 0x5ca1ab1e0adab1e5ULL;
    for (const TablePart& part : plan.tables[t].parts) {
      key = caches_[part.unit].FoldRange(r, part.begin, part.end, key);
    }
    out[t * stride] = key;
  }
}

uint64_t HashEngine::total_hashes_computed() const {
  uint64_t total = 0;
  for (const HashCache& cache : caches_) {
    total += cache.total_hashes_computed();
  }
  return total;
}

size_t HashEngine::cached_hash_values() const {
  size_t total = 0;
  for (const HashCache& cache : caches_) total += cache.cached_values();
  return total;
}

}  // namespace adalsh
