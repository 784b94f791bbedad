#ifndef ADALSH_TESTS_ENGINE_HARNESS_H_
#define ADALSH_TESTS_ENGINE_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cost_model.h"
#include "engine/resident_engine.h"
#include "engine/sharded_executor.h"
#include "record/dataset.h"
#include "util/check.h"
#include "util/rng.h"

namespace adalsh {
namespace test {

/// Fixed unit costs shared by every engine under comparison. Calibration is
/// wall-clock based, so two engines calibrating independently could disagree
/// on jump-to-P decisions and the differential comparison would be
/// meaningless (same convention as parallel_equivalence_test.cc).
inline CostModel EngineFixedCostModel() { return CostModel(1e-8, 1e-6); }

/// Small-sequence engine options mirroring the AdaptiveLsh tests'
/// SmallConfig, with the cost model pinned.
inline ResidentEngine::Options EngineOptions(int threads, int top_k,
                                             uint64_t seed = 3) {
  ResidentEngine::Options options;
  options.config.sequence.max_budget = 640;
  options.config.seed = seed;
  options.config.threads = threads;
  options.top_k = top_k;
  options.cost_model = EngineFixedCostModel();
  return options;
}

/// Byte-comparable canonical serialization of a snapshot: live count, then
/// one line per cluster (verification level + ascending members). `relabel`
/// maps the snapshot's member ids into another engine's id space; the map
/// must be monotone so the canonical cluster order is preserved.
inline std::string CanonicalSnapshot(
    const EngineSnapshot& snap,
    const std::unordered_map<ExternalId, ExternalId>* relabel = nullptr) {
  std::string out =
      "live=" + std::to_string(snap.live_records) + "\n";
  for (size_t i = 0; i < snap.clusters.size(); ++i) {
    out += "v=" + std::to_string(snap.verification[i]) + " [";
    for (ExternalId member : snap.clusters[i]) {
      const ExternalId id = relabel != nullptr ? relabel->at(member) : member;
      out += " " + std::to_string(id);
    }
    out += " ]\n";
  }
  return out;
}

/// The logical state a mutation script drives an engine through: every live
/// external id, bound to the index of the source-dataset record currently
/// holding its contents.
using LiveMap = std::map<ExternalId, size_t>;

/// Knobs for RunRandomScript. The deterministic mutation history depends
/// only on (seed, source size, these knobs) — never on engine behaviour — so
/// engines at different thread counts see the identical script.
struct ScriptOptions {
  bool with_removes = true;
  bool with_updates = true;
  size_t max_batch = 7;
};

/// Drives `engine` through a deterministic pseudo-random mutation history:
/// the source records are ingested in shuffled order across random-size
/// batches, with removals of random live ids and updates (rebinding a live
/// id to another source record's contents) interleaved between batches.
/// Aborts on any non-ok engine status. Returns the final logical state.
/// Templated over the engine so the identical script drives ResidentEngine
/// and ShardedEngine (shard_equivalence_test) — both expose the same
/// Ingest/Remove/Update surface and assign ascending external ids.
template <typename Engine>
inline LiveMap RunRandomScript(Engine* engine, const Dataset& source,
                               uint64_t seed,
                               const ScriptOptions& script = {}) {
  Rng rng(DeriveSeed(seed, 0xe191e));
  std::vector<size_t> order(source.num_records());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);

  LiveMap live;
  auto pick_live = [&]() {
    auto it = live.begin();
    std::advance(it, rng.NextBelow(live.size()));
    return it;
  };

  size_t pos = 0;
  while (pos < order.size()) {
    const size_t batch = 1 + rng.NextBelow(std::min<uint64_t>(
                                 order.size() - pos, script.max_batch));
    std::vector<Record> records;
    std::vector<size_t> indices;
    for (size_t i = 0; i < batch; ++i, ++pos) {
      indices.push_back(order[pos]);
      records.push_back(source.record(order[pos]));
    }
    auto ingested = engine->Ingest(std::move(records));
    ADALSH_CHECK(ingested.ok()) << ingested.status().ToString();
    for (size_t i = 0; i < indices.size(); ++i) {
      live[ingested.value().assigned_ids[i]] = indices[i];
    }

    if (script.with_removes && !live.empty() && rng.NextBelow(2) == 0) {
      const size_t count =
          1 + rng.NextBelow(std::min<uint64_t>(live.size(), 3));
      std::vector<ExternalId> ids;
      for (size_t c = 0; c < count; ++c) {
        const ExternalId id = pick_live()->first;
        if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
          ids.push_back(id);
        }
      }
      auto removed = engine->Remove(ids);
      ADALSH_CHECK(removed.ok()) << removed.status().ToString();
      for (ExternalId id : ids) live.erase(id);
    }

    if (script.with_updates && !live.empty() && rng.NextBelow(3) == 0) {
      auto it = pick_live();
      const size_t new_index = rng.NextBelow(source.num_records());
      auto updated = engine->Update(it->first, source.record(new_index));
      ADALSH_CHECK(updated.ok()) << updated.status().ToString();
      it->second = new_index;
    }
  }
  return live;
}

/// The from-scratch reference: a fresh single-threaded engine ingesting the
/// final live records in ONE batch, in ascending subject-id order. Because
/// ingestion order is ascending, the map (reference id -> subject id) is
/// monotone, so relabeling preserves the canonical cluster order and the
/// serialized snapshots of a confluent subject engine must match
/// byte-for-byte. `level1_buckets`, when set, receives the reference's
/// level-1 bucket count, which a subject engine must match too.
inline std::string ReferenceCanonical(const Dataset& source,
                                      const MatchRule& rule,
                                      const LiveMap& live, int top_k,
                                      size_t* level1_buckets = nullptr) {
  ResidentEngine reference(rule, EngineOptions(/*threads=*/1, top_k));
  if (level1_buckets != nullptr) *level1_buckets = 0;
  if (live.empty()) return CanonicalSnapshot(*reference.Snapshot());
  std::vector<Record> records;
  std::vector<ExternalId> subject_ids;
  for (const auto& [ext, index] : live) {  // std::map: ascending ext ids
    records.push_back(source.record(index));
    subject_ids.push_back(ext);
  }
  auto ingested = reference.Ingest(std::move(records));
  ADALSH_CHECK(ingested.ok()) << ingested.status().ToString();
  if (level1_buckets != nullptr) {
    *level1_buckets = reference.counters().level1_buckets;
  }
  std::unordered_map<ExternalId, ExternalId> relabel;
  for (size_t i = 0; i < subject_ids.size(); ++i) {
    relabel[ingested.value().assigned_ids[i]] = subject_ids[i];
  }
  return CanonicalSnapshot(*reference.Snapshot(), &relabel);
}

/// The sharded engine's batch run: one Ingest of the whole of `dataset`
/// into a fresh `engine` (so its external ids are the record indices), then
/// one Flush. Aborts on a non-ok status; the snapshot is the engine's.
struct IngestedAndFlushed {
  EngineMutationResult ingested;
  EngineMutationResult flushed;
};
inline IngestedAndFlushed IngestAndFlush(ShardedEngine* engine,
                                         const Dataset& dataset) {
  std::vector<Record> records;
  records.reserve(dataset.num_records());
  for (RecordId r = 0; r < dataset.num_records(); ++r) {
    records.push_back(dataset.record(r));
  }
  StatusOr<EngineMutationResult> ingested = engine->Ingest(std::move(records));
  ADALSH_CHECK(ingested.ok()) << ingested.status().ToString();
  StatusOr<EngineMutationResult> flushed = engine->Flush();
  ADALSH_CHECK(flushed.ok()) << flushed.status().ToString();
  return {std::move(ingested).value(), std::move(flushed).value()};
}

}  // namespace test
}  // namespace adalsh

#endif  // ADALSH_TESTS_ENGINE_HARNESS_H_
