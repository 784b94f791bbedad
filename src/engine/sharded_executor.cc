#include "engine/sharded_executor.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>

#include "core/termination.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace adalsh {

int ShardOfExternalId(ExternalId id, int shards) {
  ADALSH_CHECK_GE(shards, 1);
  if (shards == 1) return 0;
  return static_cast<int>(SplitMix64(id) % static_cast<uint64_t>(shards));
}

namespace {

/// Folds one shard pass into an aggregated mutation result: rounds
/// concatenate in shard order, renumbered so indices stay 1-based and in
/// order (the per-round invariants of filter_output.h keep holding), work
/// counters sum, wall time takes the slowest shard (the passes overlap), and
/// the per-record snapshots add up (shards hold disjoint live sets).
void FoldShardResult(const EngineMutationResult& shard,
                     EngineMutationResult* result) {
  const FilterStats& in = shard.stats;
  FilterStats* out = &result->stats;
  for (RoundRecord round : in.round_records) {
    round.round = out->round_records.size() + 1;
    out->round_records.push_back(std::move(round));
  }
  out->rounds += in.rounds;
  out->hashes_computed += in.hashes_computed;
  out->pairwise_similarities += in.pairwise_similarities;
  out->modeled_cost += in.modeled_cost;
  out->filtering_seconds = std::max(out->filtering_seconds,
                                    in.filtering_seconds);
  if (out->records_last_hashed_at.size() < in.records_last_hashed_at.size()) {
    out->records_last_hashed_at.resize(in.records_last_hashed_at.size(), 0);
  }
  for (size_t i = 0; i < in.records_last_hashed_at.size(); ++i) {
    out->records_last_hashed_at[i] += in.records_last_hashed_at[i];
  }
  out->records_finished_by_pairwise += in.records_finished_by_pairwise;
  if (in.termination_reason != TerminationReason::kCompleted) {
    out->termination_reason = in.termination_reason;
  }
  result->lock_wait_seconds += shard.lock_wait_seconds;
  if (shard.refinement != TerminationReason::kCompleted) {
    result->refinement = shard.refinement;
  }
}

}  // namespace

ShardedEngine::ShardedEngine(MatchRule rule, Options options)
    : rule_(std::move(rule)), options_(std::move(options)) {
  ADALSH_CHECK_GE(options_.shards, 1) << "ShardedEngine needs >= 1 shards";
  Status valid = ResidentEngine::ValidateConfig(options_.engine.config);
  ADALSH_CHECK(valid.ok()) << valid.ToString();
  if (options_.engine.cost_model.has_value()) {
    shared_cost_model_ = options_.engine.cost_model;
  }
  snapshot_ = std::make_shared<EngineSnapshot>();
}

ShardedEngine::~ShardedEngine() = default;

ShardedEngine::ShardSpan ShardedEngine::Shards() const {
  std::lock_guard<std::mutex> lock(id_mu_);
  return shards_;
}

uint64_t ShardedEngine::Publish() {
  const ShardSpan shards = Shards();
  std::shared_ptr<const EngineSnapshot> shard_snapshot =
      shards.size() == 1 ? shards.front()->Snapshot() : nullptr;
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (shard_snapshot != nullptr &&
      shard_snapshot->generation > snapshot_->generation) {
    snapshot_ = std::move(shard_snapshot);
  }
  return snapshot_->generation;
}

Status ShardedEngine::Admit(MutationKind kind,
                            std::span<const ExternalId> ids,
                            std::span<const Record> records,
                            const EngineBatchOptions& opts) const {
  static constexpr const char* kOps[] = {"Ingest", "Remove", "Update",
                                         "Flush"};
  Status slo = ResidentEngine::EffectiveOptions(
                   options_.engine.config, kOps[static_cast<int>(kind)], opts)
                   .status();
  if (!slo.ok()) return slo;
  switch (kind) {
    case MutationKind::kIngest: {
      Status schema = CheckSchema(records);
      if (!schema.ok()) return schema;
      for (size_t i = 0; i < ids.size(); ++i) {
        if (i > 0 && ids[i] <= ids[i - 1]) {
          return Status::InvalidArgument(
              "IngestWithIds: ids must be strictly increasing within the "
              "batch");
        }
        if (IsLive(ids[i])) {
          return Status::InvalidArgument(
              "IngestWithIds: id " + std::to_string(ids[i]) +
              " is already bound to a live record");
        }
      }
      break;
    }
    case MutationKind::kRemove: {
      std::unordered_set<ExternalId> seen;
      for (ExternalId id : ids) {
        if (!seen.insert(id).second) {
          return Status::InvalidArgument("Remove: id " + std::to_string(id) +
                                         " appears twice in the batch");
        }
      }
      for (ExternalId id : ids) {
        if (!IsLive(id)) {
          return Status::NotFound("Remove: no live record with id " +
                                  std::to_string(id));
        }
      }
      break;
    }
    case MutationKind::kUpdate:
      ADALSH_CHECK(ids.size() == 1 && records.size() == 1);
      if (!IsLive(ids.front())) {
        return Status::NotFound("Update: no live record with id " +
                                std::to_string(ids.front()));
      }
      return CheckSchema(records);
    case MutationKind::kFlush:
      break;
  }
  return Status::Ok();
}

Status ShardedEngine::CheckSchema(std::span<const Record> records) const {
  if (records.empty()) return Status::Ok();
  std::lock_guard<std::mutex> lock(id_mu_);
  const Record& prototype =
      prototype_.has_value() ? *prototype_ : records.front();
  for (size_t i = 0; i < records.size(); ++i) {
    Status schema = ResidentEngine::CheckRecordSchema(prototype, records[i], i);
    if (!schema.ok()) return schema;
  }
  if (prototype_.has_value()) return Status::Ok();
  // Probing the sequence up front keeps a bad first batch all-or-nothing
  // (shard engines would otherwise each reject their sub-batch after other
  // shards already ingested theirs).
  return FunctionSequence::Build(rule_, records.front(),
                                 options_.engine.config.sequence)
      .status();
}

void ShardedEngine::BuildShardsLocked(const std::vector<Record>& first_batch) {
  ADALSH_CHECK(shards_.empty() && !first_batch.empty());
  if (!shared_cost_model_.has_value()) {
    // One model for every shard: shards calibrating separately would
    // disagree on the jump-to-P point, and with it on the produced clusters
    // across shard counts (docs/sharding.md).
    Dataset sample("shard-calibration");
    for (const Record& record : first_batch) {
      sample.AddRecord(Record(record), /*entity=*/0);
    }
    shared_cost_model_.emplace(CostModel::Calibrate(
        sample, rule_, options_.engine.config.calibration_samples,
        options_.engine.config.seed, /*pool=*/nullptr,
        options_.engine.config.instrumentation));
  }
  const int total_threads = options_.engine.config.threads > 0
                                ? options_.engine.config.threads
                                : ThreadPool::HardwareConcurrency();
  const int per_shard =
      std::max(1, total_threads / std::max(1, options_.shards));
  shards_.reserve(options_.shards);
  for (int s = 0; s < options_.shards; ++s) {
    ResidentEngine::Options shard_options = options_.engine;
    shard_options.config.threads = per_shard;
    shard_options.cost_model = shared_cost_model_;
    // Shard refinement runs on whichever mutator thread routed the batch —
    // the Observer contract (one driving thread, ordered callbacks) cannot
    // hold across shards, so only the thread-safe sinks pass through.
    shard_options.config.instrumentation.observer = nullptr;
    shards_.push_back(
        std::make_unique<ResidentEngine>(rule_, std::move(shard_options)));
  }
  prototype_ = first_batch.front();
}

StatusOr<EngineMutationResult> ShardedEngine::Ingest(
    std::vector<Record> records, const EngineBatchOptions& opts) {
  return RouteIngest(std::move(records), {}, opts);
}

StatusOr<EngineMutationResult> ShardedEngine::IngestWithIds(
    std::vector<Record> records, std::vector<ExternalId> ids,
    const EngineBatchOptions& opts) {
  // Checked here, not in Admit, which reads an empty id list as fresh ids.
  if (records.size() != ids.size()) {
    return Status::InvalidArgument(
        "IngestWithIds: " + std::to_string(ids.size()) + " ids for " +
        std::to_string(records.size()) + " records");
  }
  return RouteIngest(std::move(records), std::move(ids), opts);
}

StatusOr<EngineMutationResult> ShardedEngine::RouteIngest(
    std::vector<Record> records, std::vector<ExternalId> ids,
    const EngineBatchOptions& opts) {
  Status admitted = Admit(MutationKind::kIngest, ids, records, opts);
  if (!admitted.ok()) return admitted;
  if (records.empty()) {
    EngineMutationResult result;
    result.generation = Publish();
    return result;
  }
  {
    std::lock_guard<std::mutex> lock(id_mu_);
    if (shards_.empty()) {
      BuildShardsLocked(records);
    } else {
      // A concurrent first batch may have fixed the schema since Admit read
      // it; the batch's records all match its first one.
      Status schema =
          ResidentEngine::CheckRecordSchema(*prototype_, records.front(), 0);
      if (!schema.ok()) return schema;
    }
    if (ids.empty()) {
      ids.reserve(records.size());
      for (size_t i = 0; i < records.size(); ++i) {
        ids.push_back(next_ext_id_++);
      }
    } else {
      next_ext_id_ = std::max(next_ext_id_, ids.back() + 1);
    }
  }
  const ShardSpan shards = Shards();

  const Instrumentation& instr = options_.engine.config.instrumentation;
  EngineMutationResult result;

  // Partition by shard, preserving batch order within each sub-batch (ids
  // stay strictly increasing per shard).
  std::vector<std::vector<Record>> shard_records(shards.size());
  std::vector<std::vector<ExternalId>> shard_ids(shards.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const int s = ShardOfExternalId(ids[i], options_.shards);
    shard_records[s].push_back(std::move(records[i]));
    shard_ids[s].push_back(ids[i]);
  }

  // One thread per involved shard: each sub-batch runs the full per-shard
  // round loop concurrently on disjoint engines.
  std::vector<int> involved;
  for (size_t s = 0; s < shards.size(); ++s) {
    if (!shard_records[s].empty()) involved.push_back(static_cast<int>(s));
  }
  std::vector<StatusOr<EngineMutationResult>> shard_results(
      involved.size(),
      StatusOr<EngineMutationResult>(
          Status::FailedPrecondition("shard pass never ran")));
  auto run_shard = [&](size_t idx) {
    const int s = involved[idx];
    TraceRecorder::Span span(instr.trace, "shard_run", "engine");
    span.AddArg("shard", static_cast<double>(s));
    span.AddArg("records", static_cast<double>(shard_records[s].size()));
    shard_results[idx] = shards[s]->IngestWithIds(
        std::move(shard_records[s]), std::move(shard_ids[s]), opts);
  };
  // An external RunController is Arm()ed by every pass that uses it
  // (termination.h) — with several shard passes sharing one controller that
  // must not happen concurrently, so controller-bearing batches run their
  // shards serially. Budget-only SLOs get independent per-shard controllers
  // and stay parallel (the budget bounds each shard pass, not their sum).
  const bool serialize = opts.controller != nullptr ||
                         options_.engine.config.controller != nullptr;
  if (involved.size() == 1 || serialize) {
    for (size_t idx = 0; idx < involved.size(); ++idx) run_shard(idx);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(involved.size());
    for (size_t idx = 0; idx < involved.size(); ++idx) {
      threads.emplace_back(run_shard, idx);
    }
    for (std::thread& t : threads) t.join();
  }

  for (size_t idx = 0; idx < involved.size(); ++idx) {
    if (!shard_results[idx].ok()) return shard_results[idx].status();
    FoldShardResult(shard_results[idx].value(), &result);
    if (instr.metrics != nullptr) {
      instr.metrics->AddCounter(
          "shard" + std::to_string(involved[idx]) + "_mutations", 1);
    }
  }
  result.assigned_ids = std::move(ids);
  result.generation = Publish();
  return result;
}

StatusOr<EngineMutationResult> ShardedEngine::Remove(
    std::span<const ExternalId> ids, const EngineBatchOptions& opts) {
  Status admitted = Admit(MutationKind::kRemove, ids, {}, opts);
  if (!admitted.ok()) return admitted;
  const Instrumentation& instr = options_.engine.config.instrumentation;
  const ShardSpan shards = Shards();
  std::vector<std::vector<ExternalId>> shard_ids(shards.size());
  for (ExternalId id : ids) {
    shard_ids[ShardOfExternalId(id, options_.shards)].push_back(id);
  }
  EngineMutationResult result;
  for (size_t s = 0; s < shards.size(); ++s) {
    if (shard_ids[s].empty()) continue;
    TraceRecorder::Span span(instr.trace, "shard_run", "engine");
    span.AddArg("shard", static_cast<double>(s));
    StatusOr<EngineMutationResult> shard =
        shards[s]->Remove(shard_ids[s], opts);
    if (!shard.ok()) return shard.status();
    FoldShardResult(shard.value(), &result);
    if (instr.metrics != nullptr) {
      instr.metrics->AddCounter("shard" + std::to_string(s) + "_mutations",
                                1);
    }
  }
  result.generation = Publish();
  return result;
}

StatusOr<EngineMutationResult> ShardedEngine::Update(
    ExternalId id, Record record, const EngineBatchOptions& opts) {
  Status admitted = Admit(MutationKind::kUpdate, {&id, 1}, {&record, 1}, opts);
  if (!admitted.ok()) return admitted;
  const Instrumentation& instr = options_.engine.config.instrumentation;
  const ShardSpan shards = Shards();
  const int s = ShardOfExternalId(id, options_.shards);
  TraceRecorder::Span span(instr.trace, "shard_run", "engine");
  span.AddArg("shard", static_cast<double>(s));
  StatusOr<EngineMutationResult> shard =
      shards[s]->Update(id, std::move(record), opts);
  if (!shard.ok()) return shard.status();
  if (instr.metrics != nullptr) {
    instr.metrics->AddCounter("shard" + std::to_string(s) + "_mutations", 1);
  }
  EngineMutationResult result = std::move(shard).value();
  result.generation = Publish();
  return result;
}

StatusOr<EngineMutationResult> ShardedEngine::Flush(
    const EngineBatchOptions& opts) {
  Status admitted = Admit(MutationKind::kFlush, {}, {}, opts);
  if (!admitted.ok()) return admitted;
  const Instrumentation& instr = options_.engine.config.instrumentation;
  Timer flush_timer;
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  const ShardSpan shards = Shards();
  EngineMutationResult result;
  if (shards.size() == 1) {
    // The flushed shard's snapshot is the global one, published below.
    StatusOr<EngineMutationResult> flushed = shards.front()->Flush(opts);
    if (!flushed.ok()) return flushed.status();
    FoldShardResult(flushed.value(), &result);
  } else if (shards.size() >= 2) {
    // The merge reads only live records and borrows their hash slots, and
    // no budget bounds it, so no shard pass has to finish first.
    ResidentEngine::Options merge_options = options_.engine;
    merge_options.cost_model = shared_cost_model_;
    ResidentEngine::MergedShards merged =
        ResidentEngine::Merge(rule_, std::move(merge_options), shards);
    result.lock_wait_seconds = merged.lock_wait_seconds;
    result.stats = merged.snapshot.stats;
    auto snapshot =
        std::make_shared<EngineSnapshot>(std::move(merged.snapshot));
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot->generation = snapshot_->generation + 1;
    snapshot_ = std::move(snapshot);
    batches_at_merge_ = merged.batches;
  }

  // Per-shard balance gauges, read after the merge released the shard locks
  // (counters() takes each shard's mutation lock itself).
  if (instr.metrics != nullptr) {
    for (size_t s = 0; s < shards.size(); ++s) {
      const EngineCounters c = shards[s]->counters();
      const std::string prefix = "shard" + std::to_string(s);
      instr.metrics->SetGauge(prefix + "_live_records",
                              static_cast<double>(c.live_records));
      instr.metrics->SetGauge(prefix + "_level1_buckets",
                              static_cast<double>(c.level1_buckets));
      instr.metrics->SetGauge(prefix + "_forest_nodes",
                              static_cast<double>(c.forest_nodes));
    }
    instr.metrics->RecordLatency("shard_flush_seconds",
                                 flush_timer.ElapsedSeconds());
  }
  result.generation = Publish();
  return result;
}

std::shared_ptr<const EngineSnapshot> ShardedEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

StatusOr<std::vector<std::vector<ExternalId>>> ShardedEngine::TopK(
    int k) const {
  if (k < 1) return Status::InvalidArgument("TopK: k must be >= 1");
  std::shared_ptr<const EngineSnapshot> snap = Snapshot();
  const size_t count = std::min(static_cast<size_t>(k), snap->clusters.size());
  return std::vector<std::vector<ExternalId>>(
      snap->clusters.begin(), snap->clusters.begin() + count);
}

StatusOr<std::vector<ExternalId>> ShardedEngine::Cluster(
    ExternalId id) const {
  std::shared_ptr<const EngineSnapshot> snap = Snapshot();
  auto it = snap->cluster_of.find(id);
  if (it == snap->cluster_of.end()) {
    return Status::NotFound("record " + std::to_string(id) +
                            " is in no cluster of snapshot generation " +
                            std::to_string(snap->generation));
  }
  return snap->clusters[it->second];
}

EngineCounters ShardedEngine::counters() const {
  // The published state first: shard batch counts only grow, so the lag
  // computed from later shard reads never underflows.
  std::shared_ptr<const EngineSnapshot> snap;
  uint64_t batches_at_merge = 0;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snap = snapshot_;
    batches_at_merge = batches_at_merge_;
  }
  EngineCounters total;
  const ShardSpan shards = Shards();
  for (const std::unique_ptr<ResidentEngine>& shard : shards) {
    const EngineCounters c = shard->counters();
    total.batches += c.batches;
    total.ingested += c.ingested;
    total.removed += c.removed;
    total.updated += c.updated;
    total.arrivals_merged += c.arrivals_merged;
    total.arrivals_walked += c.arrivals_walked;
    total.nodes_pended += c.nodes_pended;
    total.refinements_completed += c.refinements_completed;
    total.refinements_interrupted += c.refinements_interrupted;
    total.internal_records += c.internal_records;
    total.level1_buckets += c.level1_buckets;
    total.snapshot_lag_batches += c.snapshot_lag_batches;
    total.total_hashes += c.total_hashes;
    total.total_similarities += c.total_similarities;
    total.forest_nodes += c.forest_nodes;
    total.cached_hash_values += c.cached_hash_values;
  }
  // At S>=2 the shards' own snapshots are never served: the lag counts the
  // shard batches the last published merge has not seen.
  if (shards.size() >= 2) {
    total.snapshot_lag_batches = total.batches - batches_at_merge;
  }
  total.generation = snap->generation;
  total.live_records = snap->live_records;
  return total;
}

bool ShardedEngine::IsLive(ExternalId id) const {
  const ShardSpan shards = Shards();
  if (shards.empty()) return false;
  return shards[ShardOfExternalId(id, options_.shards)]->IsLive(id);
}

std::vector<std::pair<ExternalId, Record>> ShardedEngine::LiveRecords()
    const {
  std::vector<std::pair<ExternalId, Record>> out;
  for (const std::unique_ptr<ResidentEngine>& shard : Shards()) {
    std::vector<std::pair<ExternalId, Record>> shard_live =
        shard->LiveRecords();
    out.insert(out.end(), std::make_move_iterator(shard_live.begin()),
               std::make_move_iterator(shard_live.end()));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::optional<CostModel> ShardedEngine::cost_model() const {
  std::lock_guard<std::mutex> lock(id_mu_);
  return shared_cost_model_;
}

std::vector<EngineCounters> ShardedEngine::shard_counters() const {
  const ShardSpan shards = Shards();
  std::vector<EngineCounters> per_shard;
  per_shard.reserve(shards.size());
  for (const std::unique_ptr<ResidentEngine>& shard : shards) {
    per_shard.push_back(shard->counters());
  }
  return per_shard;
}

}  // namespace adalsh
