#include "engine/resident_engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/refine_loop.h"
#include "core/termination.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace adalsh {
namespace {

Status CancelledStatus(const char* op) {
  return Status::FailedPrecondition(
      std::string(op) +
      " after Cancel(): the effective controller is sticky-cancelled; "
      "attach a fresh controller to keep mutating");
}

}  // namespace

/// Structural schema check against the engine's prototype record — the same
/// invariants FeatureCache asserts with CHECKs, surfaced as a Status before
/// any engine state is touched.
Status ResidentEngine::CheckRecordSchema(const Record& prototype,
                                         const Record& record, size_t index) {
  if (record.num_fields() != prototype.num_fields()) {
    return Status::InvalidArgument(
        "record " + std::to_string(index) + " has " +
        std::to_string(record.num_fields()) + " fields, engine schema has " +
        std::to_string(prototype.num_fields()));
  }
  for (FieldId f = 0; f < record.num_fields(); ++f) {
    const Field& field = record.field(f);
    const Field& proto = prototype.field(f);
    if (field.is_dense() != proto.is_dense()) {
      return Status::InvalidArgument("record " + std::to_string(index) +
                                     " field " + std::to_string(f) +
                                     " kind differs from the engine schema");
    }
    if (field.is_dense() && field.size() != proto.size()) {
      return Status::InvalidArgument(
          "record " + std::to_string(index) + " field " + std::to_string(f) +
          " has dimension " + std::to_string(field.size()) +
          ", engine schema has " + std::to_string(proto.size()));
    }
  }
  return Status::Ok();
}

Status ResidentEngine::ValidateConfig(const AdaptiveLshConfig& config) {
  if (config.selection != SelectionStrategy::kLargestFirst ||
      config.jump_model != JumpModel::kConservative ||
      config.ablate_incremental_reuse) {
    return Status::InvalidArgument(
        "the resident engines run canonical Largest-First only: selection, "
        "jump_model and ablate_incremental_reuse must keep their defaults");
  }
  return config.Validate();
}

ResidentEngine::ResidentEngine(MatchRule rule, Options options)
    : rule_(std::move(rule)),
      options_(std::move(options)),
      pool_(options_.config.threads),
      dataset_("resident") {
  Status valid = ValidateConfig(options_.config);
  ADALSH_CHECK(valid.ok()) << valid.ToString();
  ADALSH_CHECK_GE(options_.top_k, 1) << "ResidentEngine top_k must be >= 1";
  // Generation 0: the published view before any completed refinement.
  snapshot_ = std::make_shared<EngineSnapshot>();
}

EngineBatchOptions ResidentEngine::EffectiveOptions(
    const EngineBatchOptions& opts) const {
  EngineBatchOptions eff = opts;
  if (eff.controller == nullptr && eff.budget.unlimited()) {
    eff.controller = options_.config.controller;
    eff.budget = options_.config.budget;
  }
  return eff;
}

StatusOr<EngineMutationResult> ResidentEngine::Ingest(
    std::vector<Record> records, const EngineBatchOptions& opts) {
  Timer wait_timer;
  std::lock_guard<std::mutex> lock(mu_);
  const double lock_wait = wait_timer.ElapsedSeconds();
  EngineBatchOptions eff = EffectiveOptions(opts);
  if (eff.controller != nullptr && eff.controller->cancel_requested()) {
    return CancelledStatus("Ingest");
  }
  Status valid = ValidateIngestLocked(records);
  if (!valid.ok()) return valid;
  std::vector<ExternalId> ids;
  ids.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) ids.push_back(next_ext_id_++);
  return ApplyBatch("ingest", lock_wait, std::move(records), std::move(ids),
                    {}, eff);
}

StatusOr<EngineMutationResult> ResidentEngine::IngestWithIds(
    std::vector<Record> records, std::vector<ExternalId> ids,
    const EngineBatchOptions& opts) {
  Timer wait_timer;
  std::lock_guard<std::mutex> lock(mu_);
  const double lock_wait = wait_timer.ElapsedSeconds();
  EngineBatchOptions eff = EffectiveOptions(opts);
  if (eff.controller != nullptr && eff.controller->cancel_requested()) {
    return CancelledStatus("IngestWithIds");
  }
  if (ids.size() != records.size()) {
    return Status::InvalidArgument(
        "IngestWithIds: " + std::to_string(ids.size()) + " ids for " +
        std::to_string(records.size()) + " records");
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0 && ids[i] <= ids[i - 1]) {
      return Status::InvalidArgument(
          "IngestWithIds: ids must be strictly increasing within the batch; "
          "id " + std::to_string(ids[i]) + " at index " + std::to_string(i) +
          " follows " + std::to_string(ids[i - 1]));
    }
    if (int_of_.count(ids[i]) != 0) {
      return Status::InvalidArgument("IngestWithIds: id " +
                                     std::to_string(ids[i]) +
                                     " is already bound to a live record");
    }
  }
  Status valid = ValidateIngestLocked(records);
  if (!valid.ok()) return valid;
  if (!ids.empty()) next_ext_id_ = std::max(next_ext_id_, ids.back() + 1);
  return ApplyBatch("ingest", lock_wait, std::move(records), std::move(ids),
                    {}, eff);
}

Status ResidentEngine::ValidateIngestLocked(
    const std::vector<Record>& records) {
  if (records.empty()) return Status::Ok();
  const Record& prototype =
      dataset_.num_records() > 0 ? dataset_.record(0) : records.front();
  for (size_t i = 0; i < records.size(); ++i) {
    Status schema = CheckRecordSchema(prototype, records[i], i);
    if (!schema.ok()) return schema;
  }
  if (!initialized_) {
    // Build the sequence before mutating anything: it is the only fallible
    // initialization step, and ingest is all-or-nothing.
    StatusOr<FunctionSequence> built = FunctionSequence::Build(
        rule_, records.front(), options_.config.sequence);
    if (!built.ok()) return built.status();
    sequence_.emplace(std::move(built).value());
  }
  return Status::Ok();
}

StatusOr<EngineMutationResult> ResidentEngine::Remove(
    std::span<const ExternalId> ids, const EngineBatchOptions& opts) {
  Timer wait_timer;
  std::lock_guard<std::mutex> lock(mu_);
  const double lock_wait = wait_timer.ElapsedSeconds();
  EngineBatchOptions eff = EffectiveOptions(opts);
  if (eff.controller != nullptr && eff.controller->cancel_requested()) {
    return CancelledStatus("Remove");
  }
  std::vector<RecordId> ints;
  ints.reserve(ids.size());
  std::unordered_set<ExternalId> seen;
  for (ExternalId id : ids) {
    auto it = int_of_.find(id);
    if (it == int_of_.end()) {
      return Status::NotFound("Remove: no live record with id " +
                              std::to_string(id));
    }
    if (!seen.insert(id).second) {
      return Status::InvalidArgument("Remove: id " + std::to_string(id) +
                                     " appears twice in the batch");
    }
    ints.push_back(it->second);
  }
  return ApplyBatch("remove", lock_wait, {}, {}, ints, eff);
}

StatusOr<EngineMutationResult> ResidentEngine::Update(
    ExternalId id, Record record, const EngineBatchOptions& opts) {
  Timer wait_timer;
  std::lock_guard<std::mutex> lock(mu_);
  const double lock_wait = wait_timer.ElapsedSeconds();
  EngineBatchOptions eff = EffectiveOptions(opts);
  if (eff.controller != nullptr && eff.controller->cancel_requested()) {
    return CancelledStatus("Update");
  }
  auto it = int_of_.find(id);
  if (it == int_of_.end()) {
    return Status::NotFound("Update: no live record with id " +
                            std::to_string(id));
  }
  Status schema = CheckRecordSchema(dataset_.record(0), record, 0);
  if (!schema.ok()) return schema;
  std::vector<Record> adds;
  adds.push_back(std::move(record));
  ++counters_.updated;
  return ApplyBatch("update", lock_wait, std::move(adds), {id}, {it->second},
                    eff);
}

StatusOr<EngineMutationResult> ResidentEngine::Flush(
    const EngineBatchOptions& opts) {
  Timer wait_timer;
  std::lock_guard<std::mutex> lock(mu_);
  const double lock_wait = wait_timer.ElapsedSeconds();
  EngineBatchOptions eff = EffectiveOptions(opts);
  if (eff.controller != nullptr && eff.controller->cancel_requested()) {
    return CancelledStatus("Flush");
  }
  return ApplyBatch("flush", lock_wait, {}, {}, {}, eff);
}

EngineMutationResult ResidentEngine::ApplyBatch(
    const char* op, double lock_wait_seconds, std::vector<Record> adds,
    std::vector<ExternalId> add_ext_ids,
    const std::vector<RecordId>& removed_ints,
    const EngineBatchOptions& opts) {
  const Instrumentation& instr = options_.config.instrumentation;
  Timer batch_timer;
  const double cpu_start = Timer::ThreadCpuSeconds();
  TraceRecorder::Span span(instr.trace, "engine_batch", "engine");
  span.AddArg("adds", static_cast<double>(adds.size()));
  span.AddArg("removes", static_cast<double>(removed_ints.size()));
  span.AddArg("lock_wait_ms", lock_wait_seconds * 1e3);
  ++counters_.batches;

  // Records whose level-1 components this mutation touched.
  std::vector<RecordId> arrived;
  if (!removed_ints.empty()) {
    TraceRecorder::Span remove_span(instr.trace, "engine_remove", "engine");
    RemoveLocked(removed_ints, &arrived);
    counters_.removed += removed_ints.size();
  }

  if (!adds.empty()) {
    TraceRecorder::Span arrive_span(instr.trace, "engine_arrive", "engine");
    const RecordId first_new = static_cast<RecordId>(dataset_.num_records());
    for (Record& record : adds) {
      // The engine has no ground truth; entity 0 is a placeholder (the
      // dataset's truth accessors are never used through this path).
      dataset_.AddRecord(std::move(record), /*entity=*/0);
    }
    if (!initialized_) InitializeLocked();
    GrowStateLocked();
    for (size_t i = 0; i < adds.size(); ++i) {
      const RecordId r = first_new + static_cast<RecordId>(i);
      live_[r] = 1;
      ext_of_[r] = add_ext_ids[i];
      int_of_[add_ext_ids[i]] = r;
      counters_.arrivals_merged += ArriveLocked(r) ? 1 : 0;
      arrived.push_back(r);
    }
    counters_.ingested += adds.size();
  }

  if (!arrived.empty()) {
    TraceRecorder::Span reopen_span(instr.trace, "engine_reopen", "engine");
    ReopenLocked(arrived);
  }

  EngineMutationResult result;
  result.assigned_ids = std::move(add_ext_ids);
  double refine_seconds = 0.0;
  if (initialized_) {
    Timer refine_timer;
    std::vector<NodeId> finals;
    result.refinement = RefineLocked(opts, &finals, &result.stats);
    refine_seconds = refine_timer.ElapsedSeconds();
    if (result.refinement == TerminationReason::kCompleted) {
      ++counters_.refinements_completed;
      TraceRecorder::Span publish_span(instr.trace, "engine_publish",
                                       "engine");
      PublishLocked(finals, result.stats);
    } else {
      ++counters_.refinements_interrupted;
    }
  }
  result.generation = generation_;
  result.lock_wait_seconds = lock_wait_seconds;
  counters_.snapshot_lag_batches = counters_.batches - batches_at_publish_;
  if (instr.metrics != nullptr) {
    instr.metrics->AddCounter("engine_batches", 1);
    instr.metrics->AddCounter("engine_records_ingested", adds.size());
    instr.metrics->AddCounter("engine_records_removed", removed_ints.size());
    instr.metrics->AddCounter(std::string("engine_op_") + op, 1);
    instr.metrics->AddCounter(
        result.refinement == TerminationReason::kCompleted
            ? "engine_refinements_completed"
            : "engine_refinements_interrupted",
        1);
    instr.metrics->SetGauge("engine_generation",
                            static_cast<double>(generation_));
    instr.metrics->SetGauge("engine_live_records",
                            static_cast<double>(int_of_.size()));
    instr.metrics->SetGauge(
        "engine_snapshot_lag_batches",
        static_cast<double>(counters_.snapshot_lag_batches));
    const double wall = batch_timer.ElapsedSeconds();
    const double cpu = Timer::ThreadCpuSeconds() - cpu_start;
    instr.metrics->RecordLatency("engine_batch_wall_seconds", wall);
    instr.metrics->RecordLatency(
        std::string("engine_") + op + "_wall_seconds", wall);
    instr.metrics->RecordLatency("engine_batch_cpu_seconds", cpu);
    instr.metrics->RecordLatency("engine_lock_wait_seconds",
                                 lock_wait_seconds);
    if (initialized_) {
      instr.metrics->RecordLatency("engine_refine_seconds", refine_seconds);
    }
  }
  return result;
}

void ResidentEngine::InitializeLocked() {
  ADALSH_CHECK(!initialized_);
  ADALSH_CHECK(sequence_.has_value());
  if (options_.cost_model.has_value()) {
    cost_model_.emplace(*options_.cost_model);
  } else {
    cost_model_.emplace(CostModel::Calibrate(
        dataset_, rule_, options_.config.calibration_samples,
        options_.config.seed, pool_.get(), options_.config.instrumentation));
  }
  cost_model_->set_pairwise_noise_factor(options_.config.pairwise_noise_factor);
  engine_.emplace(dataset_, sequence_->structure(), options_.config.seed);
  hasher_.emplace(&*engine_, &forest_, dataset_.num_records(), pool_.get(),
                  options_.config.instrumentation);
  pairwise_.emplace(dataset_, rule_, pool_.get(),
                    options_.config.instrumentation);
  buckets_.resize(sequence_->plan(0).tables.size());
  initialized_ = true;
}

void ResidentEngine::GrowStateLocked() {
  const size_t n = dataset_.num_records();
  counters_.internal_records = n;
  if (live_.size() >= n) return;
  live_.resize(n, 0);
  leaf_of_.resize(n, kInvalidNode);
  level1_leaf_.resize(n, kInvalidNode);
  last_fn_.resize(n, 0);
  ext_of_.resize(n, 0);
  engine_->GrowTo(n);
  hasher_->GrowTo(n);
  pairwise_->NotifyDatasetGrown();
}

bool ResidentEngine::ArriveLocked(RecordId r) {
  const SchemePlan& plan0 = sequence_->plan(0);
  engine_->EnsureHashes(r, plan0);
  last_fn_[r] = 0;  // arrival evidence is level-1 only
  std::vector<uint64_t> keys(plan0.tables.size());
  engine_->TableKeys(r, plan0, keys.data());
  NodeId& leaf = level1_leaf_[r];
  bool merged = false;
  for (size_t t = 0; t < plan0.tables.size(); ++t) {
    const auto [bucket, fresh] = buckets_[t].try_emplace(keys[t], r);
    if (fresh) {
      if (leaf == kInvalidNode) forest_.MakeTree(r, /*producer=*/0, &leaf);
      continue;
    }
    // Both level-1 roots carry producer 0, which Merge keeps.
    const NodeId other_root = forest_.FindRoot(level1_leaf_[bucket->second]);
    if (leaf == kInvalidNode) {
      leaf = forest_.AddLeaf(other_root, r);
      merged = true;
    } else {
      const NodeId my_root = forest_.FindRoot(leaf);
      if (my_root != other_root) {
        forest_.Merge(my_root, other_root);
        merged = true;
      }
    }
  }
  if (leaf == kInvalidNode) forest_.MakeTree(r, /*producer=*/0, &leaf);
  return merged;
}

void ResidentEngine::ReopenLocked(const std::vector<RecordId>& arrived) {
  std::unordered_set<NodeId> reopened;
  for (RecordId r : arrived) {
    const NodeId root = forest_.FindRoot(level1_leaf_[r]);
    if (!reopened.insert(root).second) continue;
    forest_.ForEachLeafNode(
        root, [&](RecordId m, NodeId leaf) { leaf_of_[m] = leaf; });
  }
}

void ResidentEngine::RemoveLocked(const std::vector<RecordId>& removed_ints,
                                  std::vector<RecordId>* arrived) {
  // The dirty region: every member of a level-1 tree that holds a removed
  // record. The removed records may be the only bridge between two live
  // subsets, so none of the region's grouping or refinement survives.
  std::unordered_set<NodeId> dirty_roots;
  std::vector<RecordId> dirty;
  for (RecordId r : removed_ints) {
    const NodeId root = forest_.FindRoot(level1_leaf_[r]);
    if (dirty_roots.insert(root).second) {
      forest_.ForEachLeaf(root, [&](RecordId m) { dirty.push_back(m); });
    }
  }
  for (RecordId r : removed_ints) {
    live_[r] = 0;
    int_of_.erase(ext_of_[r]);
  }
  // Every live record sharing a key with a dirty record is itself dirty, so
  // erasing the region's keys leaves the other components' buckets whole.
  // The abandoned trees stay in the forest, unreferenced.
  const SchemePlan& plan0 = sequence_->plan(0);
  std::vector<uint64_t> keys(plan0.tables.size());
  for (RecordId m : dirty) {
    engine_->TableKeys(m, plan0, keys.data());
    for (size_t t = 0; t < keys.size(); ++t) buckets_[t].erase(keys[t]);
    leaf_of_[m] = kInvalidNode;
    level1_leaf_[m] = kInvalidNode;
  }
  std::sort(dirty.begin(), dirty.end());
  for (RecordId m : dirty) {
    if (!live_[m]) continue;
    ArriveLocked(m);
    arrived->push_back(m);
  }
}

TerminationReason ResidentEngine::RefineLocked(const EngineBatchOptions& opts,
                                               std::vector<NodeId>* finals,
                                               FilterStats* out_stats) {
  std::vector<NodeId> roots;
  {
    std::unordered_set<NodeId> seen;
    for (size_t r = 0; r < live_.size(); ++r) {
      if (!live_[r]) continue;
      const NodeId root = forest_.FindRoot(leaf_of_[r]);
      if (seen.insert(root).second) roots.push_back(root);
    }
  }

  RefineLoopDeps deps;
  deps.config = &options_.config;
  deps.sequence = &*sequence_;
  deps.cost_model = &*cost_model_;
  deps.engine = &*engine_;
  deps.hasher = &*hasher_;
  deps.pairwise = &*pairwise_;
  deps.forest = &forest_;
  deps.last_fn = &last_fn_;
  deps.order_key = &ext_of_;
  deps.leaf_of = &leaf_of_;

  // Per-request SLO (docs/engine.md): the effective controller is armed
  // with the cumulative counters as this pass's zero points.
  std::optional<RunController> local_controller;
  RunController* controller = ResolveController(
      opts.controller, opts.budget, &local_controller,
      engine_->total_hashes_computed(), pairwise_->total_similarities());
  FilterStats stats;
  RunRefineLoop(deps, options_.top_k, roots, controller, finals, &stats);
  // Definition 3 snapshot over every live record: each is counted exactly
  // once, under the last function applied to it (filter_output.h invariants).
  // This stays with the engine — it needs the live-record iteration the loop
  // doesn't have.
  stats.records_last_hashed_at.assign(sequence_->size(), 0);
  for (size_t r = 0; r < live_.size(); ++r) {
    if (!live_[r]) continue;
    if (last_fn_[r] == kLastFunctionPairwise) {
      ++stats.records_finished_by_pairwise;
    } else {
      ++stats.records_last_hashed_at[last_fn_[r]];
    }
  }
  ReportTermination(options_.config.instrumentation, stats, finals->size());
  *out_stats = std::move(stats);
  return out_stats->termination_reason;
}

EngineSnapshot ResidentEngine::SnapshotLocked(
    const std::vector<NodeId>& finals, FilterStats stats) const {
  EngineSnapshot snap;
  snap.live_records = int_of_.size();
  snap.clusters.reserve(finals.size());
  snap.verification.reserve(finals.size());
  for (size_t i = 0; i < finals.size(); ++i) {
    const NodeId root = finals[i];
    std::vector<ExternalId> members;
    members.reserve(forest_.LeafCount(root));
    forest_.ForEachLeaf(root,
                        [&](RecordId r) { members.push_back(ext_of_[r]); });
    std::sort(members.begin(), members.end());
    for (ExternalId member : members) snap.cluster_of.emplace(member, i);
    snap.clusters.push_back(std::move(members));
    snap.verification.push_back(VerificationLevel(forest_, root));
  }
  snap.stats = std::move(stats);
  return snap;
}

void ResidentEngine::PublishLocked(const std::vector<NodeId>& finals,
                                   FilterStats stats) {
  auto snap = std::make_shared<EngineSnapshot>(
      SnapshotLocked(finals, std::move(stats)));
  snap->generation = ++generation_;
  counters_.generation = generation_;
  batches_at_publish_ = counters_.batches;
  const Instrumentation& instr = options_.config.instrumentation;
  if (instr.metrics != nullptr) {
    instr.metrics->AddCounter("engine_snapshots_published", 1);
  }
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snap);
}

ResidentEngine::MergedShards ResidentEngine::Merge(
    const MatchRule& rule, Options options,
    std::span<const std::unique_ptr<ResidentEngine>> shards) {
  MergedShards merged;
  // The global certification pause, in ascending shard order — the only
  // multi-lock acquisition in the engine.
  Timer wait_timer;
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards.size());
  for (const std::unique_ptr<ResidentEngine>& shard : shards) {
    locks.emplace_back(shard->mu_);
  }
  merged.lock_wait_seconds = wait_timer.ElapsedSeconds();
  for (const std::unique_ptr<ResidentEngine>& shard : shards) {
    merged.batches += shard->counters_.batches;
  }
  Timer merge_timer;
  MetricsRegistry* metrics = options.config.instrumentation.metrics;
  merged.snapshot = MergeLocked(rule, std::move(options), shards);
  if (metrics != nullptr) {
    metrics->RecordLatency("shard_merge_seconds",
                           merge_timer.ElapsedSeconds());
  }
  return merged;
}

EngineSnapshot ResidentEngine::MergeLocked(
    const MatchRule& rule, Options options,
    std::span<const std::unique_ptr<ResidentEngine>> shards) {
  ADALSH_CHECK(options.cost_model.has_value())
      << "the merge prices with the cost model its shards share";
  const Instrumentation instr = options.config.instrumentation;
  TraceRecorder::Span span(instr.trace, "shard_merge", "engine");
  // Phases: gather (the live records, their hashes and arrivals) and refine
  // (every component reopened, the global pass and its snapshot).
  std::optional<TraceRecorder::Span> phase_span;
  phase_span.emplace(instr.trace, "merge_gather", "engine");
  Timer gather_timer;

  // Every live record in ascending external-id order: the internal ids a
  // fresh engine ingesting the live set in one batch assigns.
  struct Source {
    ExternalId ext;
    size_t shard;
    RecordId local;
  };
  std::vector<Source> sources;
  for (size_t s = 0; s < shards.size(); ++s) {
    for (const auto& [ext, local] : shards[s]->int_of_) {
      sources.push_back({ext, s, local});
    }
  }
  if (sources.empty()) return EngineSnapshot();
  std::sort(sources.begin(), sources.end(),
            [](const Source& a, const Source& b) { return a.ext < b.ext; });
  const RecordId n = static_cast<RecordId>(sources.size());

  // Every shard holds the identical sequence; hash values depend only on
  // record content and seed, so adopted prefixes make the H_1 keys free.
  // The arrivals build the global level-1 components, collisions across
  // shards included.
  ResidentEngine merge(rule, std::move(options));
  merge.sequence_ = shards[sources.front().shard]->sequence_;
  for (const Source& src : sources) {
    merge.dataset_.AddRecord(
        Record(shards[src.shard]->dataset_.record(src.local)), /*entity=*/0);
  }
  merge.InitializeLocked();
  merge.GrowStateLocked();
  merge.int_of_.reserve(n);
  for (auto& table : merge.buckets_) table.reserve(n);
  std::vector<RecordId> arrived(n);
  for (RecordId g = 0; g < n; ++g) {
    const ResidentEngine& shard = *shards[sources[g].shard];
    const RecordId local = sources[g].local;
    merge.engine_->AdoptRecordHashes(*shard.engine_, local, g);
    merge.live_[g] = 1;
    merge.ext_of_[g] = sources[g].ext;
    merge.int_of_[sources[g].ext] = g;
    merge.ArriveLocked(g);
    arrived[g] = g;
  }
  span.AddArg("records", static_cast<double>(n));
  if (instr.metrics != nullptr) instr.metrics->AddCounter("shard_merges", 1);
  const double gather_seconds = gather_timer.ElapsedSeconds();
  phase_span.reset();
  phase_span.emplace(instr.trace, "merge_refine", "engine");
  Timer refine_timer;

  // Every component restarts from its level-1 tree, as in a one-batch
  // ingest of the live set: the pass runs that ingest's rounds and P sweeps
  // and reaches its snapshot, paying only for hashes no shard computed.
  merge.ReopenLocked(arrived);
  std::vector<NodeId> finals;
  FilterStats stats;
  const TerminationReason reason =
      merge.RefineLocked(EngineBatchOptions{}, &finals, &stats);
  ADALSH_CHECK(reason == TerminationReason::kCompleted);
  EngineSnapshot snapshot = merge.SnapshotLocked(finals, std::move(stats));
  const double refine_seconds = refine_timer.ElapsedSeconds();
  phase_span.reset();
  if (instr.metrics != nullptr) {
    instr.metrics->RecordLatency("shard_merge_gather_seconds", gather_seconds);
    instr.metrics->RecordLatency("shard_merge_refine_seconds", refine_seconds);
  }
  return snapshot;
}

std::shared_ptr<const EngineSnapshot> ResidentEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

StatusOr<std::vector<std::vector<ExternalId>>> ResidentEngine::TopK(
    int k) const {
  if (k < 1) return Status::InvalidArgument("TopK: k must be >= 1");
  std::shared_ptr<const EngineSnapshot> snap = Snapshot();
  const size_t count =
      std::min(static_cast<size_t>(k), snap->clusters.size());
  return std::vector<std::vector<ExternalId>>(
      snap->clusters.begin(), snap->clusters.begin() + count);
}

StatusOr<std::vector<ExternalId>> ResidentEngine::Cluster(
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

bool ResidentEngine::IsLive(ExternalId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return int_of_.count(id) != 0;
}

std::vector<std::pair<ExternalId, Record>> ResidentEngine::LiveRecords()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<ExternalId, Record>> out;
  out.reserve(int_of_.size());
  for (const auto& [ext, internal] : int_of_) {
    out.emplace_back(ext, Record(dataset_.record(internal)));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::optional<CostModel> ResidentEngine::cost_model() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cost_model_;
}

EngineCounters ResidentEngine::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  EngineCounters counters = counters_;
  counters.generation = generation_;
  counters.live_records = int_of_.size();
  counters.internal_records = dataset_.num_records();
  for (const auto& table : buckets_) counters.level1_buckets += table.size();
  if (initialized_) {
    counters.total_hashes = engine_->total_hashes_computed();
    counters.total_similarities = pairwise_->total_similarities();
  }
  return counters;
}

}  // namespace adalsh
