#include "engine/resident_engine.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "core/refine_loop.h"
#include "core/termination.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace adalsh {
namespace {

/// Runs `fn` when the scope ends, however it ends.
template <typename Fn>
class ScopeExit {
 public:
  explicit ScopeExit(Fn fn) : fn_(std::move(fn)) {}
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;
  ~ScopeExit() { fn_(); }

 private:
  Fn fn_;
};

/// Union-find over a probe's slots: the arrivals first, then the children
/// as they are found. Each class counts the arrivals it holds.
class SlotClasses {
 public:
  explicit SlotClasses(size_t arrivals)
      : parent_(arrivals), arrivals_(arrivals, 1) {
    for (uint32_t s = 0; s < parent_.size(); ++s) parent_[s] = s;
  }

  uint32_t Add() {
    parent_.push_back(static_cast<uint32_t>(parent_.size()));
    arrivals_.push_back(0);
    return parent_.back();
  }

  uint32_t Find(uint32_t s) {
    while (parent_[s] != s) s = parent_[s] = parent_[parent_[s]];
    return s;
  }

  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (b < a) std::swap(a, b);
    parent_[b] = a;
    arrivals_[a] += arrivals_[b];
  }

  size_t Arrivals(uint32_t s) { return arrivals_[Find(s)]; }
  size_t size() const { return parent_.size(); }

 private:
  std::vector<uint32_t> parent_;
  std::vector<size_t> arrivals_;
};

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

StatusOr<EngineBatchOptions> ResidentEngine::EffectiveOptions(
    const char* op, const EngineBatchOptions& opts) const {
  Status budget = opts.budget.Validate();
  if (!budget.ok()) return budget;
  EngineBatchOptions eff = opts;
  if (eff.controller == nullptr && eff.budget.unlimited()) {
    eff.controller = options_.config.controller;
    eff.budget = options_.config.budget;
  }
  if (eff.controller != nullptr && eff.controller->cancel_requested()) {
    return CancelledStatus(op);
  }
  return eff;
}

StatusOr<EngineMutationResult> ResidentEngine::Ingest(
    std::vector<Record> records, const EngineBatchOptions& opts) {
  Timer wait_timer;
  std::lock_guard<std::mutex> lock(mu_);
  const double lock_wait = wait_timer.ElapsedSeconds();
  StatusOr<EngineBatchOptions> eff = EffectiveOptions("Ingest", opts);
  if (!eff.ok()) return eff.status();
  Status valid = ValidateIngestLocked(records);
  if (!valid.ok()) return valid;
  std::vector<ExternalId> ids;
  ids.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) ids.push_back(next_ext_id_++);
  return ApplyBatch("ingest", lock_wait, std::move(records), std::move(ids),
                    {}, *eff);
}

StatusOr<EngineMutationResult> ResidentEngine::IngestWithIds(
    std::vector<Record> records, std::vector<ExternalId> ids,
    const EngineBatchOptions& opts) {
  Timer wait_timer;
  std::lock_guard<std::mutex> lock(mu_);
  const double lock_wait = wait_timer.ElapsedSeconds();
  StatusOr<EngineBatchOptions> eff = EffectiveOptions("IngestWithIds", opts);
  if (!eff.ok()) return eff.status();
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
                    {}, *eff);
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
  StatusOr<EngineBatchOptions> eff = EffectiveOptions("Remove", opts);
  if (!eff.ok()) return eff.status();
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
  return ApplyBatch("remove", lock_wait, {}, {}, ints, *eff);
}

StatusOr<EngineMutationResult> ResidentEngine::Update(
    ExternalId id, Record record, const EngineBatchOptions& opts) {
  Timer wait_timer;
  std::lock_guard<std::mutex> lock(mu_);
  const double lock_wait = wait_timer.ElapsedSeconds();
  StatusOr<EngineBatchOptions> eff = EffectiveOptions("Update", opts);
  if (!eff.ok()) return eff.status();
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
                    *eff);
}

StatusOr<EngineMutationResult> ResidentEngine::Flush(
    const EngineBatchOptions& opts) {
  Timer wait_timer;
  std::lock_guard<std::mutex> lock(mu_);
  const double lock_wait = wait_timer.ElapsedSeconds();
  StatusOr<EngineBatchOptions> eff = EffectiveOptions("Flush", opts);
  if (!eff.ok()) return eff.status();
  return ApplyBatch("flush", lock_wait, {}, {}, {}, *eff);
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

  // What the mutation's level-1 arrivals did to each level-1 tree.
  TouchedTrees touched;
  if (!removed_ints.empty()) {
    TraceRecorder::Span remove_span(instr.trace, "engine_remove", "engine");
    RemoveLocked(removed_ints, &touched);
    counters_.removed += removed_ints.size();
  }

  std::vector<RecordId> arrivals;
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
    arrivals.resize(adds.size());
    std::iota(arrivals.begin(), arrivals.end(), first_new);
    HashLocked(arrivals, sequence_->plan(0));
    for (size_t i = 0; i < adds.size(); ++i) {
      const RecordId r = arrivals[i];
      live_[r] = 1;
      ext_of_[r] = add_ext_ids[i];
      int_of_[add_ext_ids[i]] = r;
      counters_.arrivals_merged += ArriveLocked(r, false, &touched) ? 1 : 0;
    }
    counters_.ingested += adds.size();
  }

  // Per-request SLO (docs/engine.md): the effective controller is armed
  // with the cumulative counters as the zero points, before the walk, so
  // the walk's hashes count against it too.
  std::optional<RunController> local_controller;
  RunController* controller = nullptr;
  if (initialized_) {
    controller = ResolveController(
        opts.controller, opts.budget, &local_controller,
        engine_->total_hashes_computed(), pairwise_->total_similarities());
  }

  const uint64_t walked_before = counters_.arrivals_walked;
  const uint64_t pended_before = counters_.nodes_pended;
  ReopenOrWalkLocked(touched, arrivals, controller);

  EngineMutationResult result;
  result.assigned_ids = std::move(add_ext_ids);
  double refine_seconds = 0.0;
  if (initialized_) {
    Timer refine_timer;
    std::vector<NodeId> finals;
    result.refinement = RefineLocked(controller, &finals, &result.stats);
    refine_seconds = refine_timer.ElapsedSeconds();
    if (result.refinement == TerminationReason::kCompleted) {
      ++counters_.refinements_completed;
      TraceRecorder::Span publish_span(instr.trace, "engine_publish",
                                       "engine");
      PublishLocked(finals, result.stats);
      CompactForestLocked();
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
    instr.metrics->AddCounter("engine_arrivals_walked",
                              counters_.arrivals_walked - walked_before);
    instr.metrics->AddCounter("engine_nodes_pended",
                              counters_.nodes_pended - pended_before);
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
    instr.metrics->SetGauge("engine_forest_nodes",
                            static_cast<double>(forest_.num_nodes()));
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
  path_.resize(n);
  last_fn_.resize(n, 0);
  ext_of_.resize(n, 0);
  engine_->GrowTo(n);
  hasher_->GrowTo(n);
  pairwise_->NotifyDatasetGrown();
}

void ResidentEngine::HashLocked(std::span<const RecordId> records,
                                const SchemePlan& plan) {
  engine_->ReserveHashes(records, plan);
  engine_->EnsureHashesParallel(records, plan, pool_.get());
}

bool ResidentEngine::ArriveLocked(RecordId r, bool reopen,
                                  TouchedTrees* touched) {
  const SchemePlan& plan0 = sequence_->plan(0);
  last_fn_[r] = 0;  // arrival evidence is level-1 only
  std::vector<uint64_t> keys(plan0.tables.size());
  engine_->TableKeys(r, plan0, keys.data());
  // A tree no arrival of this mutation has reached yet is one earlier
  // component, and the bucket's record is one of its members.
  auto state = [&](NodeId root, RecordId member) -> TouchedTree& {
    const auto [it, fresh] = touched->try_emplace(root);
    if (fresh) it->second = {true, member, false};
    return it->second;
  };
  NodeId leaf = kInvalidNode;
  bool merged = false;
  for (size_t t = 0; t < plan0.tables.size(); ++t) {
    const auto [bucket, fresh] = buckets_[t].try_emplace(keys[t], r);
    if (fresh) {
      if (leaf != kInvalidNode) continue;
      const NodeId root = forest_.MakeTree(r, /*producer=*/0, &leaf);
      if (touched != nullptr) (*touched)[root] = {false, 0, reopen};
      continue;
    }
    // Both level-1 roots carry producer 0, which Merge keeps.
    const NodeId other_root =
        forest_.FindRoot(path_[bucket->second].front());
    if (leaf == kInvalidNode) {
      leaf = forest_.AddLeaf(other_root, r);
      if (touched != nullptr) {
        state(other_root, bucket->second).reopen |= reopen;
      }
      merged = true;
      continue;
    }
    const NodeId my_root = forest_.FindRoot(leaf);
    if (my_root == other_root) continue;
    const NodeId root = forest_.Merge(my_root, other_root);
    merged = true;
    if (touched == nullptr) continue;
    const TouchedTree mine = state(my_root, r);
    const TouchedTree other = state(other_root, bucket->second);
    touched->erase(my_root);
    touched->erase(other_root);
    (*touched)[root] = {mine.old || other.old,
                        mine.old ? mine.old_member : other.old_member,
                        mine.reopen || other.reopen || (mine.old && other.old)};
  }
  if (leaf == kInvalidNode) {
    const NodeId root = forest_.MakeTree(r, /*producer=*/0, &leaf);
    if (touched != nullptr) (*touched)[root] = {false, 0, reopen};
  }
  path_[r].push_back(leaf);
  return merged;
}

void ResidentEngine::ReopenOrWalkLocked(const TouchedTrees& touched,
                                        const std::vector<RecordId>& arrivals,
                                        RunController* controller) {
  const Instrumentation& instr = options_.config.instrumentation;
  // A tree holding one earlier component that no removal touched is walked
  // with its arrivals; every other touched tree restarts at level 1.
  std::vector<NodeId> roots;
  roots.reserve(touched.size());
  for (const auto& [root, tree] : touched) roots.push_back(root);
  std::sort(roots.begin(), roots.end());
  std::vector<NodeId> reopened;
  std::vector<WalkStep> walks;
  std::unordered_map<NodeId, size_t> walk_of;
  size_t joined = 0;  // reopened trees holding a clean earlier component
  for (NodeId root : roots) {
    const TouchedTree& tree = touched.at(root);
    if (tree.old && !tree.reopen) {
      walk_of.emplace(root, walks.size());
      walks.push_back({root, 0, tree.old_member, {}});
      continue;
    }
    reopened.push_back(root);
    if (tree.old || tree.reopen) ++counters_.nodes_pended;
    if (tree.old) ++joined;
  }
  size_t walked = 0;
  for (RecordId r : arrivals) {
    auto it = walk_of.find(forest_.FindRoot(path_[r].front()));
    if (it == walk_of.end()) continue;
    walks[it->second].arrivals.push_back(r);
    ++walked;
  }
  counters_.arrivals_walked += walked;
  if (!reopened.empty()) {
    // Pending at level 1: every member's path is cut back to its level-1
    // leaf, O(members) with no new node.
    TraceRecorder::Span span(instr.trace, "engine_reopen", "engine");
    span.AddArg("components", static_cast<double>(reopened.size()));
    span.AddArg("joined", static_cast<double>(joined));
    for (NodeId root : reopened) {
      forest_.ForEachLeaf(root, [&](RecordId m) { path_[m].resize(1); });
    }
  }
  if (walks.empty()) return;
  TraceRecorder::Span span(instr.trace, "engine_walk", "engine");
  span.AddArg("arrivals", static_cast<double>(walked));
  WalkLocked(std::move(walks), controller, &span);
  // The last function applied to an arrival is its current tree's.
  for (RecordId r : arrivals) {
    last_fn_[r] = forest_.Producer(forest_.FindRoot(path_[r].back()));
  }
}

void ResidentEngine::RemoveLocked(const std::vector<RecordId>& removed_ints,
                                  TouchedTrees* touched) {
  // The dirty region: every member of a level-1 tree that holds a removed
  // record. The removed records may be the only bridge between two live
  // subsets, so none of the region's grouping or refinement survives.
  std::unordered_set<NodeId> dirty_roots;
  std::vector<RecordId> dirty;
  for (RecordId r : removed_ints) {
    const NodeId root = forest_.FindRoot(path_[r].front());
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
    path_[m].clear();
  }
  // Their keys read, the removed records' hashes and paths are never needed
  // again.
  for (RecordId r : removed_ints) {
    engine_->ClearHashes(r);
    std::vector<NodeId>().swap(path_[r]);
  }
  std::sort(dirty.begin(), dirty.end());
  for (RecordId m : dirty) {
    if (live_[m]) ArriveLocked(m, /*reopen=*/true, touched);
  }
}

ResidentEngine::Probe ResidentEngine::ProbeLocked(const WalkStep& step) {
  const std::vector<RecordId>& arrivals = step.arrivals;
  const size_t child_index = step.depth + 1;
  const SchemePlan& plan = sequence_->plan(static_cast<int>(child_index));
  const size_t tables = plan.tables.size();
  std::vector<uint64_t> keys(tables);
  // Per table, the arrivals' keys sorted with their slots; arrivals sharing
  // a key collide with each other.
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> index(tables);
  SlotClasses classes(arrivals.size());
  HashLocked(arrivals, plan);
  for (uint32_t i = 0; i < arrivals.size(); ++i) {
    engine_->TableKeys(arrivals[i], plan, keys.data());
    for (size_t t = 0; t < tables; ++t) index[t].push_back({keys[t], i});
  }
  for (auto& table : index) {
    std::sort(table.begin(), table.end());
    for (size_t i = 1; i < table.size(); ++i) {
      if (table[i].first == table[i - 1].first) {
        classes.Union(table[i].second, table[i - 1].second);
      }
    }
  }
  Probe probe;
  std::unordered_map<NodeId, uint32_t> slot_of;
  forest_.ForEachLeaf(step.root, [&](RecordId m) {
    const std::vector<NodeId>& path = path_[m];
    if (path.size() <= child_index) return;  // an arrival
    const NodeId child = forest_.FindRoot(path[child_index]);
    const auto [it, fresh] = slot_of.try_emplace(child, 0);
    if (fresh) {
      it->second = classes.Add();
      probe.children.push_back(child);
      probe.child_member.push_back(m);
    }
    const uint32_t slot = it->second;
    if (classes.Arrivals(slot) == arrivals.size()) return;
    engine_->TableKeys(m, plan, keys.data());
    for (size_t t = 0; t < tables; ++t) {
      const auto hit = std::lower_bound(index[t].begin(), index[t].end(),
                                        std::make_pair(keys[t], uint32_t{0}));
      if (hit != index[t].end() && hit->first == keys[t]) {
        classes.Union(slot, hit->second);
      }
    }
  });
  probe.cls.resize(classes.size());
  for (uint32_t s = 0; s < classes.size(); ++s) probe.cls[s] = classes.Find(s);
  return probe;
}

void ResidentEngine::NewNodeLocked(const std::vector<RecordId>& records,
                                   int level) {
  NodeId root = kInvalidNode;
  for (RecordId r : records) {
    NodeId leaf;
    if (root == kInvalidNode) {
      root = forest_.MakeTree(r, level, &leaf);
    } else {
      leaf = forest_.AddLeaf(root, r);
    }
    std::vector<NodeId>& path = path_[r];
    path.resize(static_cast<size_t>(level));
    path.push_back(leaf);
  }
}

void ResidentEngine::WalkLocked(std::vector<WalkStep> steps,
                                RunController* controller,
                                TraceRecorder::Span* span) {
  // Outcome counts for the span: children no arrival hit, children the
  // walk descended into, nodes made only of arrivals, bridged children,
  // P-refined nodes pended with the same decision, nodes whose jump-to-P
  // decision the new size flips, and nodes the SLO stopped the walk at.
  double kept = 0, grown = 0, fresh = 0, bridged = 0, pairwise = 0,
         flipped = 0, stopped_at = 0;
  bool stopped = false;
  // Checked before each level's hashes, where a hash pass checks its key
  // blocks (fault-injection site kHashApply).
  auto stop = [&] {
    if (!stopped) {
      FaultInjectionPoint(FaultSite::kHashApply);
      if (controller != nullptr) {
        controller->ReportHashes(engine_->total_hashes_computed());
        stopped = controller->ShouldStop();
      }
    }
    return stopped;
  };
  while (!steps.empty()) {
    const WalkStep step = std::move(steps.back());
    steps.pop_back();
    // Path entry j is function j's tree, so a step's depth is its level.
    const int level = static_cast<int>(step.depth);
    ADALSH_DCHECK_EQ(forest_.Producer(step.root), level);

    // The arrivals join the node's tree.
    if (step.depth > 0) {
      for (RecordId a : step.arrivals) {
        path_[a].push_back(forest_.AddLeaf(step.root, a));
      }
    }
    const std::vector<NodeId>& old_path = path_[step.old_member];
    if (old_path.size() == step.depth + 1) continue;  // not refined yet
    const bool jumped =
        forest_.Producer(forest_.FindRoot(old_path[step.depth + 1])) ==
        kProducerPairwise;
    // Whether the refine loop would now refine the node with P.
    const bool jumps = cost_model_->ShouldJumpToPairwise(
        sequence_->budget(level), sequence_->budget(level + 1),
        forest_.LeafCount(step.root));
    if (jumped || jumps || stop()) {
      ++(jumped != jumps ? flipped : jumped ? pairwise : stopped_at);
      // Pended: every member's path ends at the node's tree.
      ++counters_.nodes_pended;
      forest_.ForEachLeaf(step.root,
                          [&](RecordId m) { path_[m].resize(step.depth + 1); });
      continue;
    }
    const Probe probe = ProbeLocked(step);
    // Each class is one child of the grown node.
    const size_t arrivals = step.arrivals.size();
    std::vector<std::vector<size_t>> class_children(probe.cls.size());
    std::vector<std::vector<RecordId>> class_arrivals(probe.cls.size());
    for (size_t c = 0; c < probe.children.size(); ++c) {
      class_children[probe.cls[arrivals + c]].push_back(c);
    }
    for (size_t i = 0; i < arrivals; ++i) {
      class_arrivals[probe.cls[i]].push_back(step.arrivals[i]);
    }
    for (size_t k = 0; k < probe.cls.size(); ++k) {
      const std::vector<size_t>& children = class_children[k];
      std::vector<RecordId>& joined = class_arrivals[k];
      if (children.size() == 1) {
        // A child no arrival hits keeps its subtree; one the arrivals hit
        // alone takes them, and the walk descends into it.
        if (joined.empty()) {
          ++kept;
          continue;
        }
        const size_t c = children.front();
        steps.push_back({probe.children[c], step.depth + 1,
                         probe.child_member[c], std::move(joined)});
        ++grown;
        continue;
      }
      if (children.empty()) {
        if (joined.empty()) continue;
        NewNodeLocked(joined, level + 1);
        ++fresh;
        continue;
      }
      // Arrivals bridged several children: the merged child may connect
      // anew one level deeper, so it restarts at its level.
      std::vector<RecordId> members;
      for (size_t c : children) {
        forest_.ForEachLeaf(probe.children[c],
                            [&](RecordId m) { members.push_back(m); });
      }
      members.insert(members.end(), joined.begin(), joined.end());
      NewNodeLocked(members, level + 1);
      ++counters_.nodes_pended;
      ++bridged;
    }
  }
  span->AddArg("children_kept", kept);
  span->AddArg("children_grown", grown);
  span->AddArg("new_nodes", fresh);
  span->AddArg("bridged", bridged);
  span->AddArg("pairwise", pairwise);
  span->AddArg("flipped", flipped);
  span->AddArg("stopped", stopped_at);
}

TerminationReason ResidentEngine::RefineLocked(RunController* controller,
                                               std::vector<NodeId>* finals,
                                               FilterStats* out_stats) {
  std::vector<NodeId> roots;
  {
    std::unordered_set<NodeId> seen;
    for (size_t r = 0; r < live_.size(); ++r) {
      if (!live_[r]) continue;
      const NodeId root = forest_.FindRoot(path_[r].back());
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
  deps.paths = &path_;

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

void ResidentEngine::CompactForestLocked() {
  if (forest_.num_nodes() <= kForestCompactionFactor * forest_nodes_kept_) {
    return;
  }
  // The trees on live records' paths hold every node a later mutation or
  // pass reads; dead records point at none.
  std::vector<NodeId> roots;
  for (size_t r = 0; r < live_.size(); ++r) {
    if (!live_[r]) continue;
    for (NodeId leaf : path_[r]) roots.push_back(forest_.FindRoot(leaf));
  }
  const std::vector<NodeId> remap = forest_.Compact(roots);
  for (size_t r = 0; r < live_.size(); ++r) {
    if (!live_[r]) continue;
    for (NodeId& leaf : path_[r]) leaf = remap[leaf];
  }
  forest_nodes_kept_ = forest_.num_nodes();
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
  // record content and seed, so borrowed slots make the H_1 keys free. The
  // arrivals build the global level-1 components, collisions across shards
  // included.
  ResidentEngine merge(rule, std::move(options));
  merge.sequence_ = shards[sources.front().shard]->sequence_;
  for (const Source& src : sources) {
    merge.dataset_.AddRecord(
        Record(shards[src.shard]->dataset_.record(src.local)), /*entity=*/0);
  }
  merge.InitializeLocked();
  merge.GrowStateLocked();
  // Borrow every live record's hash slots from its shard. The same swap
  // returns them, extended by every hash the merge computes, before `merge`
  // dies and before Merge drops the shard locks, however this returns.
  auto swap_slots = [&] {
    for (RecordId g = 0; g < n; ++g) {
      HashEngine& shard = *shards[sources[g].shard]->engine_;
      merge.engine_->SwapRecordHashes(g, &shard, sources[g].local);
    }
  };
  swap_slots();
  const ScopeExit return_slots(swap_slots);
  merge.int_of_.reserve(n);
  for (auto& table : merge.buckets_) table.reserve(n);
  for (RecordId g = 0; g < n; ++g) {
    merge.live_[g] = 1;
    merge.ext_of_[g] = sources[g].ext;
    merge.int_of_[sources[g].ext] = g;
    merge.ArriveLocked(g, /*reopen=*/false, /*touched=*/nullptr);
  }
  span.AddArg("records", static_cast<double>(n));
  if (instr.metrics != nullptr) instr.metrics->AddCounter("shard_merges", 1);
  const double gather_seconds = gather_timer.ElapsedSeconds();
  phase_span.reset();
  phase_span.emplace(instr.trace, "merge_refine", "engine");
  Timer refine_timer;

  // Every component is new, so each starts from its level-1 tree, as in a
  // one-batch ingest of the live set: the pass runs that ingest's rounds
  // and P sweeps and reaches its snapshot, paying only for hashes no shard
  // computed.
  std::vector<NodeId> finals;
  FilterStats stats;
  const TerminationReason reason =
      merge.RefineLocked(/*controller=*/nullptr, &finals, &stats);
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
  counters.forest_nodes = forest_.num_nodes();
  if (initialized_) {
    counters.total_hashes = engine_->total_hashes_computed();
    counters.total_similarities = pairwise_->total_similarities();
    counters.cached_hash_values = engine_->cached_hash_values();
  }
  return counters;
}

}  // namespace adalsh
