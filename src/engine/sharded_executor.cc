#include "engine/sharded_executor.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "clustering/forest_merge.h"
#include "core/refine_loop.h"
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

/// Friend-door into ResidentEngine for the merge pass: read-only access to a
/// shard's live set, forest and hash caches, taken under the shard's
/// mutation lock (docs/sharding.md). Nothing here mutates shard state — the
/// merge assembles its own global dataset/forest/caches.
class ShardedMergeAccess {
 public:
  static std::mutex& Mutex(ResidentEngine& e) { return e.mu_; }
  static bool Initialized(const ResidentEngine& e) { return e.initialized_; }
  static const Dataset& Data(const ResidentEngine& e) { return e.dataset_; }
  static const std::vector<char>& Live(const ResidentEngine& e) {
    return e.live_;
  }
  static const std::vector<ExternalId>& ExtOf(const ResidentEngine& e) {
    return e.ext_of_;
  }
  static const std::vector<NodeId>& LeafOf(const ResidentEngine& e) {
    return e.leaf_of_;
  }
  static const std::vector<int>& LastFn(const ResidentEngine& e) {
    return e.last_fn_;
  }
  static const ParentPointerForest& Forest(const ResidentEngine& e) {
    return e.forest_;
  }
  static uint64_t Batches(const ResidentEngine& e) {
    return e.counters_.batches;
  }
  static const HashEngine& Hashes(const ResidentEngine& e) {
    return *e.engine_;
  }
};

namespace {

/// Appends `in`'s round records after `out`'s, renumbered so indices stay
/// 1-based and in order, and sums the work they account for — the per-round
/// invariants of filter_output.h keep holding for the concatenation.
void AppendRounds(const FilterStats& in, FilterStats* out) {
  for (RoundRecord round : in.round_records) {
    round.round = out->round_records.size() + 1;
    out->round_records.push_back(std::move(round));
  }
  out->rounds += in.rounds;
  out->hashes_computed += in.hashes_computed;
  out->pairwise_similarities += in.pairwise_similarities;
  out->modeled_cost += in.modeled_cost;
}

/// Folds one shard pass into an aggregated mutation result: rounds
/// concatenate in shard order, counters sum, wall time takes the slowest
/// shard (the passes overlap), and the per-record snapshots add up (shards
/// hold disjoint live sets).
void FoldShardResult(const EngineMutationResult& shard,
                     EngineMutationResult* result) {
  const FilterStats& in = shard.stats;
  FilterStats* out = &result->stats;
  AppendRounds(in, out);
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

/// The canonical cross-shard merge (docs/sharding.md). Caller holds every
/// shard's mutation lock; shard state is read-only throughout.
///
/// Records are gathered from all shards and renumbered by ascending external
/// id — exactly the internal-id order of a fresh engine ingesting the live
/// set in one batch, which is the reference the byte-identity contract names.
/// Level-1 bucket keys (recomputed for free from adopted hash prefixes)
/// yield the global components; shard trees are grafted in canonical order
/// (ascending shard, ascending shard-local discovery); components whose
/// trees came from more than one shard are collapsed back to one open
/// level-1 tree — cross-shard evidence may bridge their pieces at any deeper
/// level, the same argument that reopens a component on arrival — while
/// single-shard components keep their pieces, each a node of the component's
/// deterministic refinement tree. The shared refinement loop then certifies
/// the global top-k.
EngineSnapshot MergeShardStatesLocked(
    const MatchRule& rule, const ResidentEngine::Options& tmpl,
    CostModel cost_model,
    std::span<const std::unique_ptr<ResidentEngine>> shards,
    ThreadPool* pool) {
  const Instrumentation& instr = tmpl.config.instrumentation;
  TraceRecorder::Span span(instr.trace, "shard_merge", "engine");
  EngineSnapshot snap;

  // Phase accounting: gather (steps 1-3: collect records, adopt hashes,
  // global level-1 union-find), graft (steps 4-5: transplant shard trees,
  // collapse cross-shard components), refine (step 6: the global loop).
  // Spans live in optionals so each closes exactly at its phase boundary
  // without restructuring the step-numbered flow below.
  std::optional<TraceRecorder::Span> phase_span;
  Timer phase_timer;
  phase_span.emplace(instr.trace, "merge_gather", "engine");

  // 1. Gather every live record: (external id, owning shard, shard-local
  // internal id, last function applied).
  struct Src {
    ExternalId ext;
    int shard;
    RecordId local;
    int last_fn;
  };
  std::vector<Src> srcs;
  for (size_t s = 0; s < shards.size(); ++s) {
    const ResidentEngine& e = *shards[s];
    if (!ShardedMergeAccess::Initialized(e)) continue;
    const std::vector<char>& live = ShardedMergeAccess::Live(e);
    const std::vector<ExternalId>& ext_of = ShardedMergeAccess::ExtOf(e);
    const std::vector<int>& last_fn = ShardedMergeAccess::LastFn(e);
    for (size_t r = 0; r < live.size(); ++r) {
      if (!live[r]) continue;
      srcs.push_back({ext_of[r], static_cast<int>(s),
                      static_cast<RecordId>(r), last_fn[r]});
    }
  }
  std::sort(srcs.begin(), srcs.end(),
            [](const Src& a, const Src& b) { return a.ext < b.ext; });
  const size_t n = srcs.size();
  snap.live_records = n;
  if (n == 0) return snap;

  // 2. Global dataset in ascending-external-id order, with each record's
  // hash prefixes adopted from its shard — the merge never recomputes a
  // hash the shards already paid for.
  Dataset global("sharded-merge");
  for (const Src& src : srcs) {
    global.AddRecord(Record(ShardedMergeAccess::Data(*shards[src.shard])
                                .record(src.local)),
                     /*entity=*/0);
  }
  StatusOr<FunctionSequence> built =
      FunctionSequence::Build(rule, global.record(0), tmpl.config.sequence);
  ADALSH_CHECK(built.ok()) << built.status().ToString();
  const FunctionSequence sequence = std::move(built).value();
  HashEngine engine(global, sequence.structure(), tmpl.config.seed);
  for (size_t g = 0; g < n; ++g) {
    engine.AdoptRecordHashes(ShardedMergeAccess::Hashes(*shards[srcs[g].shard]),
                             srcs[g].local, static_cast<RecordId>(g));
  }

  // 3. Global level-1 components: union records whose bucket keys collide
  // in any table — including collisions across shards, which no shard ever
  // saw. Keys come straight off the adopted prefixes (every live record was
  // hashed through plan 0 on arrival in its shard).
  const SchemePlan& plan0 = sequence.plan(0);
  std::vector<RecordId> uf(n);
  std::iota(uf.begin(), uf.end(), 0);
  auto find = [&](RecordId x) {
    while (uf[x] != x) {
      uf[x] = uf[uf[x]];
      x = uf[x];
    }
    return x;
  };
  {
    const size_t num_tables = plan0.tables.size();
    std::vector<uint64_t> keys(n * num_tables);  // table-major
    for (size_t g = 0; g < n; ++g) {
      engine.TableKeys(static_cast<RecordId>(g), plan0, keys.data() + g, n);
    }
    for (size_t t = 0; t < num_tables; ++t) {
      std::unordered_map<uint64_t, RecordId> first_with_key;
      first_with_key.reserve(n);
      for (size_t g = 0; g < n; ++g) {
        auto [it, inserted] = first_with_key.emplace(keys[t * n + g], g);
        if (inserted) continue;
        RecordId a = find(it->second);
        RecordId b = find(static_cast<RecordId>(g));
        if (a != b) uf[std::max(a, b)] = std::min(a, b);
      }
    }
  }
  const double gather_seconds = phase_timer.ElapsedSeconds();
  phase_span.reset();
  phase_span.emplace(instr.trace, "merge_graft", "engine");
  Timer graft_timer;
  GraftStats graft_stats;

  // 4. Graft every shard tree into the global forest in canonical order
  // (ascending shard, ascending shard-local record id), grouping the
  // grafted roots by global component.
  ParentPointerForest forest;
  std::vector<NodeId> leaf_of(n, kInvalidNode);
  std::vector<int> last_fn(n, 0);
  std::vector<uint64_t> order_key(n, 0);
  std::vector<std::vector<RecordId>> remap(shards.size());
  for (size_t g = 0; g < n; ++g) {
    last_fn[g] = srcs[g].last_fn;
    order_key[g] = srcs[g].ext;
    std::vector<RecordId>& shard_map = remap[srcs[g].shard];
    if (shard_map.size() <= static_cast<size_t>(srcs[g].local)) {
      shard_map.resize(srcs[g].local + 1, 0);
    }
    shard_map[srcs[g].local] = static_cast<RecordId>(g);
  }
  struct Component {
    std::vector<NodeId> roots;  // grafted, in canonical graft order
    int first_shard = -1;
    bool multi_shard = false;
  };
  std::unordered_map<RecordId, Component> components;
  std::vector<RecordId> component_order;  // first-touch order
  for (size_t s = 0; s < shards.size(); ++s) {
    const ResidentEngine& e = *shards[s];
    if (!ShardedMergeAccess::Initialized(e)) continue;
    const std::vector<char>& live = ShardedMergeAccess::Live(e);
    const std::vector<NodeId>& shard_leaf_of = ShardedMergeAccess::LeafOf(e);
    const ParentPointerForest& shard_forest = ShardedMergeAccess::Forest(e);
    std::unordered_set<NodeId> seen;
    for (size_t r = 0; r < live.size(); ++r) {
      if (!live[r]) continue;
      const NodeId shard_root = shard_forest.FindRoot(shard_leaf_of[r]);
      if (!seen.insert(shard_root).second) continue;
      const NodeId grafted = GraftTree(shard_forest, shard_root, &forest,
                                       remap[s], &leaf_of, &graft_stats);
      // A tree never spans level-1 components, so any leaf names the
      // component; `r` is one of its leaves.
      const RecordId comp = find(remap[s][r]);
      auto [it, inserted] = components.emplace(comp, Component{});
      if (inserted) component_order.push_back(comp);
      Component& info = it->second;
      if (info.first_shard == -1) {
        info.first_shard = static_cast<int>(s);
      } else if (info.first_shard != static_cast<int>(s)) {
        info.multi_shard = true;
      }
      info.roots.push_back(grafted);
    }
  }

  // 5. Initial roots: multi-shard components collapse to one open tree;
  // single-shard components keep their (already canonical) pieces.
  std::vector<NodeId> roots;
  size_t reopened = 0;
  for (RecordId comp : component_order) {
    Component& info = components[comp];
    if (info.multi_shard) {
      roots.push_back(MergeRoots(&forest, info.roots, /*producer=*/0));
      ++reopened;
    } else {
      roots.insert(roots.end(), info.roots.begin(), info.roots.end());
    }
  }
  span.AddArg("records", static_cast<double>(n));
  span.AddArg("components", static_cast<double>(component_order.size()));
  span.AddArg("cross_shard_components", static_cast<double>(reopened));
  span.AddArg("grafted_trees", static_cast<double>(graft_stats.trees));
  if (instr.metrics != nullptr) {
    instr.metrics->AddCounter("shard_merges", 1);
    instr.metrics->AddCounter("shard_merge_cross_components", reopened);
    instr.metrics->AddCounter("shard_merge_grafted_trees", graft_stats.trees);
    instr.metrics->AddCounter("shard_merge_grafted_leaves",
                              graft_stats.leaves);
  }
  const double graft_seconds = graft_timer.ElapsedSeconds();
  phase_span.reset();
  phase_span.emplace(instr.trace, "merge_refine", "engine");
  Timer refine_timer;

  // 6. Continue the canonical refinement loop to the global top-k, over
  // merge-local hasher/pairwise arenas (the tiled PairwiseComputer sweeps
  // any cross-shard pairs the reopened components surface).
  cost_model.set_pairwise_noise_factor(tmpl.config.pairwise_noise_factor);
  TransitiveHasher hasher(&engine, &forest, n, pool, instr);
  PairwiseComputer pairwise(global, rule, pool, instr);
  RefineLoopDeps deps;
  deps.config = &tmpl.config;
  deps.sequence = &sequence;
  deps.cost_model = &cost_model;
  deps.engine = &engine;
  deps.hasher = &hasher;
  deps.pairwise = &pairwise;
  deps.forest = &forest;
  deps.last_fn = &last_fn;
  deps.order_key = &order_key;
  deps.leaf_of = &leaf_of;
  std::vector<NodeId> finals;
  FilterStats stats;
  RunRefineLoop(deps, tmpl.top_k, roots, /*controller=*/nullptr, &finals,
                &stats);
  ADALSH_CHECK(stats.termination_reason == TerminationReason::kCompleted);
  stats.records_last_hashed_at.assign(sequence.size(), 0);
  for (size_t g = 0; g < n; ++g) {
    if (last_fn[g] == kLastFunctionPairwise) {
      ++stats.records_finished_by_pairwise;
    } else {
      ++stats.records_last_hashed_at[last_fn[g]];
    }
  }
  ReportTermination(instr, stats, finals.size());
  const double refine_seconds = refine_timer.ElapsedSeconds();
  phase_span.reset();
  if (instr.metrics != nullptr) {
    instr.metrics->RecordLatency("shard_merge_gather_seconds", gather_seconds);
    instr.metrics->RecordLatency("shard_merge_graft_seconds", graft_seconds);
    instr.metrics->RecordLatency("shard_merge_refine_seconds", refine_seconds);
  }

  // 7. Canonical snapshot, exactly as ResidentEngine publishes one.
  snap.clusters.reserve(finals.size());
  snap.verification.reserve(finals.size());
  for (size_t i = 0; i < finals.size(); ++i) {
    std::vector<ExternalId> members;
    members.reserve(forest.LeafCount(finals[i]));
    forest.ForEachLeaf(finals[i],
                       [&](RecordId g) { members.push_back(order_key[g]); });
    std::sort(members.begin(), members.end());
    for (ExternalId member : members) snap.cluster_of.emplace(member, i);
    snap.clusters.push_back(std::move(members));
    snap.verification.push_back(VerificationLevel(forest, finals[i]));
  }
  snap.stats = std::move(stats);
  return snap;
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

Status ShardedEngine::EnsureShardsLocked(
    const std::vector<Record>& prototype_batch) {
  if (!shards_.empty()) return Status::Ok();
  ADALSH_CHECK(!prototype_batch.empty());
  // Sequence construction is the only fallible per-shard initialization
  // step; probing it once up front keeps a bad first batch all-or-nothing
  // (shard engines would otherwise each reject their sub-batch after other
  // shards already ingested theirs).
  StatusOr<FunctionSequence> probe = FunctionSequence::Build(
      rule_, prototype_batch.front(), options_.engine.config.sequence);
  if (!probe.ok()) return probe.status();
  if (!shared_cost_model_.has_value()) {
    // One model for every shard: shards calibrating separately would
    // disagree on the jump-to-P point, and with it on the produced clusters
    // across shard counts (docs/sharding.md).
    Dataset sample("shard-calibration");
    for (const Record& record : prototype_batch) {
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
  return Status::Ok();
}

StatusOr<EngineMutationResult> ShardedEngine::Ingest(
    std::vector<Record> records, const EngineBatchOptions& opts) {
  return RouteIngest(std::move(records), std::nullopt, opts);
}

StatusOr<EngineMutationResult> ShardedEngine::IngestWithIds(
    std::vector<Record> records, std::vector<ExternalId> ids,
    const EngineBatchOptions& opts) {
  if (records.size() != ids.size()) {
    return Status::InvalidArgument(
        "IngestWithIds: " + std::to_string(ids.size()) + " ids for " +
        std::to_string(records.size()) + " records");
  }
  for (size_t i = 1; i < ids.size(); ++i) {
    if (ids[i] <= ids[i - 1]) {
      return Status::InvalidArgument(
          "IngestWithIds: ids must be strictly increasing within the batch");
    }
  }
  return RouteIngest(std::move(records), std::move(ids), opts);
}

StatusOr<EngineMutationResult> ShardedEngine::RouteIngest(
    std::vector<Record> records,
    std::optional<std::vector<ExternalId>> given_ids,
    const EngineBatchOptions& opts) {
  if (records.empty()) {
    EngineMutationResult result;
    result.generation = Publish();
    return result;
  }
  std::vector<ExternalId> ids;
  {
    std::lock_guard<std::mutex> lock(id_mu_);
    const Record& prototype =
        prototype_.has_value() ? *prototype_ : records.front();
    for (size_t i = 0; i < records.size(); ++i) {
      Status schema =
          ResidentEngine::CheckRecordSchema(prototype, records[i], i);
      if (!schema.ok()) return schema;
    }
    Status init = EnsureShardsLocked(records);
    if (!init.ok()) return init;
    if (!prototype_.has_value()) prototype_ = records.front();
    if (!given_ids.has_value()) {
      ids.reserve(records.size());
      for (size_t i = 0; i < records.size(); ++i) {
        ids.push_back(next_ext_id_++);
      }
    }
  }
  const ShardSpan shards = Shards();
  if (given_ids.has_value()) {
    // Every id is checked on its shard before any shard ingests: a shard
    // rejecting its sub-batch after another shard applied its own would
    // break all-or-nothing. Best-effort under concurrent writers on the
    // same ids, like Remove.
    for (ExternalId id : *given_ids) {
      if (shards[ShardOfExternalId(id, options_.shards)]->IsLive(id)) {
        return Status::InvalidArgument("IngestWithIds: id " +
                                       std::to_string(id) +
                                       " is already bound to a live record");
      }
    }
    ids = std::move(*given_ids);
    std::lock_guard<std::mutex> lock(id_mu_);
    next_ext_id_ = std::max(next_ext_id_, ids.back() + 1);
  }

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
  const Instrumentation& instr = options_.engine.config.instrumentation;
  const ShardSpan shards = Shards();
  if (shards.empty() && !ids.empty()) {
    return Status::NotFound("Remove: no live record with id " +
                            std::to_string(ids.front()));
  }
  std::vector<std::vector<ExternalId>> shard_ids(shards.size());
  std::unordered_set<ExternalId> seen;
  for (ExternalId id : ids) {
    if (!seen.insert(id).second) {
      return Status::InvalidArgument("Remove: id " + std::to_string(id) +
                                     " appears twice in the batch");
    }
    shard_ids[ShardOfExternalId(id, options_.shards)].push_back(id);
  }
  // Pre-validate across every involved shard before mutating any of them.
  // Best-effort under races on the same ids (see header).
  for (size_t s = 0; s < shards.size(); ++s) {
    for (ExternalId id : shard_ids[s]) {
      if (!shards[s]->IsLive(id)) {
        return Status::NotFound("Remove: no live record with id " +
                                std::to_string(id));
      }
    }
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
  const Instrumentation& instr = options_.engine.config.instrumentation;
  const ShardSpan shards = Shards();
  if (shards.empty()) {
    return Status::NotFound("Update: no live record with id " +
                            std::to_string(id));
  }
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
  const Instrumentation& instr = options_.engine.config.instrumentation;
  Timer flush_timer;
  std::lock_guard<std::mutex> flush_lock(flush_mu_);
  const ShardSpan shards = Shards();
  EngineMutationResult result;
  // Complete any shard refinement left unfinished by SLO-interrupted
  // mutations; the request's options bound these passes only. At S=1 the
  // flushed shard's snapshot is the global one, published below.
  for (const std::unique_ptr<ResidentEngine>& shard : shards) {
    StatusOr<EngineMutationResult> flushed = shard->Flush(opts);
    if (!flushed.ok()) return flushed.status();
    FoldShardResult(flushed.value(), &result);
  }

  if (shards.size() >= 2) {
    // The global certification pause: hold every shard's mutation lock (in
    // ascending shard order — the only multi-lock acquisition in the
    // engine) while the merge reads shard state and certifies the global
    // top-k.
    Timer wait_timer;
    std::vector<std::unique_lock<std::mutex>> shard_locks;
    shard_locks.reserve(shards.size());
    for (const std::unique_ptr<ResidentEngine>& shard : shards) {
      shard_locks.emplace_back(ShardedMergeAccess::Mutex(*shard));
    }
    result.lock_wait_seconds += wait_timer.ElapsedSeconds();
    uint64_t batches_merged = 0;
    for (const std::unique_ptr<ResidentEngine>& shard : shards) {
      batches_merged += ShardedMergeAccess::Batches(*shard);
    }
    ScopedThreadPool merge_pool(options_.engine.config.threads);
    Timer merge_timer;
    auto merged = std::make_shared<EngineSnapshot>(MergeShardStatesLocked(
        rule_, options_.engine, *shared_cost_model_, shards,
        merge_pool.get()));
    const double merge_seconds = merge_timer.ElapsedSeconds();
    shard_locks.clear();
    if (instr.metrics != nullptr) {
      instr.metrics->RecordLatency("shard_merge_seconds", merge_seconds);
    }
    // The merge pass, not the shard flushes, certified what is published.
    result.stats = merged->stats;
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    merged->generation = snapshot_->generation + 1;
    snapshot_ = std::move(merged);
    batches_at_merge_ = batches_merged;
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
    total.refinements_completed += c.refinements_completed;
    total.refinements_interrupted += c.refinements_interrupted;
    total.internal_records += c.internal_records;
    total.level1_buckets += c.level1_buckets;
    total.snapshot_lag_batches += c.snapshot_lag_batches;
    total.total_hashes += c.total_hashes;
    total.total_similarities += c.total_similarities;
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

StatusOr<EngineSnapshot> RunShardedBatch(
    const Dataset& dataset, const MatchRule& rule,
    const ShardedEngine::Options& options) {
  ShardedEngine engine(rule, options);
  std::vector<Record> records;
  records.reserve(dataset.num_records());
  for (RecordId r = 0; r < static_cast<RecordId>(dataset.num_records()); ++r) {
    records.push_back(Record(dataset.record(r)));
  }
  StatusOr<EngineMutationResult> ingested = engine.Ingest(std::move(records));
  if (!ingested.ok()) return ingested.status();
  StatusOr<EngineMutationResult> flushed = engine.Flush();
  if (!flushed.ok()) return flushed.status();
  // The published snapshot's stats describe the flush alone; the run's are
  // the ingest's rounds followed by the flush's, with the flush's
  // Definition 3 snapshot (it treated the same live records last).
  EngineSnapshot snap(*engine.Snapshot());
  FilterStats run = std::move(ingested.value().stats);
  AppendRounds(snap.stats, &run);
  run.filtering_seconds += snap.stats.filtering_seconds;
  run.records_last_hashed_at = std::move(snap.stats.records_last_hashed_at);
  run.records_finished_by_pairwise = snap.stats.records_finished_by_pairwise;
  run.termination_reason = snap.stats.termination_reason;
  run.cluster_verification = std::move(snap.stats.cluster_verification);
  snap.stats = std::move(run);
  return snap;
}

}  // namespace adalsh
