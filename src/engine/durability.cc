#include "engine/durability.h"

#include <dirent.h>
#include <errno.h>
#include <string.h>
#include <sys/stat.h>

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "io/checkpoint.h"
#include "obs/metrics_registry.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace adalsh {

namespace {

std::string WalPath(const std::string& dir) { return dir + "/wal-0.log"; }

// True for "wal-<digits>.log" other than "wal-0.log": a log of the retired
// per-shard layout. Compares characters only; the digits are never parsed.
bool IsRetiredShardLog(const std::string& name) {
  constexpr char kPrefix[] = "wal-";
  constexpr char kSuffix[] = ".log";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  if (name == "wal-0.log" || name.size() <= kPrefixLen + kSuffixLen ||
      name.compare(0, kPrefixLen, kPrefix) != 0 ||
      name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) != 0) {
    return false;
  }
  return std::all_of(name.begin() + kPrefixLen, name.end() - kSuffixLen,
                     [](char c) { return c >= '0' && c <= '9'; });
}

}  // namespace

DurableEngine::DurableEngine(MatchRule rule, Options options)
    : rule_(std::move(rule)), options_(std::move(options)) {}

DurableEngine::~DurableEngine() {
  // Best-effort final barrier: a clean shutdown under sync=batch/none leaves
  // nothing in the page cache. Failures are ignored — the process is going
  // away and the sync policy already told the caller what can be lost.
  if (degraded_ || options_.sync == WalSyncPolicy::kNone) return;
  if (log_ != nullptr) (void)log_->Sync();
}

StatusOr<std::unique_ptr<DurableEngine>> DurableEngine::Open(MatchRule rule,
                                                             Options options) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("DurableEngine needs a data_dir");
  }
  if (options.shards < 1) {
    return Status::InvalidArgument("DurableEngine: shards must be >= 1");
  }
  if (::mkdir(options.data_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::FailedPrecondition("mkdir " + options.data_dir + ": " +
                                      ::strerror(errno));
  }
  std::unique_ptr<DurableEngine> engine(
      new DurableEngine(std::move(rule), std::move(options)));
  std::lock_guard<std::mutex> lock(engine->mu_);
  Status recovered = engine->RecoverLocked();
  if (!recovered.ok()) return recovered;
  return engine;
}

Status DurableEngine::RecoverLocked() {
  const std::string& dir = options_.data_dir;
  std::vector<std::string>& warnings = recovery_.recovery_warnings;
  Timer replay_timer;

  // 1. Layout guard: only the retired per-shard layout wrote logs besides
  // wal-0.log. A non-empty one holds mutations this engine would never
  // replay; an empty one is what a checkpoint left behind.
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* entry = ::readdir(d)) {
      const std::string name(entry->d_name);  // d_name dies with closedir
      struct stat st {};
      if (IsRetiredShardLog(name) &&
          ::stat((dir + "/" + name).c_str(), &st) == 0 && st.st_size > 0) {
        ::closedir(d);
        return Status::FailedPrecondition(
            dir + " holds " + name + ", a non-empty per-shard log of an "
            "older build; write a checkpoint with that build, then reopen");
      }
    }
    ::closedir(d);
  }

  // 2. Newest valid checkpoint, if any. Its recorded shard count is never
  // read: the live set reopens at any shard count.
  std::optional<CheckpointData> checkpoint;
  {
    StatusOr<CheckpointData> loaded = LoadNewestCheckpoint(dir, &warnings);
    if (loaded.ok()) {
      checkpoint = *std::move(loaded);
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }

  // 3. Valid frame prefix of the log; a torn/corrupt tail is reported and
  // truncated, never fatal (docs/durability.md).
  std::vector<WalFrame> frames;
  {
    StatusOr<WalReadResult> read = ReadMutationLog(WalPath(dir));
    if (read.ok()) {
      if (read->truncated) {
        recovery_.log_truncated = true;
        warnings.push_back(read->warning);
      }
      frames = std::move(read->frames);
    } else if (read.status().code() != StatusCode::kNotFound) {
      return read.status();
    }
  }

  // 4. Pin the cost model before the engine exists: explicit option >
  // checkpoint > earliest logged kCostModel frame. Without a pin a replay
  // would recalibrate by wall clock and price jump-to-P decisions
  // differently from the crashed run (docs/engine.md).
  ResidentEngine::Options engine_options = options_.engine;
  if (!engine_options.cost_model.has_value()) {
    if (checkpoint.has_value() && checkpoint->has_cost_model) {
      engine_options.cost_model.emplace(checkpoint->cost_per_hash,
                                        checkpoint->cost_per_pair);
    } else {
      for (const WalFrame& frame : frames) {
        if (frame.type != WalFrameType::kCostModel) continue;
        engine_options.cost_model.emplace(frame.cost_per_hash,
                                          frame.cost_per_pair);
        break;
      }
    }
    if (engine_options.cost_model.has_value()) {
      // Replay must not re-log it; the frame/checkpoint entry survives.
      cost_model_logged_ = true;
    }
  } else {
    cost_model_logged_ = true;  // pinned by the caller on every run
  }

  ShardedEngine::Options sharded_options;
  sharded_options.engine = std::move(engine_options);
  sharded_options.shards = options_.shards;
  sharded_.emplace(rule_, std::move(sharded_options));

  // 5. Seed from the checkpoint: one bulk ingest of the live set. The
  // confluence contract makes this byte-identical to the incremental
  // history the checkpoint folded up.
  uint64_t replay_floor = 0;
  if (checkpoint.has_value()) {
    recovery_.checkpoint_loaded = true;
    recovery_.checkpoint_seq = checkpoint->last_seq;
    replay_floor = checkpoint->last_seq;
    // The counter must pass every live id, whatever the checkpoint claims:
    // a fresh id that collides with a live one fails every ingest.
    next_ext_id_ = checkpoint->next_external_id;
    for (ExternalId id : checkpoint->ids) {
      next_ext_id_ = std::max(next_ext_id_, id + 1);
    }
    if (!checkpoint->records.empty()) {
      prototype_ = checkpoint->records.front();
      StatusOr<EngineMutationResult> seeded = sharded_->IngestWithIds(
          std::move(checkpoint->records), checkpoint->ids);
      if (!seeded.ok()) {
        return Status::FailedPrecondition(
            "checkpoint re-ingest failed: " + seeded.status().ToString());
      }
    }
  }

  // 6. Replay the log frame by frame; the sharded engine routes every id
  // to its shard. Frames the checkpoint folded up are skipped. A seq gap,
  // or a frame that logged more than one part (the retired per-shard
  // layout's split, whose other parts are not here), ends the replayable
  // prefix: it and everything after are discarded, which is exactly the
  // sync policy's loss window, never a torn state.
  uint64_t last_applied_seq = replay_floor;
  // Bytes of the retained frames: re-encoding is byte-deterministic, so the
  // sum is the exact offset step 7 reopens the log at.
  uint64_t committed = 0;
  for (size_t i = 0; i < frames.size(); ++i) {
    WalFrame& frame = frames[i];
    if (frame.seq > replay_floor &&
        (frame.seq != last_applied_seq + 1 || frame.parts != 1)) {
      const std::string why =
          frame.parts != 1
              ? "it has " + std::to_string(frame.parts) + " parts"
              : "seq gap after " + std::to_string(last_applied_seq);
      warnings.push_back("frame seq " + std::to_string(frame.seq) + ": " +
                         why + "; discarding it and everything after");
      recovery_.frames_discarded = frames.size() - i;
      break;
    }
    committed += EncodeWalFrame(frame).size();
    if (frame.seq <= replay_floor) continue;  // superseded by the checkpoint

    if (auto injected = FaultStatusPoint(FaultSite::kRecoveryReplay)) {
      return Status::FailedPrecondition("recovery replay: " +
                                        injected->ToString());
    }

    Status applied = Status::Ok();
    switch (frame.type) {
      case WalFrameType::kIngest: {
        for (ExternalId id : frame.ids) {
          next_ext_id_ = std::max(next_ext_id_, id + 1);
        }
        if (!prototype_.has_value() && !frame.records.empty()) {
          prototype_ = frame.records.front();
        }
        applied = sharded_
                      ->IngestWithIds(std::move(frame.records),
                                      std::move(frame.ids))
                      .status();
        break;
      }
      case WalFrameType::kRemove:
        applied = sharded_->Remove(frame.ids).status();
        break;
      case WalFrameType::kUpdate:
        applied = sharded_->Update(frame.ids[0], std::move(frame.records[0]))
                      .status();
        break;
      case WalFrameType::kFlush:
        applied = sharded_->Flush().status();
        break;
      case WalFrameType::kCostModel:
        break;  // consumed in step 4, before the engine existed
    }
    if (!applied.ok()) {
      // A logged mutation that re-applies non-ok (e.g. its pre-validation
      // raced in the original run) is skipped: the live set still converges
      // because the apply conditions are the same function of state.
      ++recovery_.replay_apply_failures;
      warnings.push_back("replay of seq " + std::to_string(frame.seq) +
                         " applied non-ok: " + applied.ToString());
    }
    if (frame.type != WalFrameType::kCostModel) ++recovery_.frames_replayed;
    last_applied_seq = frame.seq;
  }
  next_seq_ = last_applied_seq + 1;

  // 7. Reopen the log for appending at the retained prefix. Anything after
  // (torn bytes or discarded frames) is physically truncated — a discarded
  // frame's seq would otherwise collide with a future mutation's.
  StatusOr<std::unique_ptr<MutationLog>> log =
      MutationLog::Open(WalPath(dir), options_.sync, committed);
  if (!log.ok()) return log.status();
  log_ = std::move(log).value();

  MetricsRegistry* metrics = options_.engine.config.instrumentation.metrics;
  if (metrics != nullptr) {
    metrics->RecordLatency("wal_replay_seconds",
                           replay_timer.ElapsedSeconds());
  }
  ReportMetricsLocked();
  return Status::Ok();
}

Status DurableEngine::CheckWritableLocked() const {
  if (!degraded_) return Status::Ok();
  return Status::FailedPrecondition(
      "engine is read-only: the write-ahead log failed permanently "
      "(wal_degraded); queries keep serving, mutations are rejected");
}

Status DurableEngine::AppendFrameLocked(const WalFrame& frame) {
  MetricsRegistry* metrics = options_.engine.config.instrumentation.metrics;
  Timer append_timer;
  Status appended = log_->Append(frame);
  if (!appended.ok()) {
    degraded_ = true;
    ReportMetricsLocked();
    return Status::FailedPrecondition("WAL append failed permanently (" +
                                      appended.ToString() +
                                      "); engine degraded to read-only");
  }
  if (metrics != nullptr) {
    metrics->RecordLatency("wal_append_seconds", append_timer.ElapsedSeconds());
  }
  return Status::Ok();
}

void DurableEngine::MaybeLogCostModelLocked() {
  if (cost_model_logged_) return;
  std::optional<CostModel> model = sharded_->cost_model();
  if (!model.has_value()) return;
  WalFrame frame;
  frame.type = WalFrameType::kCostModel;
  frame.seq = next_seq_++;
  frame.generation = Snapshot()->generation;
  frame.cost_per_hash = model->cost_per_hash();
  frame.cost_per_pair = model->cost_per_pair();
  if (AppendFrameLocked(frame).ok()) cost_model_logged_ = true;
}

void DurableEngine::MaybeCheckpointLocked() {
  if (options_.checkpoint_every_n == 0 || degraded_) return;
  if (mutations_since_checkpoint_ < options_.checkpoint_every_n) return;
  Status written = CheckpointLocked();
  if (!written.ok()) {
    // A failed periodic checkpoint only means the log stays long; the next
    // threshold crossing (or an explicit `checkpoint`) tries again.
    recovery_.recovery_warnings.push_back("periodic checkpoint failed: " +
                                          written.ToString());
  }
}

Status DurableEngine::CheckpointLocked() {
  MetricsRegistry* metrics = options_.engine.config.instrumentation.metrics;
  Timer checkpoint_timer;

  // Barrier: everything the checkpoint folds up must be at least as durable
  // as the log claims before the log is superseded and truncated.
  if (options_.sync != WalSyncPolicy::kNone) {
    Status synced = log_->Sync();
    if (!synced.ok()) {
      degraded_ = true;
      ReportMetricsLocked();
      ++checkpoint_failures_;
      return Status::FailedPrecondition(
          "WAL sync failed permanently before checkpoint (" +
          synced.ToString() + "); engine degraded to read-only");
    }
  }

  CheckpointData data;
  data.last_seq = next_seq_ - 1;
  data.next_external_id = next_ext_id_;
  data.generation = Snapshot()->generation;
  data.shards = static_cast<uint32_t>(options_.shards);  // written, never read
  std::optional<CostModel> model = sharded_->cost_model();
  if (model.has_value()) {
    data.has_cost_model = true;
    data.cost_per_hash = model->cost_per_hash();
    data.cost_per_pair = model->cost_per_pair();
  }
  std::vector<std::pair<ExternalId, Record>> live = sharded_->LiveRecords();
  data.ids.reserve(live.size());
  data.records.reserve(live.size());
  for (auto& [id, record] : live) {
    data.ids.push_back(id);
    data.records.push_back(std::move(record));
  }

  StatusOr<std::string> path = WriteCheckpoint(options_.data_dir, data);
  if (!path.ok()) {
    ++checkpoint_failures_;
    ReportMetricsLocked();
    return path.status();
  }

  // The checkpoint now supersedes every logged frame; truncating after the
  // rename means a crash in between only leaves already-superseded frames
  // that replay skips by seq.
  Status truncated = log_->Truncate();
  if (!truncated.ok()) {
    ++checkpoint_failures_;
    return truncated;
  }
  PruneCheckpoints(options_.data_dir, data.last_seq);
  ++checkpoints_written_;
  mutations_since_checkpoint_ = 0;
  if (metrics != nullptr) {
    metrics->RecordLatency("checkpoint_write_seconds",
                           checkpoint_timer.ElapsedSeconds());
  }
  ReportMetricsLocked();
  return Status::Ok();
}

Status DurableEngine::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  Status writable = CheckWritableLocked();
  if (!writable.ok()) return writable;
  return CheckpointLocked();
}

StatusOr<EngineMutationResult> DurableEngine::Ingest(
    std::vector<Record> records, const EngineBatchOptions& opts) {
  std::lock_guard<std::mutex> lock(mu_);
  Status writable = CheckWritableLocked();
  if (!writable.ok()) return writable;
  // A budget the engines refuse must not reach the log (every mutation
  // below checks it the same way).
  Status budget = opts.budget.Validate();
  if (!budget.ok()) return budget;
  if (records.empty()) {
    // Nothing to make durable; still a (no-op) engine mutation.
    return sharded_->Ingest({}, opts);
  }
  const Record& prototype =
      prototype_.has_value() ? *prototype_ : records.front();
  for (size_t i = 0; i < records.size(); ++i) {
    Status schema = ResidentEngine::CheckRecordSchema(prototype, records[i], i);
    if (!schema.ok()) return schema;
  }

  WalFrame frame;
  frame.type = WalFrameType::kIngest;
  frame.seq = next_seq_++;
  frame.generation = Snapshot()->generation;
  frame.ids.resize(records.size());
  std::iota(frame.ids.begin(), frame.ids.end(), next_ext_id_);
  frame.records = std::move(records);
  Status appended = AppendFrameLocked(frame);
  if (!appended.ok()) return appended;

  next_ext_id_ = frame.ids.back() + 1;
  if (!prototype_.has_value()) prototype_ = frame.records.front();
  StatusOr<EngineMutationResult> result = sharded_->IngestWithIds(
      std::move(frame.records), std::move(frame.ids), opts);
  if (result.ok()) {
    MaybeLogCostModelLocked();
    ++mutations_since_checkpoint_;
    MaybeCheckpointLocked();
  }
  ReportMetricsLocked();
  return result;
}

StatusOr<EngineMutationResult> DurableEngine::Remove(
    std::span<const ExternalId> ids, const EngineBatchOptions& opts) {
  std::lock_guard<std::mutex> lock(mu_);
  Status writable = CheckWritableLocked();
  if (!writable.ok()) return writable;
  Status budget = opts.budget.Validate();
  if (!budget.ok()) return budget;
  // Pre-validate so doomed mutations never reach the log (replay would just
  // skip them, but a clean log makes frames_replayed meaningful).
  std::unordered_set<ExternalId> seen;
  for (ExternalId id : ids) {
    if (!seen.insert(id).second) {
      return Status::InvalidArgument("Remove: id " + std::to_string(id) +
                                     " appears twice in the batch");
    }
    if (!sharded_->IsLive(id)) {
      return Status::NotFound("Remove: no live record with id " +
                              std::to_string(id));
    }
  }
  if (!ids.empty()) {
    WalFrame frame;
    frame.type = WalFrameType::kRemove;
    frame.seq = next_seq_++;
    frame.generation = Snapshot()->generation;
    frame.ids.assign(ids.begin(), ids.end());
    Status appended = AppendFrameLocked(frame);
    if (!appended.ok()) return appended;
  }
  StatusOr<EngineMutationResult> result = sharded_->Remove(ids, opts);
  if (result.ok() && !ids.empty()) {
    ++mutations_since_checkpoint_;
    MaybeCheckpointLocked();
  }
  ReportMetricsLocked();
  return result;
}

StatusOr<EngineMutationResult> DurableEngine::Update(
    ExternalId id, Record record, const EngineBatchOptions& opts) {
  std::lock_guard<std::mutex> lock(mu_);
  Status writable = CheckWritableLocked();
  if (!writable.ok()) return writable;
  Status budget = opts.budget.Validate();
  if (!budget.ok()) return budget;
  if (!sharded_->IsLive(id)) {
    return Status::NotFound("Update: no live record with id " +
                            std::to_string(id));
  }
  if (prototype_.has_value()) {
    Status schema = ResidentEngine::CheckRecordSchema(*prototype_, record, 0);
    if (!schema.ok()) return schema;
  }
  WalFrame frame;
  frame.type = WalFrameType::kUpdate;
  frame.seq = next_seq_++;
  frame.generation = Snapshot()->generation;
  frame.ids.push_back(id);
  frame.records.push_back(std::move(record));
  Status appended = AppendFrameLocked(frame);
  if (!appended.ok()) return appended;
  StatusOr<EngineMutationResult> result =
      sharded_->Update(id, std::move(frame.records[0]), opts);
  if (result.ok()) {
    ++mutations_since_checkpoint_;
    MaybeCheckpointLocked();
  }
  ReportMetricsLocked();
  return result;
}

StatusOr<EngineMutationResult> DurableEngine::Flush(
    const EngineBatchOptions& opts) {
  std::lock_guard<std::mutex> lock(mu_);
  Status writable = CheckWritableLocked();
  if (!writable.ok()) return writable;
  Status budget = opts.budget.Validate();
  if (!budget.ok()) return budget;
  WalFrame frame;
  frame.type = WalFrameType::kFlush;
  frame.seq = next_seq_++;
  frame.generation = Snapshot()->generation;
  Status appended = AppendFrameLocked(frame);
  if (!appended.ok()) return appended;

  // Flush is the sync=batch barrier: everything appended since the last
  // barrier becomes durable before the certification point it feeds.
  if (options_.sync == WalSyncPolicy::kBatch) {
    MetricsRegistry* metrics = options_.engine.config.instrumentation.metrics;
    Timer sync_timer;
    Status synced = log_->Sync();
    if (!synced.ok()) {
      degraded_ = true;
      ReportMetricsLocked();
      return Status::FailedPrecondition("WAL sync failed permanently (" +
                                        synced.ToString() +
                                        "); engine degraded to read-only");
    }
    if (metrics != nullptr) {
      metrics->RecordLatency("wal_fsync_seconds", sync_timer.ElapsedSeconds());
    }
  }

  StatusOr<EngineMutationResult> result = sharded_->Flush(opts);
  if (result.ok()) {
    ++mutations_since_checkpoint_;
    MaybeCheckpointLocked();
  }
  ReportMetricsLocked();
  return result;
}

std::shared_ptr<const EngineSnapshot> DurableEngine::Snapshot() const {
  return sharded_->Snapshot();
}

StatusOr<std::vector<std::vector<ExternalId>>> DurableEngine::TopK(
    int k) const {
  return sharded_->TopK(k);
}

StatusOr<std::vector<ExternalId>> DurableEngine::Cluster(ExternalId id) const {
  return sharded_->Cluster(id);
}

EngineCounters DurableEngine::counters() const { return sharded_->counters(); }

std::vector<EngineCounters> DurableEngine::shard_counters() const {
  return sharded_->shard_counters();
}

DurabilityStats DurableEngine::durability_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  DurabilityStats stats = recovery_;
  const WalWriterStats& w = log_->stats();
  stats.wal_frames_appended = w.frames_appended;
  stats.wal_bytes_appended = w.bytes_appended;
  stats.wal_syncs = w.syncs;
  stats.wal_append_retries = w.append_retries;
  stats.wal_sync_retries = w.sync_retries;
  stats.checkpoints_written = checkpoints_written_;
  stats.checkpoint_failures = checkpoint_failures_;
  stats.wal_degraded = degraded_;
  return stats;
}

bool DurableEngine::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

void DurableEngine::ReportMetricsLocked() {
  MetricsRegistry* metrics = options_.engine.config.instrumentation.metrics;
  if (metrics == nullptr) return;
  const WalWriterStats& w = log_->stats();
  metrics->SetGauge("wal_frames_appended",
                    static_cast<double>(w.frames_appended));
  metrics->SetGauge("wal_bytes_appended",
                    static_cast<double>(w.bytes_appended));
  metrics->SetGauge("wal_syncs", static_cast<double>(w.syncs));
  metrics->SetGauge("wal_append_retries",
                    static_cast<double>(w.append_retries));
  metrics->SetGauge("wal_sync_retries", static_cast<double>(w.sync_retries));
  metrics->SetGauge("wal_checkpoints_written",
                    static_cast<double>(checkpoints_written_));
  metrics->SetGauge("wal_checkpoint_failures",
                    static_cast<double>(checkpoint_failures_));
  metrics->SetGauge("wal_frames_replayed",
                    static_cast<double>(recovery_.frames_replayed));
  metrics->SetGauge("wal_degraded", degraded_ ? 1 : 0);
}

}  // namespace adalsh
