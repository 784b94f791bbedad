#include "engine/durability.h"

#include <dirent.h>
#include <errno.h>
#include <string.h>
#include <sys/stat.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "io/checkpoint.h"
#include "obs/metrics_registry.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace adalsh {

namespace {

std::string WalPath(const std::string& dir, int shard) {
  return dir + "/wal-" + std::to_string(shard) + ".log";
}

// Parses "wal-<digits>.log" into the shard index; false otherwise.
bool ParseWalFileName(const std::string& name, int* shard) {
  constexpr char kPrefix[] = "wal-";
  constexpr char kSuffix[] = ".log";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  if (name.size() <= kPrefixLen + kSuffixLen ||
      name.compare(0, kPrefixLen, kPrefix) != 0 ||
      name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) != 0) {
    return false;
  }
  int value = 0;
  for (size_t i = kPrefixLen; i < name.size() - kSuffixLen; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + (name[i] - '0');
  }
  *shard = value;
  return true;
}

}  // namespace

DurableEngine::DurableEngine(MatchRule rule, Options options)
    : rule_(std::move(rule)), options_(std::move(options)) {}

DurableEngine::~DurableEngine() {
  // Best-effort final barrier: a clean shutdown under sync=batch/none leaves
  // nothing in the page cache. Failures are ignored — the process is going
  // away and the sync policy already told the caller what can be lost.
  if (degraded_ || options_.sync == WalSyncPolicy::kNone) return;
  for (const std::unique_ptr<MutationLog>& log : logs_) {
    if (log != nullptr) (void)log->Sync();
  }
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

  // 1. Stale-layout guard: a wal file for a shard index this configuration
  // does not have means the directory was written with more shards — the
  // id->shard routing changed and per-shard logs no longer line up.
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* entry = ::readdir(d)) {
      int shard = 0;
      if (ParseWalFileName(entry->d_name, &shard) && shard >= options_.shards) {
        const std::string name(entry->d_name);  // d_name dies with closedir
        ::closedir(d);
        return Status::FailedPrecondition(
            "stale shard layout: " + dir + " holds " + name +
            " but this engine has only " +
            std::to_string(options_.shards) + " log(s); reopen with the "
            "shard count that wrote the directory");
      }
    }
    ::closedir(d);
  }

  // 2. Newest valid checkpoint, if any. A checkpoint written under a
  // different shard count is the same stale-layout error as above. One that
  // records shards=0 predates the single-engine shape's fold into S=1 and
  // has the S=1 layout (one wal-0.log, one-part frames), so it reads as 1.
  std::optional<CheckpointData> checkpoint;
  {
    StatusOr<CheckpointData> loaded = LoadNewestCheckpoint(dir, &warnings);
    if (loaded.ok()) {
      if (std::max<int>(1, loaded->shards) != options_.shards) {
        return Status::FailedPrecondition(
            "stale shard layout: checkpoint in " + dir + " was written with "
            "shards=" + std::to_string(loaded->shards) + ", engine opened "
            "with shards=" + std::to_string(options_.shards));
      }
      checkpoint = *std::move(loaded);
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }

  // 3. Valid frame prefix of every shard log; torn/corrupt tails are
  // reported and truncated, never fatal (docs/durability.md).
  std::vector<std::vector<WalFrame>> log_frames(options_.shards);
  for (int s = 0; s < options_.shards; ++s) {
    StatusOr<WalReadResult> read = ReadMutationLog(WalPath(dir, s));
    if (!read.ok()) {
      if (read.status().code() == StatusCode::kNotFound) continue;
      return read.status();
    }
    if (read->truncated) {
      recovery_.log_truncated = true;
      warnings.push_back(read->warning);
    }
    log_frames[s] = std::move(read->frames);
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
      uint64_t best_seq = 0;
      for (const std::vector<WalFrame>& frames : log_frames) {
        for (const WalFrame& frame : frames) {
          if (frame.type != WalFrameType::kCostModel) continue;
          if (best_seq == 0 || frame.seq < best_seq) {
            best_seq = frame.seq;
            engine_options.cost_model.emplace(frame.cost_per_hash,
                                              frame.cost_per_pair);
          }
        }
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

  // 6. Group replayable frames by seq. Within one log, appends are in seq
  // order; across logs the global counter interleaves, so a sorted map
  // rebuilds the original mutation order.
  struct SeqGroup {
    std::vector<WalFrame> frames;
  };
  std::map<uint64_t, SeqGroup> groups;
  // Per-log (seq, on-disk bytes) of every valid frame, captured before the
  // frames are moved into the groups — step 8 needs the sizes to compute
  // committed offsets, and a moved-from frame re-encodes to the wrong bytes.
  std::vector<std::vector<std::pair<uint64_t, size_t>>> extents(
      options_.shards);
  for (int s = 0; s < options_.shards; ++s) {
    for (WalFrame& frame : log_frames[s]) {
      extents[s].emplace_back(frame.seq, EncodeWalFrame(frame).size());
      if (frame.seq <= replay_floor) continue;  // superseded by checkpoint
      groups[frame.seq].frames.push_back(std::move(frame));
    }
  }

  // 7. Replay the longest consecutive, complete prefix. A missing seq or a
  // mutation with fewer sub-frames than it logged (`parts`) means its tail
  // was lost — everything at and after that point is discarded, which is
  // exactly the sync policy's loss window, never a torn state.
  uint64_t last_applied_seq = replay_floor;
  bool stopped = false;
  for (const auto& [seq, group] : groups) {
    if (stopped || seq != last_applied_seq + 1) {
      if (!stopped) {
        warnings.push_back("seq gap after " +
                           std::to_string(last_applied_seq) +
                           "; discarding the remaining frames");
        stopped = true;
      }
      ++recovery_.frames_discarded;
      continue;
    }
    const uint32_t parts = group.frames.front().parts;
    if (group.frames.size() != parts) {
      warnings.push_back(
          "mutation seq " + std::to_string(seq) + " has " +
          std::to_string(group.frames.size()) + " of " +
          std::to_string(parts) +
          " sub-frames (unsynced tail); discarding it and everything after");
      stopped = true;
      ++recovery_.frames_discarded;
      continue;
    }

    if (auto injected = FaultStatusPoint(FaultSite::kRecoveryReplay)) {
      return Status::FailedPrecondition("recovery replay: " +
                                        injected->ToString());
    }

    const WalFrame& first = group.frames.front();
    Status applied = Status::Ok();
    switch (first.type) {
      case WalFrameType::kIngest: {
        // Re-join the sub-batches: the original batch assigned strictly
        // increasing ids, so sorting the union by id restores it.
        std::vector<std::pair<uint64_t, const Record*>> merged;
        for (const WalFrame& frame : group.frames) {
          for (size_t i = 0; i < frame.ids.size(); ++i) {
            merged.emplace_back(frame.ids[i], &frame.records[i]);
          }
        }
        std::sort(merged.begin(), merged.end(),
                  [](const auto& a, const auto& b) {
                    return a.first < b.first;
                  });
        std::vector<Record> records;
        std::vector<ExternalId> ids;
        records.reserve(merged.size());
        ids.reserve(merged.size());
        for (const auto& [id, record] : merged) {
          ids.push_back(id);
          records.push_back(*record);
        }
        if (!prototype_.has_value() && !records.empty()) {
          prototype_ = records.front();
        }
        next_ext_id_ = std::max(next_ext_id_, ids.back() + 1);
        StatusOr<EngineMutationResult> result =
            sharded_->IngestWithIds(std::move(records), std::move(ids));
        applied = result.ok() ? Status::Ok() : result.status();
        break;
      }
      case WalFrameType::kRemove: {
        std::vector<ExternalId> ids;
        for (const WalFrame& frame : group.frames) {
          ids.insert(ids.end(), frame.ids.begin(), frame.ids.end());
        }
        std::sort(ids.begin(), ids.end());
        StatusOr<EngineMutationResult> result = sharded_->Remove(ids);
        applied = result.ok() ? Status::Ok() : result.status();
        break;
      }
      case WalFrameType::kUpdate: {
        StatusOr<EngineMutationResult> result =
            sharded_->Update(first.ids[0], Record(first.records[0]));
        applied = result.ok() ? Status::Ok() : result.status();
        break;
      }
      case WalFrameType::kFlush: {
        StatusOr<EngineMutationResult> result = sharded_->Flush();
        applied = result.ok() ? Status::Ok() : result.status();
        break;
      }
      case WalFrameType::kCostModel:
        break;  // consumed in step 4, before the engine existed
    }
    if (!applied.ok()) {
      // A logged mutation that re-applies non-ok (e.g. its pre-validation
      // raced in the original run) is skipped: the live set still converges
      // because the apply conditions are the same function of state.
      ++recovery_.replay_apply_failures;
      warnings.push_back("replay of seq " + std::to_string(seq) +
                         " applied non-ok: " + applied.ToString());
    }
    if (first.type != WalFrameType::kCostModel) ++recovery_.frames_replayed;
    last_applied_seq = seq;
  }
  next_seq_ = last_applied_seq + 1;

  // 8. Reopen the logs for appending, committed through the last applied
  // seq: re-encoding is byte-deterministic, so summing encoded sizes of the
  // retained frames gives the exact file offset. Anything after (torn bytes
  // or discarded ghost frames) is physically truncated — a ghost frame's
  // seq would otherwise collide with a future mutation's.
  for (int s = 0; s < options_.shards; ++s) {
    uint64_t committed = 0;
    for (const auto& [seq, bytes] : extents[s]) {
      if (seq > last_applied_seq) break;
      committed += bytes;
    }
    StatusOr<std::unique_ptr<MutationLog>> log =
        MutationLog::Open(WalPath(dir, s), options_.sync, committed);
    if (!log.ok()) return log.status();
    logs_.push_back(std::move(log).value());
  }

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

Status DurableEngine::AppendFramesLocked(WalFrame frame,
                                         const std::vector<int>& shards) {
  MetricsRegistry* metrics = options_.engine.config.instrumentation.metrics;
  Timer append_timer;
  for (int s : shards) {
    Status appended = logs_[s]->Append(frame);
    if (!appended.ok()) {
      degraded_ = true;
      ReportMetricsLocked();
      return Status::FailedPrecondition(
          "WAL append failed permanently (" + appended.ToString() +
          "); engine degraded to read-only");
    }
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
  frame.parts = static_cast<uint32_t>(options_.shards);
  frame.cost_per_hash = model->cost_per_hash();
  frame.cost_per_pair = model->cost_per_pair();
  Status appended = AppendFramesLocked(std::move(frame), AllLogs());
  if (appended.ok()) cost_model_logged_ = true;
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
    for (const std::unique_ptr<MutationLog>& log : logs_) {
      Status synced = log->Sync();
      if (!synced.ok()) {
        degraded_ = true;
        ReportMetricsLocked();
        ++checkpoint_failures_;
        return Status::FailedPrecondition(
            "WAL sync failed permanently before checkpoint (" +
            synced.ToString() + "); engine degraded to read-only");
      }
    }
  }

  CheckpointData data;
  data.last_seq = next_seq_ - 1;
  data.next_external_id = next_ext_id_;
  data.generation = Snapshot()->generation;
  data.shards = static_cast<uint32_t>(options_.shards);
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
  for (const std::unique_ptr<MutationLog>& log : logs_) {
    Status truncated = log->Truncate();
    if (!truncated.ok()) {
      ++checkpoint_failures_;
      return truncated;
    }
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

  std::vector<ExternalId> ids(records.size());
  for (size_t i = 0; i < records.size(); ++i) ids[i] = next_ext_id_ + i;
  std::vector<std::vector<size_t>> by_shard(options_.shards);
  for (size_t i = 0; i < ids.size(); ++i) {
    by_shard[ShardOfExternalId(ids[i], options_.shards)].push_back(i);
  }
  std::vector<int> involved;
  for (int s = 0; s < options_.shards; ++s) {
    if (!by_shard[s].empty()) involved.push_back(s);
  }

  const uint64_t seq = next_seq_++;
  const uint64_t generation = Snapshot()->generation;
  for (int s : involved) {
    WalFrame frame;
    frame.type = WalFrameType::kIngest;
    frame.seq = seq;
    frame.generation = generation;
    frame.parts = static_cast<uint32_t>(involved.size());
    for (size_t i : by_shard[s]) {
      frame.ids.push_back(ids[i]);
      frame.records.push_back(Record(records[i]));
    }
    Status appended = AppendFramesLocked(std::move(frame), {s});
    if (!appended.ok()) return appended;
  }

  next_ext_id_ = ids.back() + 1;
  if (!prototype_.has_value()) prototype_ = records.front();
  StatusOr<EngineMutationResult> result =
      sharded_->IngestWithIds(std::move(records), std::move(ids), opts);
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
    std::vector<std::vector<uint64_t>> by_shard(options_.shards);
    for (ExternalId id : ids) {
      by_shard[ShardOfExternalId(id, options_.shards)].push_back(id);
    }
    std::vector<int> involved;
    for (int s = 0; s < options_.shards; ++s) {
      if (!by_shard[s].empty()) involved.push_back(s);
    }
    const uint64_t seq = next_seq_++;
    const uint64_t generation = Snapshot()->generation;
    for (int s : involved) {
      WalFrame frame;
      frame.type = WalFrameType::kRemove;
      frame.seq = seq;
      frame.generation = generation;
      frame.parts = static_cast<uint32_t>(involved.size());
      frame.ids = std::move(by_shard[s]);
      Status appended = AppendFramesLocked(std::move(frame), {s});
      if (!appended.ok()) return appended;
    }
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
  frame.records.push_back(Record(record));
  Status appended = AppendFramesLocked(
      std::move(frame), {ShardOfExternalId(id, options_.shards)});
  if (!appended.ok()) return appended;
  StatusOr<EngineMutationResult> result =
      sharded_->Update(id, std::move(record), opts);
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
  WalFrame frame;
  frame.type = WalFrameType::kFlush;
  frame.seq = next_seq_++;
  frame.generation = Snapshot()->generation;
  frame.parts = static_cast<uint32_t>(options_.shards);
  Status appended = AppendFramesLocked(std::move(frame), AllLogs());
  if (!appended.ok()) return appended;

  // Flush is the sync=batch barrier: everything appended since the last
  // barrier becomes durable before the certification point it feeds.
  if (options_.sync == WalSyncPolicy::kBatch) {
    MetricsRegistry* metrics = options_.engine.config.instrumentation.metrics;
    Timer sync_timer;
    for (const std::unique_ptr<MutationLog>& log : logs_) {
      Status synced = log->Sync();
      if (!synced.ok()) {
        degraded_ = true;
        ReportMetricsLocked();
        return Status::FailedPrecondition(
            "WAL sync failed permanently (" + synced.ToString() +
            "); engine degraded to read-only");
      }
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

std::vector<int> DurableEngine::AllLogs() const {
  std::vector<int> all(options_.shards);
  std::iota(all.begin(), all.end(), 0);
  return all;
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
  for (const std::unique_ptr<MutationLog>& log : logs_) {
    const WalWriterStats& w = log->stats();
    stats.wal_frames_appended += w.frames_appended;
    stats.wal_bytes_appended += w.bytes_appended;
    stats.wal_syncs += w.syncs;
    stats.wal_append_retries += w.append_retries;
    stats.wal_sync_retries += w.sync_retries;
  }
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
  WalWriterStats totals;
  for (const std::unique_ptr<MutationLog>& log : logs_) {
    const WalWriterStats& w = log->stats();
    totals.frames_appended += w.frames_appended;
    totals.bytes_appended += w.bytes_appended;
    totals.syncs += w.syncs;
    totals.append_retries += w.append_retries;
    totals.sync_retries += w.sync_retries;
  }
  metrics->SetGauge("wal_frames_appended",
                    static_cast<double>(totals.frames_appended));
  metrics->SetGauge("wal_bytes_appended",
                    static_cast<double>(totals.bytes_appended));
  metrics->SetGauge("wal_syncs", static_cast<double>(totals.syncs));
  metrics->SetGauge("wal_append_retries",
                    static_cast<double>(totals.append_retries));
  metrics->SetGauge("wal_sync_retries",
                    static_cast<double>(totals.sync_retries));
  metrics->SetGauge("wal_checkpoints_written",
                    static_cast<double>(checkpoints_written_));
  metrics->SetGauge("wal_checkpoint_failures",
                    static_cast<double>(checkpoint_failures_));
  metrics->SetGauge("wal_frames_replayed",
                    static_cast<double>(recovery_.frames_replayed));
  metrics->SetGauge("wal_degraded", degraded_ ? 1 : 0);
}

}  // namespace adalsh
