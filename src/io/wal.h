#ifndef ADALSH_IO_WAL_H_
#define ADALSH_IO_WAL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "record/record.h"
#include "util/status.h"

namespace adalsh {

/// Write-ahead mutation log for the sharded engine
/// (docs/durability.md). One file per shard engine, append-only, replayed on
/// startup to reconstruct the mutations that post-date the newest checkpoint.
///
/// On-disk frame format (all integers little-endian):
///
///   u32 payload_length | u32 crc32c(payload) | payload
///
///   payload = u8 frame_type | u64 seq | u64 generation | body
///
/// `seq` is the globally monotonic mutation sequence number — one counter
/// across all shard logs, so recovery can merge per-shard logs back into the
/// original mutation order. `generation` is the engine's published snapshot
/// generation at append time: purely diagnostic (generation counts
/// publications, which a replayed history redoes from scratch), never
/// restored. A mutation that spans multiple shards writes one sub-frame with
/// the same seq to each involved shard's log; each sub-frame carries the
/// total sub-frame count (`parts`) so recovery can tell a complete mutation
/// from one whose remaining sub-frames were lost with an unsynced tail —
/// an incomplete seq ends the replayable prefix (docs/durability.md).

/// CRC32C (Castagnoli). Standard check value: Crc32c("123456789", 9) ==
/// 0xE3069283.
uint32_t Crc32c(const void* data, size_t size);

/// Incremental form for split buffers: Crc32cExtend(Crc32c(a), b) ==
/// Crc32c(a ++ b).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t size);

enum class WalFrameType : uint8_t {
  kIngest = 1,     // body: u32 parts | u32 n | n * (u64 external_id | record)
  kRemove = 2,     // body: u32 parts | u32 n | n * u64 external_id
  kUpdate = 3,     // body: u64 external_id | record (always single-shard)
  kFlush = 4,      // body: u32 parts
  kCostModel = 5,  // body: u32 parts | f64 cost_per_hash | f64 cost_per_pair
};

/// A decoded frame. Which fields are meaningful depends on `type`:
/// ids+records for kIngest (parallel), ids for kRemove, ids[0]+records[0]
/// for kUpdate, the two costs for kCostModel, none for kFlush. `parts` is
/// the number of sub-frames (across all shard logs) sharing this frame's
/// seq; 1 for everything single-shard.
struct WalFrame {
  WalFrameType type = WalFrameType::kFlush;
  uint64_t seq = 0;
  uint64_t generation = 0;
  uint32_t parts = 1;
  std::vector<uint64_t> ids;
  std::vector<Record> records;
  double cost_per_hash = 0;
  double cost_per_pair = 0;
};

/// Serializes a frame to its complete on-disk byte string (header included).
std::string EncodeWalFrame(const WalFrame& frame);

/// Decodes one frame from `data` (which must start at a frame boundary).
/// On success fills `frame` and `consumed` (total on-disk bytes, header
/// included). Fails — without distinguishing "torn" from "corrupt", the
/// reader treats both as end-of-valid-log — when the header or payload is
/// incomplete, the CRC mismatches, or the payload does not parse.
Status DecodeWalFrame(const std::string& data, size_t offset, WalFrame* frame,
                      size_t* consumed);

/// When to fsync the log (the durability/throughput dial, docs/durability.md):
///   kNone   — never; the OS flushes eventually. A crash can lose any tail.
///   kBatch  — at the barriers the caller marks via Sync(): the durable
///             engine syncs at Flush, Checkpoint and clean shutdown, so a
///             crash loses at most the unsynced tail since the last barrier.
///   kAlways — after every Append; every acked frame is durable.
enum class WalSyncPolicy { kNone = 0, kBatch, kAlways };

const char* WalSyncPolicyName(WalSyncPolicy policy);

/// Parses "none" / "batch" / "always" (InvalidArgument otherwise).
StatusOr<WalSyncPolicy> ParseWalSyncPolicy(const std::string& name);

/// Append/sync/retry accounting, surfaced as wal_* metrics by the durable
/// engine (docs/observability.md).
struct WalWriterStats {
  uint64_t frames_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t syncs = 0;
  uint64_t append_retries = 0;
  uint64_t sync_retries = 0;
};

/// One append-only log file. Not thread-safe; the durable engine serializes
/// appends per log.
///
/// Failure handling: every physical write()/fsync() attempt passes through
/// the kWalAppend/kWalSync fault sites, and transient failures (injected or
/// real EINTR/EAGAIN-class errors) are retried with bounded backoff
/// (docs/durability.md). A failed append never advances the committed
/// offset: the retry rewrites the frame from its start, so a once-reported-ok
/// frame is always wholly present and any torn bytes sit strictly after the
/// last acked frame — the tail the reader truncates.
class MutationLog {
 public:
  /// Opens (creating or appending to) the log at `path`. `committed_bytes`
  /// tells the writer where the valid prefix ends (from a prior
  /// ReadMutationLog, possibly shortened further by recovery's seq-gap
  /// rule); the file is truncated to it, so a torn or discarded tail is
  /// physically removed before new frames append.
  static StatusOr<std::unique_ptr<MutationLog>> Open(const std::string& path,
                                                     WalSyncPolicy policy,
                                                     uint64_t committed_bytes);

  ~MutationLog();

  MutationLog(const MutationLog&) = delete;
  MutationLog& operator=(const MutationLog&) = delete;

  /// Appends one frame (and fsyncs it under kAlways). On error the log file
  /// is unchanged up to the committed offset; the caller decides between
  /// retrying the whole mutation and degrading to read-only.
  Status Append(const WalFrame& frame);

  /// Forces an fsync (a kBatch batch boundary; no-op data-wise under kNone,
  /// which still performs the sync when called explicitly — the final sync
  /// before a checkpoint wants real durability regardless of policy).
  Status Sync();

  /// Truncates the log to empty — a checkpoint superseded every frame. Also
  /// resets the committed offset; the file stays open for further appends.
  Status Truncate();

  const std::string& path() const { return path_; }
  uint64_t committed_bytes() const { return committed_bytes_; }
  const WalWriterStats& stats() const { return stats_; }

 private:
  MutationLog(std::string path, WalSyncPolicy policy, int fd,
              uint64_t committed_bytes)
      : path_(std::move(path)),
        policy_(policy),
        fd_(fd),
        committed_bytes_(committed_bytes) {}

  /// One write-it-all attempt at the committed offset; does not retry.
  Status WriteAttempt(const std::string& bytes);

  std::string path_;
  WalSyncPolicy policy_;
  int fd_;
  uint64_t committed_bytes_;
  WalWriterStats stats_;
};

/// What ReadMutationLog found. `frames` is the valid prefix; `valid_bytes`
/// is its on-disk length (the committed offset to hand back to
/// MutationLog::Open). When the file ends in a torn or corrupt frame,
/// `truncated` is set and `warning` says why — the caller logs it and
/// recovers from the valid prefix (docs/durability.md).
struct WalReadResult {
  std::vector<WalFrame> frames;
  uint64_t valid_bytes = 0;
  bool truncated = false;
  std::string warning;
};

/// Reads all valid frames of the log at `path`. NotFound when the file does
/// not exist (a fresh data dir); any readable file yields Ok — corruption is
/// reported via `truncated`, never as an error, because a torn tail is the
/// expected post-crash state.
StatusOr<WalReadResult> ReadMutationLog(const std::string& path);

}  // namespace adalsh

#endif  // ADALSH_IO_WAL_H_
