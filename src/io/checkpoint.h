#ifndef ADALSH_IO_CHECKPOINT_H_
#define ADALSH_IO_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "record/record.h"
#include "util/status.h"

namespace adalsh {

/// Engine checkpoints (docs/durability.md): a point-in-time serialization of
/// everything recovery needs to rebuild the engine without the log —
/// the live records with their external ids, the id counter, and the pinned
/// cost model. Forests, hash caches and adopted hashes are deliberately NOT
/// stored: the engine's confluence contract makes a fresh ingest of the live
/// set byte-identical to the incremental history, so re-deriving them on
/// load is both simpler and self-verifying (the differential tests compare
/// exactly this).
///
/// File format: magic "ADLSHCP1" | body | u32 crc32c(body), where body is
///   u64 last_seq | u64 next_external_id | u64 generation | u32 shards |
///   u8 has_cost_model | f64 cost_per_hash | f64 cost_per_pair |
///   u64 n | n * (u64 external_id | record)
///
/// Atomicity: written to `<dir>/checkpoint-<seq>.tmp`, fsynced, renamed to
/// `<dir>/checkpoint-<seq>`, directory fsynced. A crash leaves either the
/// old set of checkpoints or the old set plus a complete new one — never a
/// half-written file under the final name. Loaders pick the newest (highest
/// seq) file whose CRC validates, skipping damaged ones with a warning.
struct CheckpointData {
  /// The WAL sequence number of the last mutation folded into this
  /// checkpoint; replay applies only frames with seq > last_seq.
  uint64_t last_seq = 0;

  uint64_t next_external_id = 0;

  /// Snapshot generation at write time. Diagnostic only — recovery rebuilds
  /// publications from scratch, so generations restart (docs/durability.md).
  uint64_t generation = 0;

  /// Shard count of the engine that wrote the checkpoint. Diagnostic only,
  /// like `generation`: written but never read, since the live set reopens
  /// at any shard count (docs/durability.md).
  uint32_t shards = 0;

  bool has_cost_model = false;
  double cost_per_hash = 0;
  double cost_per_pair = 0;

  /// Live records and their external ids, parallel, sorted by id ascending.
  std::vector<uint64_t> ids;
  std::vector<Record> records;
};

/// Writes `data` atomically into `dir` (which must exist) and returns the
/// final path. Passes through the kCheckpointWrite fault site twice: before
/// the temp-file write and again between fsync and rename, so crash tests
/// can strand either a missing checkpoint or an orphaned .tmp.
StatusOr<std::string> WriteCheckpoint(const std::string& dir,
                                      const CheckpointData& data);

/// Loads the newest valid checkpoint in `dir`. NotFound when none exists
/// (fresh data dir, or every candidate failed validation). Damaged
/// candidates are skipped and reported via `warnings` (when non-null), not
/// as errors — recovery falls back to older checkpoints and the log.
StatusOr<CheckpointData> LoadNewestCheckpoint(
    const std::string& dir, std::vector<std::string>* warnings);

/// Deletes every `checkpoint-*` file in `dir` whose seq is older than
/// `keep_seq`, plus any orphaned `.tmp`. Best-effort; returns the number of
/// files removed.
int PruneCheckpoints(const std::string& dir, uint64_t keep_seq);

}  // namespace adalsh

#endif  // ADALSH_IO_CHECKPOINT_H_
