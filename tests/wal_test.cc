// Unit coverage for the durability plane's storage layer (docs/durability.md):
// CRC32C vectors, WAL frame encode/decode round trips, the torn-tail /
// bit-flip corruption corpus against ReadMutationLog, MutationLog append and
// sync under injected I/O faults (bounded retry accounting, permanent-failure
// reporting, short-write torn frames), and checkpoint write/load/prune
// atomicity through both kCheckpointWrite hits. The engine-level consequences
// of these behaviours (recovery confluence, read-only degradation) live in
// wal_recovery_test.cc.

#include <stdlib.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/binary_codec.h"
#include "io/checkpoint.h"
#include "io/wal.h"
#include "record/record.h"
#include "util/fault_injection.h"

namespace adalsh {
namespace {

/// mkdtemp-backed scratch directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    char buf[] = "/tmp/adalsh_wal_test_XXXXXX";
    char* made = ::mkdtemp(buf);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

Record MakeRecord(std::vector<uint64_t> tokens, std::string label) {
  std::vector<Field> fields;
  fields.push_back(Field::TokenSet(std::move(tokens)));
  return Record(std::move(fields), std::move(label));
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(static_cast<bool>(out)) << path;
}

/// `payload` behind a valid length and CRC32C header, so only the payload's
/// own checks can reject the frame.
std::string WithFrameHeader(const std::string& payload) {
  std::string bytes;
  uint32_t length = static_cast<uint32_t>(payload.size());
  uint32_t crc = Crc32c(payload.data(), payload.size());
  bytes.append(reinterpret_cast<const char*>(&length), 4);
  bytes.append(reinterpret_cast<const char*>(&crc), 4);
  bytes += payload;
  return bytes;
}

/// A CRC-valid update frame whose record claims 0xFFFFFFFF fields.
std::string HugeFieldCountUpdateFrame(uint64_t seq) {
  BinaryWriter payload;
  payload.PutU8(static_cast<uint8_t>(WalFrameType::kUpdate));
  payload.PutU64(seq);
  payload.PutU64(/*generation=*/0);
  payload.PutU64(/*external_id=*/12);
  payload.PutU32(0xFFFFFFFFu);  // the record's field count, and no fields
  return WithFrameHeader(payload.Take());
}

TEST(Crc32cTest, StandardCheckVectors) {
  // The Castagnoli check value (RFC 3720 appendix B / "CHECK" in Koopman's
  // tables): CRC32C over the ASCII digits "123456789".
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // 32 zero bytes — the iSCSI test vector.
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::string ffs(32, '\xff');
  EXPECT_EQ(Crc32c(ffs.data(), ffs.size()), 0x62A8AB43u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32c(data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(WalSyncPolicyTest, ParseAndNameRoundTrip) {
  for (WalSyncPolicy policy :
       {WalSyncPolicy::kNone, WalSyncPolicy::kBatch, WalSyncPolicy::kAlways}) {
    auto parsed = ParseWalSyncPolicy(WalSyncPolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), policy);
  }
  EXPECT_EQ(ParseWalSyncPolicy("everysooften").status().code(),
            StatusCode::kInvalidArgument);
}

std::vector<WalFrame> CorpusFrames() {
  std::vector<WalFrame> frames;

  WalFrame ingest;
  ingest.type = WalFrameType::kIngest;
  ingest.seq = 7;
  ingest.generation = 3;
  ingest.parts = 2;
  ingest.ids = {10, 12};
  ingest.records.push_back(MakeRecord({1, 2, 3, 4}, "a"));
  ingest.records.push_back(MakeRecord({5, 6, 7}, ""));
  frames.push_back(ingest);

  WalFrame remove;
  remove.type = WalFrameType::kRemove;
  remove.seq = 8;
  remove.generation = 4;
  remove.parts = 3;
  remove.ids = {10, 44, 1000000007};
  frames.push_back(remove);

  WalFrame update;
  update.type = WalFrameType::kUpdate;
  update.seq = 9;
  update.generation = 4;
  update.ids = {12};
  update.records.push_back(MakeRecord({9, 9, 9}, "u"));
  frames.push_back(update);

  WalFrame flush;
  flush.type = WalFrameType::kFlush;
  flush.seq = 10;
  flush.generation = 5;
  flush.parts = 4;
  frames.push_back(flush);

  WalFrame cost;
  cost.type = WalFrameType::kCostModel;
  cost.seq = 11;
  cost.generation = 5;
  cost.parts = 2;
  cost.cost_per_hash = 1.25e-8;
  cost.cost_per_pair = 3.5e-6;
  frames.push_back(cost);

  return frames;
}

TEST(WalFrameTest, EncodeDecodeRoundTripsEveryType) {
  for (const WalFrame& original : CorpusFrames()) {
    const std::string bytes = EncodeWalFrame(original);
    WalFrame decoded;
    size_t consumed = 0;
    ASSERT_TRUE(DecodeWalFrame(bytes, 0, &decoded, &consumed).ok());
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(decoded.type, original.type);
    EXPECT_EQ(decoded.seq, original.seq);
    EXPECT_EQ(decoded.generation, original.generation);
    if (original.type != WalFrameType::kUpdate) {
      EXPECT_EQ(decoded.parts, original.parts);
    }
    EXPECT_EQ(decoded.ids, original.ids);
    ASSERT_EQ(decoded.records.size(), original.records.size());
    EXPECT_EQ(decoded.cost_per_hash, original.cost_per_hash);
    EXPECT_EQ(decoded.cost_per_pair, original.cost_per_pair);
    // Re-encoding the decoded frame must reproduce the exact on-disk bytes —
    // records included — which is what recovery's committed-offset arithmetic
    // relies on (durability.cc recomputes frame sizes by re-encoding).
    EXPECT_EQ(EncodeWalFrame(decoded), bytes);
  }
}

TEST(WalFrameTest, DecodeAtOffsetInConcatenatedStream) {
  std::string stream;
  std::vector<size_t> starts;
  for (const WalFrame& frame : CorpusFrames()) {
    starts.push_back(stream.size());
    stream += EncodeWalFrame(frame);
  }
  const std::vector<WalFrame> corpus = CorpusFrames();
  for (size_t i = 0; i < corpus.size(); ++i) {
    WalFrame decoded;
    size_t consumed = 0;
    ASSERT_TRUE(DecodeWalFrame(stream, starts[i], &decoded, &consumed).ok());
    EXPECT_EQ(decoded.seq, corpus[i].seq);
  }
}

TEST(WalFrameTest, DecodeRejectsTruncationAndCorruption) {
  WalFrame frame;
  frame.type = WalFrameType::kRemove;
  frame.seq = 42;
  frame.ids = {1, 2, 3};
  const std::string bytes = EncodeWalFrame(frame);
  WalFrame out;
  size_t consumed = 0;

  // Every strict prefix is torn: incomplete header or incomplete payload.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        DecodeWalFrame(bytes.substr(0, cut), 0, &out, &consumed).ok())
        << "prefix of " << cut << " bytes decoded";
  }

  // Any single bit flip in the payload fails the CRC; a flip in the stored
  // CRC itself also mismatches; a flip in the length field either mismatches
  // or runs past the buffer.
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    std::string flipped = bytes;
    flipped[byte] = static_cast<char>(flipped[byte] ^ 0x40);
    EXPECT_FALSE(DecodeWalFrame(flipped, 0, &out, &consumed).ok())
        << "bit flip at byte " << byte << " decoded";
  }

  // A length field past the sanity cap is corruption, not a huge frame.
  std::string huge = bytes;
  huge[3] = '\x7f';  // little-endian u32 length -> ~2 GiB
  EXPECT_FALSE(DecodeWalFrame(huge, 0, &out, &consumed).ok());
}

TEST(WalFrameTest, DecodeRejectsUnknownTypeAndTrailingBytes) {
  // Hand-build payloads with valid CRCs so only the semantic checks fire.
  WalFrame out;
  size_t consumed = 0;

  std::string unknown_type(1, '\x09');
  unknown_type.append(16, '\0');  // seq + generation
  EXPECT_FALSE(
      DecodeWalFrame(WithFrameHeader(unknown_type), 0, &out, &consumed).ok());

  WalFrame flush;
  flush.type = WalFrameType::kFlush;
  flush.seq = 1;
  std::string valid = EncodeWalFrame(flush);
  std::string trailing = valid.substr(8) + std::string(3, '\0');
  EXPECT_FALSE(
      DecodeWalFrame(WithFrameHeader(trailing), 0, &out, &consumed).ok());
}

TEST(WalFrameTest, DecodeRejectsFieldCountPastThePayload) {
  // A record's field count is checked against the bytes left before
  // anything is reserved for it: 0xFFFFFFFF fields is corruption.
  WalFrame out;
  size_t consumed = 0;
  Status decoded =
      DecodeWalFrame(HugeFieldCountUpdateFrame(9), 0, &out, &consumed);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code(), StatusCode::kOutOfRange);
}

TEST(MutationLogTest, AppendReadRoundTrip) {
  TempDir dir;
  const std::string path = dir.file("wal-0.log");
  auto log = MutationLog::Open(path, WalSyncPolicy::kBatch, 0);
  ASSERT_TRUE(log.ok());
  uint64_t expected_bytes = 0;
  for (const WalFrame& frame : CorpusFrames()) {
    ASSERT_TRUE(log.value()->Append(frame).ok());
    expected_bytes += EncodeWalFrame(frame).size();
  }
  ASSERT_TRUE(log.value()->Sync().ok());
  EXPECT_EQ(log.value()->committed_bytes(), expected_bytes);
  EXPECT_EQ(log.value()->stats().frames_appended, CorpusFrames().size());
  EXPECT_EQ(log.value()->stats().bytes_appended, expected_bytes);
  EXPECT_EQ(log.value()->stats().syncs, 1u);
  EXPECT_EQ(log.value()->stats().append_retries, 0u);

  auto read = ReadMutationLog(path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read.value().truncated);
  EXPECT_EQ(read.value().valid_bytes, expected_bytes);
  ASSERT_EQ(read.value().frames.size(), CorpusFrames().size());
  for (size_t i = 0; i < read.value().frames.size(); ++i) {
    EXPECT_EQ(read.value().frames[i].seq, CorpusFrames()[i].seq);
  }
}

TEST(MutationLogTest, MissingFileIsNotFound) {
  TempDir dir;
  EXPECT_EQ(ReadMutationLog(dir.file("absent.log")).status().code(),
            StatusCode::kNotFound);
}

TEST(MutationLogTest, AlwaysPolicySyncsEveryAppend) {
  TempDir dir;
  auto log = MutationLog::Open(dir.file("wal-0.log"), WalSyncPolicy::kAlways, 0);
  ASSERT_TRUE(log.ok());
  for (const WalFrame& frame : CorpusFrames()) {
    ASSERT_TRUE(log.value()->Append(frame).ok());
  }
  EXPECT_EQ(log.value()->stats().syncs, CorpusFrames().size());
}

// The post-crash corruption corpus: a valid prefix followed by every kind of
// damaged tail. The reader must return exactly the prefix, flag truncation,
// and report valid_bytes so Open can physically drop the tail.
TEST(MutationLogTest, TornTailIsTruncatedAtEveryCutPoint) {
  TempDir dir;
  const std::vector<WalFrame> corpus = CorpusFrames();
  std::string prefix;
  for (size_t i = 0; i + 1 < corpus.size(); ++i) {
    prefix += EncodeWalFrame(corpus[i]);
  }
  const std::string last = EncodeWalFrame(corpus.back());

  for (size_t cut = 1; cut < last.size(); ++cut) {
    const std::string path = dir.file("torn.log");
    WriteFileBytes(path, prefix + last.substr(0, cut));
    auto read = ReadMutationLog(path);
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(read.value().truncated) << "cut at " << cut;
    EXPECT_EQ(read.value().valid_bytes, prefix.size());
    EXPECT_EQ(read.value().frames.size(), corpus.size() - 1);
    EXPECT_FALSE(read.value().warning.empty());
  }
}

TEST(MutationLogTest, BitFlipEndsValidPrefixAtDamagedFrame) {
  TempDir dir;
  const std::vector<WalFrame> corpus = CorpusFrames();
  std::vector<std::string> encoded;
  std::string all;
  for (const WalFrame& frame : corpus) {
    encoded.push_back(EncodeWalFrame(frame));
    all += encoded.back();
  }

  // Flip one byte inside frame `victim`: everything before it survives,
  // the damaged frame and everything after are discarded.
  size_t frame_start = 0;
  for (size_t victim = 0; victim < corpus.size();
       frame_start += encoded[victim].size(), ++victim) {
    std::string damaged = all;
    damaged[frame_start + encoded[victim].size() / 2] ^= 0x01;
    const std::string path = dir.file("flipped.log");
    WriteFileBytes(path, damaged);
    auto read = ReadMutationLog(path);
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(read.value().truncated) << "victim " << victim;
    EXPECT_EQ(read.value().frames.size(), victim);
    EXPECT_EQ(read.value().valid_bytes, frame_start);
  }
}

TEST(MutationLogTest, HostileFieldCountEndsValidPrefix) {
  TempDir dir;
  const std::string path = dir.file("wal-0.log");
  const std::string valid = EncodeWalFrame(CorpusFrames()[2]);
  WriteFileBytes(path, valid + HugeFieldCountUpdateFrame(10));
  auto read = ReadMutationLog(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read.value().frames.size(), 1u);
  EXPECT_EQ(read.value().frames[0].seq, CorpusFrames()[2].seq);
  EXPECT_EQ(read.value().valid_bytes, valid.size());
  EXPECT_TRUE(read.value().truncated);
}

TEST(MutationLogTest, OpenTruncatesDiscardedTailAndAppendsCleanly) {
  TempDir dir;
  const std::vector<WalFrame> corpus = CorpusFrames();
  const std::string path = dir.file("wal-0.log");
  std::string prefix = EncodeWalFrame(corpus[0]);
  WriteFileBytes(path, prefix + EncodeWalFrame(corpus[1]).substr(0, 5));

  auto read = ReadMutationLog(path);
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(read.value().truncated);
  auto log =
      MutationLog::Open(path, WalSyncPolicy::kBatch, read.value().valid_bytes);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(ReadFileBytes(path).size(), prefix.size());  // tail is gone

  ASSERT_TRUE(log.value()->Append(corpus[2]).ok());
  auto reread = ReadMutationLog(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_FALSE(reread.value().truncated);
  ASSERT_EQ(reread.value().frames.size(), 2u);
  EXPECT_EQ(reread.value().frames[1].seq, corpus[2].seq);
}

TEST(MutationLogTest, TruncateEmptiesLogAndResetsOffset) {
  TempDir dir;
  const std::string path = dir.file("wal-0.log");
  auto log = MutationLog::Open(path, WalSyncPolicy::kBatch, 0);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log.value()->Append(CorpusFrames()[0]).ok());
  ASSERT_TRUE(log.value()->Truncate().ok());
  EXPECT_EQ(log.value()->committed_bytes(), 0u);
  EXPECT_TRUE(ReadFileBytes(path).empty());

  // The log stays usable after truncation (checkpoints truncate in place).
  ASSERT_TRUE(log.value()->Append(CorpusFrames()[1]).ok());
  auto read = ReadMutationLog(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().frames.size(), 1u);
  EXPECT_EQ(read.value().frames[0].seq, CorpusFrames()[1].seq);
}

TEST(MutationLogFaultTest, TransientAppendFailureRetriesAndSucceeds) {
  TempDir dir;
  auto log = MutationLog::Open(dir.file("wal-0.log"), WalSyncPolicy::kBatch, 0);
  ASSERT_TRUE(log.ok());

  FaultInjector injector;
  injector.FailAt(FaultSite::kWalAppend, 1,
                  Status::FailedPrecondition("injected EIO"), /*repeat=*/2);
  ScopedFaultInjector installed(&injector);

  ASSERT_TRUE(log.value()->Append(CorpusFrames()[0]).ok());
  EXPECT_EQ(log.value()->stats().append_retries, 2u);
  EXPECT_EQ(log.value()->stats().frames_appended, 1u);
  EXPECT_EQ(injector.hits(FaultSite::kWalAppend), 3u);
}

TEST(MutationLogFaultTest, PermanentAppendFailureLeavesLogUnchanged) {
  TempDir dir;
  const std::string path = dir.file("wal-0.log");
  auto log = MutationLog::Open(path, WalSyncPolicy::kBatch, 0);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log.value()->Append(CorpusFrames()[0]).ok());
  const uint64_t committed = log.value()->committed_bytes();

  FaultInjector injector;
  injector.FailAt(FaultSite::kWalAppend, 1,
                  Status::FailedPrecondition("injected dead disk"),
                  /*repeat=*/0);
  ScopedFaultInjector installed(&injector);

  EXPECT_FALSE(log.value()->Append(CorpusFrames()[1]).ok());
  EXPECT_EQ(log.value()->committed_bytes(), committed);
  EXPECT_EQ(log.value()->stats().frames_appended, 1u);
  // All attempts were consumed before giving up.
  EXPECT_EQ(log.value()->stats().append_retries, 3u);

  auto read = ReadMutationLog(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().frames.size(), 1u);
  EXPECT_FALSE(read.value().truncated);
}

TEST(MutationLogFaultTest, ShortWritePersistsTornFrameBehindCommittedOffset) {
  TempDir dir;
  const std::string path = dir.file("wal-0.log");
  auto log = MutationLog::Open(path, WalSyncPolicy::kBatch, 0);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log.value()->Append(CorpusFrames()[0]).ok());
  const uint64_t committed = log.value()->committed_bytes();

  // Attempt 1 is capped at 5 bytes (torn frame persisted), every retry gets
  // an injected failure before touching the file — so the append fails
  // outright with a torn tail on disk, the crash-mid-write shape.
  FaultInjector injector;
  injector.ShortWriteAt(FaultSite::kWalAppend, 1, 5);
  injector.FailAt(FaultSite::kWalAppend, 2,
                  Status::FailedPrecondition("injected dead disk"),
                  /*repeat=*/0);
  {
    ScopedFaultInjector installed(&injector);
    EXPECT_FALSE(log.value()->Append(CorpusFrames()[1]).ok());
  }
  EXPECT_EQ(log.value()->committed_bytes(), committed);
  EXPECT_GT(ReadFileBytes(path).size(), committed);  // torn bytes on disk

  // The reader sees exactly the acked prefix and flags the tail.
  auto read = ReadMutationLog(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().truncated);
  EXPECT_EQ(read.value().valid_bytes, committed);
  EXPECT_EQ(read.value().frames.size(), 1u);

  // A later successful append overwrites the torn bytes in place.
  ASSERT_TRUE(log.value()->Append(CorpusFrames()[2]).ok());
  auto reread = ReadMutationLog(path);
  ASSERT_TRUE(reread.ok());
  EXPECT_FALSE(reread.value().truncated);
  EXPECT_EQ(reread.value().frames.size(), 2u);
}

TEST(MutationLogFaultTest, TransientSyncFailureRetries) {
  TempDir dir;
  auto log = MutationLog::Open(dir.file("wal-0.log"), WalSyncPolicy::kBatch, 0);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log.value()->Append(CorpusFrames()[0]).ok());

  FaultInjector injector;
  injector.FailAt(FaultSite::kWalSync, 1,
                  Status::FailedPrecondition("injected fsync EIO"),
                  /*repeat=*/1);
  ScopedFaultInjector installed(&injector);

  ASSERT_TRUE(log.value()->Sync().ok());
  EXPECT_EQ(log.value()->stats().sync_retries, 1u);
  EXPECT_EQ(log.value()->stats().syncs, 1u);
}

TEST(MutationLogFaultTest, PermanentSyncFailureReportsError) {
  TempDir dir;
  auto log = MutationLog::Open(dir.file("wal-0.log"), WalSyncPolicy::kBatch, 0);
  ASSERT_TRUE(log.ok());

  FaultInjector injector;
  injector.FailAt(FaultSite::kWalSync, 1,
                  Status::FailedPrecondition("injected fsync dead"),
                  /*repeat=*/0);
  ScopedFaultInjector installed(&injector);

  EXPECT_FALSE(log.value()->Sync().ok());
  EXPECT_EQ(log.value()->stats().syncs, 0u);
  EXPECT_EQ(log.value()->stats().sync_retries, 3u);
}

TEST(ScopedFaultInjectorTest, NestedInstallShadowsAndRestores) {
  TempDir dir;
  auto log = MutationLog::Open(dir.file("wal-0.log"), WalSyncPolicy::kBatch, 0);
  ASSERT_TRUE(log.ok());

  FaultInjector outer;
  outer.FailAt(FaultSite::kWalSync, 1,
               Status::FailedPrecondition("outer fsync failure"),
               /*repeat=*/0);
  ScopedFaultInjector outer_installed(&outer);
  EXPECT_FALSE(log.value()->Sync().ok());

  {
    // The inner injector shadows the outer one: its sites are all clear, so
    // the sync succeeds while the outer failure plan is dark.
    FaultInjector inner;
    ScopedFaultInjector inner_installed(&inner);
    EXPECT_TRUE(log.value()->Sync().ok());
    EXPECT_GT(inner.hits(FaultSite::kWalSync), 0u);
  }

  // Scope exit restores the outer injector and its permanent failure.
  EXPECT_FALSE(log.value()->Sync().ok());
}

CheckpointData MakeCheckpoint(uint64_t last_seq, size_t records) {
  CheckpointData data;
  data.last_seq = last_seq;
  data.next_external_id = 100 + last_seq;
  data.generation = 9;
  data.shards = 4;
  data.has_cost_model = true;
  data.cost_per_hash = 1e-8;
  data.cost_per_pair = 1e-6;
  for (size_t i = 0; i < records; ++i) {
    data.ids.push_back(i * 3);
    data.records.push_back(
        MakeRecord({i + 1, i + 2, i + 3}, "r" + std::to_string(i)));
  }
  return data;
}

TEST(CheckpointTest, WriteLoadRoundTrip) {
  TempDir dir;
  auto path = WriteCheckpoint(dir.path(), MakeCheckpoint(17, 5));
  ASSERT_TRUE(path.ok());

  std::vector<std::string> warnings;
  auto loaded = LoadNewestCheckpoint(dir.path(), &warnings);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(warnings.empty());
  EXPECT_EQ(loaded.value().last_seq, 17u);
  EXPECT_EQ(loaded.value().next_external_id, 117u);
  EXPECT_EQ(loaded.value().generation, 9u);
  EXPECT_EQ(loaded.value().shards, 4u);
  EXPECT_TRUE(loaded.value().has_cost_model);
  EXPECT_EQ(loaded.value().cost_per_hash, 1e-8);
  ASSERT_EQ(loaded.value().ids.size(), 5u);
  EXPECT_EQ(loaded.value().ids[4], 12u);
  EXPECT_EQ(loaded.value().records[4].label(), "r4");
}

TEST(CheckpointTest, EmptyDirIsNotFound) {
  TempDir dir;
  EXPECT_EQ(LoadNewestCheckpoint(dir.path(), nullptr).status().code(),
            StatusCode::kNotFound);
}

TEST(CheckpointTest, NewestValidWinsAndDamagedFallsBack) {
  TempDir dir;
  ASSERT_TRUE(WriteCheckpoint(dir.path(), MakeCheckpoint(5, 2)).ok());
  auto newest = WriteCheckpoint(dir.path(), MakeCheckpoint(9, 3));
  ASSERT_TRUE(newest.ok());

  auto loaded = LoadNewestCheckpoint(dir.path(), nullptr);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().last_seq, 9u);

  // Damage the newest file: the loader reports it and falls back to seq 5.
  std::string bytes = ReadFileBytes(newest.value());
  bytes[bytes.size() / 2] ^= 0x10;
  WriteFileBytes(newest.value(), bytes);
  std::vector<std::string> warnings;
  auto fallback = LoadNewestCheckpoint(dir.path(), &warnings);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback.value().last_seq, 5u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("CRC mismatch"), std::string::npos);
}

TEST(CheckpointTest, HostileFieldCountIsSkippedWithWarning) {
  // The newest checkpoint passes its CRC, but its one record claims
  // 0xFFFFFFFF fields: the loader skips it and falls back to seq 5.
  TempDir dir;
  ASSERT_TRUE(WriteCheckpoint(dir.path(), MakeCheckpoint(5, 2)).ok());
  auto newest = WriteCheckpoint(dir.path(), MakeCheckpoint(9, 1));
  ASSERT_TRUE(newest.ok());
  BinaryWriter body;
  body.PutU64(/*last_seq=*/9);
  body.PutU64(/*next_external_id=*/109);
  body.PutU64(/*generation=*/9);
  body.PutU32(/*shards=*/4);
  body.PutU8(/*has_cost_model=*/0);
  body.PutF64(0);
  body.PutF64(0);
  body.PutU64(/*n=*/1);
  body.PutU64(/*external_id=*/0);
  body.PutU32(0xFFFFFFFFu);  // the record's field count, and no fields
  const std::string body_bytes = body.Take();
  BinaryWriter trailer;
  trailer.PutU32(Crc32c(body_bytes.data(), body_bytes.size()));
  WriteFileBytes(newest.value(), "ADLSHCP1" + body_bytes + trailer.Take());

  std::vector<std::string> warnings;
  auto loaded = LoadNewestCheckpoint(dir.path(), &warnings);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().last_seq, 5u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("field count"), std::string::npos)
      << warnings[0];
}

TEST(CheckpointTest, PruneRemovesSupersededAndOrphanedTmp) {
  TempDir dir;
  ASSERT_TRUE(WriteCheckpoint(dir.path(), MakeCheckpoint(3, 1)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir.path(), MakeCheckpoint(6, 1)).ok());
  auto keep = WriteCheckpoint(dir.path(), MakeCheckpoint(9, 1));
  ASSERT_TRUE(keep.ok());
  WriteFileBytes(dir.file("checkpoint-00000000000000000004.tmp"), "stranded");

  EXPECT_EQ(PruneCheckpoints(dir.path(), 9), 3);
  auto loaded = LoadNewestCheckpoint(dir.path(), nullptr);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().last_seq, 9u);
  EXPECT_FALSE(std::filesystem::exists(
      dir.file("checkpoint-00000000000000000003")));
  EXPECT_FALSE(std::filesystem::exists(
      dir.file("checkpoint-00000000000000000004.tmp")));
}

TEST(CheckpointFaultTest, FailureBeforeTempWriteLeavesNoTrace) {
  TempDir dir;
  ASSERT_TRUE(WriteCheckpoint(dir.path(), MakeCheckpoint(5, 2)).ok());

  FaultInjector injector;
  injector.FailAt(FaultSite::kCheckpointWrite, 1,
                  Status::FailedPrecondition("injected ENOSPC"));
  ScopedFaultInjector installed(&injector);
  EXPECT_FALSE(WriteCheckpoint(dir.path(), MakeCheckpoint(9, 2)).ok());

  // No new file, no .tmp; the previous checkpoint still loads.
  int entries = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir.path())) {
    ++entries;
  }
  EXPECT_EQ(entries, 1);
  auto loaded = LoadNewestCheckpoint(dir.path(), nullptr);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().last_seq, 5u);
}

TEST(CheckpointFaultTest, FailureBeforeRenameKeepsOldCheckpointVisible) {
  TempDir dir;
  ASSERT_TRUE(WriteCheckpoint(dir.path(), MakeCheckpoint(5, 2)).ok());

  // Hit 2 is the window between the durable temp file and the rename: the
  // new checkpoint must not become visible, the old one must survive.
  FaultInjector injector;
  injector.FailAt(FaultSite::kCheckpointWrite, 2,
                  Status::FailedPrecondition("injected crash window"));
  ScopedFaultInjector installed(&injector);
  EXPECT_FALSE(WriteCheckpoint(dir.path(), MakeCheckpoint(9, 2)).ok());

  auto loaded = LoadNewestCheckpoint(dir.path(), nullptr);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().last_seq, 5u);
  EXPECT_FALSE(std::filesystem::exists(
      dir.file("checkpoint-00000000000000000009")));
}

}  // namespace
}  // namespace adalsh
