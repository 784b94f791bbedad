// `replay`: the serve workload's second pass. Replays a protocol script
// in-process through the public DurableEngine calls on a fresh copy of the
// prepared data dir, with one span per layer call tagged by the request id
// the client used for the same command. Then checks the final certified
// top-k against a from-scratch ResidentEngine::IngestWithIds of the final
// live set.
//
// Layers that run only inside DurableEngine (the WAL) are timed by
// replaying the same frames into scratch logs out of line; those spans are
// children of the engine call, so they are subtracted from its self time.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/function_sequence.h"
#include "distance/rule_parser.h"
#include "engine/durability.h"
#include "engine/sharded_executor.h"
#include "subcommands.h"
#include "io/checkpoint.h"
#include "io/csv.h"
#include "io/dataset_loader.h"
#include "io/wal.h"
#include "util/flags.h"

namespace perfbench {
namespace {

using namespace adalsh;  // NOLINT: harness brevity

/// One client request: an ingest is its `add` lines plus `commit`; every
/// other command stands alone. perfbench/run.py groups the script the same
/// way, so request ids agree across the two passes.
struct Request {
  std::string op;  // ingest, update, remove, flush, topk, cluster
  std::vector<std::string> lines;
};

std::vector<Request> ReadScript(const std::string& path) {
  std::vector<Request> requests;
  std::ifstream in(path);
  std::string line;
  Request ingest{"ingest", {}};
  while (std::getline(in, line)) {
    const std::string cmd = line.substr(0, line.find(' '));
    if (cmd == "add" || cmd == "commit") {
      ingest.lines.push_back(line);
      if (cmd == "commit") {
        requests.push_back(std::move(ingest));
        ingest = Request{"ingest", {}};
      }
      continue;
    }
    requests.push_back(Request{cmd, {line}});
  }
  return requests;
}

std::string Payload(const std::string& line) {
  const size_t space = line.find(' ');
  return space == std::string::npos ? "" : line.substr(space + 1);
}

StatusOr<Record> ParseRow(const std::string& text,
                          const std::vector<ColumnSpec>& specs) {
  std::istringstream in(text);
  CsvReader reader(&in);
  std::vector<std::string> row;
  StatusOr<bool> more = reader.ReadRow(&row);
  if (!more.ok()) return more.status();
  if (!*more) return Status::InvalidArgument("missing csv row");
  StatusOr<ParsedCsvRecord> parsed = ParseCsvRecord(row, specs, 0);
  if (!parsed.ok()) return parsed.status();
  return std::move(parsed->record);
}

/// The serve CLI's topk rendering, so the two passes compare as text.
std::string RenderTopK(const EngineSnapshot& snap, int k) {
  std::ostringstream out;
  const size_t count = std::min<size_t>(k, snap.clusters.size());
  for (size_t i = 0; i < count; ++i) {
    out << "cluster rank=" << (i + 1) << " v="
        << (snap.verification[i] == kLastFunctionPairwise
                ? std::string("P")
                : std::to_string(snap.verification[i]))
        << " members=";
    for (size_t m = 0; m < snap.clusters[i].size(); ++m) {
      out << (m > 0 ? "," : "") << snap.clusters[i][m];
    }
    out << "\n";
  }
  return out.str();
}

/// Mirrors DurableEngine's frame layout into per-shard scratch logs: one
/// sub-frame per involved shard for ingest/remove, one frame for update, a
/// flush frame to every log followed by the sync barrier.
class WalMirror {
 public:
  WalMirror(const std::string& dir, int shards) : shards_(shards) {
    for (int s = 0; s < shards_; ++s) {
      const std::string path = dir + "/wal-" + std::to_string(s) + ".log";
      std::remove(path.c_str());
      logs_.push_back(MutationLog::Open(path, WalSyncPolicy::kBatch, 0).value());
    }
  }

  /// Appends the frames of one mutation (MutationLog::Append runs
  /// EncodeWalFrame itself); returns the seconds.
  double Append(WalFrameType type, const std::vector<ExternalId>& ids,
                const std::vector<const Record*>& records) {
    std::map<int, WalFrame> by_shard;
    if (type == WalFrameType::kFlush) {
      for (int s = 0; s < shards_; ++s) by_shard[s].type = type;
    } else {
      for (size_t i = 0; i < ids.size(); ++i) {
        WalFrame& frame = by_shard[ShardOfExternalId(ids[i], shards_)];
        frame.type = type;
        frame.ids.push_back(ids[i]);
        if (i < records.size()) frame.records.push_back(*records[i]);
      }
    }
    const double start = NowSeconds();
    ++seq_;
    for (auto& [shard, frame] : by_shard) {
      frame.seq = seq_;
      frame.parts = static_cast<uint32_t>(by_shard.size());
      (void)logs_[shard]->Append(frame);
    }
    return NowSeconds() - start;
  }

  double Sync() {
    const double start = NowSeconds();
    for (auto& log : logs_) (void)log->Sync();
    return NowSeconds() - start;
  }

 private:
  int shards_;
  std::vector<std::unique_ptr<MutationLog>> logs_;
  uint64_t seq_ = 0;
};

/// The live set the data dir holds before the script: the newest
/// checkpoint plus every logged mutation after it, in seq order.
StatusOr<std::map<ExternalId, Record>> ReadLiveSet(const std::string& dir,
                                                   int shards) {
  std::map<ExternalId, Record> live;
  StatusOr<CheckpointData> checkpoint = LoadNewestCheckpoint(dir, nullptr);
  uint64_t after_seq = 0;
  if (checkpoint.ok()) {
    after_seq = checkpoint->last_seq;
    for (size_t i = 0; i < checkpoint->ids.size(); ++i) {
      live.emplace(checkpoint->ids[i], checkpoint->records[i]);
    }
  }
  std::vector<WalFrame> frames;
  for (int s = 0; s < shards; ++s) {
    StatusOr<WalReadResult> log =
        ReadMutationLog(dir + "/wal-" + std::to_string(s) + ".log");
    if (!log.ok()) continue;
    for (WalFrame& frame : log->frames) frames.push_back(std::move(frame));
  }
  std::stable_sort(frames.begin(), frames.end(),
                   [](const WalFrame& a, const WalFrame& b) {
                     return a.seq < b.seq;
                   });
  for (const WalFrame& frame : frames) {
    if (frame.seq <= after_seq) continue;
    switch (frame.type) {
      case WalFrameType::kIngest:
        for (size_t i = 0; i < frame.ids.size(); ++i) {
          live.emplace(frame.ids[i], frame.records[i]);
        }
        break;
      case WalFrameType::kRemove:
        for (ExternalId id : frame.ids) live.erase(id);
        break;
      case WalFrameType::kUpdate:
        live.insert_or_assign(frame.ids[0], frame.records[0]);
        break;
      default:
        break;
    }
  }
  return live;
}

}  // namespace

int RunReplay(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string dir = flags.GetString("dir", "");
  const std::string script_path = flags.GetString("script", "");
  const std::string columns = flags.GetString("columns", "text,text,text");
  const std::string rule_text = flags.GetString("rule", "");
  const int threads = static_cast<int>(flags.GetInt("threads", 4));
  const int shards = static_cast<int>(flags.GetInt("shards", 4));
  const int k = static_cast<int>(flags.GetInt("k", 10));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::vector<double> model = flags.GetDoubleList("cost-model", {});
  const bool trace = flags.GetBool("trace", false);
  const std::string scratch = flags.GetString("scratch", "");
  const std::string out_path = flags.GetString("out", "");
  flags.CheckNoUnusedFlags();
  StatusOr<MatchRule> rule = ParseRule(rule_text);
  StatusOr<std::vector<ColumnSpec>> specs = ParseColumnSpecs(columns);
  if (dir.empty() || script_path.empty() || out_path.empty() ||
      model.size() != 2 || shards < 1 || !rule.ok() || !specs.ok() ||
      (trace && scratch.empty())) {
    std::cerr << "perfbench_harness: replay needs --dir, --script, --out, "
                 "--rule, --cost-model=hash,pair (and --scratch with "
                 "--trace)\n";
    return 2;
  }
  SpanLog spans(trace);

  // --- Recovery: the raw reads first (they also give the starting live
  // set for the from-scratch check), then the engine's own Open.
  const double r0 = NowSeconds();
  StatusOr<std::map<ExternalId, Record>> live_or = ReadLiveSet(dir, shards);
  const double r1 = NowSeconds();
  if (!live_or.ok()) {
    std::cerr << "perfbench_harness: " << live_or.status().ToString() << "\n";
    return 2;
  }
  std::map<ExternalId, Record> live = std::move(live_or).value();
  spans.Add("io.recovery_read", r0, r1, -1, -1);

  ResidentEngine::Options engine_options;
  engine_options.top_k = k;
  engine_options.config.seed = seed;
  engine_options.config.threads = threads;
  engine_options.cost_model = CostModel(model[0], model[1]);
  DurableEngine::Options options;
  options.engine = engine_options;
  options.shards = shards;
  options.data_dir = dir;
  options.sync = WalSyncPolicy::kBatch;
  const double o0 = NowSeconds();
  StatusOr<std::unique_ptr<DurableEngine>> opened =
      DurableEngine::Open(*rule, options);
  const double o1 = NowSeconds();
  if (!opened.ok()) {
    std::cerr << "perfbench_harness: " << opened.status().ToString() << "\n";
    return 2;
  }
  DurableEngine& engine = **opened;
  spans.Add("engine.open", o0, o1, -1, -1);
  const DurabilityStats opened_stats = engine.durability_stats();

  std::unique_ptr<WalMirror> wal;
  if (trace) wal = std::make_unique<WalMirror>(scratch, shards);

  // --- The script.
  const std::vector<Request> requests = ReadScript(script_path);
  uint64_t failed = 0;
  uint64_t row_bytes = 0;
  RoundTotals work;
  uint64_t flush_refined = 0, mutated_since_flush = 0, flush_deltas = 0;
  double lock_wait_s = 0;
  std::vector<double> flush_refined_per_delta;
  std::vector<std::vector<ExternalId>> last_topk;
  for (size_t r = 0; r < requests.size(); ++r) {
    const Request& req = requests[r];
    const int64_t id = static_cast<int64_t>(r);
    auto parse = [&](const std::string& text) {
      row_bytes += text.size();
      const double t0 = NowSeconds();
      StatusOr<Record> record = ParseRow(text, *specs);
      spans.Add("io.parse", t0, NowSeconds(), -1, id);
      return record;
    };
    // Runs one engine mutation under its span, then mirrors its WAL frames.
    auto mutate = [&](const char* layer, auto&& call, WalFrameType type,
                      std::vector<ExternalId> wal_ids,
                      std::vector<const Record*> wal_records) {
      const double t0 = NowSeconds();
      StatusOr<EngineMutationResult> result = call();
      const double t1 = NowSeconds();
      const int span = spans.Add(layer, t0, t1, -1, id);
      if (!result.ok()) {
        ++failed;
        return result;
      }
      work.Add(result->stats);
      lock_wait_s += result->lock_wait_seconds;
      if (wal) {
        if (type == WalFrameType::kIngest) wal_ids = result->assigned_ids;
        const double w = wal->Append(type, wal_ids, wal_records);
        spans.Add("io.wal_append", t1, t1 + w, span, id);
        if (type == WalFrameType::kFlush) {
          const double s0 = NowSeconds();
          const double sync = wal->Sync();
          spans.Add("io.wal_sync", s0, s0 + sync, span, id);
        }
      }
      return result;
    };

    if (req.op == "ingest") {
      std::vector<Record> records;
      for (const std::string& line : req.lines) {
        if (line.rfind("add ", 0) != 0) continue;
        StatusOr<Record> record = parse(Payload(line));
        if (!record.ok()) {
          ++failed;
          continue;
        }
        records.push_back(std::move(record).value());
      }
      const std::vector<Record> kept = records;
      std::vector<const Record*> ptrs;
      for (const Record& rec : kept) ptrs.push_back(&rec);
      StatusOr<EngineMutationResult> result = mutate(
          "engine.ingest", [&] { return engine.Ingest(std::move(records)); },
          WalFrameType::kIngest, {}, ptrs);
      if (result.ok()) {
        for (size_t i = 0; i < kept.size(); ++i) {
          live.insert_or_assign(result->assigned_ids[i], kept[i]);
        }
        mutated_since_flush += kept.size();
      }
    } else if (req.op == "update") {
      const std::string payload = Payload(req.lines[0]);
      const size_t cut = payload.find(' ');
      const ExternalId target = std::stoull(payload.substr(0, cut));
      StatusOr<Record> record = parse(payload.substr(cut + 1));
      if (!record.ok()) {
        ++failed;
        continue;
      }
      const Record kept = *record;
      StatusOr<EngineMutationResult> result = mutate(
          "engine.update",
          [&] { return engine.Update(target, std::move(record).value()); },
          WalFrameType::kUpdate, {target}, {&kept});
      if (result.ok()) {
        live.insert_or_assign(target, kept);
        ++mutated_since_flush;
      }
    } else if (req.op == "remove") {
      std::istringstream tokens(Payload(req.lines[0]));
      std::vector<ExternalId> ids;
      for (std::string token; tokens >> token;) ids.push_back(std::stoull(token));
      StatusOr<EngineMutationResult> result = mutate(
          "engine.remove", [&] { return engine.Remove(ids); },
          WalFrameType::kRemove, ids, {});
      if (result.ok()) {
        for (ExternalId gone : ids) live.erase(gone);
        mutated_since_flush += ids.size();
      }
    } else if (req.op == "flush") {
      StatusOr<EngineMutationResult> result = mutate(
          "engine.flush", [&] { return engine.Flush(); },
          WalFrameType::kFlush, {}, {});
      if (result.ok()) {
        RoundTotals flush_work;
        flush_work.Add(result->stats);
        if (mutated_since_flush > 0) {
          flush_refined_per_delta.push_back(
              static_cast<double>(flush_work.refined_records) /
              static_cast<double>(mutated_since_flush));
          flush_refined += flush_work.refined_records;
          flush_deltas += mutated_since_flush;
        }
        mutated_since_flush = 0;
      }
    } else if (req.op == "topk") {
      const double t0 = NowSeconds();
      StatusOr<std::vector<std::vector<ExternalId>>> top = engine.TopK(k);
      spans.Add("engine.topk", t0, NowSeconds(), -1, id);
      if (top.ok()) {
        last_topk = std::move(top).value();
      } else {
        ++failed;
      }
    } else if (req.op == "cluster") {
      // `cluster @R`: the first member of rank R in the latest topk reply
      // (rank 1 when the reply had fewer clusters).
      const size_t rank = std::stoull(Payload(req.lines[0]).substr(1));
      if (last_topk.empty()) {
        ++failed;
        continue;
      }
      const auto& pick = rank <= last_topk.size() ? last_topk[rank - 1]
                                                  : last_topk[0];
      const double t0 = NowSeconds();
      StatusOr<std::vector<ExternalId>> members = engine.Cluster(pick.front());
      spans.Add("engine.cluster", t0, NowSeconds(), -1, id);
      if (!members.ok()) ++failed;
    } else {
      ++failed;
    }
  }

  const std::string final_topk = RenderTopK(*engine.Snapshot(), k);
  const EngineCounters counters = engine.counters();
  const DurabilityStats durability = engine.durability_stats();

  // --- From-scratch reference: one IngestWithIds of the final live set.
  std::vector<Record> records;
  std::vector<ExternalId> ids;
  for (const auto& [ext, record] : live) {
    ids.push_back(ext);
    records.push_back(record);
  }
  ResidentEngine reference(*rule, engine_options);
  StatusOr<EngineMutationResult> scratch_ingest =
      reference.IngestWithIds(std::move(records), std::move(ids));
  const std::string reference_topk =
      scratch_ingest.ok() ? RenderTopK(*reference.Snapshot(), k) : "";

  std::vector<double> hash_rates;  // at 1, 2 and nproc workers
  if (trace) {
    // lsh probe: the first live records through the sequence's plans on a
    // fresh engine. 2,000 keeps the MinHash cache (32 bits per hash, up to
    // 5,120 hashes a record) near 40 MB.
    Dataset dataset("probe");
    for (const auto& [ext, record] : live) {
      if (dataset.num_records() >= 2000) break;
      dataset.AddRecord(record, 0);
    }
    StatusOr<FunctionSequence> sequence =
        FunctionSequence::Build(*rule, dataset.record(0), SequenceConfig());
    if (sequence.ok()) hash_rates = HashRates(dataset, *sequence, seed);
  }

  JsonWriter json;
  json.BeginObject();
  WriteEnvironment(&json, threads);
  json.Key("requests").Uint(requests.size());
  json.Key("failed").Uint(failed);
  json.Key("open_s").Double(o1 - o0);
  json.Key("recovery_read_s").Double(r1 - r0);
  json.Key("final_topk").String(final_topk);
  json.Key("from_scratch_topk").String(reference_topk);
  json.Key("live_records").Uint(live.size());
  json.Key("counts")
      .BeginObject()
      .Key("hashes")
      .Uint(counters.total_hashes)
      .Key("similarities")
      .Uint(counters.total_similarities)
      .Key("snapshots")
      .Uint(counters.generation)
      .Key("wal_frames")
      .Uint(durability.wal_frames_appended - opened_stats.wal_frames_appended)
      .Key("wal_bytes")
      .Uint(durability.wal_bytes_appended - opened_stats.wal_bytes_appended)
      .EndObject();
  json.Key("script_work")
      .BeginObject()
      .Key("hashes")
      .Uint(work.hashes)
      .Key("similarities")
      .Uint(work.similarities)
      .Key("rounds")
      .Uint(work.rounds)
      .Key("hash_s")
      .Double(work.hash_s)
      .Key("pairwise_s")
      .Double(work.pairwise_s)
      .Key("select_merge_s")
      .Double(work.wall_s - work.hash_s - work.pairwise_s)
      .Key("lock_wait_s")
      .Double(lock_wait_s)
      .Key("flush_refined")
      .Uint(flush_refined)
      .Key("flush_deltas")
      .Uint(flush_deltas)
      .EndObject();
  json.Key("flush_refined_per_delta");
  WriteDoubles(&json, flush_refined_per_delta);
  json.Key("row_bytes").Uint(row_bytes);
  json.Key("wal_retries")
      .Uint(durability.wal_append_retries + durability.wal_sync_retries);
  json.Key("hashes_per_s");
  WriteDoubles(&json, hash_rates);
  json.Key("spans");
  spans.Write(&json);
  json.EndObject();
  if (!WriteFile(out_path, json.TakeString())) {
    std::cerr << "perfbench_harness: cannot write " << out_path << "\n";
    return 2;
  }
  return 0;
}

}  // namespace perfbench
