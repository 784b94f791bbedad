// adalsh_cli — run top-k entity-resolution filtering on a CSV file, or serve
// a long-lived resident engine over stdin/stdout.
//
// Usage:
//   adalsh_cli --input=records.csv --columns=entity,text,text,text
//              --rule="and(wavg(0,1;0.5,0.5;0.3), leaf(2;0.8))"
//              --k=10 [--method=adalsh|lsh|pairs] [--lsh_x=1280]
//              [--header] [--bk=10] [--recover] [--output=clusters.csv]
//              [--threads=N] [--simd=LEVEL] [--trace-out=trace.json]
//              [--stats-json=report.json]
//              [--deadline-ms=MS] [--max-pairwise=N] [--max-hashes=N]
//              [--cancel-after-ms=MS] [--cost-model=hash_cost,pair_cost]
//
// --threads sizes the worker pool for the hash hot path (default: hardware
// concurrency). Results are identical at any thread count; see
// docs/threading.md.
//
// --method=adalsh runs AdaptiveLsh::Run in process, the one batch path. The
// sharded engine behind serve mode certifies the same clusters: with
// --cost-model pinned, serve's `topk` after `flush` lists this CSV's clusters
// at every --shards and thread count (tools/shard_parity_smoke.sh).
//
// --simd pins the kernel dispatch level: scalar, avx2, avx512, neon, or
// native/auto (both the widest level this machine runs, which is also what
// an unpinned run uses). Results are identical at every level
// (docs/simd.md) — the pin only changes speed, so it exists for
// benchmarking and parity checks (tools/simd_parity_smoke.sh). Equivalent
// to setting ADALSH_SIMD.
//
// A `simd-level` subcommand prints the detected, supported, and active
// levels in a script-friendly key/value form and exits.
//
// --cost-model pins the jump-to-P unit costs for --method=adalsh instead of
// wall-clock calibration, making the run's round schedule — and therefore
// its output — reproducible across machines, thread counts, and SIMD
// levels (the same knob serve mode has always had). Both costs must be
// finite and > 0, in either mode.
//
// --trace-out writes a Chrome trace_event JSON of the run (open in
// chrome://tracing or https://ui.perfetto.dev): one span per round / hash
// pass / pairwise sweep plus per-worker ParallelFor lanes. --stats-json
// writes the machine-readable run report (schema "adalsh-run-report-v1",
// docs/observability.md) with per-round counters and a metrics snapshot.
// Either flag enables instrumentation; with neither, the run is
// uninstrumented (zero overhead).
//
// --deadline-ms / --max-pairwise / --max-hashes set anytime-execution limits
// (docs/robustness.md): when one fires, the run stops at the next
// cooperative check and returns the best-effort clusters found so far, with
// the termination reason printed and carried in the --stats-json report.
// Each is >= 0, where 0 (the default) means no limit; a negative value is
// refused, in serve mode too. --cancel-after-ms demonstrates cooperative
// cancellation: a helper thread calls RunController::Cancel() after the
// given wall-clock time. A millisecond flag (these two and serve's
// --metrics-interval-ms) over 1e12 (about 31 years) or not a number is
// refused: the clock's nanosecond count cannot hold it.
//
// Columns (one token per CSV column):
//   label    record display label        entity   ground-truth key
//   text     word-shingle feature        textN    N-word shingles
//   spotsigs spot-signature feature      vector   ';'-separated floats
//   ignore   skipped
//
// The output CSV has one row per kept record: cluster_rank, record_index,
// label. When the input has an entity column, gold accuracy against its
// ground truth is printed.
//
// Serve mode (docs/engine.md):
//   adalsh_cli serve --columns=<spec> --rule=<rule DSL> [--k=10]
//              [--threads=N] [--seed=N] [--cost-model=hash_cost,pair_cost]
//              [--deadline-ms=MS] [--max-pairwise=N] [--max-hashes=N]
//              [--shards=S] [--trace-out=trace.json] [--trace-max-spans=N]
//              [--metrics-out=FILE] [--metrics-interval-ms=MS]
//              [--watchdog-factor=F] [--watchdog-min-samples=N]
//              [--data-dir=DIR] [--sync=none|batch|always]
//              [--checkpoint-every-n=N] [--crash-at=SITE:N]
//              [--max-line-bytes=N]
//
// --data-dir=DIR turns on the durability plane (docs/durability.md): every
// mutation is appended as one frame to the write-ahead log DIR/wal-0.log
// before it is applied, and on startup the engine recovers from the newest
// valid checkpoint plus the log tail (torn/corrupt tails are truncated with
// a stderr warning; recovery results print as one `recovered ...` stderr
// line). The directory reopens at any --shards. --sync picks the fsync
// policy (default batch: durable at flush/checkpoint/clean-exit barriers).
// --checkpoint-every-n=N folds the live set into an atomic checkpoint after
// every N mutations; the `checkpoint` serve command does it on demand. A permanent WAL failure degrades the
// session to read-only (mutations answer `err`, queries keep serving) and
// raises the wal_degraded gauge — it never crashes the process.
//
// --crash-at=SITE:N (crash testing; tools/crash_smoke.sh) kills the process
// with _Exit(42) at the Nth hit of the named fault site (wal_append,
// wal_sync, checkpoint_write, recovery_replay, ...), so the kill lands
// between two specific bytes reaching the disk.
//
// --max-line-bytes caps protocol input lines (default 1 MiB): an oversized
// or binary-garbage line answers `err ...` and the session continues —
// stdin hardening for the long-lived server (docs/robustness.md).
//
// --shards=S (default 1, S >= 1) sets the ShardedEngine's partition width
// (docs/sharding.md): mutations route to their record's shard and serialize
// only on that shard's lock. At S=1 every mutation publishes a new snapshot
// (continuous certification); at S >= 2 the snapshot served by topk/cluster
// advances only at `flush`, which runs the canonical cross-shard merge and
// nothing else (deferred global certification).
//
// Runs the engine and speaks a newline-delimited protocol on
// stdin/stdout (one reply line — or cluster lines followed by an "ok" line —
// per command; failures answer "err <message>" and the session continues):
//   add <csv row>        stage a record (parsed under --columns)
//   commit               ingest the staged batch, refine, publish
//   remove <id> [...]    remove by external id (all-or-nothing)
//   update <id> <row>    replace a record's contents, id stays stable
//   topk [k]             certified clusters of the current snapshot
//   cluster <id>         the snapshot cluster containing <id>
//   stats                one-line engine report JSON (adalsh-engine-report-v1)
//   metrics              one-line metrics snapshot JSON (adalsh-metrics-v1)
//   flush                refinement pass without a mutation (at S >= 2,
//                        the cross-shard merge)
//   checkpoint           write a durability checkpoint now (needs --data-dir)
//   quit                 exit
// --deadline-ms / --max-* act as the ambient per-mutation SLO; an
// interrupted refinement keeps the previous snapshot serving (reply carries
// reason=deadline/budget_exhausted) until a flush certifies. The S >= 2
// merge takes no SLO, so there `flush` always answers reason=completed with
// a new generation. --cost-model pins the jump-to-P unit costs so
// transcripts are reproducible (tools/engine_smoke.sh diffs this mode
// against a golden transcript).
//
// Serve-mode telemetry (docs/observability.md): the metrics registry is
// always live — every mutation records exact latency histograms and
// counters, readable via the `metrics` command or the `stats` report.
// --metrics-out=FILE appends one adalsh-metrics-v1 JSON line per export
// tick (every --metrics-interval-ms, plus a final tick at shutdown) and
// rewrites FILE.prom with a Prometheus text exposition each tick.
// --trace-out writes a Chrome trace at exit with one span per mutation plus
// the engine's internal round/merge-phase spans; --trace-max-spans caps the
// recorder's ring buffer (oldest spans overwritten, drops counted; 0 =
// unbounded). --watchdog-factor=F logs any mutation slower than F times its
// op's running median to stderr with the mutation's trace span id
// (--watchdog-min-samples warm-up, default 16; 0 disables the watchdog).
// Telemetry never feeds back into results: transcripts stay byte-identical
// with every flag combination.

#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include <sstream>

#include "core/adaptive_lsh.h"
#include "core/lsh_blocking.h"
#include "core/pairs_baseline.h"
#include "distance/rule_parser.h"
#include "engine/durability.h"
#include "engine/engine_report.h"
#include "engine/sharded_executor.h"
#include "eval/metrics.h"
#include "eval/recovery.h"
#include "io/csv.h"
#include "io/dataset_loader.h"
#include "obs/json_writer.h"
#include "obs/metrics_registry.h"
#include "obs/prometheus.h"
#include "obs/run_report.h"
#include "obs/slow_op_watchdog.h"
#include "obs/trace_recorder.h"
#include "util/fault_injection.h"
#include "util/flags.h"
#include "util/run_controller.h"
#include "util/simd.h"
#include "util/simd_kernels.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace adalsh;  // NOLINT: tool brevity

int Fail(const std::string& message) {
  std::cerr << "adalsh_cli: " << message << "\n";
  return 1;
}

/// Applies a --simd=LEVEL pin if one was given. Returns non-ok on an unknown
/// or unsupported level name.
Status ApplySimdFlag(const std::string& name) {
  if (name.empty()) return Status::Ok();
  StatusOr<int> pin = ParseSimdPin(name);
  if (!pin.ok()) return pin.status();
  SetSimdPin(*pin);
  return Status::Ok();
}

/// Checks a --cost-model value: empty (calibrate), or two unit costs that
/// are both finite and > 0. A NaN, infinite, zero or negative cost makes
/// every jump-to-P decision meaningless, and serve with --data-dir would
/// write the model to its WAL and checkpoint. Returns "" when it is valid.
std::string CheckCostModelFlag(const std::vector<double>& cost_model) {
  if (cost_model.empty()) return "";
  if (cost_model.size() != 2) {
    return "--cost-model takes two comma-separated unit costs "
           "(cost-per-hash,cost-per-pair)";
  }
  for (double cost : cost_model) {
    if (!std::isfinite(cost) || cost <= 0.0) {
      std::ostringstream message;
      message << "--cost-model unit costs must be finite and > 0 (got "
              << cost << ")";
      return message.str();
    }
  }
  return "";
}

/// Checks a millisecond flag the program hands to a steady_clock deadline or
/// wait: it must lie in [0, kMaxDeadlineMs]. A longer one would overflow the
/// clock's 64-bit nanosecond count and read as already expired (a deadline
/// that fires at once, a wait that never sleeps). Returns "" when valid.
std::string CheckMillisFlag(const std::string& flag, double ms) {
  if (ms >= 0.0 && ms <= kMaxDeadlineMs) return "";
  std::ostringstream message;
  message << "--" << flag << " must be between 0 and 1e12 ms (got " << ms
          << ")";
  return message.str();
}

/// Checks the anytime limits: each must be >= 0, where 0 means no limit,
/// and the deadline a millisecond value CheckMillisFlag accepts. RunBudget
/// reads a deadline <= 0 as none, and a negative count cast to uint64_t
/// reads as 2^64-1, so a negative value would silently lift the limit it
/// asks for. Returns "" when all three are valid.
std::string CheckBudgetFlags(double deadline_ms, int64_t max_pairwise,
                             int64_t max_hashes) {
  if (std::string error = CheckMillisFlag("deadline-ms", deadline_ms);
      !error.empty()) {
    return error;
  }
  if (max_pairwise < 0) return "--max-pairwise must be >= 0 (0 = none)";
  if (max_hashes < 0) return "--max-hashes must be >= 0 (0 = none)";
  return "";
}

/// `adalsh_cli simd-level` — prints the dispatch state as `key value` lines:
/// the widest level this machine supports (detected), every runnable level
/// (supported), and the level the kernels dispatch to (dot, minhash — the
/// ADALSH_SIMD pin if set, else `detected`). Scripts key off these, e.g.
/// tools/simd_parity_smoke.sh diffs scalar against the widest `supported`.
int RunSimdLevel() {
  std::cout << "detected " << SimdLevelName(DetectSimdLevel()) << "\n";
  std::cout << "supported";
  for (SimdLevel level : SupportedSimdLevels()) {
    std::cout << " " << SimdLevelName(level);
  }
  std::cout << "\n";
  std::cout << "dot " << SimdLevelName(simd::ActiveDotLevel()) << "\n";
  std::cout << "minhash " << SimdLevelName(simd::ActiveMinHashLevel())
            << "\n";
  return 0;
}

// --- Serve mode ---

/// Parses one CSV row (with full quoting support) from the payload of an
/// add/update command read from session input line `line`.
StatusOr<std::vector<std::string>> SplitCsvPayload(const std::string& text,
                                                   size_t line) {
  if (text.empty()) return Status::InvalidArgument("missing csv row");
  std::istringstream in(text);
  CsvReader reader(&in, ',', line);
  std::vector<std::string> row;
  StatusOr<bool> more = reader.ReadRow(&row);
  if (!more.ok()) return more.status();
  if (!*more) return Status::InvalidArgument("missing csv row");
  return row;
}

/// Decimal digits only, and the value must fit in 64 bits: an out-of-range
/// id is refused rather than clamped to some id the client never sent.
StatusOr<uint64_t> ParseExternalId(const std::string& token) {
  uint64_t id = 0;
  const char* end = token.data() + token.size();
  const auto [last, error] = std::from_chars(token.data(), end, id);
  if (error != std::errc() || last != end) {
    return Status::InvalidArgument("bad record id '" + token + "'");
  }
  return id;
}

std::string VerificationName(int level) {
  return level == kLastFunctionPairwise ? "P" : std::to_string(level);
}

std::string MutationReply(const EngineMutationResult& result) {
  std::string reply = "ok gen=" + std::to_string(result.generation);
  if (!result.assigned_ids.empty()) {
    reply += " ids=" + std::to_string(result.assigned_ids.front()) + ".." +
             std::to_string(result.assigned_ids.back());
  }
  reply += " reason=";
  reply += TerminationReasonName(result.refinement);
  return reply;
}

void PrintClusters(const std::vector<std::vector<ExternalId>>& clusters,
                   const std::vector<int>& verification) {
  for (size_t i = 0; i < clusters.size(); ++i) {
    std::cout << "cluster rank=" << (i + 1)
              << " v=" << VerificationName(verification[i]) << " members=";
    for (size_t m = 0; m < clusters[i].size(); ++m) {
      std::cout << (m > 0 ? "," : "") << clusters[i][m];
    }
    std::cout << "\n";
  }
}

int RunServe(int argc, char** argv) {
  Flags flags(argc, argv);
  std::string columns = flags.GetString("columns", "");
  std::string rule_text = flags.GetString("rule", "");
  int k = flags.GetInt32("k", 10);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  int threads = flags.GetInt32("threads", 0);
  std::vector<double> cost_model = flags.GetDoubleList("cost-model", {});
  double deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  int64_t max_pairwise = flags.GetInt("max-pairwise", 0);
  int64_t max_hashes = flags.GetInt("max-hashes", 0);
  std::string simd = flags.GetString("simd", "");
  int shards = flags.GetInt32("shards", 1);
  std::string trace_path = flags.GetString("trace-out", "");
  int64_t trace_max_spans = flags.GetInt("trace-max-spans", 100000);
  std::string metrics_out = flags.GetString("metrics-out", "");
  double metrics_interval_ms = flags.GetDouble("metrics-interval-ms", 0.0);
  double watchdog_factor = flags.GetDouble("watchdog-factor", 0.0);
  int64_t watchdog_min_samples = flags.GetInt("watchdog-min-samples", 16);
  std::string data_dir = flags.GetString("data-dir", "");
  std::string sync_name = flags.GetString("sync", "batch");
  int64_t checkpoint_every_n = flags.GetInt("checkpoint-every-n", 0);
  std::string crash_at = flags.GetString("crash-at", "");
  int64_t max_line_bytes = flags.GetInt("max-line-bytes", 1 << 20);
  flags.CheckNoUnusedFlags();

  Status simd_status = ApplySimdFlag(simd);
  if (!simd_status.ok()) return Fail(simd_status.ToString());
  if (columns.empty() || rule_text.empty()) {
    return Fail("serve requires --columns=<spec> and --rule=<rule DSL>");
  }
  if (k < 1) return Fail("--k must be >= 1");
  if (threads < 0) return Fail("--threads must be >= 0");
  if (shards < 1) return Fail("--shards must be >= 1");
  if (trace_max_spans < 0) return Fail("--trace-max-spans must be >= 0");
  if (std::string error =
          CheckMillisFlag("metrics-interval-ms", metrics_interval_ms);
      !error.empty()) {
    return Fail(error);
  }
  if (metrics_interval_ms > 0.0 && metrics_out.empty()) {
    return Fail("--metrics-interval-ms requires --metrics-out");
  }
  if (watchdog_factor < 0.0) return Fail("--watchdog-factor must be >= 0");
  if (watchdog_min_samples < 1) {
    return Fail("--watchdog-min-samples must be >= 1");
  }
  if (std::string error = CheckCostModelFlag(cost_model); !error.empty()) {
    return Fail(error);
  }
  if (std::string error =
          CheckBudgetFlags(deadline_ms, max_pairwise, max_hashes);
      !error.empty()) {
    return Fail(error);
  }
  if (checkpoint_every_n < 0) return Fail("--checkpoint-every-n must be >= 0");
  if (max_line_bytes < 1) return Fail("--max-line-bytes must be >= 1");
  if ((checkpoint_every_n > 0 || !crash_at.empty()) && data_dir.empty()) {
    return Fail("--checkpoint-every-n and --crash-at require --data-dir");
  }
  StatusOr<WalSyncPolicy> sync = ParseWalSyncPolicy(sync_name);
  if (!sync.ok()) return Fail(sync.status().ToString());

  // --crash-at=SITE:N — kill the process at an exact fault-site hit so
  // crash tests can land between any two bytes reaching the disk. The
  // injector outlives the engine (it is consulted from every WAL write).
  FaultInjector crash_injector;
  std::optional<ScopedFaultInjector> crash_scope;
  if (!crash_at.empty()) {
    const size_t colon = crash_at.rfind(':');
    StatusOr<FaultSite> site = ParseFaultSite(crash_at.substr(0, colon));
    if (colon == std::string::npos || !site.ok()) {
      return Fail("--crash-at wants SITE:N (e.g. wal_append:3): " +
                  (site.ok() ? "missing :N" : site.status().ToString()));
    }
    char* end = nullptr;
    const std::string nth_text = crash_at.substr(colon + 1);
    const uint64_t nth = std::strtoull(nth_text.c_str(), &end, 10);
    if (nth < 1 || end == nth_text.c_str() || *end != '\0') {
      return Fail("--crash-at hit count must be a positive integer");
    }
    crash_injector.TriggerAt(*site, nth, [] { std::_Exit(42); });
    crash_scope.emplace(&crash_injector);
  }

  StatusOr<std::vector<ColumnSpec>> specs = ParseColumnSpecs(columns);
  if (!specs.ok()) return Fail(specs.status().ToString());
  StatusOr<MatchRule> rule = ParseRule(rule_text);
  if (!rule.ok()) return Fail(rule.status().ToString());

  ResidentEngine::Options options;
  options.top_k = k;
  options.config.seed = seed;
  options.config.threads = threads;
  options.config.budget.deadline_ms = deadline_ms;
  options.config.budget.max_pairwise = static_cast<uint64_t>(max_pairwise);
  options.config.budget.max_hashes = static_cast<uint64_t>(max_hashes);
  Status budget_valid = options.config.budget.Validate();
  if (!budget_valid.ok()) return Fail(budget_valid.ToString());
  if (!cost_model.empty()) {
    options.cost_model = CostModel(cost_model[0], cost_model[1]);
  }

  // --- Telemetry plane (docs/observability.md). The registry is always
  // live in serve mode — the `metrics`/`stats` commands read it and the
  // per-thread shards cost nothing on the mutation path — and it never
  // feeds back into results, so transcripts stay byte-identical. Declared
  // before the engines so the sinks outlive them.
  Timer serve_timer;
  MetricsRegistry metrics;
  std::unique_ptr<TraceRecorder> trace;
  std::optional<ScopedParallelForTrace> parallel_trace;
  if (!trace_path.empty()) {
    trace = std::make_unique<TraceRecorder>(
        static_cast<size_t>(trace_max_spans));
    parallel_trace.emplace(trace.get());  // per-worker ParallelFor lanes
  }
  options.config.instrumentation.metrics = &metrics;
  options.config.instrumentation.trace = trace.get();
  SlowOpWatchdog::Options watchdog_options;
  watchdog_options.factor = watchdog_factor;
  watchdog_options.min_samples = static_cast<size_t>(watchdog_min_samples);
  SlowOpWatchdog watchdog(watchdog_options, &std::cerr);

  // The sharded engine, or with --data-dir the durable wrapper that owns
  // one and recovers it from disk before serving (docs/durability.md).
  // Neither is movable (mutex members), so construct in place.
  std::optional<ShardedEngine> sharded;
  std::unique_ptr<DurableEngine> durable;
  if (!data_dir.empty()) {
    DurableEngine::Options durable_options;
    durable_options.engine = std::move(options);
    durable_options.shards = shards;
    durable_options.data_dir = data_dir;
    durable_options.sync = *sync;
    durable_options.checkpoint_every_n =
        static_cast<uint64_t>(checkpoint_every_n);
    StatusOr<std::unique_ptr<DurableEngine>> opened =
        DurableEngine::Open(*rule, std::move(durable_options));
    if (!opened.ok()) return Fail(opened.status().ToString());
    durable = std::move(opened).value();
    const DurabilityStats recovered = durable->durability_stats();
    for (const std::string& warning : recovered.recovery_warnings) {
      std::cerr << "wal: " << warning << "\n";
    }
    std::cerr << "recovered checkpoint_seq=" << recovered.checkpoint_seq
              << " frames_replayed=" << recovered.frames_replayed
              << " frames_discarded=" << recovered.frames_discarded
              << " live=" << durable->counters().live_records << "\n";
  } else {
    ShardedEngine::Options sharded_options;
    sharded_options.engine = std::move(options);
    sharded_options.shards = shards;
    sharded.emplace(*rule, std::move(sharded_options));
  }
  auto ingest = [&](std::vector<Record> records) {
    return durable ? durable->Ingest(std::move(records))
                   : sharded->Ingest(std::move(records));
  };
  auto remove = [&](const std::vector<ExternalId>& ids) {
    return durable ? durable->Remove(ids) : sharded->Remove(ids);
  };
  auto update = [&](ExternalId id, Record record) {
    return durable ? durable->Update(id, std::move(record))
                   : sharded->Update(id, std::move(record));
  };
  auto flush = [&]() { return durable ? durable->Flush() : sharded->Flush(); };
  auto snapshot = [&]() {
    return durable ? durable->Snapshot() : sharded->Snapshot();
  };
  auto stats_json = [&]() {
    const MetricsSnapshot snapshot = metrics.Snapshot();
    return durable ? WriteEngineReportJson(*durable, &snapshot)
                   : WriteEngineReportJson(*sharded, &snapshot);
  };

  // One adalsh-metrics-v1 line per emission, shared by the `metrics`
  // command and the periodic exporter; the seq is unique across both.
  std::atomic<uint64_t> metrics_seq{0};
  auto metrics_line = [&](const MetricsSnapshot& snapshot) {
    JsonWriter json;
    json.BeginObject()
        .Key("schema")
        .String("adalsh-metrics-v1")
        .Key("seq")
        .Uint(++metrics_seq)
        .Key("uptime_seconds")
        .Double(serve_timer.ElapsedSeconds())
        .Key("metrics");
    AppendMetricsSnapshot(snapshot, &json);
    return json.EndObject().TakeString();
  };

  // Periodic exporter: appends one JSON line per tick to --metrics-out and
  // rewrites <file>.prom with the Prometheus text exposition. The final
  // tick at shutdown runs on the main thread after the join, so the mutex
  // only guards tick-vs-tick (a `metrics` command never touches the file).
  std::ofstream metrics_file;
  if (!metrics_out.empty()) {
    metrics_file.open(metrics_out);
    if (!metrics_file) return Fail("cannot write " + metrics_out);
  }
  std::mutex export_mu;
  auto export_tick = [&]() {
    const MetricsSnapshot snapshot = metrics.Snapshot();
    std::lock_guard<std::mutex> lock(export_mu);
    metrics_file << metrics_line(snapshot) << std::flush;
    std::ofstream prom(metrics_out + ".prom");
    if (prom) prom << WritePrometheusText(snapshot);
  };
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stopping = false;
  std::thread exporter;
  if (!metrics_out.empty() && metrics_interval_ms > 0.0) {
    exporter = std::thread([&] {
      std::unique_lock<std::mutex> lock(stop_mu);
      const auto interval =
          std::chrono::duration<double, std::milli>(metrics_interval_ms);
      while (!stop_cv.wait_for(lock, interval, [&] { return stopping; })) {
        export_tick();
      }
    });
  }

  // Exactly one observation per protocol mutation that reached the engine —
  // in sharded mode a mutation fans out to per-shard sub-batches, so the
  // engine-level histograms see more entries; this serve-level family is
  // the one whose count equals the mutations issued.
  auto observe_mutation = [&](const char* op, double seconds,
                              uint64_t span_id) {
    metrics.AddCounter("serve_mutations", 1);
    metrics.AddCounter(std::string("serve_op_") + op, 1);
    metrics.RecordLatency("serve_mutation_seconds", seconds);
    metrics.RecordLatency(std::string("serve_") + op + "_seconds", seconds);
    if (watchdog.Observe(op, seconds, span_id)) {
      metrics.AddCounter("serve_slow_ops", 1);
    }
  };

  std::vector<Record> staged;
  std::string line;
  size_t line_number = 0;  // 1-based, cited by CSV parse errors
  auto reply_status = [](const Status& status) {
    std::cout << "err " << status.message() << "\n" << std::flush;
  };
  while (std::getline(std::cin, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    // Input hardening (docs/robustness.md): the server outlives its
    // clients, so a runaway or binary-garbage line must answer `err` and
    // leave the session serving, never abort or corrupt the protocol state.
    if (line.size() > static_cast<size_t>(max_line_bytes)) {
      reply_status(Status::InvalidArgument(
          "line exceeds --max-line-bytes=" + std::to_string(max_line_bytes)));
      continue;
    }
    bool has_control_bytes = false;
    for (char c : line) {
      has_control_bytes |=
          static_cast<unsigned char>(c) < 0x20 && c != '\t';
    }
    if (has_control_bytes) {
      reply_status(Status::InvalidArgument(
          "malformed line: control bytes in input"));
      continue;
    }
    const size_t space = line.find(' ');
    const std::string cmd = line.substr(0, space);
    const std::string payload =
        space == std::string::npos ? "" : line.substr(space + 1);
    if (cmd.empty()) continue;

    if (cmd == "add") {
      StatusOr<std::vector<std::string>> row =
          SplitCsvPayload(payload, line_number);
      if (!row.ok()) {
        reply_status(row.status());
        continue;
      }
      StatusOr<ParsedCsvRecord> parsed =
          ParseCsvRecord(*row, *specs, line_number);
      if (!parsed.ok()) {
        reply_status(parsed.status());
        continue;
      }
      staged.push_back(std::move(parsed->record));
      std::cout << "staged " << staged.size() << "\n" << std::flush;
    } else if (cmd == "commit") {
      Timer op_timer;
      TraceRecorder::Span op_span(trace.get(), "serve_commit", "serve");
      auto result = ingest(std::move(staged));
      staged.clear();  // all-or-nothing either way: a rejected batch is dropped
      observe_mutation("commit", op_timer.ElapsedSeconds(), op_span.id());
      if (!result.ok()) {
        reply_status(result.status());
        continue;
      }
      std::cout << MutationReply(result.value()) << "\n" << std::flush;
    } else if (cmd == "remove") {
      std::istringstream tokens(payload);
      std::vector<ExternalId> ids;
      std::string token;
      Status parse = Status::Ok();
      while (tokens >> token) {
        StatusOr<uint64_t> id = ParseExternalId(token);
        if (!id.ok()) {
          parse = id.status();
          break;
        }
        ids.push_back(*id);
      }
      if (!parse.ok()) {
        reply_status(parse);
        continue;
      }
      if (ids.empty()) {
        reply_status(Status::InvalidArgument("remove needs at least one id"));
        continue;
      }
      Timer op_timer;
      TraceRecorder::Span op_span(trace.get(), "serve_remove", "serve");
      auto result = remove(ids);
      observe_mutation("remove", op_timer.ElapsedSeconds(), op_span.id());
      if (!result.ok()) {
        reply_status(result.status());
        continue;
      }
      std::cout << MutationReply(result.value()) << "\n" << std::flush;
    } else if (cmd == "update") {
      const size_t id_end = payload.find(' ');
      StatusOr<uint64_t> id = ParseExternalId(payload.substr(0, id_end));
      if (!id.ok()) {
        reply_status(id.status());
        continue;
      }
      StatusOr<std::vector<std::string>> row = SplitCsvPayload(
          id_end == std::string::npos ? "" : payload.substr(id_end + 1),
          line_number);
      if (!row.ok()) {
        reply_status(row.status());
        continue;
      }
      StatusOr<ParsedCsvRecord> parsed =
          ParseCsvRecord(*row, *specs, line_number);
      if (!parsed.ok()) {
        reply_status(parsed.status());
        continue;
      }
      Timer op_timer;
      TraceRecorder::Span op_span(trace.get(), "serve_update", "serve");
      auto result = update(*id, std::move(parsed->record));
      observe_mutation("update", op_timer.ElapsedSeconds(), op_span.id());
      if (!result.ok()) {
        reply_status(result.status());
        continue;
      }
      std::cout << MutationReply(result.value()) << "\n" << std::flush;
    } else if (cmd == "topk") {
      uint64_t query_k = static_cast<uint64_t>(k);
      if (!payload.empty()) {
        StatusOr<uint64_t> parsed_k = ParseExternalId(payload);
        if (!parsed_k.ok() || *parsed_k < 1) {
          reply_status(Status::InvalidArgument("bad k '" + payload + "'"));
          continue;
        }
        query_k = *parsed_k;
      }
      std::shared_ptr<const EngineSnapshot> snap = snapshot();
      const size_t count = static_cast<size_t>(
          std::min<uint64_t>(query_k, snap->clusters.size()));
      PrintClusters({snap->clusters.begin(), snap->clusters.begin() + count},
                    {snap->verification.begin(),
                     snap->verification.begin() + count});
      std::cout << "ok gen=" << snap->generation << " clusters=" << count
                << " live=" << snap->live_records << "\n"
                << std::flush;
    } else if (cmd == "cluster") {
      StatusOr<uint64_t> id = ParseExternalId(payload);
      if (!id.ok()) {
        reply_status(id.status());
        continue;
      }
      std::shared_ptr<const EngineSnapshot> snap = snapshot();
      auto it = snap->cluster_of.find(*id);
      if (it == snap->cluster_of.end()) {
        reply_status(Status::NotFound(
            "record " + payload + " is in no cluster of generation " +
            std::to_string(snap->generation)));
        continue;
      }
      PrintClusters({snap->clusters[it->second]},
                    {snap->verification[it->second]});
      std::cout << "ok gen=" << snap->generation << "\n" << std::flush;
    } else if (cmd == "stats") {
      std::cout << stats_json() << std::flush;  // ends in its own '\n'
    } else if (cmd == "metrics") {
      std::cout << metrics_line(metrics.Snapshot()) << std::flush;
    } else if (cmd == "flush") {
      Timer op_timer;
      TraceRecorder::Span op_span(trace.get(), "serve_flush", "serve");
      auto result = flush();
      observe_mutation("flush", op_timer.ElapsedSeconds(), op_span.id());
      if (!result.ok()) {
        reply_status(result.status());
        continue;
      }
      std::cout << MutationReply(result.value()) << "\n" << std::flush;
    } else if (cmd == "checkpoint") {
      if (!durable) {
        reply_status(Status::FailedPrecondition(
            "checkpoint needs a durable engine (--data-dir)"));
        continue;
      }
      Timer op_timer;
      TraceRecorder::Span op_span(trace.get(), "serve_checkpoint", "serve");
      Status written = durable->Checkpoint();
      observe_mutation("checkpoint", op_timer.ElapsedSeconds(), op_span.id());
      if (!written.ok()) {
        reply_status(written);
        continue;
      }
      const DurabilityStats stats = durable->durability_stats();
      std::cout << "ok checkpoints=" << stats.checkpoints_written
                << " live=" << durable->counters().live_records << "\n"
                << std::flush;
    } else if (cmd == "quit") {
      std::cout << "bye\n" << std::flush;
      break;
    } else {
      reply_status(Status::InvalidArgument("unknown command '" + cmd + "'"));
    }
  }

  // --- Telemetry shutdown (both `quit` and stdin EOF land here): stop the
  // exporter, emit one final tick so short sessions still leave a complete
  // snapshot on disk, and dump the trace ring.
  if (exporter.joinable()) {
    {
      std::lock_guard<std::mutex> lock(stop_mu);
      stopping = true;
    }
    stop_cv.notify_all();
    exporter.join();
  }
  if (!metrics_out.empty()) export_tick();
  parallel_trace.reset();  // stop recording before exporting
  if (!trace_path.empty()) {
    std::ofstream trace_file(trace_path);
    if (!trace_file) return Fail("cannot write " + trace_path);
    trace_file << trace->ToChromeTraceJson();
    std::cerr << "trace: " << trace->num_spans() << " spans ("
              << trace->dropped_spans() << " dropped) -> " << trace_path
              << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "serve") {
    // Flags names the program after argv[0], so serve's usage errors read
    // "adalsh_cli serve: ...".
    std::string program = std::string(argv[0]) + " serve";
    argv[1] = program.data();
    return RunServe(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::string(argv[1]) == "simd-level") {
    return RunSimdLevel();
  }
  Flags flags(argc, argv);
  std::string input = flags.GetString("input", "");
  std::string columns = flags.GetString("columns", "");
  std::string rule_text = flags.GetString("rule", "");
  int k = flags.GetInt32("k", 10);
  int bk = flags.GetInt32("bk", k);
  std::string method = flags.GetString("method", "adalsh");
  int lsh_x = flags.GetInt32("lsh_x", 1280);
  bool header = flags.GetBool("header", false);
  bool recover = flags.GetBool("recover", false);
  std::string output_path = flags.GetString("output", "");
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  int threads = flags.GetInt32("threads", 0);
  std::string trace_path = flags.GetString("trace-out", "");
  std::string stats_json_path = flags.GetString("stats-json", "");
  double deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  int64_t max_pairwise = flags.GetInt("max-pairwise", 0);
  int64_t max_hashes = flags.GetInt("max-hashes", 0);
  double cancel_after_ms = flags.GetDouble("cancel-after-ms", 0.0);
  std::string simd = flags.GetString("simd", "");
  std::vector<double> cost_model = flags.GetDoubleList("cost-model", {});
  flags.CheckNoUnusedFlags();

  Status simd_status = ApplySimdFlag(simd);
  if (!simd_status.ok()) return Fail(simd_status.ToString());
  if (std::string error = CheckCostModelFlag(cost_model); !error.empty()) {
    return Fail(error);
  }
  if (std::string error =
          CheckBudgetFlags(deadline_ms, max_pairwise, max_hashes);
      !error.empty()) {
    return Fail(error);
  }
  if (k < 1) return Fail("--k must be >= 1");
  if (bk < k) return Fail("--bk must be >= --k");
  if (threads < 0) return Fail("--threads must be >= 0");
  if (threads > 0) SetGlobalThreadCount(threads);

  RunBudget budget;
  budget.deadline_ms = deadline_ms;
  budget.max_pairwise = static_cast<uint64_t>(max_pairwise);
  budget.max_hashes = static_cast<uint64_t>(max_hashes);
  Status budget_valid = budget.Validate();
  if (!budget_valid.ok()) return Fail(budget_valid.ToString());
  if (std::string error = CheckMillisFlag("cancel-after-ms", cancel_after_ms);
      !error.empty()) {
    return Fail(error);
  }

  if (input.empty() || columns.empty() || rule_text.empty()) {
    return Fail(
        "required: --input=<csv> --columns=<spec> --rule=<rule DSL>; see "
        "the header comment of tools/adalsh_cli.cc");
  }

  // --- Load. ---
  StatusOr<std::vector<ColumnSpec>> specs = ParseColumnSpecs(columns);
  if (!specs.ok()) return Fail(specs.status().ToString());
  StatusOr<MatchRule> rule = ParseRule(rule_text);
  if (!rule.ok()) return Fail(rule.status().ToString());
  std::ifstream file(input);
  if (!file) return Fail("cannot open " + input);
  StatusOr<Dataset> loaded =
      LoadCsvDataset(&file, *specs, header, input);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const Dataset& dataset = *loaded;
  std::cerr << "loaded " << dataset.num_records() << " records from "
            << input << "\n";

  // --- Rule. ---
  Status valid = rule->Validate(dataset.record(0));
  if (!valid.ok()) return Fail("rule does not fit the schema: " +
                               valid.ToString());

  // --- Observability sinks (only when an export was requested). ---
  const bool instrumented = !trace_path.empty() || !stats_json_path.empty();
  std::unique_ptr<MetricsRegistry> metrics;
  std::unique_ptr<TraceRecorder> trace;
  std::optional<ScopedParallelForTrace> parallel_trace;
  Instrumentation instr;
  if (instrumented) {
    metrics = std::make_unique<MetricsRegistry>();
    instr.metrics = metrics.get();
    if (!trace_path.empty()) {
      trace = std::make_unique<TraceRecorder>();
      instr.trace = trace.get();
      parallel_trace.emplace(trace.get());  // per-worker ParallelFor lanes
    }
  }

  // --- Anytime-execution controller. ---
  // An external controller is needed only for --cancel-after-ms (so a helper
  // thread can Cancel() it); plain budgets ride inside the method config.
  // The method re-arms the controller at Run() entry, so the deadline clock
  // excludes loading and calibration — but the canceller thread starts here,
  // since cancellation models an outside caller's wall clock.
  std::optional<RunController> controller;
  std::thread canceller;
  std::mutex cancel_mu;
  std::condition_variable cancel_cv;
  bool run_done = false;
  if (cancel_after_ms > 0.0) {
    controller.emplace(budget);
    canceller = std::thread([&] {
      std::unique_lock<std::mutex> lock(cancel_mu);
      const auto wait = std::chrono::duration<double, std::milli>(
          cancel_after_ms);
      if (!cancel_cv.wait_for(lock, wait, [&] { return run_done; })) {
        controller->Cancel();
      }
    });
  }
  RunController* external = controller.has_value() ? &*controller : nullptr;

  // --- Filter. ---
  FilterOutput result;
  if (method == "adalsh") {
    AdaptiveLshConfig config;
    config.seed = seed;
    config.instrumentation = instr;
    config.budget = budget;
    config.controller = external;
    Status config_valid = config.Validate();
    if (!config_valid.ok()) return Fail(config_valid.ToString());
    AdaptiveLsh adalsh(dataset, *rule, config);
    if (!cost_model.empty()) {
      adalsh.set_cost_model(CostModel(cost_model[0], cost_model[1]));
    }
    result = adalsh.Run(bk);
  } else if (method == "lsh") {
    LshBlockingConfig config;
    config.num_hashes = lsh_x;
    config.seed = seed;
    config.instrumentation = instr;
    config.budget = budget;
    config.controller = external;
    Status config_valid = config.Validate();
    if (!config_valid.ok()) return Fail(config_valid.ToString());
    LshBlocking blocking(dataset, *rule, config);
    result = blocking.Run(bk);
  } else if (method == "pairs") {
    PairsBaseline pairs(dataset, *rule, /*threads=*/1, instr, budget,
                        external);
    result = pairs.Run(bk);
  } else {
    return Fail("unknown --method '" + method + "'");
  }
  if (canceller.joinable()) {
    {
      std::lock_guard<std::mutex> lock(cancel_mu);
      run_done = true;
    }
    cancel_cv.notify_all();
    canceller.join();
  }

  // --- Observability exports. ---
  parallel_trace.reset();  // stop recording before exporting
  if (!trace_path.empty()) {
    std::ofstream trace_file(trace_path);
    if (!trace_file) return Fail("cannot write " + trace_path);
    trace_file << trace->ToChromeTraceJson();
    std::cerr << "trace: " << trace->num_spans() << " spans -> " << trace_path
              << "\n";
  }
  if (!stats_json_path.empty()) {
    RunReportOptions report_options;
    report_options.method = method;
    report_options.dataset = input;
    report_options.k = k;
    report_options.num_records = dataset.num_records();
    report_options.threads = threads;
    MetricsSnapshot snapshot = metrics->Snapshot();
    std::ofstream report_file(stats_json_path);
    if (!report_file) return Fail("cannot write " + stats_json_path);
    report_file << WriteRunReportJson(result.stats, report_options, &snapshot);
    std::cerr << "run report -> " << stats_json_path << "\n";
  }

  Clustering clusters = result.clusters;
  uint64_t recovery_sims = 0;
  if (recover) {
    RecoveryResult recovered = RunRecoveryProcess(dataset, *rule, clusters);
    recovery_sims = recovered.similarities;
    clusters = std::move(recovered.clusters);
  }

  std::cerr << "filtering: " << result.stats.filtering_seconds << "s, "
            << result.stats.hashes_computed << " hashes, "
            << result.stats.pairwise_similarities << " similarities"
            << (recover ? ", recovery sims " + std::to_string(recovery_sims)
                        : "")
            << "\n";
  if (result.stats.termination_reason != TerminationReason::kCompleted) {
    std::cerr << "terminated early ("
              << TerminationReasonName(result.stats.termination_reason)
              << "): returned best-effort partial result\n";
  }

  // --- Gold metrics if the file carried ground truth. ---
  bool has_entity_column = false;
  for (const ColumnSpec& spec : *specs) {
    has_entity_column |= spec.kind == ColumnSpec::Kind::kEntity;
  }
  if (has_entity_column) {
    GroundTruth truth = dataset.BuildGroundTruth();
    SetAccuracy gold = GoldAccuracy(clusters, truth, k);
    std::cerr << "gold (top-" << k << "): P=" << gold.precision
              << " R=" << gold.recall << " F1=" << gold.f1 << "\n";
  }

  // --- Emit clusters. ---
  std::ofstream output_file;
  std::ostream* out = &std::cout;
  if (!output_path.empty()) {
    output_file.open(output_path);
    if (!output_file) return Fail("cannot write " + output_path);
    out = &output_file;
  }
  WriteCsvRow(out, {"cluster_rank", "record_index", "label"});
  for (size_t rank = 0; rank < clusters.clusters.size(); ++rank) {
    for (RecordId r : clusters.clusters[rank]) {
      WriteCsvRow(out, {std::to_string(rank + 1), std::to_string(r),
                        dataset.record(r).label()});
    }
  }
  return 0;
}
