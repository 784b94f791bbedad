// `batch`: the batch_images10k workload in one process. Loads the CSV and
// builds AdaptiveLsh several times (set-up samples), pins the cost model,
// then repeats Run(k) back to back for the requested seconds. Outputs are
// checked after the timed loop: every Run must return the same top-k, and
// that top-k must match a one-batch ResidentEngine ingest of the same
// records (same sizes, same record union). The top-k's digest lets
// perfbench/run.py compare it across processes.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "core/adaptive_lsh.h"
#include "core/cost_model.h"
#include "distance/cosine.h"
#include "engine/resident_engine.h"
#include "subcommands.h"
#include "io/dataset_loader.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace adalsh;  // NOLINT: harness brevity

std::vector<size_t> SizesOf(const std::vector<std::vector<RecordId>>& clusters) {
  std::vector<size_t> sizes;
  for (const auto& c : clusters) sizes.push_back(c.size());
  std::sort(sizes.rbegin(), sizes.rend());
  return sizes;
}

/// Hex SplitMix64 chain over the first `k` clusters in rank order, each
/// cluster's members sorted: equal digests mean the same top-k.
std::string TopKDigest(const std::vector<std::vector<RecordId>>& clusters,
                       int k) {
  uint64_t h = 0;
  const size_t count =
      std::min<size_t>(static_cast<size_t>(k), clusters.size());
  for (size_t i = 0; i < count; ++i) {
    std::vector<RecordId> members = clusters[i];
    std::sort(members.begin(), members.end());
    h = SplitMix64(h ^ members.size());
    for (RecordId r : members) h = SplitMix64(h ^ r);
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

}  // namespace

int RunBatch(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string csv = flags.GetString("csv", "");
  const double seconds = flags.GetDouble("seconds", 10);
  const int threads = static_cast<int>(flags.GetInt("threads", 4));
  const std::vector<double> model = flags.GetDoubleList("cost-model", {});
  const int k = static_cast<int>(flags.GetInt("k", 10));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const int setups = static_cast<int>(flags.GetInt("setups", 3));
  const int min_runs = static_cast<int>(flags.GetInt("min-runs", 3));
  const double degrees = flags.GetDouble("degrees", 3.0);
  const bool trace = flags.GetBool("trace", false);
  const bool check = flags.GetBool("check", true);
  const std::string out_path = flags.GetString("out", "");
  flags.CheckNoUnusedFlags();
  if (csv.empty() || out_path.empty() || model.size() != 2 || setups < 1) {
    std::cerr << "perfbench_harness: batch needs --csv, --out and "
                 "--cost-model=hash,pair\n";
    return 2;
  }

  const MatchRule rule = MatchRule::Leaf(0, DegreesToNormalizedAngle(degrees));
  const std::vector<ColumnSpec> specs =
      ParseColumnSpecs("entity,vector").value();
  AdaptiveLshConfig config;
  config.threads = threads;
  config.seed = seed;
  SpanLog spans(trace);

  // --- Set-up, repeated: LoadCsvDataset + AdaptiveLsh construction
  // (sequence build and wall-clock calibration). Request ids of set-up
  // spans are negative so they never collide with Run requests.
  std::optional<Dataset> dataset;
  std::unique_ptr<AdaptiveLsh> adalsh;
  std::vector<double> setup_s, setup_cpu_s, load_s, calibrate_s;
  for (int i = 0; i < setups; ++i) {
    adalsh.reset();
    dataset.reset();
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = NowSeconds();
    std::ifstream in(csv);
    StatusOr<Dataset> loaded = LoadCsvDataset(&in, specs, false, "images");
    const double t1 = NowSeconds();
    if (!loaded.ok()) {
      std::cerr << "perfbench_harness: " << loaded.status().ToString() << "\n";
      return 2;
    }
    dataset.emplace(std::move(loaded).value());
    adalsh = std::make_unique<AdaptiveLsh>(*dataset, rule, config);
    const double t2 = NowSeconds();
    setup_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    setup_s.push_back(t2 - t0);
    load_s.push_back(t1 - t0);
    const int64_t request = -1 - i;
    const int root = spans.Add("setup", t0, t2, -1, request);
    spans.Add("io.load", t0, t1, root, request);
    const int construct = spans.Add("core.sequence_build", t1, t2, root, request);
    if (trace) {
      // Calibration runs only inside the constructor; time the same call on
      // the same inputs out of line and subtract it from the caller.
      ScopedThreadPool pool(threads);
      const double c0 = NowSeconds();
      CostModel::Calibrate(*dataset, rule, config.calibration_samples, seed,
                           pool.get());
      const double c1 = NowSeconds();
      calibrate_s.push_back(c1 - c0);
      spans.Add("core.calibrate", c0, c1, construct, request);
    }
  }
  adalsh->set_cost_model(CostModel(model[0], model[1]));

  // --- Timed loop. The first Run is a warm-up (paging, pool spin-up) and
  // the reference every later Run is compared against.
  const FilterOutput reference = adalsh->Run(k);
  RoundTotals ref_totals;
  ref_totals.Add(reference.stats);
  bool counts_same = true;
  bool topk_same = true;
  std::vector<double> run_s, cpu_s, traced_s, untraced_s;
  const double deadline = NowSeconds() + seconds;
  for (int64_t run = 0; run < min_runs || NowSeconds() < deadline; ++run) {
    const double c0 = ProcessCpuSeconds();
    const double t0 = NowSeconds();
    const FilterOutput out = adalsh->Run(k);
    const double t1 = NowSeconds();
    cpu_s.push_back(ProcessCpuSeconds() - c0);
    RoundTotals totals;
    totals.Add(out.stats);
    counts_same &= totals.hashes == ref_totals.hashes &&
                   totals.similarities == ref_totals.similarities &&
                   totals.rounds == ref_totals.rounds;
    topk_same &= out.clusters.clusters == reference.clusters.clusters;
    run_s.push_back(t1 - t0);
    if (trace) {
      // Alternate untraced and traced Runs so obs.trace_overhead_ratio
      // compares the two under the same conditions. Per-round durations
      // are laid out back to back from the Run's start.
      if (run % 2 == 0) {
        untraced_s.push_back(t1 - t0);
        continue;
      }
      const int root = spans.Add("request", t0, t1, -1, run);
      double at = t0;
      const double select_merge = totals.wall_s - totals.hash_s - totals.pairwise_s;
      for (const auto& [name, length] :
           {std::pair<const char*, double>{"core.hash", totals.hash_s},
            {"core.pairwise", totals.pairwise_s},
            {"clustering.select_merge", select_merge}}) {
        spans.Add(name, at, at + length, root, run);
        at += length;
      }
      traced_s.push_back(NowSeconds() - t0);
    }
  }
  const double peak_rss_mb = PeakRssMb();

  // --- Output check against the resident engine (outside the timing).
  // Probe processes (set-up and memory samples) skip it with --check=0.
  const std::vector<RecordId> run_union =
      reference.clusters.UnionOfTopClusters(static_cast<size_t>(k));
  const std::set<RecordId> run_set(run_union.begin(), run_union.end());
  bool resident_match = false;
  if (check) {
    ResidentEngine::Options engine_options;
    engine_options.config.threads = threads;
    engine_options.config.seed = seed;
    engine_options.top_k = k;
    engine_options.cost_model = CostModel(model[0], model[1]);
    ResidentEngine engine(rule, engine_options);
    std::vector<Record> records;
    for (RecordId r = 0; r < dataset->num_records(); ++r) {
      records.push_back(dataset->record(r));
    }
    if (engine.Ingest(std::move(records)).ok()) {
      std::vector<std::vector<RecordId>> resident;
      std::set<RecordId> resident_set;
      for (const auto& cluster : engine.Snapshot()->clusters) {
        resident.emplace_back(cluster.begin(), cluster.end());
        resident_set.insert(cluster.begin(), cluster.end());
      }
      const auto& run_clusters = reference.clusters.clusters;
      resident_match =
          SizesOf(resident) ==
              SizesOf({run_clusters.begin(),
                       run_clusters.begin() +
                           std::min<size_t>(k, run_clusters.size())}) &&
          resident_set == run_set;
    }
  }

  const std::vector<double> hash_rates =
      trace ? HashRates(*dataset, adalsh->sequence(), seed)
            : std::vector<double>();

  JsonWriter json;
  json.BeginObject();
  WriteEnvironment(&json, threads);
  json.Key("records").Uint(dataset->num_records());
  json.Key("setup_s");
  WriteDoubles(&json, setup_s);
  json.Key("setup_cpu_s");
  WriteDoubles(&json, setup_cpu_s);
  json.Key("load_s");
  WriteDoubles(&json, load_s);
  json.Key("calibrate_s");
  WriteDoubles(&json, calibrate_s);
  json.Key("run_s");
  WriteDoubles(&json, run_s);
  json.Key("cpu_s");
  WriteDoubles(&json, cpu_s);
  json.Key("traced_s");
  WriteDoubles(&json, traced_s);
  json.Key("untraced_s");
  WriteDoubles(&json, untraced_s);
  json.Key("peak_rss_mb").Double(peak_rss_mb);
  json.Key("counts")
      .BeginObject()
      .Key("hashes")
      .Uint(ref_totals.hashes)
      .Key("similarities")
      .Uint(ref_totals.similarities)
      .Key("rounds")
      .Uint(ref_totals.rounds)
      .EndObject();
  json.Key("per_run")
      .BeginObject()
      .Key("hash_s")
      .Double(ref_totals.hash_s)
      .Key("pairwise_s")
      .Double(ref_totals.pairwise_s)
      .Key("rounds_wall_s")
      .Double(ref_totals.wall_s)
      .EndObject();
  json.Key("topk_records").Uint(run_set.size());
  json.Key("topk_digest").String(TopKDigest(reference.clusters.clusters, k));
  json.Key("topk_sizes").BeginArray();
  for (size_t s : SizesOf(reference.clusters.clusters)) json.Uint(s);
  json.EndArray();
  json.Key("checks")
      .BeginObject()
      .Key("counts_repeat")
      .Bool(counts_same)
      .Key("topk_repeat")
      .Bool(topk_same)
      .Key("matches_resident_engine")
      .Bool(resident_match)
      .EndObject();
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
