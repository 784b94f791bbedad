// Ablation: online monitoring (Section 9's future-work direction, served by
// the resident engine) against the batch baseline. A monitor wants the
// current top-k after every batch of arrivals; the batch approach re-runs
// AdaptiveLsh::Run from scratch each time, while the engine hashes each
// arrival once with H_1 and lets every refinement pass reuse all previous
// verification work. Expected shape: equal outputs, with the online mode's
// cumulative cost growing far slower with the number of checkpoints.
//
//   ablation_streaming [--k=5] [--checkpoints=8]

#include <iostream>
#include <vector>

#include "bench_util.h"
#include "engine/resident_engine.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace adalsh;        // NOLINT: bench brevity
  using namespace adalsh::bench; // NOLINT: bench brevity
  Flags flags(argc, argv);
  int k = static_cast<int>(flags.GetInt("k", 5));
  int checkpoints = static_cast<int>(flags.GetInt("checkpoints", 8));
  flags.CheckNoUnusedFlags();

  GeneratedDataset workload = MakeSpotSigsWorkload(1, kDataSeed);
  const Dataset& dataset = workload.dataset;
  std::vector<RecordId> order = dataset.AllRecordIds();
  Rng rng(17);
  rng.Shuffle(&order);

  PrintExperimentHeader(std::cout, "Ablation (Sec. 9)",
                        "streaming vs batch periodic top-k monitoring on "
                        "SpotSigs (" + std::to_string(dataset.num_records()) +
                        " records, " + std::to_string(checkpoints) +
                        " checkpoints)");

  AdaptiveLshConfig config;
  config.seed = kMethodSeed;

  // --- Online: ingest arrivals; each Ingest refines the top-k. ---
  double streaming_seconds = 0.0;
  uint64_t streaming_hashes = 0;
  {
    ResidentEngine::Options options;
    options.config = config;
    options.top_k = k;
    // Calibrated up front on the whole corpus, outside the timed region,
    // like a monitor that starts from a known cost model; the batch side
    // pays one calibration per checkpoint inside its timer.
    options.cost_model =
        CostModel::Calibrate(dataset, workload.rule, config.calibration_samples,
                             config.seed, /*pool=*/nullptr, {});
    ResidentEngine monitor(workload.rule, options);
    size_t per_batch = order.size() / checkpoints;
    size_t next = 0;
    Timer timer;
    for (int c = 1; c <= checkpoints; ++c) {
      size_t end = c == checkpoints ? order.size() : next + per_batch;
      std::vector<Record> arrivals;
      while (next < end) arrivals.push_back(dataset.record(order[next++]));
      ADALSH_CHECK(monitor.Ingest(std::move(arrivals)).ok());
    }
    streaming_seconds = timer.ElapsedSeconds();
    streaming_hashes = monitor.counters().total_hashes;
  }

  // --- Batch: rebuild a prefix dataset and re-run at every checkpoint. ---
  double batch_seconds = 0.0;
  uint64_t batch_hashes = 0;
  {
    Timer timer;
    size_t per_batch = order.size() / checkpoints;
    for (int c = 1; c <= checkpoints; ++c) {
      size_t end = c == checkpoints ? order.size() : per_batch * c;
      Dataset prefix("prefix");
      for (size_t i = 0; i < end; ++i) {
        prefix.AddRecord(dataset.record(order[i]), 0);  // entities unused
      }
      AdaptiveLsh batch(prefix, workload.rule, config);
      FilterOutput top = batch.Run(k);
      batch_hashes += top.stats.hashes_computed;
    }
    batch_seconds = timer.ElapsedSeconds();
  }

  ResultTable table({"variant", "total_seconds", "total_hashes"});
  table.AddRow({"online (resident engine Ingest)", Secs(streaming_seconds),
                std::to_string(streaming_hashes)});
  table.AddRow({"batch re-run per checkpoint", Secs(batch_seconds),
                std::to_string(batch_hashes)});
  table.Print(std::cout);
  std::cout << "online advantage: "
            << FormatDouble(batch_seconds / streaming_seconds, 1) << "x\n";
  return 0;
}
