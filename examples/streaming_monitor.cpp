// Online monitoring (the paper's Section 9 future-work direction, served by
// the resident engine): articles arrive over time; every batch is ingested
// and the engine's refinement pass re-certifies the current top-k stories.
// Arrivals only pay the cheapest hashing function; each pass reuses all
// verification work done before.
//
// The monitor also demonstrates the observability layer (obs/observer.h): a
// custom Observer narrates every refinement round as it happens, and a
// MetricsRegistry accumulates counters across the whole stream, printed as a
// final snapshot.
//
//   build/examples/streaming_monitor [--k=3] [--batches=6] [--narrate]

#include <iostream>
#include <vector>

#include "datagen/spotsigs_like.h"
#include "engine/resident_engine.h"
#include "obs/metrics_registry.h"
#include "obs/observer.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

using namespace adalsh;  // NOLINT: example brevity

// Narrates each refinement round to stderr: which cluster was picked and
// what treating it cost. Callbacks fire on the thread driving the mutation,
// so no locking is needed.
class RoundNarrator : public Observer {
 public:
  void OnRoundStart(const RoundStartInfo& info) override {
    std::cerr << "    round " << info.round << ": cluster of "
              << info.cluster_size << " records (level "
              << info.producer << ") -> ";
  }

  void OnRoundEnd(const RoundRecord& record) override {
    if (record.action == RoundAction::kPairwise) {
      std::cerr << "P, " << record.pairwise_similarities << " similarities";
    } else {
      std::cerr << "H_" << record.function_index + 1 << ", "
                << record.hashes_computed << " hashes";
    }
    std::cerr << " (" << record.wall_seconds << "s)\n";
  }
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  int k = static_cast<int>(flags.GetInt("k", 3));
  int batches = static_cast<int>(flags.GetInt("batches", 6));
  bool narrate = flags.GetBool("narrate", false);
  flags.CheckNoUnusedFlags();

  // The "future" corpus: we generate it up front but reveal records to the
  // monitor in random arrival order.
  SpotSigsLikeConfig data_config;
  data_config.records_in_stories = 900;
  data_config.num_singletons = 500;
  data_config.seed = 11;
  GeneratedDataset generated = GenerateSpotSigsLike(data_config);
  const Dataset& dataset = generated.dataset;
  std::vector<RecordId> arrival_order = dataset.AllRecordIds();
  Rng rng(99);
  rng.Shuffle(&arrival_order);

  MetricsRegistry metrics;
  RoundNarrator narrator;
  ResidentEngine::Options options;
  options.top_k = k;
  options.config.seed = 4;
  options.config.instrumentation.metrics = &metrics;
  if (narrate) options.config.instrumentation.observer = &narrator;
  ResidentEngine monitor(generated.rule, options);

  // The engine assigns external ids in arrival order; source_of maps them
  // back to the corpus for labels.
  std::vector<RecordId> source_of;
  size_t per_batch = arrival_order.size() / batches;
  for (int batch = 1; batch <= batches; ++batch) {
    size_t end = batch == batches ? arrival_order.size()
                                  : source_of.size() + per_batch;
    std::vector<Record> arrivals;
    while (source_of.size() < end) {
      source_of.push_back(arrival_order[source_of.size()]);
      arrivals.push_back(dataset.record(source_of.back()));
    }
    StatusOr<EngineMutationResult> ingested =
        monitor.Ingest(std::move(arrivals));
    if (!ingested.ok()) {
      std::cerr << ingested.status().ToString() << "\n";
      return 1;
    }

    const FilterStats& pass = ingested.value().stats;
    std::cout << "after " << source_of.size() << " arrivals, top-" << k
              << " stories:";
    for (const auto& cluster : monitor.Snapshot()->clusters) {
      std::cout << "  " << cluster.size() << " copies("
                << dataset.record(source_of[cluster[0]]).label() << ")";
    }
    std::cout << "\n  [refinement cost: " << pass.hashes_computed
              << " new hashes, " << pass.pairwise_similarities
              << " new similarities, " << pass.rounds << " rounds]\n";
  }

  // Whole-stream metrics, aggregated across every refinement pass.
  MetricsSnapshot snapshot = metrics.Snapshot();
  std::cout << "stream metrics:\n";
  for (const auto& [name, value] : snapshot.counters) {
    std::cout << "  " << name << " = " << value << "\n";
  }
  for (const auto& [name, stats] : snapshot.distributions) {
    std::cout << "  " << name << ": n=" << stats.count()
              << " mean=" << stats.mean() << " max=" << stats.max() << "\n";
  }
  return 0;
}
