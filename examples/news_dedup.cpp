// News-story deduplication (the paper's SpotSigs scenario, Section 1):
// thousands of web articles, many of them near-copies of a few popular
// stories. The example finds the k most-republished stories without
// resolving the whole corpus, then shows the accuracy and modeled speedup.
//
//   build/examples/news_dedup [--k=5] [--articles=2200] [--scale=1]

#include <iostream>

#include "core/adaptive_lsh.h"
#include "core/pairs_baseline.h"
#include "datagen/spotsigs_like.h"
#include "eval/metrics.h"
#include "eval/speedup.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace adalsh;  // NOLINT: example brevity
  Flags flags(argc, argv);
  int k = flags.GetInt32("k", 5);
  size_t articles = flags.GetSize("articles", 2200);
  flags.CheckNoUnusedFlags();

  // Generate a synthetic web-article corpus: stories with near-duplicate
  // copies (spot-signature features) plus unrelated singleton articles.
  SpotSigsLikeConfig data_config;
  data_config.records_in_stories = articles * 2 / 3;
  data_config.num_singletons = articles - data_config.records_in_stories;
  data_config.seed = 2024;
  GeneratedDataset generated = GenerateSpotSigsLike(data_config);
  const Dataset& dataset = generated.dataset;
  GroundTruth truth = dataset.BuildGroundTruth();
  std::cout << "Corpus: " << dataset.num_records() << " articles, "
            << truth.num_entities() << " distinct stories\n";

  // Filter with Adaptive LSH.
  AdaptiveLshConfig config;
  config.seed = 1;
  AdaptiveLsh adalsh(dataset, generated.rule, config);
  FilterOutput output = adalsh.Run(k);

  std::cout << "\nTop-" << k << " stories by republication count:\n";
  for (size_t rank = 0; rank < output.clusters.clusters.size(); ++rank) {
    const auto& cluster = output.clusters.clusters[rank];
    std::cout << "  #" << (rank + 1) << ": " << cluster.size()
              << " copies (e.g. record '" << dataset.record(cluster[0]).label()
              << "')\n";
  }

  // How good was the filtering, and what did it buy?
  SetAccuracy gold = GoldAccuracy(output.clusters, truth, k);
  SpeedupModel speedup = SpeedupModel::Measure(dataset, generated.rule, 100, 3);
  size_t kept = output.clusters.TotalRecords();
  std::cout << "\nFiltering accuracy vs ground truth: P="
            << gold.precision << " R=" << gold.recall << " F1=" << gold.f1
            << "\n";
  std::cout << "Kept " << kept << "/" << dataset.num_records() << " records ("
            << DatasetReductionPercent(kept, dataset.num_records())
            << "% of the corpus)\n";
  std::cout << "Modeled end-to-end ER speedup (no recovery): "
            << speedup.SpeedupWithoutRecovery(output.stats.filtering_seconds,
                                              dataset.num_records(), kept)
            << "x\n";
  return 0;
}
