// Viral-image detection (the paper's second motivating application):
// images are copied with transformations (crop / scale / re-center) and
// re-shared; the k most-shared originals are found by filtering RGB-histogram
// features under a small cosine-angle threshold. Demonstrates the incremental
// mode of Section 4.2: the biggest viral image is reported first, before
// filtering completes.
//
//   build/examples/viral_images [--k=3] [--records=3000] [--zipf=1.1]

#include <iostream>

#include "core/adaptive_lsh.h"
#include "datagen/popular_images.h"
#include "eval/metrics.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace adalsh;  // NOLINT: example brevity
  Flags flags(argc, argv);
  int k = flags.GetInt32("k", 3);
  size_t records = flags.GetSize("records", 3000);
  double zipf = flags.GetDouble("zipf", 1.1);
  flags.CheckNoUnusedFlags();

  PopularImagesConfig data_config;
  data_config.num_records = records;
  data_config.num_entities = std::max<size_t>(50, records / 20);
  data_config.zipf_exponent = zipf;
  data_config.angle_threshold_degrees = 3.0;
  data_config.seed = 99;
  std::cout << "Generating " << records << " shared images ("
            << data_config.num_entities << " originals, zipf " << zipf
            << ")...\n";
  GeneratedDataset generated = GeneratePopularImages(data_config);
  const Dataset& dataset = generated.dataset;

  AdaptiveLshConfig config;
  config.seed = 5;
  AdaptiveLsh adalsh(dataset, generated.rule, config);

  // Incremental mode: act on each viral image the moment it is identified.
  std::cout << "\nStreaming results as they finalize:\n";
  FilterOutput output = adalsh.Run(
      k, [&](size_t rank, const std::vector<RecordId>& cluster) {
        std::cout << "  [live] rank " << (rank + 1) << ": " << cluster.size()
                  << " shares of " << dataset.record(cluster[0]).label()
                  << "\n";
      });

  GroundTruth truth = dataset.BuildGroundTruth();
  RankedAccuracy ranked = ComputeRankedAccuracy(output.clusters, truth, k);
  std::cout << "\nFinal: " << output.clusters.clusters.size()
            << " clusters in " << output.stats.filtering_seconds << "s, "
            << output.stats.rounds << " rounds\n";
  std::cout << "mAP=" << ranked.map << " mAR=" << ranked.mar << "\n";
  return 0;
}
