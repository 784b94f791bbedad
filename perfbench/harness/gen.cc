// Input generation, run once per seed outside every measured process:
//   gen-images  PopularImages-like CSV for the batch workload.
//   gen-serve   Cora-like protocol files for the serve workload: the
//               preload session that writes the data dir, and the measured
//               command script.
#include "subcommands.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "datagen/cora_like.h"
#include "datagen/popular_images.h"
#include "util/flags.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using adalsh::Dataset;
using adalsh::Flags;
using adalsh::Record;
using adalsh::Rng;

std::string FormatFloat(float v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", static_cast<double>(v));
  return buffer;
}

/// One Cora-like record as a CSV row of three text columns. Every hashed
/// token becomes one unique word, so 1-word shingles of the row rebuild
/// sets with exactly the generated overlaps.
std::string CoraRow(const Record& record) {
  std::string row;
  for (size_t f = 0; f < record.num_fields(); ++f) {
    if (f > 0) row += ',';
    bool first = true;
    for (uint64_t token : record.field(static_cast<adalsh::FieldId>(f)).tokens()) {
      char word[24];
      std::snprintf(word, sizeof(word), "t%016" PRIx64, token);
      if (!first) row += ' ';
      row += word;
      first = false;
    }
  }
  return row;
}

/// Emits mutations over a tracked live-id set, mirroring the engine's id
/// assignment: an ingest of n records takes the next n ids, an update keeps
/// its id, a remove retires one.
class ScriptWriter {
 public:
  ScriptWriter(std::vector<std::string> pool, uint64_t seed)
      : pool_(std::move(pool)), rng_(seed) {}

  void Ingest(size_t n, std::ostream* out) {
    for (size_t i = 0; i < n; ++i) {
      *out << "add " << NextRow() << "\n";
      live_.push_back(next_id_++);
    }
    *out << "commit\n";
  }
  void Update(std::ostream* out) {
    *out << "update " << live_[rng_.NextBelow(live_.size())] << " "
         << NextRow() << "\n";
  }
  void Remove(std::ostream* out) {
    const size_t at = rng_.NextBelow(live_.size());
    *out << "remove " << live_[at] << "\n";
    live_[at] = live_.back();
    live_.pop_back();
  }

  Rng& rng() { return rng_; }

 private:
  const std::string& NextRow() {
    if (next_row_ >= pool_.size()) {
      std::cerr << "perfbench_harness: record pool exhausted\n";
      std::exit(2);
    }
    return pool_[next_row_++];
  }

  std::vector<std::string> pool_;
  size_t next_row_ = 0;
  std::vector<uint64_t> live_;
  uint64_t next_id_ = 0;
  Rng rng_;
};

/// A stratified mutation plan: exactly the mix's share of each operation
/// (largest remainder), ingest sizes evenly spread over [lo, hi], both in a
/// seeded order. Seeds then change which records and ids a script touches
/// but not how much work of each kind it holds, so runs on different seeds
/// measure comparable work. Entries are ingest sizes, -1 for an update and
/// -2 for a remove.
std::vector<int64_t> PlanMutations(int64_t count,
                                   const std::vector<int64_t>& mix,
                                   int64_t lo, int64_t hi, Rng* rng) {
  const int64_t total = mix[0] + mix[1] + mix[2];
  std::vector<int64_t> per_kind(3);
  std::vector<std::pair<int64_t, int>> remainders;
  int64_t assigned = 0;
  for (int kind = 0; kind < 3; ++kind) {
    per_kind[kind] = count * mix[kind] / total;
    assigned += per_kind[kind];
    remainders.push_back({count * mix[kind] % total, -kind});
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (size_t i = 0; assigned < count; ++i, ++assigned) {
    ++per_kind[-remainders[i % 3].second];
  }
  std::vector<int64_t> plan;
  const int64_t ingests = per_kind[0];
  for (int64_t i = 0; i < ingests; ++i) {
    plan.push_back(ingests == 1 ? lo
                                : lo + ((hi - lo) * i + (ingests - 1) / 2) /
                                           (ingests - 1));
  }
  plan.insert(plan.end(), per_kind[1], -1);
  plan.insert(plan.end(), per_kind[2], -2);
  std::shuffle(plan.begin(), plan.end(), *rng);
  return plan;
}

void WriteMutation(int64_t planned, ScriptWriter* writer, std::ostream* out) {
  if (planned > 0) {
    writer->Ingest(static_cast<size_t>(planned), out);
  } else if (planned == -1) {
    writer->Update(out);
  } else {
    writer->Remove(out);
  }
}

}  // namespace

int GenImages(int argc, char** argv) {
  Flags flags(argc, argv);
  adalsh::PopularImagesConfig config;
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  config.num_records = static_cast<size_t>(flags.GetInt("records", 10000));
  config.num_entities = static_cast<size_t>(flags.GetInt("entities", 500));
  config.zipf_exponent = flags.GetDouble("zipf", 1.2);
  config.angle_threshold_degrees = flags.GetDouble("degrees", 3.0);
  const std::string out_path = flags.GetString("out", "");
  flags.CheckNoUnusedFlags();

  const adalsh::GeneratedDataset generated =
      adalsh::GeneratePopularImages(config);
  const Dataset& dataset = generated.dataset;
  std::ofstream out(out_path);
  for (adalsh::RecordId r = 0; r < dataset.num_records(); ++r) {
    out << "e" << dataset.entity_assignment()[r] << ",";
    const std::vector<float>& values = dataset.record(r).field(0).dense();
    for (size_t i = 0; i < values.size(); ++i) {
      out << (i > 0 ? ";" : "") << FormatFloat(values[i]);
    }
    out << "\n";
  }
  out.close();
  if (!out) {
    std::cerr << "perfbench_harness: cannot write " << out_path << "\n";
    return 2;
  }
  return 0;
}

int GenServe(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const size_t preload = static_cast<size_t>(flags.GetInt("preload", 4000));
  const size_t pool = static_cast<size_t>(flags.GetInt("pool", 26000));
  const size_t entities = static_cast<size_t>(flags.GetInt("entities", 3000));
  const int64_t tail = flags.GetInt("tail", 2);
  const int64_t mutations = flags.GetInt("mutations", 80);
  const int64_t flush_every = flags.GetInt("flush-every", 32);
  const std::vector<int64_t> mix = flags.GetIntList("mix", {8, 1, 1});
  const int64_t ingest_min = flags.GetInt("ingest-min", 256);
  const int64_t ingest_max = flags.GetInt("ingest-max", 512);
  const std::string out_dir = flags.GetString("out", "");
  flags.CheckNoUnusedFlags();
  if (mix.size() != 3 || mix[0] < 0 || mix[1] < 0 || mix[2] < 0 ||
      mix[0] + mix[1] + mix[2] < 1 || ingest_min < 1 ||
      ingest_max < ingest_min || flush_every < 1 || out_dir.empty()) {
    std::cerr << "perfbench_harness: bad gen-serve flags\n";
    return 2;
  }

  adalsh::CoraLikeConfig config;
  config.seed = seed;
  config.num_records = preload + pool;
  config.num_entities = entities;
  const adalsh::GeneratedDataset generated = adalsh::GenerateCoraLike(config);
  // The generator emits records grouped by entity; a service sees them in
  // arrival order, so shuffle once with the seed.
  std::vector<std::string> rows;
  rows.reserve(generated.dataset.num_records());
  for (adalsh::RecordId r = 0; r < generated.dataset.num_records(); ++r) {
    rows.push_back(CoraRow(generated.dataset.record(r)));
  }
  Rng shuffle_rng(adalsh::DeriveSeed(seed, 0x5e7e));
  std::shuffle(rows.begin(), rows.end(), shuffle_rng);

  ScriptWriter writer(std::move(rows), adalsh::DeriveSeed(seed, 0x5c1));
  std::ofstream prep(out_dir + "/preload.txt");
  writer.Ingest(preload, &prep);
  prep << "checkpoint\n";
  for (int64_t planned : PlanMutations(tail, mix, ingest_min, ingest_max,
                                       &writer.rng())) {
    WriteMutation(planned, &writer, &prep);
  }
  prep << "quit\n";

  // Every flush is followed by a `topk` and one `cluster @R` (the first
  // member of rank R in the client's latest topk reply), so queries always
  // resolve against the published snapshot. A flush follows every
  // `flush_every` ingests; updates and removes ride along between them.
  std::ofstream script(out_dir + "/script.txt");
  int64_t flushes = 0;
  auto flush = [&] {
    script << "flush\ntopk\ncluster @" << flushes % 3 + 1 << "\n";
    ++flushes;
  };
  flush();  // the first flush ends set-up
  int64_t since_flush = 0;
  bool dirty = false;
  for (int64_t planned :
       PlanMutations(mutations, mix, ingest_min, ingest_max, &writer.rng())) {
    WriteMutation(planned, &writer, &script);
    dirty = true;
    if (planned > 0 && ++since_flush == flush_every) {
      flush();
      since_flush = 0;
      dirty = false;
    }
  }
  if (dirty) flush();
  prep.close();
  script.close();
  if (!prep || !script) {
    std::cerr << "perfbench_harness: cannot write " << out_dir << "\n";
    return 2;
  }
  return 0;
}

}  // namespace perfbench
