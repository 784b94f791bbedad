// Micro-benchmarks for the raw LSH hashing substrate, written as a JSON
// baseline (BENCH_hashing.json) so perf regressions are diffable:
//
//   * minhash / hyperplane: per-hash throughput of MinHash (token sets of
//     varying size) and random hyperplanes (dense vectors of varying
//     dimension) — the cost_i units the Definition 3 cost model calibrates;
//   * engine: the full Cora-like hash hot path (engine + caches) across
//     worker-thread counts, the incremental work pattern of a sequence step,
//     with a metrics-registry snapshot proving the counter deltas match the
//     engine's own accounting;
//   * repass: TransitiveHasher::Apply of each function of the Cora-like
//     sequence over records whose hashes are already cached — the bucket
//     keys, bucket pass and forest replay a resident engine's re-refinement
//     pays — as (record, table) bucket entries per second, serial.
//
// Flags:
//   --out=PATH   where to write the JSON document (default
//                BENCH_hashing.json in the working directory)
//   --smoke      tiny workloads and time budgets; used by the hashing_smoke
//                ctest target to validate the schema, not to measure

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <vector>

#include "bench_util.h"
#include "clustering/parent_pointer_forest.h"
#include "core/function_sequence.h"
#include "core/hash_engine.h"
#include "core/transitive_hash_function.h"
#include "datagen/cora_like.h"
#include "lsh/composite_scheme.h"
#include "lsh/hash_family.h"
#include "lsh/minhash.h"
#include "lsh/random_hyperplane.h"
#include "obs/metrics_registry.h"
#include "obs/run_report.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/simd_kernels.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace adalsh {
namespace {

Record TokenRecordOfSize(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> tokens;
  tokens.reserve(size);
  for (size_t i = 0; i < size; ++i) tokens.push_back(rng.Next());
  std::vector<Field> fields;
  fields.push_back(Field::TokenSet(std::move(tokens)));
  return Record(std::move(fields));
}

Record DenseRecordOfDim(size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(dim);
  for (float& v : values) v = static_cast<float>(rng.NextGaussian());
  std::vector<Field> fields;
  fields.push_back(Field::DenseVector(std::move(values)));
  return Record(std::move(fields));
}

// Repeats kBatch-hash HashRange calls on `family` until `min_seconds` of
// wall clock accumulated; returns hashes per second. `max_offset` bounds the
// requested prefix so families with materialized parameters (hyperplanes)
// cycle over a warmed pool instead of growing without bound.
double MeasureHashesPerSecond(HashFamily* family, const Record& record,
                              double min_seconds, size_t max_offset) {
  constexpr size_t kBatch = 64;
  {
    // Warm up the full parameter pool so the timed loop measures hashing,
    // not lazy parameter generation.
    std::vector<uint64_t> warmup(max_offset);
    family->HashRange(record, 0, max_offset, warmup.data());
  }
  std::vector<uint64_t> out(kBatch);
  size_t offset = 0;
  uint64_t hashes = 0;
  Timer timer;
  do {
    family->HashRange(record, offset, offset + kBatch, out.data());
    hashes += kBatch;
    offset = (offset + kBatch) % (max_offset - kBatch);
  } while (timer.ElapsedSeconds() < min_seconds);
  return static_cast<double>(hashes) / timer.ElapsedSeconds();
}

// Folds a fixed hash prefix into one checksum. The SIMD levels are certified
// bit-identical (docs/simd.md), so every pinned level must produce the same
// checksum before its throughput is worth reporting.
uint64_t HashChecksum(HashFamily* family, const Record& record, size_t count) {
  std::vector<uint64_t> out(count);
  family->HashRange(record, 0, count, out.data());
  uint64_t sum = 0;
  for (uint64_t h : out) sum = SplitMix64(sum ^ h);
  return sum;
}

// Per-SIMD-level rates for one family/record workload, emitted as a "simd"
// array next to the auto-dispatch rate. Asserts level equivalence first.
void AppendPerLevelRates(HashFamily* family, const Record& record,
                         double min_seconds, bench::JsonWriter* json) {
  const uint64_t reference = HashChecksum(family, record, 256);
  json->Key("simd").BeginArray();
  for (SimdLevel level : SupportedSimdLevels()) {
    int previous = SetSimdPin(static_cast<int>(level));
    ADALSH_CHECK_EQ(HashChecksum(family, record, 256), reference)
        << "hash outputs diverged on level " << SimdLevelName(level);
    double rate = MeasureHashesPerSecond(family, record, min_seconds, 4096);
    SetSimdPin(previous);
    json->BeginObject()
        .Key("level")
        .String(SimdLevelName(level))
        .Key("hashes_per_second")
        .Double(rate)
        .EndObject();
  }
  json->EndArray();
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string out = flags.GetString("out", "BENCH_hashing.json");
  const bool smoke = flags.GetBool("smoke", false);
  flags.CheckNoUnusedFlags();

  const double family_seconds = smoke ? 0.01 : 0.3;
  const double engine_seconds = smoke ? 0.01 : 0.3;

  bench::JsonWriter json;
  json.BeginObject()
      .Key("benchmark")
      .String("micro_hashing")
      .Key("smoke")
      .Bool(smoke);

  // Record what auto dispatch resolved to on this machine, so a committed
  // baseline says which kernels its numbers were measured with.
  json.Key("simd_active")
      .BeginObject()
      .Key("dot")
      .String(SimdLevelName(simd::ActiveDotLevel()))
      .Key("minhash")
      .String(SimdLevelName(simd::ActiveMinHashLevel()))
      .EndObject();

  // --- MinHash throughput by token-set size. ---
  json.Key("minhash").BeginArray();
  for (size_t set_size : {size_t{16}, size_t{64}, size_t{128}, size_t{256}}) {
    Record record = TokenRecordOfSize(set_size, 1);
    MinHashFamily family(0, 42);
    double rate =
        MeasureHashesPerSecond(&family, record, family_seconds, 4096);
    json.BeginObject()
        .Key("set_size")
        .Uint(set_size)
        .Key("hashes_per_second")
        .Double(rate);
    AppendPerLevelRates(&family, record, family_seconds, &json);
    json.EndObject();
  }
  json.EndArray();

  // --- Random-hyperplane throughput by vector dimension. ---
  json.Key("hyperplane").BeginArray();
  for (size_t dim : {size_t{64}, size_t{512}}) {
    Record record = DenseRecordOfDim(dim, 2);
    RandomHyperplaneFamily family(0, dim, 42);
    double rate =
        MeasureHashesPerSecond(&family, record, family_seconds, 4096);
    json.BeginObject()
        .Key("dim")
        .Uint(dim)
        .Key("hashes_per_second")
        .Double(rate);
    AppendPerLevelRates(&family, record, family_seconds, &json);
    json.EndObject();
  }
  json.EndArray();

  // --- Engine: the Cora-like hash hot path across thread counts. Each
  // iteration extends every record's per-unit prefix by kStep hashes — the
  // exact incremental work pattern of a sequence step. A MetricsRegistry is
  // attached so the baseline captures the instrumented counter deltas; the
  // snapshot's hashes_computed must equal the engine's own accounting. ---
  CoraLikeConfig config;
  config.num_entities = smoke ? 12 : 120;
  config.num_records = smoke ? 100 : 1000;
  config.seed = bench::kDataSeed;
  GeneratedDataset generated = GenerateCoraLike(config);
  StatusOr<RuleHashStructure> structure =
      CompileRuleForHashing(generated.rule);
  ADALSH_CHECK(structure.ok()) << structure.status().ToString();
  const std::vector<RecordId> ids = generated.dataset.AllRecordIds();

  constexpr size_t kStep = 16;
  const size_t max_prefix = smoke ? 64 : 2048;

  MetricsRegistry registry;
  Instrumentation instr;
  instr.metrics = &registry;

  json.Key("engine").BeginArray();
  uint64_t expected_hashes = 0;
  for (int threads : {1, 2, 4, 8}) {
    ScopedThreadPool pool(threads);
    auto engine = std::make_unique<HashEngine>(generated.dataset, *structure,
                                               /*seed=*/42);
    engine->set_instrumentation(instr);
    SchemePlan plan;
    plan.hashes_per_unit.assign(structure->units.size(), 0);
    size_t target = 0;
    uint64_t iterations = 0;
    Timer timer;
    do {
      if (target + kStep > max_prefix) {
        // Recycle the engine so memory stays bounded; the rebuild is cheap
        // relative to an iteration and counted against the run like the real
        // pipeline's setup would be.
        expected_hashes += engine->total_hashes_computed();
        engine = std::make_unique<HashEngine>(generated.dataset, *structure,
                                              /*seed=*/42);
        engine->set_instrumentation(instr);
        target = 0;
      }
      target += kStep;
      for (size_t& prefix : plan.hashes_per_unit) prefix = target;
      engine->EnsureHashesParallel(
          std::span<const RecordId>(ids.data(), ids.size()), plan,
          pool.get());
      ++iterations;
    } while (timer.ElapsedSeconds() < engine_seconds);
    double seconds = timer.ElapsedSeconds();
    expected_hashes += engine->total_hashes_computed();
    json.BeginObject()
        .Key("threads")
        .Int(threads)
        .Key("iterations")
        .Uint(iterations)
        .Key("records_per_second")
        .Double(static_cast<double>(iterations * ids.size()) / seconds)
        .EndObject();
  }
  json.EndArray();

  // --- Repass: every function of the sequence over the whole dataset as one
  // cluster, with every hash it needs cached first, so only the layer after
  // hashing is timed. Forest nodes are never freed, so each batch of passes
  // gets a fresh forest (built outside the timer). ---
  SequenceConfig sequence_config;
  sequence_config.max_budget = smoke ? 160 : 5120;
  StatusOr<FunctionSequence> sequence = FunctionSequence::Build(
      generated.rule, generated.dataset.record(0), sequence_config);
  ADALSH_CHECK(sequence.ok()) << sequence.status().ToString();
  HashEngine repass_engine(generated.dataset, sequence->structure(),
                           /*seed=*/42);
  repass_engine.EnsureHashesParallel(
      std::span<const RecordId>(ids.data(), ids.size()),
      sequence->plan(sequence->size() - 1), nullptr);
  const uint64_t cached_hashes = repass_engine.total_hashes_computed();
  constexpr int kPassesPerForest = 16;
  json.Key("repass").BeginArray();
  for (size_t i = 0; i < sequence->size(); ++i) {
    const SchemePlan& plan = sequence->plan(i);
    uint64_t passes = 0;
    double seconds = 0.0;
    do {
      ParentPointerForest forest;
      TransitiveHasher hasher(&repass_engine, &forest, ids.size());
      Timer timer;
      for (int p = 0; p < kPassesPerForest; ++p) {
        hasher.Apply(ids, plan, static_cast<int>(i));
      }
      seconds += timer.ElapsedSeconds();
      passes += kPassesPerForest;
    } while (seconds < engine_seconds);
    ADALSH_CHECK_EQ(repass_engine.total_hashes_computed(), cached_hashes)
        << "a repass computed hashes";
    const uint64_t entries = passes * ids.size() * plan.tables.size();
    json.BeginObject()
        .Key("function_index")
        .Uint(i)
        .Key("tables")
        .Uint(plan.tables.size())
        .Key("records")
        .Uint(ids.size())
        .Key("passes")
        .Uint(passes)
        .Key("table_entries_per_second")
        .Double(static_cast<double>(entries) / seconds)
        .EndObject();
  }
  json.EndArray();

  // --- Registry snapshot: the instrumented view of the engine sweep. ---
  MetricsSnapshot snapshot = registry.Snapshot();
  ADALSH_CHECK_EQ(snapshot.counters["hashes_computed"], expected_hashes)
      << "registry counters diverged from the engine's accounting";
  json.Key("metrics");
  AppendMetricsSnapshot(snapshot, &json);

  json.EndObject();
  std::string doc = json.TakeString();
  std::ofstream file(out);
  ADALSH_CHECK(file.good()) << "cannot open " << out;
  file << doc;
  ADALSH_CHECK(file.good()) << "failed writing " << out;
  std::cout << doc;
  std::cout << "wrote " << out << "\n";
  return 0;
}

}  // namespace
}  // namespace adalsh

int main(int argc, char** argv) { return adalsh::Main(argc, argv); }
