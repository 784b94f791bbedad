#include "common.h"

#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <thread>

#include "core/hash_engine.h"
#include "util/simd.h"
#include "util/simd_kernels.h"
#include "util/thread_pool.h"

namespace perfbench {

double NowSeconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

int SpanLog::Add(std::string name, double start, double end, int parent,
                 int64_t request) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::move(name), start, end, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::Write(adalsh::JsonWriter* json) const {
  json->BeginArray();
  for (const Span& span : spans_) {
    json->BeginArray()
        .String(span.name)
        .Double(span.start)
        .Double(span.end)
        .Int(span.parent)
        .Int(span.request)
        .EndArray();
  }
  json->EndArray();
}

void RoundTotals::Add(const adalsh::FilterStats& stats) {
  rounds += stats.round_records.size();
  for (const adalsh::RoundRecord& round : stats.round_records) {
    hashes += round.hashes_computed;
    similarities += round.pairwise_similarities;
    refined_records += round.cluster_size;
    wall_s += round.wall_seconds;
    hash_s += round.hash_seconds;
    pairwise_s += round.pairwise_seconds;
  }
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

std::vector<double> HashRates(const adalsh::Dataset& dataset,
                              const adalsh::FunctionSequence& sequence,
                              uint64_t seed) {
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const std::vector<adalsh::RecordId> ids = dataset.AllRecordIds();
  std::vector<double> rates;
  for (int threads : {1, 2, nproc > 2 ? nproc : 2}) {
    adalsh::HashEngine engine(dataset, sequence.structure(), seed);
    adalsh::ScopedThreadPool pool(threads);
    const double start = NowSeconds();
    for (size_t i = 0; i < sequence.size(); ++i) {
      engine.EnsureHashesParallel(ids, sequence.plan(i), pool.get());
    }
    rates.push_back(static_cast<double>(engine.total_hashes_computed()) /
                    (NowSeconds() - start));
  }
  return rates;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    std::getline(status, key);
  }
  return 0;
}

void WriteEnvironment(adalsh::JsonWriter* json, int threads) {
  json->Key("nproc")
      .Int(static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Key("threads")
      .Int(threads)
      .Key("simd_dot")
      .String(adalsh::SimdLevelName(adalsh::simd::ActiveDotLevel()))
      .Key("simd_minhash")
      .String(adalsh::SimdLevelName(adalsh::simd::ActiveMinHashLevel()));
}

void WriteDoubles(adalsh::JsonWriter* json, const std::vector<double>& values) {
  json->BeginArray();
  for (double v : values) json->Double(v);
  json->EndArray();
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();
  return static_cast<bool>(out);
}

}  // namespace perfbench
