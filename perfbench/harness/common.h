// Shared pieces of the benchmark harness: the in-memory span log, FilterStats
// totals, the hash-rate probe, process memory and SIMD readouts, and small
// output helpers.
#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/filter_output.h"
#include "core/function_sequence.h"
#include "obs/json_writer.h"
#include "record/dataset.h"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double NowSeconds();

/// A layer span: name, interval, parent span index (-1 = root) and the id of
/// the request it serves. A span whose work is timed by re-running the inner
/// layer's own call out of line (the WAL inside the durable engine) is still
/// parented to its caller: self time is always duration minus the children's
/// durations, so the out-of-line measurement is subtracted from the caller.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int64_t request = -1;
};

/// Spans kept in memory and written out when the run ends. Disabled logs
/// record nothing, so untraced code paths pay one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its index (or -1 when disabled).
  int Add(std::string name, double start, double end, int parent,
          int64_t request);

  /// Appends the spans as a JSON array of [name, start, end, parent,
  /// request] rows.
  void Write(adalsh::JsonWriter* json) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Sums over the per-round records a filtering pass returned.
struct RoundTotals {
  uint64_t hashes = 0;
  uint64_t similarities = 0;
  uint64_t rounds = 0;
  uint64_t refined_records = 0;  // sum of round cluster_size
  double wall_s = 0;
  double hash_s = 0;
  double pairwise_s = 0;

  void Add(const adalsh::FilterStats& stats);
};

/// User plus system CPU seconds of the whole process (all threads).
double ProcessCpuSeconds();

/// `lsh.hashes_per_s_*`: hashes per second of every plan of `sequence`
/// over every record of `dataset` on a fresh HashEngine, at 1, 2 and nproc
/// workers.
std::vector<double> HashRates(const adalsh::Dataset& dataset,
                              const adalsh::FunctionSequence& sequence,
                              uint64_t seed);

/// Peak resident set (VmHWM) of this process in MiB, or 0 when unreadable.
double PeakRssMb();

/// Writes the SIMD levels the startup probe chose, plus nproc, as keys of
/// the currently open JSON object.
void WriteEnvironment(adalsh::JsonWriter* json, int threads);

/// Writes `values` as a JSON array of doubles.
void WriteDoubles(adalsh::JsonWriter* json, const std::vector<double>& values);

/// Writes the whole document to `path`; false on I/O failure.
bool WriteFile(const std::string& path, const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
