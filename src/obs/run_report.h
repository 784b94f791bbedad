#ifndef ADALSH_OBS_RUN_REPORT_H_
#define ADALSH_OBS_RUN_REPORT_H_

#include <cstddef>
#include <string>

#include "obs/json_writer.h"
#include "obs/metrics_registry.h"

namespace adalsh {

struct FilterStats;  // core/filter_output.h (header-only accounting struct)

/// Run context stamped into the report header.
struct RunReportOptions {
  std::string method;   // "adalsh", "lsh", "pairs", ...
  std::string dataset;  // dataset name/path (may be empty)
  int k = 0;
  size_t num_records = 0;
  int threads = 0;  // resolved worker-thread count (0 = global default)
};

/// Writes a MetricsSnapshot as a JSON object value ({"counters": {...},
/// "gauges": {...}, "distributions": {...}, "histograms": {...}}) into
/// `json`, which must be positioned where a value is expected. Shared by the
/// run report and the BENCH_*.json baselines.
void AppendMetricsSnapshot(const MetricsSnapshot& snapshot, JsonWriter* json);

/// Writes one LatencyHistogram as a JSON object value: exact count/sum/
/// min/max, p50/p90/p99/p99_9, the non-empty finite buckets as
/// {"le": upper, "count": n}, and the +Inf bucket as "overflow".
void AppendHistogram(const LatencyHistogram& histogram, JsonWriter* json);

/// Appends the FilterStats portion of a report — the "totals" object,
/// "termination_reason", "records_last_hashed_at", "cluster_verification"
/// and "rounds_detail" keys — into `json`, which must be inside an open
/// object. Shared by the run report and the engine report so the two schemas
/// describe a filtering pass with identical keys.
void AppendFilterStats(const FilterStats& stats, JsonWriter* json);

/// The compact machine-readable run report (schema "adalsh-run-report-v1",
/// documented in docs/observability.md): run context, FilterStats totals,
/// one entry per round with counters/stage-times/modeled-vs-measured cost,
/// and optionally a metrics snapshot. Per-round counters sum exactly to the
/// totals (the invariant documented in core/filter_output.h).
std::string WriteRunReportJson(const FilterStats& stats,
                               const RunReportOptions& options,
                               const MetricsSnapshot* metrics = nullptr);

}  // namespace adalsh

#endif  // ADALSH_OBS_RUN_REPORT_H_
