#ifndef ADALSH_CORE_FILTER_OUTPUT_H_
#define ADALSH_CORE_FILTER_OUTPUT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "clustering/clustering.h"
#include "obs/events.h"
#include "util/run_controller.h"

namespace adalsh {

/// Marker in per-record "last function applied" bookkeeping (AdaptiveLsh,
/// the resident engines) for records whose last treatment was the exact
/// pairwise function P — Definition 3's n_P bucket.
inline constexpr int kLastFunctionPairwise = -2;

/// Execution accounting shared by all filtering methods (adaLSH, LSH-X,
/// LSH-X-nP, Pairs, resident-engine passes). Times are wall-clock; counters feed the
/// Definition 3 cost expression sum_i n_i * cost_i + n_P * cost_P.
///
/// Field invariants — identical across every method, asserted in
/// tests/filter_stats_test.cc:
///
///   * rounds == round_records.size(). A "round" is one application of a
///     hashing function or of P to one record set: AdaptiveLsh counts the
///     initial H_1 pass plus every Algorithm 1 loop iteration; LSH-X counts
///     its stage-1 hash pass plus one round per P verification; LSH-X-nP and
///     Pairs count exactly 1; a resident-engine refinement pass counts only
///     the rounds it ran itself (0 when every cluster was already verified).
///   * sum over round_records of hashes_computed == hashes_computed, and of
///     pairwise_similarities == pairwise_similarities: all work is performed
///     inside some round, and the per-round counters are exact deltas of the
///     same sources as the totals.
///   * records_last_hashed_at.size() == number of hashing functions the
///     method can apply: the sequence length L for adaLSH/engines, 1 for
///     LSH-X/LSH-X-nP, 0 for Pairs (which has none).
///   * sum(records_last_hashed_at) + records_finished_by_pairwise == number
///     of records treated (the dataset size for batch methods, the live
///     records for an engine pass): every treated record is counted exactly once, under
///     the last function applied to it.
struct FilterStats {
  /// Wall-clock seconds of the filtering stage (the paper's Execution Time).
  double filtering_seconds = 0.0;

  /// Rounds executed (see the invariants above).
  size_t rounds = 0;

  /// Rule evaluations performed by P invocations (n_P).
  uint64_t pairwise_similarities = 0;

  /// Raw LSH hash evaluations across all records and units.
  uint64_t hashes_computed = 0;

  /// records_last_hashed_at[i] = number of records whose last applied
  /// sequence function was H_i (the n_i of Definition 3); records whose last
  /// treatment was P are in records_finished_by_pairwise.
  std::vector<size_t> records_last_hashed_at;
  size_t records_finished_by_pairwise = 0;

  /// The Definition 3 cost of the run under the method's cost model
  /// (0 when the method used no model).
  double modeled_cost = 0.0;

  /// Per-round accounting, in execution order (obs/events.h). Always
  /// populated — collection is a handful of counter/clock reads per round —
  /// and the substrate of the obs run report's modeled-vs-measured cost
  /// diagnostics.
  std::vector<RoundRecord> round_records;

  /// How the run ended (docs/robustness.md). kCompleted is the normal
  /// Algorithm 1 termination; anything else marks an anytime partial result
  /// whose clusters reflect the state after the last fully completed round
  /// (an interrupted round is discarded except for its counter deltas, which
  /// stay in round_records so the sum invariants above hold regardless).
  /// On early termination the per-record accounting is conservative:
  /// records a discarded round would have re-treated stay in their previous
  /// bucket, and records never reached by any round are reported under H_1.
  TerminationReason termination_reason = TerminationReason::kCompleted;

  /// Verification level achieved by each returned cluster, parallel to
  /// FilterOutput::clusters.clusters: kLastFunctionPairwise for clusters
  /// certified by the exact pairwise function P, otherwise the 0-based
  /// sequence index of the last hashing function that produced the cluster
  /// (L-1 = fully hash-verified). On a completed run every entry is final by
  /// definition; on early termination the tail entries are the best pending
  /// clusters at whatever level they had reached.
  std::vector<int> cluster_verification;
};

/// Result of a filtering method: the requested clusters, ranked by
/// descending size, plus execution stats. UnionOfTopClusters(k) gives the
/// filtering output set O of Section 2.1.
struct FilterOutput {
  Clustering clusters;
  FilterStats stats;
};

}  // namespace adalsh

#endif  // ADALSH_CORE_FILTER_OUTPUT_H_
