#ifndef ADALSH_CLUSTERING_CANDIDATE_ORDER_H_
#define ADALSH_CLUSTERING_CANDIDATE_ORDER_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "clustering/parent_pointer_forest.h"

namespace adalsh {

/// Smallest order key among the leaves of `root` (canonical tie-break); the
/// record id itself when `order_key` is null.
inline uint64_t MinOrderKey(const ParentPointerForest& forest,
                            const std::vector<uint64_t>* order_key,
                            NodeId root) {
  uint64_t min_key = std::numeric_limits<uint64_t>::max();
  forest.ForEachLeaf(root, [&](RecordId r) {
    min_key = std::min<uint64_t>(
        min_key, order_key != nullptr ? (*order_key)[r] : r);
  });
  return min_key;
}

/// A cluster awaiting selection. Every top-k selector ranks clusters in the
/// one canonical order below: Algorithm 1's round loop (core/refine_loop.h),
/// LSH-X's verification stage and the Pairs and LSH-X-nP picks — the
/// paper's fairness optimization (3), the same data structures as adaLSH.
struct Candidate {
  uint32_t size;
  uint64_t min_key;
  NodeId root;
  uint64_t filed = 0;  // filing sequence number (FIFO ablation only)
};

/// Canonical order: size descending, ties by ascending smallest order key
/// (unique per cluster, so the order is total and history-independent —
/// the root id never actually decides).
struct CandidateLess {
  bool operator()(const Candidate& a, const Candidate& b) const {
    if (a.size != b.size) return a.size > b.size;
    if (a.min_key != b.min_key) return a.min_key < b.min_key;
    return a.root < b.root;
  }
};

using CandidateSet = std::set<Candidate, CandidateLess>;

/// The first `k` of `roots` in canonical order, keyed by record id.
inline std::vector<NodeId> LargestRoots(const ParentPointerForest& forest,
                                        const std::vector<NodeId>& roots,
                                        size_t k) {
  std::vector<Candidate> candidates;
  candidates.reserve(roots.size());
  for (NodeId root : roots) {
    candidates.push_back({forest.LeafCount(root),
                          MinOrderKey(forest, nullptr, root), root});
  }
  std::sort(candidates.begin(), candidates.end(), CandidateLess());
  std::vector<NodeId> largest;
  for (size_t i = 0; i < std::min(k, candidates.size()); ++i) {
    largest.push_back(candidates[i].root);
  }
  return largest;
}

}  // namespace adalsh

#endif  // ADALSH_CLUSTERING_CANDIDATE_ORDER_H_
