#ifndef ADALSH_CLUSTERING_FOREST_MERGE_H_
#define ADALSH_CLUSTERING_FOREST_MERGE_H_

#include <vector>

#include "clustering/parent_pointer_forest.h"

namespace adalsh {

/// Transplanting parent-pointer trees between forests — how the cross-shard
/// merge (docs/sharding.md) carries refinement over: each shard refines its
/// own forest over its own internal record-id space, and the merge's fresh
/// engine grafts the current pieces of every component whose records all sit
/// on one shard into its own forest, over its own record ids. Components
/// that span shards are not grafted; the merge reopens them from its level-1
/// trees.

/// Copies the tree rooted at `src_root` in `src` into `dst` as a fresh tree:
/// same leaf records (each mapped through `remap`, indexed by source record
/// id), same producer tag, leaf-chain order preserved. Node ids are NOT
/// preserved — the graft is a new root/leaf allocation in `dst` — so grafted
/// trees compose with any trees `dst` already holds. Leaf-chain order is not
/// part of the canonical output contract (cluster membership is
/// order-invariant and snapshots sort members), but preserving it keeps the
/// walk single-pass and allocation-ordered.
///
/// Accumulated graft accounting, filled by GraftTree when a stats sink is
/// passed: how many trees were transplanted and how many leaves they carried.
/// The merge surfaces these per Flush in the telemetry plane
/// (docs/observability.md): the refinement it carried over instead of
/// redoing.
struct GraftStats {
  uint64_t trees = 0;
  uint64_t leaves = 0;
};

/// If `leaf_of` is non-null, `(*leaf_of)[remap[r]]` receives the new leaf's
/// node id for every grafted record r. If `stats` is non-null, the graft is
/// added to it (trees += 1, leaves += leaf count). Returns the new root.
NodeId GraftTree(const ParentPointerForest& src, NodeId src_root,
                 ParentPointerForest* dst, const std::vector<RecordId>& remap,
                 std::vector<NodeId>* leaf_of = nullptr,
                 GraftStats* stats = nullptr);

}  // namespace adalsh

#endif  // ADALSH_CLUSTERING_FOREST_MERGE_H_
