#ifndef ADALSH_CLUSTERING_PARENT_POINTER_FOREST_H_
#define ADALSH_CLUSTERING_PARENT_POINTER_FOREST_H_

#include <cstdint>
#include <vector>

#include "record/record.h"

namespace adalsh {

/// Index of a node in a ParentPointerForest.
using NodeId = int32_t;
constexpr NodeId kInvalidNode = -1;

/// Producer tag stored on every tree root: which function in the sequence
/// produced the cluster. Function H_i uses its 0-based index i; the pairwise
/// computation function P uses kProducerPairwise, which the termination rule
/// of Algorithm 1 treats as final.
constexpr int kProducerPairwise = 1 << 20;

/// The parent-pointer tree structure of Appendix B.1 (Figures 18/19): each
/// cluster is a tree whose leaves are the cluster's records. Every node has a
/// parent pointer; leaves are chained left-to-right through `next_leaf`; the
/// root knows the first and last leaf and the leaf count, so that
///   * membership queries are FindRoot (short parent chains),
///   * merging two clusters is O(1) pointer splicing plus one root hop, and
///   * iterating a cluster's records is a linear leaf-chain walk.
///
/// Deviation from the paper, documented in DESIGN.md: when two trees merge we
/// attach the smaller root under the larger root (union by size) instead of
/// allocating a fresh root n' (Fig. 19c). Leaf chains, counts and producer
/// tags behave identically, root-finding stays O(log n), and it halves node
/// allocations.
///
/// Nodes are never freed: each invocation of a clustering function builds new
/// trees over its input records and abandons the old ones, and the pool grows
/// monotonically with the total work performed (which Algorithm 1 is designed
/// to keep small). Callers depend on this: a tree stays valid, with its
/// root, producer and leaf chain intact, after passes over its leaves build
/// newer trees. The resident engine keeps each component's level-1 tree
/// across any number of refinements as its only record of level-1
/// membership, so freeing or compacting nodes must carry those trees over
/// and remap the engine's record-to-leaf maps.
class ParentPointerForest {
 public:
  ParentPointerForest() = default;

  ParentPointerForest(const ParentPointerForest&) = delete;
  ParentPointerForest& operator=(const ParentPointerForest&) = delete;

  /// Creates a new tree holding the single record `r`; returns its root.
  /// The tree has a root node and one leaf node (Fig. 19a). If `leaf_out` is
  /// non-null it receives the leaf's node id (callers track record -> leaf).
  NodeId MakeTree(RecordId r, int producer, NodeId* leaf_out = nullptr);

  /// Adds record `r` as a fresh leaf directly under `root` (Fig. 19b).
  /// Returns the new leaf's node id.
  NodeId AddLeaf(NodeId root, RecordId r);

  /// Merges the trees rooted at `root_a` and `root_b` (Fig. 19c; see class
  /// comment for the union-by-size deviation). Returns the surviving root.
  /// The producer tag of the surviving root is kept.
  NodeId Merge(NodeId root_a, NodeId root_b);

  /// Walks parent pointers to the root of `node`'s tree.
  NodeId FindRoot(NodeId node) const;

  /// Number of leaves (records) in the tree rooted at `root`.
  uint32_t LeafCount(NodeId root) const;

  /// Producer tag of the tree rooted at `root`.
  int Producer(NodeId root) const;
  void SetProducer(NodeId root, int producer);

  /// Record stored at a leaf node.
  RecordId RecordAt(NodeId leaf) const;

  /// Records of the tree rooted at `root`, in leaf-chain order.
  std::vector<RecordId> Leaves(NodeId root) const;

  /// Calls `fn(RecordId)` for every leaf of the tree rooted at `root`.
  template <typename Fn>
  void ForEachLeaf(NodeId root, Fn&& fn) const {
    const Node& r = node(root);
    uint32_t remaining = r.leaf_count;
    NodeId leaf = r.first_leaf;
    while (remaining-- > 0) {
      fn(nodes_[leaf].record);
      leaf = nodes_[leaf].next_leaf;
    }
  }

  /// Calls `fn(RecordId, NodeId leaf)` for every leaf of the tree rooted at
  /// `root` — for callers that track record -> current-leaf maps across
  /// invocations (e.g. the resident engine).
  template <typename Fn>
  void ForEachLeafNode(NodeId root, Fn&& fn) const {
    const Node& r = node(root);
    uint32_t remaining = r.leaf_count;
    NodeId leaf = r.first_leaf;
    while (remaining-- > 0) {
      fn(nodes_[leaf].record, leaf);
      leaf = nodes_[leaf].next_leaf;
    }
  }

  /// Total nodes allocated (for tests and memory accounting).
  size_t num_nodes() const { return nodes_.size(); }

  /// Parent hops from `n` to its root (0 for roots) — exposes the chain
  /// length FindRoot walks, for the Appendix B.2 complexity tests.
  size_t DepthForTest(NodeId n) const {
    size_t depth = 0;
    while (node(n).parent != kInvalidNode) {
      n = node(n).parent;
      ++depth;
    }
    return depth;
  }

  /// True if `n` is a root (has no parent).
  bool IsRoot(NodeId n) const { return node(n).parent == kInvalidNode; }

 private:
  struct Node {
    NodeId parent = kInvalidNode;
    NodeId first_leaf = kInvalidNode;  // meaningful on roots
    NodeId last_leaf = kInvalidNode;   // meaningful on roots
    NodeId next_leaf = kInvalidNode;   // meaningful on leaves
    uint32_t leaf_count = 0;           // authoritative on roots
    RecordId record = 0;               // meaningful on leaves
    int producer = 0;                  // meaningful on roots
    bool is_leaf = false;
  };

  const Node& node(NodeId n) const;
  Node& node(NodeId n);
  NodeId NewNode();

  std::vector<Node> nodes_;
};

}  // namespace adalsh

#endif  // ADALSH_CLUSTERING_PARENT_POINTER_FOREST_H_
