#include "clustering/parent_pointer_forest.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace adalsh {

const ParentPointerForest::Node& ParentPointerForest::node(NodeId n) const {
  ADALSH_CHECK(n >= 0 && static_cast<size_t>(n) < nodes_.size());
  return nodes_[n];
}

ParentPointerForest::Node& ParentPointerForest::node(NodeId n) {
  ADALSH_CHECK(n >= 0 && static_cast<size_t>(n) < nodes_.size());
  return nodes_[n];
}

NodeId ParentPointerForest::NewNode() {
  nodes_.emplace_back();
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId ParentPointerForest::MakeTree(RecordId r, int producer,
                                     NodeId* leaf_out) {
  NodeId root = NewNode();
  NodeId leaf = NewNode();
  if (leaf_out != nullptr) *leaf_out = leaf;
  Node& root_node = nodes_[root];
  Node& leaf_node = nodes_[leaf];
  leaf_node.is_leaf = true;
  leaf_node.record = r;
  leaf_node.parent = root;
  root_node.first_leaf = leaf;
  root_node.last_leaf = leaf;
  root_node.leaf_count = 1;
  root_node.producer = producer;
  return root;
}

NodeId ParentPointerForest::AddLeaf(NodeId root, RecordId r) {
  ADALSH_CHECK(IsRoot(root)) << "AddLeaf target must be a root";
  NodeId leaf = NewNode();
  Node& leaf_node = nodes_[leaf];
  leaf_node.is_leaf = true;
  leaf_node.record = r;
  leaf_node.parent = root;
  Node& root_node = nodes_[root];
  nodes_[root_node.last_leaf].next_leaf = leaf;
  root_node.last_leaf = leaf;
  ++root_node.leaf_count;
  return leaf;
}

NodeId ParentPointerForest::Merge(NodeId root_a, NodeId root_b) {
  ADALSH_CHECK(IsRoot(root_a) && IsRoot(root_b));
  ADALSH_CHECK_NE(root_a, root_b) << "merging a tree with itself";
  // Union by size: the root with more leaves survives.
  NodeId big = root_a, small = root_b;
  if (nodes_[big].leaf_count < nodes_[small].leaf_count) std::swap(big, small);
  Node& big_node = nodes_[big];
  Node& small_node = nodes_[small];
  // Splice the smaller tree's leaf chain after the bigger tree's.
  nodes_[big_node.last_leaf].next_leaf = small_node.first_leaf;
  big_node.last_leaf = small_node.last_leaf;
  big_node.leaf_count += small_node.leaf_count;
  small_node.parent = big;
  return big;
}

NodeId ParentPointerForest::FindRoot(NodeId n) const {
  ADALSH_CHECK(n >= 0 && static_cast<size_t>(n) < nodes_.size());
  while (nodes_[n].parent != kInvalidNode) n = nodes_[n].parent;
  return n;
}

uint32_t ParentPointerForest::LeafCount(NodeId root) const {
  ADALSH_CHECK(IsRoot(root));
  return node(root).leaf_count;
}

int ParentPointerForest::Producer(NodeId root) const {
  ADALSH_CHECK(IsRoot(root));
  return node(root).producer;
}

RecordId ParentPointerForest::RecordAt(NodeId leaf) const {
  const Node& n = node(leaf);
  ADALSH_CHECK(n.is_leaf);
  return n.record;
}

std::vector<RecordId> ParentPointerForest::Leaves(NodeId root) const {
  std::vector<RecordId> records;
  records.reserve(LeafCount(root));
  ForEachLeaf(root, [&records](RecordId r) { records.push_back(r); });
  return records;
}

std::vector<NodeId> ParentPointerForest::Compact(
    const std::vector<NodeId>& roots) {
  // Kept trees keep their relative order of ids.
  std::vector<NodeId> distinct = roots;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  size_t kept_nodes = 0;
  for (NodeId root : distinct) kept_nodes += 1 + LeafCount(root);
  std::vector<NodeId> remap(nodes_.size(), kInvalidNode);
  std::vector<Node> kept;
  kept.reserve(kept_nodes);
  for (NodeId root : distinct) {
    const NodeId new_root = static_cast<NodeId>(kept.size());
    remap[root] = new_root;
    Node copy;
    copy.leaf_count = nodes_[root].leaf_count;
    copy.producer = nodes_[root].producer;
    kept.push_back(copy);
    NodeId prev = kInvalidNode;
    ForEachLeafNode(root, [&](RecordId r, NodeId leaf) {
      const NodeId id = static_cast<NodeId>(kept.size());
      remap[leaf] = id;
      Node leaf_copy;
      leaf_copy.parent = new_root;
      leaf_copy.record = r;
      leaf_copy.is_leaf = true;
      kept.push_back(leaf_copy);
      (prev == kInvalidNode ? kept[new_root].first_leaf
                            : kept[prev].next_leaf) = id;
      prev = id;
    });
    kept[new_root].last_leaf = prev;
  }
  nodes_ = std::move(kept);
  return remap;
}

}  // namespace adalsh
