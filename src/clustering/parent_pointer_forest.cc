#include "clustering/parent_pointer_forest.h"

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

}  // namespace adalsh
