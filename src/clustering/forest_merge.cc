#include "clustering/forest_merge.h"

#include "util/check.h"

namespace adalsh {

NodeId GraftTree(const ParentPointerForest& src, NodeId src_root,
                 ParentPointerForest* dst, const std::vector<RecordId>& remap,
                 std::vector<NodeId>* leaf_of, GraftStats* stats) {
  ADALSH_CHECK(dst != nullptr);
  ADALSH_CHECK(src.IsRoot(src_root));
  NodeId new_root = kInvalidNode;
  uint64_t leaves = 0;
  src.ForEachLeaf(src_root, [&](RecordId r) {
    ADALSH_CHECK_LT(static_cast<size_t>(r), remap.size());
    const RecordId mapped = remap[r];
    NodeId leaf = kInvalidNode;
    if (new_root == kInvalidNode) {
      new_root = dst->MakeTree(mapped, src.Producer(src_root), &leaf);
    } else {
      leaf = dst->AddLeaf(new_root, mapped);
    }
    if (leaf_of != nullptr) (*leaf_of)[mapped] = leaf;
    ++leaves;
  });
  ADALSH_CHECK_NE(new_root, kInvalidNode) << "grafted tree has no leaves";
  if (stats != nullptr) {
    ++stats->trees;
    stats->leaves += leaves;
  }
  return new_root;
}

}  // namespace adalsh
