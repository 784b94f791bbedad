// Micro-benchmarks for the clustering substrate: parent-pointer-forest
// operations (tree build / merge / root finding, leaf iteration).

#include <benchmark/benchmark.h>

#include "clustering/parent_pointer_forest.h"
#include "util/rng.h"

namespace adalsh {
namespace {

void BM_ForestBuildAndMerge(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    ParentPointerForest forest;
    std::vector<NodeId> leaf(n);
    for (size_t r = 0; r < n; ++r) {
      forest.MakeTree(static_cast<RecordId>(r), 0, &leaf[r]);
    }
    // Random unions until one tree remains (~n merges).
    for (size_t step = 0; step < 2 * n; ++step) {
      NodeId a = forest.FindRoot(leaf[rng.NextBelow(n)]);
      NodeId b = forest.FindRoot(leaf[rng.NextBelow(n)]);
      if (a != b) forest.Merge(a, b);
    }
    benchmark::DoNotOptimize(forest.num_nodes());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ForestBuildAndMerge)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ForestLeafIteration(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ParentPointerForest forest;
  NodeId root = forest.MakeTree(0, 0);
  for (size_t r = 1; r < n; ++r) {
    forest.AddLeaf(root, static_cast<RecordId>(r));
  }
  for (auto _ : state) {
    uint64_t sum = 0;
    forest.ForEachLeaf(root, [&sum](RecordId r) { sum += r; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ForestLeafIteration)->Arg(1000)->Arg(100000);

}  // namespace
}  // namespace adalsh
