#include "lsh/random_hyperplane.h"

#include "util/check.h"
#include "util/rng.h"

namespace adalsh {

using simd::kDotBlock;

RandomHyperplaneFamily::RandomHyperplaneFamily(FieldId field, size_t dim,
                                               uint64_t seed)
    : field_(field), dim_(dim), seed_(seed) {
  ADALSH_CHECK_GT(dim, 0u);
}

void RandomHyperplaneFamily::EnsureMaterialized(size_t count) {
  const size_t target = (count + kDotBlock - 1) / kDotBlock * kDotBlock;
  if (target <= num_materialized_) return;
  normals_.GrowTo(target * dim_);
  for (; num_materialized_ < target; ++num_materialized_) {
    // Each hyperplane gets its own derived seed so materialization order
    // (and batching) cannot change the functions.
    const size_t j = num_materialized_;
    Rng rng(DeriveSeed(seed_, j));
    float* column =
        normals_.data() + (j / kDotBlock) * dim_ * kDotBlock + j % kDotBlock;
    for (size_t d = 0; d < dim_; ++d) {
      column[d * kDotBlock] = static_cast<float>(rng.NextGaussian());
    }
  }
}

const uint8_t* RandomHyperplaneFamily::BlockMasks(const Record& record,
                                                  size_t first, size_t last) {
  EnsureMaterialized(last * kDotBlock);
  const std::vector<float>& vec = record.field(field_).dense();
  ADALSH_CHECK_EQ(vec.size(), dim_);
  // Per thread: Ensure hashes distinct records concurrently.
  thread_local std::vector<uint8_t> masks;
  masks.resize(last - first);
  simd::DotSignBlocks(normals_.data() + first * kDotBlock * dim_, last - first,
                      vec.data(), dim_, masks.data());
  return masks.data();
}

void RandomHyperplaneFamily::HashRange(const Record& record, size_t begin,
                                       size_t end, uint64_t* out) {
  ADALSH_CHECK_LE(begin, end);
  if (begin == end) return;
  // A range edge inside a block evaluates the whole block: the kernel's cost
  // is per block, and the unrequested signs are dropped.
  const size_t first = begin / kDotBlock;
  const uint8_t* masks =
      BlockMasks(record, first, (end + kDotBlock - 1) / kDotBlock);
  for (size_t j = begin; j < end; ++j) {
    out[j - begin] = (masks[j / kDotBlock - first] >> (j % kDotBlock)) & 1;
  }
}

void RandomHyperplaneFamily::PackRange(const Record& record, size_t begin,
                                       size_t end, uint64_t* words) {
  ADALSH_CHECK_LE(begin, end);
  if (begin == end) return;
  const size_t first = begin / kDotBlock;
  const size_t last = (end + kDotBlock - 1) / kDotBlock;
  const uint8_t* masks = BlockMasks(record, first, last);
  // kDotBlock divides 64, so block b's bits sit in one word. Only the first
  // block can start before `begin`.
  for (size_t b = first; b < last; ++b) {
    uint64_t bits = masks[b - first];
    if (b == first) bits &= 0xFFu << (begin % kDotBlock);
    words[b * kDotBlock / 64] |= bits << (b * kDotBlock % 64);
  }
}

void RandomHyperplaneFamily::HashIndices(const Record& record,
                                         const size_t* indices, size_t count,
                                         uint64_t* out) {
  size_t i = 0;
  while (i < count) {
    // One kernel call per run of indices whose blocks are adjacent.
    const size_t first = indices[i] / kDotBlock;
    size_t last = first + 1;
    size_t run_end = i + 1;
    for (; run_end < count && indices[run_end] / kDotBlock <= last;
         ++run_end) {
      ADALSH_CHECK_GT(indices[run_end], indices[run_end - 1]);
      last = indices[run_end] / kDotBlock + 1;
    }
    const uint8_t* masks = BlockMasks(record, first, last);
    for (; i < run_end; ++i) {
      const size_t j = indices[i];
      out[i] = (masks[j / kDotBlock - first] >> (j % kDotBlock)) & 1;
    }
  }
}

}  // namespace adalsh
