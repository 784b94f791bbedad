#ifndef ADALSH_LSH_RANDOM_HYPERPLANE_H_
#define ADALSH_LSH_RANDOM_HYPERPLANE_H_

#include <vector>

#include "lsh/hash_family.h"
#include "record/record.h"
#include "util/simd.h"
#include "util/simd_kernels.h"

namespace adalsh {

/// The random-hyperplane family for cosine distance (Examples 2 and 6): hash
/// function j is a random hyperplane through the origin (a Gaussian normal
/// vector); the hash value is which side of the hyperplane the record's
/// vector lies on (0/1). For two records at normalized angle x, a uniformly
/// drawn function collides with probability p(x) = 1 - x.
///
/// Normal j's components are Rng(DeriveSeed(seed, j)).NextGaussian() in
/// order, and value j is DotProductF32(normal_j, x) >= 0 under the canonical
/// lane order (docs/simd.md), so hash values are identical on every dispatch
/// target. The normals live in one 64-byte-aligned arena in blocks of
/// simd::kDotBlock = 8 hyperplanes, dim-major inside a block: component d of
/// hyperplane j sits at ((j / 8) * dim + d) * 8 + j % 8. The block sign
/// kernel hashes a whole block per pass over the record's vector.
class RandomHyperplaneFamily : public HashFamily {
 public:
  /// `field` selects the dense field hashed by this family; `dim` is its
  /// dimensionality; `seed` determines the hyperplanes.
  RandomHyperplaneFamily(FieldId field, size_t dim, uint64_t seed);

  void HashRange(const Record& record, size_t begin, size_t end,
                 uint64_t* out) override;

  /// ORs each block's sign mask straight into `words`; the last block is
  /// packed whole.
  void PackRange(const Record& record, size_t begin, size_t end,
                 uint64_t* words) override;

  size_t pack_block() const override { return simd::kDotBlock; }

  /// Evaluates each block the indices touch once.
  void HashIndices(const Record& record, const size_t* indices, size_t count,
                   uint64_t* out) override;

  /// Materializes every block holding an index below `count`, so concurrent
  /// calls that stay below it (which read whole blocks) never mutate the
  /// arena.
  void Prepare(size_t count) override { EnsureMaterialized(count); }

  bool is_binary() const override { return true; }

  /// Number of hyperplanes materialized so far, a multiple of 8 (for tests).
  size_t num_materialized() const { return num_materialized_; }

 private:
  void EnsureMaterialized(size_t count);

  /// Sign masks of blocks [first, last) for `record`'s vector, in a
  /// per-thread buffer valid until the thread's next call.
  const uint8_t* BlockMasks(const Record& record, size_t first, size_t last);

  FieldId field_;
  size_t dim_;
  uint64_t seed_;
  /// Hyperplane normals in the block layout above, aligned, whole blocks.
  AlignedFloatBuffer normals_;
  size_t num_materialized_ = 0;
};

}  // namespace adalsh

#endif  // ADALSH_LSH_RANDOM_HYPERPLANE_H_
