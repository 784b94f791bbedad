#ifndef ADALSH_UTIL_SIMD_KERNELS_H_
#define ADALSH_UTIL_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "util/simd.h"

namespace adalsh {
namespace simd {

/// The innermost kernels of the system — the dense dot product behind every
/// cosine rule evaluation, its block form behind every hyperplane hash, and
/// the keyed-min mix behind every MinHash — each with one implementation per
/// SimdLevel.
///
/// Bit-identity contract (docs/simd.md): for any input, every level returns
/// the same bits. Integer kernels get this for free (the operations are
/// exact and the min-reduction is commutative); the floating dot product
/// gets it by fixing a *canonical lane order* that every path executes:
///
///   * kDotLanes = 16 independent double accumulators; element i feeds
///     accumulator i mod 16 (the main loop consumes 16 elements per step);
///   * each term is float->double convert (exact), double multiply, double
///     add. The product of two floats is exact in double (24-bit
///     significands), so the add is each term's only rounding; a compiler
///     that fuses the multiply and add into an FMA (GCC's C++ default,
///     -ffp-contract=fast, does so in the AVX-512 kernels) rounds the same;
///   * the trailing size % 16 elements accumulate into lanes 0.. in order;
///   * the 16 lanes reduce in a fixed binary tree:
///     ((l0+l1)+(l2+l3)) + ... (ReduceDotLanes in simd_kernels.cc).
///
/// A 512-bit path runs lanes 0-7 / 8-15 as two vector accumulators, a
/// 256-bit path as four, a 128-bit path as eight, and the scalar path as
/// sixteen doubles — all the same arithmetic in the same order. The block
/// kernel turns this around: one vector per canonical lane, holding that
/// lane for 8 (AVX-512), 4 (AVX2) or 2 (NEON) rows at once.
///
/// The x86 vector kernels are compiled for their own target while their
/// callers (and FinishDot's scalar tail) are baseline SSE code, so every
/// kernel clears the upper YMM/ZMM state (vzeroupper) before it calls or
/// returns into baseline code; otherwise each later SSE instruction pays
/// the AVX-to-SSE transition penalty. The simd_vzeroupper ctest checks the
/// compiled libraries for this.

constexpr size_t kDotLanes = 16;

/// Dispatch target of the kernels: the process pin when one is set
/// (SimdPin), otherwise DetectSimdLevel() (util/simd.h). Every kernel runs
/// that one level (the block kernel dispatches with the dot product); the two
/// names are what reports print.
SimdLevel ActiveDotLevel();
SimdLevel ActiveMinHashLevel();

/// sum_i double(a[i]) * double(b[i]) in the canonical lane order, on the
/// active dispatch level. Deterministic: the result depends only on the
/// operand values and `size`, never on the level, alignment, or caller.
double DotProductF32(const float* a, const float* b, size_t size);

/// Same kernel forced to one level (differential tests, benches). Aborts if
/// the level is unsupported on this machine.
double DotProductF32At(SimdLevel level, const float* a, const float* b,
                       size_t size);

/// Rows per block of the block layout the sign kernel reads (the hyperplane
/// normals arena): component d of row t of a block sits at
/// block[d * kDotBlock + t], so one block is kDotBlock * size floats,
/// dim-major.
constexpr size_t kDotBlock = 8;

/// Signs of kDotBlock dot products per block against one shared right-hand
/// side: for each of `num_blocks` consecutive blocks (block b starts at
/// blocks + b * kDotBlock * size), bit t of masks[b] is set iff row t's dot
/// product with `x` is >= 0 — exactly DotProductF32At(kScalar, row_t, x,
/// size) >= 0, so a NaN dot gives 0 and a zero dot gives 1. Each row keeps
/// its own canonical 16-lane state and fixed-tree reduction; a vector path
/// only holds several rows' copies of one lane in one register, so the
/// masks are the same bits on every level.
void DotSignBlocks(const float* blocks, size_t num_blocks, const float* x,
                   size_t size, uint8_t* masks);

/// Same block kernel forced to one level.
void DotSignBlocksAt(SimdLevel level, const float* blocks, size_t num_blocks,
                     const float* x, size_t size, uint8_t* masks);

/// min over tokens of SplitMix64(token ^ seed) — the MinHash inner loop
/// (one hash function against one token set). Returns UINT64_MAX for the
/// empty set (the family's empty-set sentinel). Exact on every level.
uint64_t MinHashTokens(const uint64_t* tokens, size_t size, uint64_t seed);

/// Same kernel forced to one level.
uint64_t MinHashTokensAt(SimdLevel level, const uint64_t* tokens, size_t size,
                         uint64_t seed);

}  // namespace simd
}  // namespace adalsh

#endif  // ADALSH_UTIL_SIMD_KERNELS_H_
