#ifndef ADALSH_UTIL_SIMD_KERNELS_H_
#define ADALSH_UTIL_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "util/simd.h"

namespace adalsh {
namespace simd {

/// The two innermost kernels of the system — the dense dot product behind
/// every cosine rule evaluation and hyperplane hash, and the keyed-min mix
/// behind every MinHash — each with one implementation per SimdLevel.
///
/// Bit-identity contract (docs/simd.md): for any input, every level returns
/// the same bits. Integer kernels get this for free (the operations are
/// exact and the min-reduction is commutative); the floating dot product
/// gets it by fixing a *canonical lane order* that every path executes:
///
///   * kDotLanes = 16 independent double accumulators; element i feeds
///     accumulator i mod 16 (the main loop consumes 16 elements per step);
///   * each term is float->double convert (exact), double multiply, double
///     add — never FMA, which would round differently from the scalar path;
///   * the trailing size % 16 elements accumulate into lanes 0.. in order;
///   * the 16 lanes reduce in a fixed binary tree:
///     ((l0+l1)+(l2+l3)) + ... computed by ReduceDotLanes.
///
/// A 512-bit path runs lanes 0-7 / 8-15 as two vector accumulators, a
/// 256-bit path as four, a 128-bit path as eight, and the scalar path as
/// sixteen doubles — all the same arithmetic in the same order.
///
/// The x86 vector kernels are compiled for their own target while their
/// callers (and FinishDot's scalar tail) are baseline SSE code, so every
/// kernel clears the upper YMM/ZMM state (vzeroupper) before it calls or
/// returns into baseline code; otherwise each later SSE instruction pays
/// the AVX-to-SSE transition penalty. The simd_vzeroupper ctest checks the
/// compiled libraries for this.

constexpr size_t kDotLanes = 16;

/// Dispatch target of the kernels: the process pin when one is set
/// (SimdPin), otherwise DetectSimdLevel() (util/simd.h). Both kernels always
/// run the same level; the two names are what reports print.
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

/// Two dot products sharing one right-hand side in a single pass: the
/// hyperplane hot loop evaluates adjacent hash functions per sweep over the
/// SoA normals arena, loading (and converting) the record vector once for
/// both rows. Each row keeps its OWN canonical 16-lane state and fixed-tree
/// reduction, so out0/out1 are bit-identical to two DotProductF32 calls at
/// every level — batching is a bandwidth optimization, never an arithmetic
/// change.
void DotProductF32x2(const float* a0, const float* a1, const float* b,
                     size_t size, double* out0, double* out1);

/// Same two-row kernel forced to one level.
void DotProductF32x2At(SimdLevel level, const float* a0, const float* a1,
                       const float* b, size_t size, double* out0,
                       double* out1);

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
