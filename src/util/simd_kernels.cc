#include "util/simd_kernels.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ADALSH_X86 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define ADALSH_NEON 1
#endif

namespace adalsh {
namespace simd {
namespace {

// ---------------------------------------------------------------------------
// Dot product: canonical 16-lane spec (see simd_kernels.h).
// ---------------------------------------------------------------------------

/// The fixed reduction tree over one row's 16 canonical lanes.
inline double ReduceDotLanes(const double* lanes) {
  double q0 = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  double q1 = (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]);
  double q2 = (lanes[8] + lanes[9]) + (lanes[10] + lanes[11]);
  double q3 = (lanes[12] + lanes[13]) + (lanes[14] + lanes[15]);
  return (q0 + q1) + (q2 + q3);
}

/// Scalar tail + fixed-tree reduction shared by every path. `i` is the first
/// element the vector main loop did not consume (a multiple of kDotLanes);
/// tail element i+k lands in lane k, exactly as the main loop would place it.
double FinishDot(double* lanes, const float* a, const float* b, size_t size,
                 size_t i) {
  for (size_t k = 0; i < size; ++i, ++k) {
    lanes[k] += static_cast<double>(a[i]) * b[i];
  }
  return ReduceDotLanes(lanes);
}

double DotScalar(const float* a, const float* b, size_t size) {
  double lanes[kDotLanes] = {0.0};
  size_t i = 0;
  for (; i + kDotLanes <= size; i += kDotLanes) {
    for (size_t k = 0; k < kDotLanes; ++k) {
      lanes[k] += static_cast<double>(a[i + k]) * b[i + k];
    }
  }
  return FinishDot(lanes, a, b, size, i);
}

// ---------------------------------------------------------------------------
// Block sign kernel: kDotBlock rows per block, dim-major (simd_kernels.h).
// Element d of every row feeds that row's lane d mod 16, so the main-loop /
// tail split of the one-row kernel is the same lane placement. The shared
// right-hand side arrives widened to double (exact) by DotSignBlocksAt.
// ---------------------------------------------------------------------------

/// The semantic spec: each row's 16 lanes in a column of `lanes`.
void SignBlocksScalar(const float* blocks, size_t num_blocks, const double* x,
                      size_t size, uint8_t* masks) {
  for (size_t b = 0; b < num_blocks; ++b, blocks += kDotBlock * size) {
    double lanes[kDotLanes][kDotBlock] = {};
    for (size_t d = 0; d < size; ++d) {
      for (size_t t = 0; t < kDotBlock; ++t) {
        lanes[d % kDotLanes][t] +=
            static_cast<double>(blocks[d * kDotBlock + t]) * x[d];
      }
    }
    uint8_t mask = 0;
    for (size_t t = 0; t < kDotBlock; ++t) {
      double row[kDotLanes];
      for (size_t k = 0; k < kDotLanes; ++k) row[k] = lanes[k][t];
      if (ReduceDotLanes(row) >= 0.0) mask |= uint8_t{1} << t;
    }
    masks[b] = mask;
  }
}

#ifdef ADALSH_X86

__attribute__((target("avx2"))) double DotAvx2(const float* a, const float* b,
                                               size_t size) {
  // Lanes 0-3 / 4-7 / 8-11 / 12-15 as four 256-bit double accumulators.
  // Convert-multiply-add, never FMA: the scalar reference rounds the product
  // before the add, and the paths must agree bit for bit.
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + kDotLanes <= size; i += kDotLanes) {
    __m256d a0 = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
    __m256d a1 = _mm256_cvtps_pd(_mm_loadu_ps(a + i + 4));
    __m256d a2 = _mm256_cvtps_pd(_mm_loadu_ps(a + i + 8));
    __m256d a3 = _mm256_cvtps_pd(_mm_loadu_ps(a + i + 12));
    __m256d b0 = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
    __m256d b1 = _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4));
    __m256d b2 = _mm256_cvtps_pd(_mm_loadu_ps(b + i + 8));
    __m256d b3 = _mm256_cvtps_pd(_mm_loadu_ps(b + i + 12));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(a0, b0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(a1, b1));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(a2, b2));
    acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(a3, b3));
  }
  alignas(kSimdAlign) double lanes[kDotLanes];
  _mm256_store_pd(lanes + 0, acc0);
  _mm256_store_pd(lanes + 4, acc1);
  _mm256_store_pd(lanes + 8, acc2);
  _mm256_store_pd(lanes + 12, acc3);
  _mm256_zeroupper();  // FinishDot is baseline SSE code
  return FinishDot(lanes, a, b, size, i);
}

__attribute__((target("avx512f,avx512dq"))) double DotAvx512(const float* a,
                                                             const float* b,
                                                             size_t size) {
  // Lanes 0-7 / 8-15 as two 512-bit double accumulators.
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + kDotLanes <= size; i += kDotLanes) {
    __m512d a0 = _mm512_cvtps_pd(_mm256_loadu_ps(a + i));
    __m512d a1 = _mm512_cvtps_pd(_mm256_loadu_ps(a + i + 8));
    __m512d b0 = _mm512_cvtps_pd(_mm256_loadu_ps(b + i));
    __m512d b1 = _mm512_cvtps_pd(_mm256_loadu_ps(b + i + 8));
    acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(a0, b0));
    acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(a1, b1));
  }
  alignas(kSimdAlign) double lanes[kDotLanes];
  _mm512_store_pd(lanes + 0, acc0);
  _mm512_store_pd(lanes + 8, acc1);
  _mm256_zeroupper();  // FinishDot is baseline SSE code
  return FinishDot(lanes, a, b, size, i);
}

// Block kernels: acc[k] holds canonical lane k for every row of the block
// (or half-block). The k loops are fully unrolled so each acc[k] stays in a
// register; the tail adds element d + k into lane k exactly as the main loop
// would, and the reduction is ReduceDotLanes' tree, one vector add per node.

__attribute__((target("avx512f,avx512dq"))) void SignBlocksAvx512(
    const float* blocks, size_t num_blocks, const double* x, size_t size,
    uint8_t* masks) {
  for (size_t b = 0; b < num_blocks; ++b, blocks += kDotBlock * size) {
    __m512d acc[kDotLanes];
#pragma GCC unroll 16
    for (size_t k = 0; k < kDotLanes; ++k) acc[k] = _mm512_setzero_pd();
    size_t d = 0;
    for (; d + kDotLanes <= size; d += kDotLanes) {
#pragma GCC unroll 16
      for (size_t k = 0; k < kDotLanes; ++k) {
        __m512d n =
            _mm512_cvtps_pd(_mm256_loadu_ps(blocks + (d + k) * kDotBlock));
        acc[k] = _mm512_add_pd(acc[k],
                               _mm512_mul_pd(n, _mm512_set1_pd(x[d + k])));
      }
    }
#pragma GCC unroll 16
    for (size_t k = 0; k < kDotLanes; ++k) {
      if (d + k < size) {
        __m512d n =
            _mm512_cvtps_pd(_mm256_loadu_ps(blocks + (d + k) * kDotBlock));
        acc[k] = _mm512_add_pd(acc[k],
                               _mm512_mul_pd(n, _mm512_set1_pd(x[d + k])));
      }
    }
    __m512d q0 = _mm512_add_pd(_mm512_add_pd(acc[0], acc[1]),
                               _mm512_add_pd(acc[2], acc[3]));
    __m512d q1 = _mm512_add_pd(_mm512_add_pd(acc[4], acc[5]),
                               _mm512_add_pd(acc[6], acc[7]));
    __m512d q2 = _mm512_add_pd(_mm512_add_pd(acc[8], acc[9]),
                               _mm512_add_pd(acc[10], acc[11]));
    __m512d q3 = _mm512_add_pd(_mm512_add_pd(acc[12], acc[13]),
                               _mm512_add_pd(acc[14], acc[15]));
    __m512d dot = _mm512_add_pd(_mm512_add_pd(q0, q1), _mm512_add_pd(q2, q3));
    // Ordered compare: a NaN dot gives 0, as `dot >= 0.0` does.
    masks[b] = static_cast<uint8_t>(
        _mm512_cmp_pd_mask(dot, _mm512_setzero_pd(), _CMP_GE_OQ));
  }
  _mm256_zeroupper();  // the caller is baseline SSE code
}

__attribute__((target("avx2"))) void SignBlocksAvx2(const float* blocks,
                                                    size_t num_blocks,
                                                    const double* x,
                                                    size_t size,
                                                    uint8_t* masks) {
  // Sixteen lanes of all 8 rows would take 32 YMM accumulators; AVX2 has 16
  // registers, so the block runs as two 4-row halves.
  for (size_t b = 0; b < num_blocks; ++b, blocks += kDotBlock * size) {
    int mask = 0;
    for (size_t half = 0; half < kDotBlock; half += 4) {
      const float* rows = blocks + half;
      __m256d acc[kDotLanes];
#pragma GCC unroll 16
      for (size_t k = 0; k < kDotLanes; ++k) acc[k] = _mm256_setzero_pd();
      size_t d = 0;
      for (; d + kDotLanes <= size; d += kDotLanes) {
#pragma GCC unroll 16
        for (size_t k = 0; k < kDotLanes; ++k) {
          __m256d n = _mm256_cvtps_pd(_mm_loadu_ps(rows + (d + k) * kDotBlock));
          acc[k] = _mm256_add_pd(acc[k],
                                 _mm256_mul_pd(n, _mm256_set1_pd(x[d + k])));
        }
      }
#pragma GCC unroll 16
      for (size_t k = 0; k < kDotLanes; ++k) {
        if (d + k < size) {
          __m256d n = _mm256_cvtps_pd(_mm_loadu_ps(rows + (d + k) * kDotBlock));
          acc[k] = _mm256_add_pd(acc[k],
                                 _mm256_mul_pd(n, _mm256_set1_pd(x[d + k])));
        }
      }
      __m256d q0 = _mm256_add_pd(_mm256_add_pd(acc[0], acc[1]),
                                 _mm256_add_pd(acc[2], acc[3]));
      __m256d q1 = _mm256_add_pd(_mm256_add_pd(acc[4], acc[5]),
                                 _mm256_add_pd(acc[6], acc[7]));
      __m256d q2 = _mm256_add_pd(_mm256_add_pd(acc[8], acc[9]),
                                 _mm256_add_pd(acc[10], acc[11]));
      __m256d q3 = _mm256_add_pd(_mm256_add_pd(acc[12], acc[13]),
                                 _mm256_add_pd(acc[14], acc[15]));
      __m256d dot =
          _mm256_add_pd(_mm256_add_pd(q0, q1), _mm256_add_pd(q2, q3));
      mask |= _mm256_movemask_pd(
                  _mm256_cmp_pd(dot, _mm256_setzero_pd(), _CMP_GE_OQ))
              << half;
    }
    masks[b] = static_cast<uint8_t>(mask);
  }
  _mm256_zeroupper();  // the caller is baseline SSE code
}

#endif  // ADALSH_X86

#ifdef ADALSH_NEON

double DotNeon(const float* a, const float* b, size_t size) {
  // Lanes as eight 128-bit double accumulators (two lanes each).
  float64x2_t acc[8];
  for (auto& v : acc) v = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + kDotLanes <= size; i += kDotLanes) {
    for (size_t g = 0; g < 8; ++g) {
      float32x2_t af = vld1_f32(a + i + 2 * g);
      float32x2_t bf = vld1_f32(b + i + 2 * g);
      float64x2_t ad = vcvt_f64_f32(af);
      float64x2_t bd = vcvt_f64_f32(bf);
      acc[g] = vaddq_f64(acc[g], vmulq_f64(ad, bd));
    }
  }
  alignas(kSimdAlign) double lanes[kDotLanes];
  for (size_t g = 0; g < 8; ++g) vst1q_f64(lanes + 2 * g, acc[g]);
  return FinishDot(lanes, a, b, size, i);
}

void SignBlocksNeon(const float* blocks, size_t num_blocks, const double* x,
                    size_t size, uint8_t* masks) {
  // The block as four 2-row groups: 16 lanes of two rows fill 16 of the 32
  // 128-bit registers.
  for (size_t b = 0; b < num_blocks; ++b, blocks += kDotBlock * size) {
    unsigned mask = 0;
    for (size_t group = 0; group < kDotBlock; group += 2) {
      const float* rows = blocks + group;
      float64x2_t acc[kDotLanes];
#pragma GCC unroll 16
      for (size_t k = 0; k < kDotLanes; ++k) acc[k] = vdupq_n_f64(0.0);
      size_t d = 0;
      for (; d + kDotLanes <= size; d += kDotLanes) {
#pragma GCC unroll 16
        for (size_t k = 0; k < kDotLanes; ++k) {
          float64x2_t n = vcvt_f64_f32(vld1_f32(rows + (d + k) * kDotBlock));
          acc[k] = vaddq_f64(acc[k], vmulq_f64(n, vdupq_n_f64(x[d + k])));
        }
      }
#pragma GCC unroll 16
      for (size_t k = 0; k < kDotLanes; ++k) {
        if (d + k < size) {
          float64x2_t n = vcvt_f64_f32(vld1_f32(rows + (d + k) * kDotBlock));
          acc[k] = vaddq_f64(acc[k], vmulq_f64(n, vdupq_n_f64(x[d + k])));
        }
      }
      float64x2_t q0 = vaddq_f64(vaddq_f64(acc[0], acc[1]),
                                 vaddq_f64(acc[2], acc[3]));
      float64x2_t q1 = vaddq_f64(vaddq_f64(acc[4], acc[5]),
                                 vaddq_f64(acc[6], acc[7]));
      float64x2_t q2 = vaddq_f64(vaddq_f64(acc[8], acc[9]),
                                 vaddq_f64(acc[10], acc[11]));
      float64x2_t q3 = vaddq_f64(vaddq_f64(acc[12], acc[13]),
                                 vaddq_f64(acc[14], acc[15]));
      float64x2_t dot = vaddq_f64(vaddq_f64(q0, q1), vaddq_f64(q2, q3));
      // All-ones where dot >= 0; false for NaN.
      uint64x2_t ge = vcgeq_f64(dot, vdupq_n_f64(0.0));
      mask |= static_cast<unsigned>((vgetq_lane_u64(ge, 0) & 1) |
                                    ((vgetq_lane_u64(ge, 1) & 1) << 1))
              << group;
    }
    masks[b] = static_cast<uint8_t>(mask);
  }
}

#endif  // ADALSH_NEON

// ---------------------------------------------------------------------------
// MinHash: min over SplitMix64(token ^ seed). All-integer, so every lane
// width is exact and the min reduction commutes — no canonical-order care
// needed beyond running the same mix function.
// ---------------------------------------------------------------------------

uint64_t MinHashScalar(const uint64_t* tokens, size_t size, uint64_t seed) {
  uint64_t min_value = std::numeric_limits<uint64_t>::max();
  for (size_t i = 0; i < size; ++i) {
    min_value = std::min(min_value, SplitMix64(tokens[i] ^ seed));
  }
  return min_value;
}

#ifdef ADALSH_X86

/// 64x64->64 low multiply on AVX2, which has no native vpmullq: combine the
/// 32-bit partial products (lo*lo exactly, cross terms mod 2^32 shifted up).
__attribute__((target("avx2"))) inline __m256i MulLo64Avx2(__m256i a,
                                                           __m256i b) {
  __m256i b_swapped = _mm256_shuffle_epi32(b, 0xB1);       // [b_hi, b_lo] pairs
  __m256i cross = _mm256_mullo_epi32(a, b_swapped);        // a_lo*b_hi, a_hi*b_lo
  __m256i cross_sum =
      _mm256_add_epi32(_mm256_srli_epi64(cross, 32), cross);
  __m256i cross_hi = _mm256_slli_epi64(cross_sum, 32);
  __m256i lo = _mm256_mul_epu32(a, b);                     // a_lo*b_lo, 64-bit
  return _mm256_add_epi64(lo, cross_hi);
}

__attribute__((target("avx2"))) uint64_t MinHashAvx2(const uint64_t* tokens,
                                                     size_t size,
                                                     uint64_t seed) {
  const __m256i vseed = _mm256_set1_epi64x(static_cast<int64_t>(seed));
  const __m256i c_add = _mm256_set1_epi64x(0x9e3779b97f4a7c15LL);
  const __m256i c_m1 = _mm256_set1_epi64x(static_cast<int64_t>(0xbf58476d1ce4e5b9ULL));
  const __m256i c_m2 = _mm256_set1_epi64x(static_cast<int64_t>(0x94d049bb133111ebULL));
  const __m256i sign = _mm256_set1_epi64x(static_cast<int64_t>(0x8000000000000000ULL));
  __m256i vmin = _mm256_set1_epi64x(-1);  // UINT64_MAX per lane
  size_t i = 0;
  for (; i + 4 <= size; i += 4) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tokens + i));
    x = _mm256_xor_si256(x, vseed);
    x = _mm256_add_epi64(x, c_add);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 30));
    x = MulLo64Avx2(x, c_m1);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 27));
    x = MulLo64Avx2(x, c_m2);
    x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
    // Unsigned 64-bit min via sign-bias + signed compare.
    __m256i gt = _mm256_cmpgt_epi64(_mm256_xor_si256(vmin, sign),
                                    _mm256_xor_si256(x, sign));
    vmin = _mm256_blendv_epi8(vmin, x, gt);
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmin);
  uint64_t min_value =
      std::min(std::min(lanes[0], lanes[1]), std::min(lanes[2], lanes[3]));
  for (; i < size; ++i) {
    min_value = std::min(min_value, SplitMix64(tokens[i] ^ seed));
  }
  return min_value;
}

__attribute__((target("avx512f,avx512dq"))) uint64_t MinHashAvx512(
    const uint64_t* tokens, size_t size, uint64_t seed) {
  const __m512i vseed = _mm512_set1_epi64(static_cast<int64_t>(seed));
  const __m512i c_add = _mm512_set1_epi64(0x9e3779b97f4a7c15LL);
  const __m512i c_m1 = _mm512_set1_epi64(static_cast<int64_t>(0xbf58476d1ce4e5b9ULL));
  const __m512i c_m2 = _mm512_set1_epi64(static_cast<int64_t>(0x94d049bb133111ebULL));
  __m512i vmin = _mm512_set1_epi64(-1);
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    __m512i x = _mm512_loadu_si512(tokens + i);
    x = _mm512_xor_si512(x, vseed);
    x = _mm512_add_epi64(x, c_add);
    x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 30));
    x = _mm512_mullo_epi64(x, c_m1);  // vpmullq (AVX-512DQ)
    x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 27));
    x = _mm512_mullo_epi64(x, c_m2);
    x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
    vmin = _mm512_min_epu64(vmin, x);
  }
  uint64_t min_value = _mm512_reduce_min_epu64(vmin);
  for (; i < size; ++i) {
    min_value = std::min(min_value, SplitMix64(tokens[i] ^ seed));
  }
  return min_value;
}

#endif  // ADALSH_X86

/// The one dispatch rule (simd.h): the pin when one is set, otherwise the
/// widest level the hardware runs.
SimdLevel ActiveLevel() {
  const int pin = SimdPin();
  return pin == kSimdLevelAuto ? DetectSimdLevel()
                               : static_cast<SimdLevel>(pin);
}

}  // namespace

SimdLevel ActiveDotLevel() { return ActiveLevel(); }

SimdLevel ActiveMinHashLevel() { return ActiveLevel(); }

double DotProductF32At(SimdLevel level, const float* a, const float* b,
                       size_t size) {
  switch (level) {
#ifdef ADALSH_X86
    case SimdLevel::kAvx2:
      return DotAvx2(a, b, size);
    case SimdLevel::kAvx512:
      return DotAvx512(a, b, size);
#endif
#ifdef ADALSH_NEON
    case SimdLevel::kNeon:
      return DotNeon(a, b, size);
#endif
    case SimdLevel::kScalar:
      return DotScalar(a, b, size);
    default:
      ADALSH_CHECK(false) << "SIMD level '" << SimdLevelName(level)
                          << "' not compiled into this binary";
      return 0.0;
  }
}

double DotProductF32(const float* a, const float* b, size_t size) {
  return DotProductF32At(ActiveDotLevel(), a, b, size);
}

void DotSignBlocksAt(SimdLevel level, const float* blocks, size_t num_blocks,
                     const float* x, size_t size, uint8_t* masks) {
  // Widen the shared right-hand side once per call (exact), not once per
  // block; per thread, since hashing runs concurrently for distinct records.
  thread_local std::vector<double> wide;
  wide.assign(x, x + size);
  switch (level) {
#ifdef ADALSH_X86
    case SimdLevel::kAvx2:
      SignBlocksAvx2(blocks, num_blocks, wide.data(), size, masks);
      return;
    case SimdLevel::kAvx512:
      SignBlocksAvx512(blocks, num_blocks, wide.data(), size, masks);
      return;
#endif
#ifdef ADALSH_NEON
    case SimdLevel::kNeon:
      SignBlocksNeon(blocks, num_blocks, wide.data(), size, masks);
      return;
#endif
    case SimdLevel::kScalar:
      SignBlocksScalar(blocks, num_blocks, wide.data(), size, masks);
      return;
    default:
      ADALSH_CHECK(false) << "SIMD level '" << SimdLevelName(level)
                          << "' not compiled into this binary";
  }
}

void DotSignBlocks(const float* blocks, size_t num_blocks, const float* x,
                   size_t size, uint8_t* masks) {
  DotSignBlocksAt(ActiveDotLevel(), blocks, num_blocks, x, size, masks);
}

uint64_t MinHashTokensAt(SimdLevel level, const uint64_t* tokens, size_t size,
                         uint64_t seed) {
  switch (level) {
#ifdef ADALSH_X86
    case SimdLevel::kAvx2:
      return MinHashAvx2(tokens, size, seed);
    case SimdLevel::kAvx512:
      return MinHashAvx512(tokens, size, seed);
#endif
#ifdef ADALSH_NEON
    case SimdLevel::kNeon:
      // NEON has no 64-bit vector multiply; the scalar mix is the NEON path.
      return MinHashScalar(tokens, size, seed);
#endif
    case SimdLevel::kScalar:
      return MinHashScalar(tokens, size, seed);
    default:
      ADALSH_CHECK(false) << "SIMD level '" << SimdLevelName(level)
                          << "' not compiled into this binary";
      return 0;
  }
}

uint64_t MinHashTokens(const uint64_t* tokens, size_t size, uint64_t seed) {
  return MinHashTokensAt(ActiveMinHashLevel(), tokens, size, seed);
}

}  // namespace simd
}  // namespace adalsh
