#include "util/simd_kernels.h"

#include <algorithm>
#include <limits>

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

/// Scalar tail + fixed-tree reduction shared by every path. `i` is the first
/// element the vector main loop did not consume (a multiple of kDotLanes);
/// tail element i+k lands in lane k, exactly as the main loop would place it.
double FinishDot(double* lanes, const float* a, const float* b, size_t size,
                 size_t i) {
  for (size_t k = 0; i < size; ++i, ++k) {
    lanes[k] += static_cast<double>(a[i]) * b[i];
  }
  double q0 = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  double q1 = (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]);
  double q2 = (lanes[8] + lanes[9]) + (lanes[10] + lanes[11]);
  double q3 = (lanes[12] + lanes[13]) + (lanes[14] + lanes[15]);
  return (q0 + q1) + (q2 + q3);
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

void DotScalarX2(const float* a0, const float* a1, const float* b, size_t size,
                 double* out0, double* out1) {
  double lanes0[kDotLanes] = {0.0};
  double lanes1[kDotLanes] = {0.0};
  size_t i = 0;
  for (; i + kDotLanes <= size; i += kDotLanes) {
    for (size_t k = 0; k < kDotLanes; ++k) {
      const double bk = static_cast<double>(b[i + k]);
      lanes0[k] += static_cast<double>(a0[i + k]) * bk;
      lanes1[k] += static_cast<double>(a1[i + k]) * bk;
    }
  }
  *out0 = FinishDot(lanes0, a0, b, size, i);
  *out1 = FinishDot(lanes1, a1, b, size, i);
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

__attribute__((target("avx2"))) void DotAvx2X2(const float* a0,
                                               const float* a1, const float* b,
                                               size_t size, double* out0,
                                               double* out1) {
  // Four 256-bit accumulators per row; the shared operand is loaded and
  // converted once per 16-element step and feeds both rows.
  __m256d r0q0 = _mm256_setzero_pd(), r0q1 = _mm256_setzero_pd();
  __m256d r0q2 = _mm256_setzero_pd(), r0q3 = _mm256_setzero_pd();
  __m256d r1q0 = _mm256_setzero_pd(), r1q1 = _mm256_setzero_pd();
  __m256d r1q2 = _mm256_setzero_pd(), r1q3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + kDotLanes <= size; i += kDotLanes) {
    __m256d b0 = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
    __m256d b1 = _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4));
    __m256d b2 = _mm256_cvtps_pd(_mm_loadu_ps(b + i + 8));
    __m256d b3 = _mm256_cvtps_pd(_mm_loadu_ps(b + i + 12));
    r0q0 = _mm256_add_pd(r0q0, _mm256_mul_pd(
        _mm256_cvtps_pd(_mm_loadu_ps(a0 + i)), b0));
    r0q1 = _mm256_add_pd(r0q1, _mm256_mul_pd(
        _mm256_cvtps_pd(_mm_loadu_ps(a0 + i + 4)), b1));
    r0q2 = _mm256_add_pd(r0q2, _mm256_mul_pd(
        _mm256_cvtps_pd(_mm_loadu_ps(a0 + i + 8)), b2));
    r0q3 = _mm256_add_pd(r0q3, _mm256_mul_pd(
        _mm256_cvtps_pd(_mm_loadu_ps(a0 + i + 12)), b3));
    r1q0 = _mm256_add_pd(r1q0, _mm256_mul_pd(
        _mm256_cvtps_pd(_mm_loadu_ps(a1 + i)), b0));
    r1q1 = _mm256_add_pd(r1q1, _mm256_mul_pd(
        _mm256_cvtps_pd(_mm_loadu_ps(a1 + i + 4)), b1));
    r1q2 = _mm256_add_pd(r1q2, _mm256_mul_pd(
        _mm256_cvtps_pd(_mm_loadu_ps(a1 + i + 8)), b2));
    r1q3 = _mm256_add_pd(r1q3, _mm256_mul_pd(
        _mm256_cvtps_pd(_mm_loadu_ps(a1 + i + 12)), b3));
  }
  // Both rows are stored before the vzeroupper: row 1's accumulators are
  // still live in registers until then.
  alignas(kSimdAlign) double lanes0[kDotLanes];
  alignas(kSimdAlign) double lanes1[kDotLanes];
  _mm256_store_pd(lanes0 + 0, r0q0);
  _mm256_store_pd(lanes0 + 4, r0q1);
  _mm256_store_pd(lanes0 + 8, r0q2);
  _mm256_store_pd(lanes0 + 12, r0q3);
  _mm256_store_pd(lanes1 + 0, r1q0);
  _mm256_store_pd(lanes1 + 4, r1q1);
  _mm256_store_pd(lanes1 + 8, r1q2);
  _mm256_store_pd(lanes1 + 12, r1q3);
  _mm256_zeroupper();  // FinishDot is baseline SSE code
  *out0 = FinishDot(lanes0, a0, b, size, i);
  *out1 = FinishDot(lanes1, a1, b, size, i);
}

__attribute__((target("avx512f,avx512dq"))) void DotAvx512X2(
    const float* a0, const float* a1, const float* b, size_t size,
    double* out0, double* out1) {
  __m512d r0lo = _mm512_setzero_pd(), r0hi = _mm512_setzero_pd();
  __m512d r1lo = _mm512_setzero_pd(), r1hi = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + kDotLanes <= size; i += kDotLanes) {
    __m512d blo = _mm512_cvtps_pd(_mm256_loadu_ps(b + i));
    __m512d bhi = _mm512_cvtps_pd(_mm256_loadu_ps(b + i + 8));
    r0lo = _mm512_add_pd(r0lo, _mm512_mul_pd(
        _mm512_cvtps_pd(_mm256_loadu_ps(a0 + i)), blo));
    r0hi = _mm512_add_pd(r0hi, _mm512_mul_pd(
        _mm512_cvtps_pd(_mm256_loadu_ps(a0 + i + 8)), bhi));
    r1lo = _mm512_add_pd(r1lo, _mm512_mul_pd(
        _mm512_cvtps_pd(_mm256_loadu_ps(a1 + i)), blo));
    r1hi = _mm512_add_pd(r1hi, _mm512_mul_pd(
        _mm512_cvtps_pd(_mm256_loadu_ps(a1 + i + 8)), bhi));
  }
  alignas(kSimdAlign) double lanes0[kDotLanes];
  alignas(kSimdAlign) double lanes1[kDotLanes];
  _mm512_store_pd(lanes0 + 0, r0lo);
  _mm512_store_pd(lanes0 + 8, r0hi);
  _mm512_store_pd(lanes1 + 0, r1lo);
  _mm512_store_pd(lanes1 + 8, r1hi);
  _mm256_zeroupper();  // see DotAvx2X2
  *out0 = FinishDot(lanes0, a0, b, size, i);
  *out1 = FinishDot(lanes1, a1, b, size, i);
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

void DotNeonX2(const float* a0, const float* a1, const float* b, size_t size,
               double* out0, double* out1) {
  float64x2_t acc0[8], acc1[8];
  for (auto& v : acc0) v = vdupq_n_f64(0.0);
  for (auto& v : acc1) v = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + kDotLanes <= size; i += kDotLanes) {
    for (size_t g = 0; g < 8; ++g) {
      float64x2_t bd = vcvt_f64_f32(vld1_f32(b + i + 2 * g));
      acc0[g] = vaddq_f64(
          acc0[g], vmulq_f64(vcvt_f64_f32(vld1_f32(a0 + i + 2 * g)), bd));
      acc1[g] = vaddq_f64(
          acc1[g], vmulq_f64(vcvt_f64_f32(vld1_f32(a1 + i + 2 * g)), bd));
    }
  }
  alignas(kSimdAlign) double lanes[kDotLanes];
  for (size_t g = 0; g < 8; ++g) vst1q_f64(lanes + 2 * g, acc0[g]);
  *out0 = FinishDot(lanes, a0, b, size, i);
  for (size_t g = 0; g < 8; ++g) vst1q_f64(lanes + 2 * g, acc1[g]);
  *out1 = FinishDot(lanes, a1, b, size, i);
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

void DotProductF32x2At(SimdLevel level, const float* a0, const float* a1,
                       const float* b, size_t size, double* out0,
                       double* out1) {
  switch (level) {
#ifdef ADALSH_X86
    case SimdLevel::kAvx2:
      DotAvx2X2(a0, a1, b, size, out0, out1);
      return;
    case SimdLevel::kAvx512:
      DotAvx512X2(a0, a1, b, size, out0, out1);
      return;
#endif
#ifdef ADALSH_NEON
    case SimdLevel::kNeon:
      DotNeonX2(a0, a1, b, size, out0, out1);
      return;
#endif
    case SimdLevel::kScalar:
      DotScalarX2(a0, a1, b, size, out0, out1);
      return;
    default:
      ADALSH_CHECK(false) << "SIMD level '" << SimdLevelName(level)
                          << "' not compiled into this binary";
  }
}

void DotProductF32x2(const float* a0, const float* a1, const float* b,
                     size_t size, double* out0, double* out1) {
  DotProductF32x2At(ActiveDotLevel(), a0, a1, b, size, out0, out1);
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
