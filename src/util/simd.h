#ifndef ADALSH_UTIL_SIMD_H_
#define ADALSH_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace adalsh {

/// Runtime-dispatched SIMD target of the hot kernels (docs/simd.md).
///
/// Every level is *bit-identical* to kScalar on every kernel: the scalar
/// kernels are written in the exact lane structure the vector units execute
/// (see simd_kernels.h), so forcing a different level can never change a
/// FilterOutput byte. That is what lets the dispatch decision be invisible
/// to the determinism contract of docs/threading.md — and what makes the
/// selection below a pure performance choice.
///
/// One rule selects the level of every kernel: the *pin* (ADALSH_SIMD, the
/// --simd flag, or SetSimdPin) when one is set, otherwise DetectSimdLevel().
/// The pin is the testing hook the differential suites and the sanitizer
/// matrix use.
enum class SimdLevel : int {
  kScalar = 0,  ///< portable C++, the semantic reference
  kAvx2 = 1,    ///< x86 AVX2 (256-bit float/int lanes)
  kAvx512 = 2,  ///< x86 AVX-512F+DQ (512-bit lanes, 64-bit integer multiply)
  kNeon = 3,    ///< aarch64 ASIMD (128-bit lanes)
};

/// Widest level this binary can run on this machine (cpuid probe; compile
/// target on non-x86). Never returns a level the hardware lacks.
SimdLevel DetectSimdLevel();

/// No-pin sentinel: every kernel runs DetectSimdLevel().
constexpr int kSimdLevelAuto = -1;

/// The current pin: kSimdLevelAuto, or the SimdLevel value every kernel is
/// forced onto. Initialized on first use from the ADALSH_SIMD environment
/// variable when set (a level name, "native", or "auto"; aborts on an
/// unknown name so sanitizer matrices fail loudly), otherwise no pin.
int SimdPin();

/// Sets the pin (tests, --simd flag): kSimdLevelAuto or the value of a
/// level supported on this machine (aborts otherwise — see
/// SimdLevelSupported). Returns the previous pin so scoped forcing can
/// restore it. Not thread-safe against in-flight kernels: call at startup
/// or between single-threaded test sections only.
int SetSimdPin(int pin);

/// True when `level`'s kernels can execute on this machine. kScalar is
/// always supported; vector levels require the matching cpuid features.
bool SimdLevelSupported(SimdLevel level);

/// Every supported level, kScalar first, widening order — the differential
/// kernel tests iterate this to compare each path against the reference.
std::vector<SimdLevel> SupportedSimdLevels();

/// Canonical names: "scalar", "avx2", "avx512", "neon".
std::string SimdLevelName(SimdLevel level);

/// Parses a pin spec: "auto" or "native" (both the widest hardware level,
/// DetectSimdLevel()) or a level name. Errors on unknown names or levels
/// unsupported on this machine.
StatusOr<int> ParseSimdPin(const std::string& name);

/// Minimal 64-byte-aligned float arena for the structure-of-arrays payloads
/// the vector kernels read (FeatureCache dense fields, hyperplane normals).
/// Rows padded to a multiple of kSimdFloatPad floats start on cache-line
/// boundaries, so 16-float vector loads never split a line. Growth preserves
/// contents and zero-fills the new region (padding lanes must read as 0.0f).
constexpr size_t kSimdAlign = 64;              // bytes
constexpr size_t kSimdFloatPad = kSimdAlign / sizeof(float);

/// Rounds a row length up to the padded stride.
constexpr size_t PadFloats(size_t n) {
  return (n + kSimdFloatPad - 1) / kSimdFloatPad * kSimdFloatPad;
}

class AlignedFloatBuffer {
 public:
  AlignedFloatBuffer() = default;
  ~AlignedFloatBuffer();

  AlignedFloatBuffer(const AlignedFloatBuffer&) = delete;
  AlignedFloatBuffer& operator=(const AlignedFloatBuffer&) = delete;
  AlignedFloatBuffer(AlignedFloatBuffer&& other) noexcept;
  AlignedFloatBuffer& operator=(AlignedFloatBuffer&& other) noexcept;

  /// Grows (never shrinks) to `n` floats; existing contents are preserved,
  /// the new region is zero-filled.
  void GrowTo(size_t n);

  size_t size() const { return size_; }
  float* data() { return data_; }
  const float* data() const { return data_; }

 private:
  float* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace adalsh

#endif  // ADALSH_UTIL_SIMD_H_
