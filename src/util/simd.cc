#include "util/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "util/check.h"

namespace adalsh {
namespace {

/// kPinUninitialized = ADALSH_SIMD not consulted yet; otherwise a pin value
/// (kSimdLevelAuto or a SimdLevel).
constexpr int kPinUninitialized = -2;
std::atomic<int> g_pin{kPinUninitialized};

int InitialPin() {
  const char* env = std::getenv("ADALSH_SIMD");
  if (env == nullptr || env[0] == '\0') return kSimdLevelAuto;
  StatusOr<int> parsed = ParseSimdPin(env);
  ADALSH_CHECK(parsed.ok()) << "ADALSH_SIMD: " << parsed.status().ToString();
  return *parsed;
}

}  // namespace

SimdLevel DetectSimdLevel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq")) {
    return SimdLevel::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  return SimdLevel::kScalar;
#elif defined(__aarch64__)
  return SimdLevel::kNeon;  // ASIMD is baseline on aarch64
#else
  return SimdLevel::kScalar;
#endif
}

int SimdPin() {
  int pin = g_pin.load(std::memory_order_relaxed);
  if (pin != kPinUninitialized) return pin;
  // First use: resolve the env var once. Racing initializers compute the
  // same value (the input is process-constant), so store order is harmless.
  int initial = InitialPin();
  g_pin.store(initial, std::memory_order_relaxed);
  return initial;
}

int SetSimdPin(int pin) {
  if (pin != kSimdLevelAuto) {
    SimdLevel level = static_cast<SimdLevel>(pin);
    ADALSH_CHECK(SimdLevelSupported(level))
        << "SIMD level '" << SimdLevelName(level)
        << "' is not supported on this machine";
  }
  int previous = SimdPin();
  g_pin.store(pin, std::memory_order_relaxed);
  return previous;
}

bool SimdLevelSupported(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case SimdLevel::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq");
#else
      return false;
#endif
    case SimdLevel::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

std::vector<SimdLevel> SupportedSimdLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  for (SimdLevel level :
       {SimdLevel::kAvx2, SimdLevel::kAvx512, SimdLevel::kNeon}) {
    if (SimdLevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

std::string SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "unknown";
}

StatusOr<int> ParseSimdPin(const std::string& name) {
  SimdLevel level;
  if (name == "auto" || name == "native") {
    level = DetectSimdLevel();
  } else if (name == "scalar") {
    level = SimdLevel::kScalar;
  } else if (name == "avx2") {
    level = SimdLevel::kAvx2;
  } else if (name == "avx512") {
    level = SimdLevel::kAvx512;
  } else if (name == "neon") {
    level = SimdLevel::kNeon;
  } else {
    return Status::InvalidArgument(
        "unknown SIMD level '" + name +
        "' (expected auto, native, scalar, avx2, avx512, or neon)");
  }
  if (!SimdLevelSupported(level)) {
    return Status::InvalidArgument("SIMD level '" + name +
                                   "' is not supported on this machine");
  }
  return static_cast<int>(level);
}

AlignedFloatBuffer::~AlignedFloatBuffer() {
  ::operator delete[](data_, std::align_val_t{kSimdAlign});
}

AlignedFloatBuffer::AlignedFloatBuffer(AlignedFloatBuffer&& other) noexcept
    : data_(other.data_), size_(other.size_), capacity_(other.capacity_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.capacity_ = 0;
}

AlignedFloatBuffer& AlignedFloatBuffer::operator=(
    AlignedFloatBuffer&& other) noexcept {
  if (this != &other) {
    ::operator delete[](data_, std::align_val_t{kSimdAlign});
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
  }
  return *this;
}

void AlignedFloatBuffer::GrowTo(size_t n) {
  if (n <= size_) return;
  if (n > capacity_) {
    // Doubling keeps amortized ingest (FeatureCache::GrowTo per batch) linear.
    size_t capacity = capacity_ == 0 ? kSimdFloatPad : capacity_;
    while (capacity < n) capacity *= 2;
    float* grown = static_cast<float*>(
        ::operator new[](capacity * sizeof(float), std::align_val_t{kSimdAlign}));
    if (size_ > 0) std::memcpy(grown, data_, size_ * sizeof(float));
    ::operator delete[](data_, std::align_val_t{kSimdAlign});
    data_ = grown;
    capacity_ = capacity;
  }
  std::memset(data_ + size_, 0, (n - size_) * sizeof(float));
  size_ = n;
}

}  // namespace adalsh
