#ifndef ADALSH_UTIL_RNG_H_
#define ADALSH_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace adalsh {

/// Mixes a 64-bit value through the SplitMix64 finalizer. Used to derive
/// independent seed streams: every stochastic component in the library is
/// seeded as `SplitMix64(base_seed ^ kComponentTag ^ index)`, which keeps
/// experiments reproducible bit-for-bit while decorrelating components.
/// Inline: it is also the mix step of every bucket-key fold (HashCache).
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Derives a child seed from a parent seed and a stream index.
uint64_t DeriveSeed(uint64_t parent_seed, uint64_t stream);

/// Small, fast, deterministic PRNG (xoshiro256**). Satisfies the essentials
/// of UniformRandomBitGenerator so it interoperates with <random>
/// distributions, but the library mostly uses the convenience members below
/// so results are identical across standard-library implementations.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  /// Next raw 64 random bits.
  uint64_t Next();
  result_type operator()() { return Next(); }

  /// Uniform integer in [0, bound). `bound` must be positive.
  uint64_t NextBelow(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Standard normal variate (Box–Muller, deterministic).
  double NextGaussian();

  /// True with probability `p`.
  bool NextBernoulli(double p);

  /// Fisher–Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      size_t j = NextBelow(i);
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

 private:
  uint64_t state_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace adalsh

#endif  // ADALSH_UTIL_RNG_H_
