#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace adalsh {
namespace {

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t DeriveSeed(uint64_t parent_seed, uint64_t stream) {
  return SplitMix64(parent_seed ^ SplitMix64(stream + 0x5851f42d4c957f2dULL));
}

Rng::Rng(uint64_t seed) {
  // Seed expansion per the xoshiro authors' recommendation: run the seed
  // through SplitMix64 to fill the state, avoiding the all-zero state.
  uint64_t s = seed;
  for (uint64_t& word : state_) {
    s += 0x9e3779b97f4a7c15ULL;
    word = SplitMix64(s);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = RotL(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  ADALSH_CHECK_GT(bound, 0u);
  // Lemire-style rejection sampling for an unbiased result.
  uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  ADALSH_CHECK_LE(lo, hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::NextGaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box–Muller; avoids log(0) by nudging u1 away from zero.
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  double radius = std::sqrt(-2.0 * std::log(u1));
  double angle = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(angle);
  have_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

}  // namespace adalsh
