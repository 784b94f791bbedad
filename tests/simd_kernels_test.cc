// Differential certification of the SIMD dispatch layer (docs/simd.md): on
// every supported level, the hot kernels must return bit-identical
// results to the scalar reference — for randomized inputs and for the edge
// shapes that break naive vectorization (sizes off the vector width, zeros,
// denormals, empty sets). The scalar kernel is the semantic spec; the
// vector paths are certified against it, never against each other.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/simd.h"
#include "util/simd_kernels.h"

namespace adalsh {
namespace {

// Sizes chosen around the lane structure: empty, sub-lane, exactly one
// vector step, one off either side, multiple steps, and large-and-odd.
const size_t kDotSizes[] = {0,  1,  3,  7,  8,  15, 16, 17,
                            31, 32, 33, 64, 100, 257, 1024};
const size_t kTokenSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 100, 333};

// Bits must match exactly; EXPECT_EQ on doubles treats -0.0 == 0.0 and
// NaN != NaN, so compare the representation.
void ExpectSameBits(double expected, double actual, const char* what,
                    SimdLevel level, size_t size) {
  uint64_t expected_bits, actual_bits;
  std::memcpy(&expected_bits, &expected, sizeof(expected_bits));
  std::memcpy(&actual_bits, &actual, sizeof(actual_bits));
  EXPECT_EQ(expected_bits, actual_bits)
      << what << " diverged on level " << SimdLevelName(level) << " at size "
      << size << ": scalar " << expected << " vs " << actual;
}

std::vector<float> RandomFloats(size_t size, Rng* rng, float scale) {
  std::vector<float> values(size);
  for (float& v : values) {
    v = static_cast<float>(rng->NextGaussian()) * scale;
  }
  return values;
}

TEST(SimdKernelsTest, DotProductMatchesScalarOnRandomVectors) {
  Rng rng(DeriveSeed(11, 0xd07));
  for (size_t size : kDotSizes) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<float> a = RandomFloats(size, &rng, 3.0f);
      std::vector<float> b = RandomFloats(size, &rng, 3.0f);
      double reference =
          simd::DotProductF32At(SimdLevel::kScalar, a.data(), b.data(), size);
      for (SimdLevel level : SupportedSimdLevels()) {
        ExpectSameBits(reference,
                       simd::DotProductF32At(level, a.data(), b.data(), size),
                       "dot", level, size);
      }
    }
  }
}

TEST(SimdKernelsTest, DotProductEdgeValues) {
  // Zero vectors, mixed signs with exact cancellations, denormal floats,
  // and magnitude spreads that make the accumulation order observable.
  const float denormal = std::numeric_limits<float>::denorm_min();
  const std::vector<std::vector<float>> patterns = {
      {},                                     // empty
      {0.0f},                                 // single zero
      {-0.0f, 0.0f, -0.0f},                   // signed zeros
      {denormal, -denormal, denormal * 7.0f}, // denormals
      {1e30f, 1.0f, -1e30f, 1.0f},            // catastrophic cancellation
      std::vector<float>(100, 1e-40f),        // a denormal row
  };
  for (const std::vector<float>& a : patterns) {
    for (const std::vector<float>& b : patterns) {
      if (a.size() != b.size()) continue;
      double reference = simd::DotProductF32At(SimdLevel::kScalar, a.data(),
                                               b.data(), a.size());
      for (SimdLevel level : SupportedSimdLevels()) {
        ExpectSameBits(
            reference,
            simd::DotProductF32At(level, a.data(), b.data(), a.size()),
            "dot-edge", level, a.size());
      }
    }
  }
}

TEST(SimdKernelsTest, DotProductIndependentOfAlignment) {
  // The kernels take unaligned pointers (record payloads are plain
  // std::vector storage); the result must not depend on where the row
  // starts.
  Rng rng(DeriveSeed(12, 0xa119));
  std::vector<float> a = RandomFloats(80, &rng, 2.0f);
  std::vector<float> b = RandomFloats(80, &rng, 2.0f);
  for (size_t offset = 0; offset < 9; ++offset) {
    const size_t size = 64;
    double reference = simd::DotProductF32At(
        SimdLevel::kScalar, a.data() + offset, b.data() + offset, size);
    for (SimdLevel level : SupportedSimdLevels()) {
      ExpectSameBits(reference,
                     simd::DotProductF32At(level, a.data() + offset,
                                           b.data() + offset, size),
                     "dot-offset", level, offset);
    }
  }
}

// Dimensions around the block kernel's lane structure: sub-lane, one off
// either side of one and four 16-lane steps, and large.
const size_t kBlockDims[] = {1, 7, 8, 15, 16, 17, 63, 64, 65, 100, 512};

// Lays kDotBlock * num_blocks rows of `dim` floats out in the block layout
// (row t of block b, component d at (b * dim + d) * kDotBlock + t), starting
// `offset` floats into the returned buffer.
std::vector<float> ToBlocks(const std::vector<std::vector<float>>& rows,
                            size_t dim, size_t offset) {
  std::vector<float> blocks(offset + rows.size() * dim);
  for (size_t j = 0; j < rows.size(); ++j) {
    for (size_t d = 0; d < dim; ++d) {
      blocks[offset + ((j / simd::kDotBlock) * dim + d) * simd::kDotBlock +
             j % simd::kDotBlock] = rows[j][d];
    }
  }
  return blocks;
}

// Every bit of every supported level's masks must be the sign of the scalar
// one-row dot product: DotProductF32At(kScalar, row, x) >= 0.
void ExpectBlockSignsMatchScalar(const std::vector<std::vector<float>>& rows,
                                 const std::vector<float>& x, size_t offset) {
  const size_t dim = x.size();
  const size_t num_blocks = rows.size() / simd::kDotBlock;
  const std::vector<float> blocks = ToBlocks(rows, dim, offset);
  for (SimdLevel level : SupportedSimdLevels()) {
    std::vector<uint8_t> masks(num_blocks, 0xA5);
    simd::DotSignBlocksAt(level, blocks.data() + offset, num_blocks, x.data(),
                          dim, masks.data());
    for (size_t j = 0; j < rows.size(); ++j) {
      const double dot = simd::DotProductF32At(SimdLevel::kScalar,
                                               rows[j].data(), x.data(), dim);
      const int expected = dot >= 0.0 ? 1 : 0;
      const int actual =
          (masks[j / simd::kDotBlock] >> (j % simd::kDotBlock)) & 1;
      EXPECT_EQ(expected, actual)
          << "row " << j << " on level " << SimdLevelName(level) << " at dim "
          << dim << ": scalar dot " << dot;
    }
  }
}

TEST(SimdKernelsTest, BlockSignsMatchScalarDotOnRandomVectors) {
  Rng rng(DeriveSeed(14, 0xb10c));
  for (size_t dim : kBlockDims) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::vector<float>> rows;
      for (size_t j = 0; j < 3 * simd::kDotBlock; ++j) {
        rows.push_back(RandomFloats(dim, &rng, 3.0f));
      }
      const std::vector<float> x = RandomFloats(dim, &rng, 3.0f);
      // The kernels take unaligned blocks (a block is 8 * dim floats).
      ExpectBlockSignsMatchScalar(rows, x, /*offset=*/trial);
    }
  }
}

TEST(SimdKernelsTest, BlockSignsEdgeValues) {
  // Each row is one edge pattern repeated over the dimension; x runs through
  // patterns of its own. Signed zeros, subnormals, dots that cancel to
  // exactly zero (which must give 1), and NaN and infinities (a NaN dot
  // gives 0; inf - inf in the reduction is a NaN too).
  const float denormal = std::numeric_limits<float>::denorm_min();
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<std::vector<float>> row_patterns = {
      {0.0f},
      {-0.0f},
      {denormal, -denormal},
      {-denormal * 3.0f},
      {1.0f, -1.0f},             // cancels against an all-equal x
      {1e30f, 1.0f, -1e30f, -1.0f},
      {nan},
      {inf},
      {-inf, 1.0f},
      {inf, -inf},
      {1e-40f, -2e-40f, 1e-40f},
  };
  const std::vector<std::vector<float>> x_patterns = {
      {1.0f}, {-1.0f}, {0.0f}, {-0.0f, 0.0f}, {denormal}, {inf}, {nan, 1.0f},
      {2.0f, 3.0f, -5.0f},
  };
  for (size_t dim : kBlockDims) {
    for (const std::vector<float>& x_pattern : x_patterns) {
      std::vector<float> x(dim);
      for (size_t d = 0; d < dim; ++d) x[d] = x_pattern[d % x_pattern.size()];
      std::vector<std::vector<float>> rows;
      for (size_t j = 0; j < 2 * simd::kDotBlock; ++j) {
        const std::vector<float>& pattern =
            row_patterns[j % row_patterns.size()];
        std::vector<float> row(dim);
        for (size_t d = 0; d < dim; ++d) row[d] = pattern[d % pattern.size()];
        rows.push_back(std::move(row));
      }
      ExpectBlockSignsMatchScalar(rows, x, /*offset=*/0);
    }
  }
}

TEST(SimdKernelsTest, BlockSignOfExactZeroIsOne) {
  // Pin the tie rule directly: rows whose dot with x is exactly +0 or -0.
  const size_t dim = 17;
  std::vector<float> x(dim, 1.0f);
  std::vector<std::vector<float>> rows(simd::kDotBlock,
                                       std::vector<float>(dim, 0.0f));
  rows[1][0] = 2.0f;
  rows[1][16] = -2.0f;  // lane 0 twice: 2 + (-2) = 0
  rows[2][3] = 0.5f;
  rows[2][4] = -0.5f;   // two lanes that cancel in the tree
  rows[3][5] = -0.0f;
  rows[4][0] = -1.0f;   // the one negative dot
  const std::vector<float> blocks = ToBlocks(rows, dim, 0);
  for (SimdLevel level : SupportedSimdLevels()) {
    uint8_t mask = 0;
    simd::DotSignBlocksAt(level, blocks.data(), 1, x.data(), dim, &mask);
    EXPECT_EQ(mask, 0xEF) << SimdLevelName(level);
  }
}

TEST(SimdKernelsTest, MinHashMatchesScalarOnRandomTokenSets) {
  Rng rng(DeriveSeed(13, 0x3147));
  for (size_t size : kTokenSizes) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<uint64_t> tokens(size);
      for (uint64_t& t : tokens) t = rng.Next();
      const uint64_t seed = rng.Next();
      const uint64_t reference = simd::MinHashTokensAt(
          SimdLevel::kScalar, tokens.data(), size, seed);
      for (SimdLevel level : SupportedSimdLevels()) {
        EXPECT_EQ(reference,
                  simd::MinHashTokensAt(level, tokens.data(), size, seed))
            << "minhash diverged on level " << SimdLevelName(level)
            << " at size " << size;
      }
    }
  }
}

TEST(SimdKernelsTest, MinHashEdgeSets) {
  // Empty set sentinel, extreme token values, all-identical tokens.
  for (SimdLevel level : SupportedSimdLevels()) {
    EXPECT_EQ(simd::MinHashTokensAt(level, nullptr, 0, 42),
              std::numeric_limits<uint64_t>::max())
        << "empty-set sentinel on " << SimdLevelName(level);
  }
  const std::vector<std::vector<uint64_t>> patterns = {
      {0},
      {std::numeric_limits<uint64_t>::max()},
      {0, std::numeric_limits<uint64_t>::max(), 1, 0x8000000000000000ull},
      std::vector<uint64_t>(17, 0xdeadbeefdeadbeefull),
  };
  for (const std::vector<uint64_t>& tokens : patterns) {
    for (uint64_t seed : {uint64_t{0}, uint64_t{1}, ~uint64_t{0}}) {
      const uint64_t reference = simd::MinHashTokensAt(
          SimdLevel::kScalar, tokens.data(), tokens.size(), seed);
      for (SimdLevel level : SupportedSimdLevels()) {
        EXPECT_EQ(reference, simd::MinHashTokensAt(level, tokens.data(),
                                                   tokens.size(), seed))
            << "minhash edge set on " << SimdLevelName(level);
      }
    }
  }
}

TEST(SimdKernelsTest, MinHashAgreesWithDirectSplitMix) {
  // The kernel's contract in terms of the primitive it vectorizes.
  std::vector<uint64_t> tokens = {5, 17, 99, 12345678901234567ull};
  const uint64_t seed = 0xfeed;
  uint64_t expected = std::numeric_limits<uint64_t>::max();
  for (uint64_t t : tokens) {
    expected = std::min(expected, SplitMix64(t ^ seed));
  }
  for (SimdLevel level : SupportedSimdLevels()) {
    EXPECT_EQ(expected, simd::MinHashTokensAt(level, tokens.data(),
                                              tokens.size(), seed));
  }
}

TEST(SimdDispatchTest, PinForcesBothKernels) {
  for (SimdLevel level : SupportedSimdLevels()) {
    int previous = SetSimdPin(static_cast<int>(level));
    EXPECT_EQ(simd::ActiveDotLevel(), level);
    EXPECT_EQ(simd::ActiveMinHashLevel(), level);
    SetSimdPin(previous);
  }
}

TEST(SimdDispatchTest, AutoResolvesToDetectedLevel) {
  int previous = SetSimdPin(kSimdLevelAuto);
  EXPECT_EQ(simd::ActiveDotLevel(), DetectSimdLevel());
  EXPECT_EQ(simd::ActiveMinHashLevel(), DetectSimdLevel());
  SetSimdPin(previous);
}

TEST(SimdDispatchTest, ScalarAlwaysListedFirst) {
  std::vector<SimdLevel> levels = SupportedSimdLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), SimdLevel::kScalar);
}

TEST(SimdDispatchTest, ParsePinRoundTrips) {
  for (SimdLevel level : SupportedSimdLevels()) {
    StatusOr<int> parsed = ParseSimdPin(SimdLevelName(level));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, static_cast<int>(level));
  }
  StatusOr<int> auto_pin = ParseSimdPin("auto");
  ASSERT_TRUE(auto_pin.ok());
  StatusOr<int> native = ParseSimdPin("native");
  ASSERT_TRUE(native.ok());
  EXPECT_EQ(*native, static_cast<int>(DetectSimdLevel()));
  EXPECT_EQ(*auto_pin, *native);
  EXPECT_FALSE(ParseSimdPin("sse9").ok());
}

TEST(SimdDispatchTest, AlignedBufferGrowPreservesAndZeroFills) {
  AlignedFloatBuffer buffer;
  buffer.GrowTo(10);
  ASSERT_EQ(buffer.size(), 10u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % kSimdAlign, 0u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(buffer.data()[i], 0.0f);
    buffer.data()[i] = static_cast<float>(i + 1);
  }
  buffer.GrowTo(1000);  // forces a reallocation past the doubled capacity
  ASSERT_EQ(buffer.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % kSimdAlign, 0u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(buffer.data()[i], static_cast<float>(i + 1));
  }
  for (size_t i = 10; i < 1000; ++i) {
    EXPECT_EQ(buffer.data()[i], 0.0f) << "grown region not zero-filled at "
                                      << i;
  }
}

}  // namespace
}  // namespace adalsh
