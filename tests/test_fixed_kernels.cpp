// Adversarial equality harness for the vectorized fixed-point kernels.
//
// The contract under test: for every int64-fast-path format (Q8.8, Q12.12,
// Q16.16) the scalar64 and AVX2 kernel tiers are bit-identical to the
// int128 reference arithmetic in fixed.hpp — fixed::operator* per product,
// fixed_accumulator for the adder tree, fixed::from_double for
// quantization. Sweeps deliberately hit the hard corners: the saturation
// rails, half-ULP tie products of both signs, negative exact multiples
// (where a naive floor-shift overshoots by one LSB), and randomized fuzzing
// per format. The AVX2/AVX-512 comparisons run only where the executing CPU
// has the tier; the scalar comparisons run everywhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "klinq/common/aligned.hpp"
#include "klinq/common/error.hpp"
#include "klinq/common/rng.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/data/trace_dataset.hpp"
#include "klinq/dsp/feature_pipeline.hpp"
#include "klinq/fixed/fixed.hpp"
#include "klinq/fixed/fixed_kernels.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/hw/quantized_network.hpp"
#include "klinq/kd/distiller.hpp"
#include "klinq/nn/init.hpp"
#include "klinq/nn/network.hpp"

namespace {

using namespace klinq;
namespace kernels = fx::kernels;
using fx::fixed;
using fx::fixed_accumulator;
using fx::q12_12;
using fx::q16_16;
using fx::q8_8;

// ---------------------------------------------------------------------------
// int128 references (the exact arithmetic the kernels must reproduce)
// ---------------------------------------------------------------------------

template <class Fixed>
std::int64_t ref_product(std::int32_t w, std::int32_t x) {
  return (Fixed::from_raw(w) * Fixed::from_raw(x)).raw();
}

template <class Fixed>
std::int64_t ref_mac_row(const std::vector<std::int32_t>& weights,
                         const std::vector<std::int32_t>& inputs,
                         std::int64_t bias_raw) {
  fixed_accumulator<Fixed> acc;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc.add(Fixed::from_raw(weights[i]) * Fixed::from_raw(inputs[i]));
  }
  acc.add_raw(bias_raw);
  return acc.result().raw();
}

template <class Fixed>
std::vector<std::int32_t> random_raws(xoshiro256& rng, std::size_t n,
                                      bool rail_heavy) {
  std::vector<std::int32_t> raws(n);
  for (auto& raw : raws) {
    if (rail_heavy && rng.uniform(0.0, 1.0) < 0.25) {
      raw = static_cast<std::int32_t>(
          rng.uniform(0.0, 1.0) < 0.5 ? Fixed::raw_max : Fixed::raw_min);
    } else {
      raw = static_cast<std::int32_t>(
          rng.uniform(static_cast<double>(Fixed::raw_min),
                      static_cast<double>(Fixed::raw_max)));
    }
  }
  return raws;
}

template <class Fixed>
class FixedKernelTest : public ::testing::Test {};

using FastFormats = ::testing::Types<q8_8, q12_12, q16_16>;
TYPED_TEST_SUITE(FixedKernelTest, FastFormats);

// ---------------------------------------------------------------------------
// The post-scaler: round_shift_clamp vs fixed::operator*
// ---------------------------------------------------------------------------

TYPED_TEST(FixedKernelTest, PostScalerMatchesInt128OnAdversarialProducts) {
  using Fixed = TypeParam;
  const auto spec = kernels::spec_of<Fixed>();
  const auto check = [&](std::int32_t w, std::int32_t x) {
    const std::int64_t product = static_cast<std::int64_t>(w) * x;
    ASSERT_EQ(kernels::round_shift_clamp(product, spec.frac_bits,
                                         spec.raw_min, spec.raw_max),
              ref_product<Fixed>(w, x))
        << "w=" << w << " x=" << x;
  };
  const auto max32 = static_cast<std::int32_t>(Fixed::raw_max);
  const auto min32 = static_cast<std::int32_t>(Fixed::raw_min);
  // Saturation rails in all sign combinations.
  for (const std::int32_t w : {max32, min32}) {
    for (const std::int32_t x : {max32, min32}) check(w, x);
  }
  // Half-ULP ties of both signs: with |w| = 1 the product's magnitude is
  // |x|, so x = k*2^F + 2^(F-1) lands exactly on the rounding boundary.
  const std::int64_t half = std::int64_t{1} << (Fixed::frac_bits - 1);
  for (std::int64_t k = -4; k <= 4; ++k) {
    const auto tie = static_cast<std::int32_t>(k * 2 * half + half);
    check(1, tie);
    check(-1, tie);
    check(1, static_cast<std::int32_t>(-tie));
    check(-1, static_cast<std::int32_t>(-tie));
  }
  // Negative exact multiples: product = -(k << F) must stay exactly -k.
  for (std::int64_t k = 1; k <= 8; ++k) {
    check(static_cast<std::int32_t>(-k), static_cast<std::int32_t>(2 * half));
  }
  // Randomized sweep across the full register range.
  xoshiro256 rng(2026);
  for (int trial = 0; trial < 200000; ++trial) {
    const auto pair = random_raws<Fixed>(rng, 2, true);
    check(pair[0], pair[1]);
  }
}

// ---------------------------------------------------------------------------
// mac_row: every tier vs the wide-accumulator reference
// ---------------------------------------------------------------------------

TYPED_TEST(FixedKernelTest, MacRowTiersMatchInt128Reference) {
  using Fixed = TypeParam;
  const auto spec = kernels::spec_of<Fixed>();
  xoshiro256 rng(7);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{31},
                              std::size_t{201}, std::size_t{1000}}) {
    for (int trial = 0; trial < 50; ++trial) {
      const bool rail_heavy = trial % 2 == 0;
      const auto weights = random_raws<Fixed>(rng, n, rail_heavy);
      const auto inputs = random_raws<Fixed>(rng, n, rail_heavy);
      const auto bias = static_cast<std::int64_t>(random_raws<Fixed>(
          rng, 1, rail_heavy)[0]);
      const std::int64_t reference = ref_mac_row<Fixed>(weights, inputs, bias);
      const bool in_range =
          kernels::products_in_range(weights.data(), n, spec);
      ASSERT_EQ(kernels::scalar64::mac_row(weights.data(), inputs.data(), n,
                                           bias, in_range, spec),
                reference)
          << "scalar64 n=" << n << " trial=" << trial;
      if (kernels::avx2_available()) {
        ASSERT_EQ(kernels::avx2::mac_row(weights.data(), inputs.data(), n,
                                         bias, in_range, spec),
                  reference)
            << "avx2 n=" << n << " trial=" << trial;
      }
      if (kernels::avx512_available()) {
        ASSERT_EQ(kernels::avx512::mac_row(weights.data(), inputs.data(), n,
                                           bias, in_range, spec),
                  reference)
            << "avx512 n=" << n << " trial=" << trial;
      }
      ASSERT_EQ(kernels::mac_row(weights.data(), inputs.data(), n, bias,
                                 in_range, spec),
                reference)
          << "dispatched n=" << n << " trial=" << trial;
    }
  }
}

TYPED_TEST(FixedKernelTest, MacRowSaturatesAccumulatorAtExtractionOnly) {
  using Fixed = TypeParam;
  const auto spec = kernels::spec_of<Fixed>();
  // Rail-magnitude products in both directions: the int64 accumulator must
  // survive far past the rails and saturate once at the end, exactly like
  // fixed_accumulator — and a later cancellation must bring it back.
  const auto one_raw = static_cast<std::int32_t>(std::int64_t{1}
                                                 << Fixed::frac_bits);
  const auto max32 = static_cast<std::int32_t>(Fixed::raw_max);
  std::vector<std::int32_t> weights(64, one_raw);
  std::vector<std::int32_t> inputs(64, max32);
  for (std::size_t i = 32; i < 64; ++i) inputs[i] = -max32;  // cancels
  // A weight of exactly 1.0 fails the row proof: the clamped path runs.
  ASSERT_FALSE(kernels::products_in_range(weights.data(), 64, spec));
  const std::int64_t balanced = ref_mac_row<Fixed>(weights, inputs, 0);
  EXPECT_EQ(kernels::scalar64::mac_row(weights.data(), inputs.data(), 64, 0,
                                       false, spec),
            balanced);
  inputs.assign(64, max32);
  const std::int64_t pinned = ref_mac_row<Fixed>(weights, inputs, 0);
  EXPECT_EQ(pinned, Fixed::raw_max);
  EXPECT_EQ(kernels::scalar64::mac_row(weights.data(), inputs.data(), 64, 0,
                                       false, spec),
            pinned);
  if (kernels::avx2_available()) {
    EXPECT_EQ(kernels::avx2::mac_row(weights.data(), inputs.data(), 64, 0,
                                     false, spec),
              pinned);
  }
  if (kernels::avx512_available()) {
    EXPECT_EQ(kernels::avx512::mac_row(weights.data(), inputs.data(), 64, 0,
                                       false, spec),
              pinned);
  }
}

// ---------------------------------------------------------------------------
// mac_tile: every lane of every neuron vs the reference, both activations
// ---------------------------------------------------------------------------

/// Lanes of the output planes beyond the tile must come back untouched.
constexpr std::int32_t kUntouchedLane = 0x5eed;

/// mac_tile's reference, lane by lane through the accumulator arithmetic.
template <class Fixed>
std::vector<std::int32_t> ref_mac_tile(const std::vector<std::int32_t>& weights,
                                       const std::vector<std::int32_t>& bias,
                                       std::size_t in_dim,
                                       const std::vector<std::int32_t>& plane,
                                       std::size_t tile, std::size_t stride,
                                       bool relu) {
  const std::size_t out_dim = bias.size();
  std::vector<std::int32_t> expected(out_dim * stride, kUntouchedLane);
  for (std::size_t neuron = 0; neuron < out_dim; ++neuron) {
    for (std::size_t s = 0; s < tile; ++s) {
      fixed_accumulator<Fixed> acc;
      for (std::size_t i = 0; i < in_dim; ++i) {
        acc.add(Fixed::from_raw(weights[neuron * in_dim + i]) *
                Fixed::from_raw(plane[i * stride + s]));
      }
      acc.add_raw(bias[neuron]);
      Fixed value = acc.result();
      if (relu && value.sign_bit()) value = Fixed::zero();
      expected[neuron * stride + s] = static_cast<std::int32_t>(value.raw());
    }
  }
  return expected;
}

/// The per-row flags quantized_network derives: products_in_range per row.
std::vector<std::uint8_t> row_flags(const std::vector<std::int32_t>& weights,
                                    std::size_t out_dim, std::size_t in_dim,
                                    const kernels::mac_spec& spec) {
  std::vector<std::uint8_t> flags(out_dim);
  for (std::size_t o = 0; o < out_dim; ++o) {
    flags[o] = kernels::products_in_range(weights.data() + o * in_dim, in_dim,
                                          spec);
  }
  return flags;
}

/// Runs every tier the host has (and the dispatched entry) over one layer
/// and expects each to match the int128 reference, lanes past the tile
/// untouched.
template <class Fixed>
void expect_mac_tile_tiers(const std::vector<std::int32_t>& weights,
                           const std::vector<std::int32_t>& bias,
                           const std::vector<std::uint8_t>& rows_in_range,
                           std::size_t in_dim,
                           const std::vector<std::int32_t>& plane,
                           std::size_t tile, bool relu,
                           const std::string& context) {
  using tile_fn = void (*)(const std::int32_t*, const std::int32_t*,
                           const std::uint8_t*, std::size_t, std::size_t,
                           const std::int32_t*, std::size_t, std::size_t,
                           bool, std::int32_t*,
                           const kernels::mac_spec&) noexcept;
  struct tier {
    const char* name;
    tile_fn run;
    bool available;
  };
  const tier tiers[] = {
      {"scalar64", kernels::scalar64::mac_tile, true},
      {"avx2", kernels::avx2::mac_tile, kernels::avx2_available()},
      {"avx512", kernels::avx512::mac_tile, kernels::avx512_available()},
      {"dispatched", kernels::mac_tile, true},
  };
  constexpr std::size_t stride = kernels::max_tile_lanes;
  const std::size_t out_dim = bias.size();
  const auto expected =
      ref_mac_tile<Fixed>(weights, bias, in_dim, plane, tile, stride, relu);
  for (const tier& t : tiers) {
    if (!t.available) continue;
    std::vector<std::int32_t> actual(out_dim * stride, kUntouchedLane);
    t.run(weights.data(), bias.data(), rows_in_range.data(), out_dim, in_dim,
          plane.data(), tile, stride, relu, actual.data(),
          kernels::spec_of<Fixed>());
    EXPECT_EQ(actual, expected) << t.name << " " << context;
  }
}

TYPED_TEST(FixedKernelTest, MacTileTiersMatchInt128Reference) {
  using Fixed = TypeParam;
  const auto spec = kernels::spec_of<Fixed>();
  constexpr std::size_t stride = kernels::max_tile_lanes;
  xoshiro256 rng(13);
  const std::size_t out_dim = 5;
  const std::size_t in_dim = 31;
  for (const std::size_t tile :
       {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{7},
        std::size_t{8}, std::size_t{33}, std::size_t{64}}) {
    for (const bool relu : {false, true}) {
      const auto weights = random_raws<Fixed>(rng, out_dim * in_dim, true);
      const auto bias_raws = random_raws<Fixed>(rng, out_dim, false);
      std::vector<std::int32_t> plane(in_dim * stride, 0);
      for (std::size_t i = 0; i < in_dim; ++i) {
        const auto lane = random_raws<Fixed>(rng, tile, true);
        std::copy(lane.begin(), lane.end(), plane.begin() + i * stride);
      }
      expect_mac_tile_tiers<Fixed>(
          weights, bias_raws, row_flags(weights, out_dim, in_dim, spec),
          in_dim, plane, tile, relu,
          "tile=" + std::to_string(tile) + " relu=" + std::to_string(relu));
    }
  }
}

/// Weights that pass the row proof, as trained students have them: a
/// quarter on ±(2^F - 1), the largest in-range magnitude, an eighth on
/// ±2^(F-1) (0.5, whose products with odd inputs land exactly on half-ULP
/// ties), the rest uniform in (-1, 1).
template <class Fixed>
std::vector<std::int32_t> in_range_raws(xoshiro256& rng, std::size_t n) {
  const std::int64_t limit = (std::int64_t{1} << Fixed::frac_bits) - 1;
  const std::int64_t half = std::int64_t{1} << (Fixed::frac_bits - 1);
  std::vector<std::int32_t> raws(n);
  for (auto& raw : raws) {
    const double pick = rng.uniform(0.0, 1.0);
    const std::int64_t sign = rng.uniform(0.0, 1.0) < 0.5 ? -1 : 1;
    const std::int64_t magnitude =
        pick < 0.25    ? limit
        : pick < 0.375 ? half
                       : static_cast<std::int64_t>(rng.uniform(
                             0.0, static_cast<double>(limit)));
    raw = static_cast<std::int32_t>(sign * magnitude);
  }
  return raws;
}

/// Inputs that drive the largest products and the rounding corners: both
/// rails, odd values (ties against a 0.5 weight), exact multiples of 2^F
/// of both signs, and random full-range registers.
template <class Fixed>
std::vector<std::int32_t> corner_raws(xoshiro256& rng, std::size_t n) {
  const std::int64_t one = std::int64_t{1} << Fixed::frac_bits;
  std::vector<std::int32_t> raws(n);
  for (auto& raw : raws) {
    const double pick = rng.uniform(0.0, 1.0);
    const auto k = static_cast<std::int64_t>(rng.uniform(-64.0, 64.0));
    raw = static_cast<std::int32_t>(
        pick < 0.15   ? Fixed::raw_max
        : pick < 0.3  ? Fixed::raw_min
        : pick < 0.45 ? 2 * k + 1
        : pick < 0.55 ? k * one
                      : static_cast<std::int64_t>(rng.uniform(
                            static_cast<double>(Fixed::raw_min),
                            static_cast<double>(Fixed::raw_max))));
  }
  return raws;
}

TYPED_TEST(FixedKernelTest, MacTileInRangeRowsMatchInt128Reference) {
  using Fixed = TypeParam;
  const auto spec = kernels::spec_of<Fixed>();
  constexpr std::size_t stride = kernels::max_tile_lanes;
  xoshiro256 rng(2029);
  for (const std::size_t out_dim : {1, 3, 4, 5, 8, 16}) {
    for (const std::size_t in_dim : {1, 31, 201}) {
      for (const std::size_t tile : {1, 3, 8, 15, 16, 17, 33, 64}) {
        for (const bool relu : {false, true}) {
          const auto weights = in_range_raws<Fixed>(rng, out_dim * in_dim);
          const auto flags = row_flags(weights, out_dim, in_dim, spec);
          ASSERT_TRUE(std::all_of(flags.begin(), flags.end(),
                                  [](std::uint8_t f) { return f == 1; }));
          const auto bias = random_raws<Fixed>(rng, out_dim, true);
          std::vector<std::int32_t> plane(in_dim * stride, kUntouchedLane);
          for (std::size_t i = 0; i < in_dim; ++i) {
            const auto lane = corner_raws<Fixed>(rng, tile);
            std::copy(lane.begin(), lane.end(), plane.begin() + i * stride);
          }
          expect_mac_tile_tiers<Fixed>(
              weights, bias, flags, in_dim, plane, tile, relu,
              "out=" + std::to_string(out_dim) + " in=" +
                  std::to_string(in_dim) + " tile=" + std::to_string(tile) +
                  " relu=" + std::to_string(relu));
        }
      }
    }
  }
}

// One row of a 4-row block fails the proof (a weight of -1.0, whose product
// with raw_min passes raw_max, or a rail weight): the whole block must keep
// the clamp, while the other blocks and the tail rows run without it.
TYPED_TEST(FixedKernelTest, MacTileMixedBlockKeepsTheClamp) {
  using Fixed = TypeParam;
  const auto spec = kernels::spec_of<Fixed>();
  constexpr std::size_t stride = kernels::max_tile_lanes;
  const std::size_t out_dim = 9;  // two 4-row blocks and a tail row
  const std::size_t in_dim = 31;
  const std::size_t tile = 37;
  const auto min32 = static_cast<std::int32_t>(Fixed::raw_min);
  const auto max32 = static_cast<std::int32_t>(Fixed::raw_max);
  const auto minus_one =
      static_cast<std::int32_t>(-(std::int64_t{1} << Fixed::frac_bits));
  xoshiro256 rng(2030);
  for (const std::int32_t culprit : {minus_one, max32, min32}) {
    for (const std::size_t row : {std::size_t{2}, std::size_t{8}}) {
      auto weights = in_range_raws<Fixed>(rng, out_dim * in_dim);
      weights[row * in_dim + 5] = culprit;
      // Feature 5 drives the culprit's product past a rail; feature 6 adds
      // a product of about -8 that pulls the sum back inside, so the
      // per-product clamp decides the output, not the root's saturation.
      weights[row * in_dim + 6] = static_cast<std::int32_t>(
          -((std::int64_t{1} << Fixed::frac_bits) - 1));
      std::vector<std::int32_t> plane(in_dim * stride, 0);
      for (std::size_t s = 0; s < tile; ++s) {
        plane[5 * stride + s] = s % 2 == 0 ? min32 : max32;
        plane[6 * stride + s] = 8 << Fixed::frac_bits;
      }
      const auto flags = row_flags(weights, out_dim, in_dim, spec);
      for (std::size_t o = 0; o < out_dim; ++o) {
        ASSERT_EQ(flags[o], o == row ? 0 : 1) << "row " << o;
      }
      const std::vector<std::int32_t> bias(out_dim, 0);
      const std::string context = "culprit=" + std::to_string(culprit) +
                                  " row=" + std::to_string(row);
      expect_mac_tile_tiers<Fixed>(weights, bias, flags, in_dim, plane, tile,
                                   false, context);
      // The case is sharp: the same block run without the clamp differs.
      const std::vector<std::uint8_t> wrong(out_dim, 1);
      std::vector<std::int32_t> unclamped(out_dim * stride, kUntouchedLane);
      kernels::scalar64::mac_tile(weights.data(), bias.data(), wrong.data(),
                                  out_dim, in_dim, plane.data(), tile, stride,
                                  false, unclamped.data(), spec);
      EXPECT_NE(unclamped, ref_mac_tile<Fixed>(weights, bias, in_dim, plane,
                                               tile, stride, false))
          << context;
    }
  }
}

TYPED_TEST(FixedKernelTest, MacRowInRangeMatchesInt128Reference) {
  using Fixed = TypeParam;
  const auto spec = kernels::spec_of<Fixed>();
  xoshiro256 rng(2031);
  for (const std::size_t n : {1, 3, 7, 8, 15, 16, 17, 31, 201, 1000}) {
    for (int trial = 0; trial < 20; ++trial) {
      const auto weights = in_range_raws<Fixed>(rng, n);
      const auto inputs = corner_raws<Fixed>(rng, n);
      const auto bias =
          static_cast<std::int64_t>(random_raws<Fixed>(rng, 1, true)[0]);
      ASSERT_TRUE(kernels::products_in_range(weights.data(), n, spec));
      const std::int64_t reference = ref_mac_row<Fixed>(weights, inputs, bias);
      // The clamped path is valid for any row; the short one needs the proof.
      for (const bool in_range : {true, false}) {
        const std::string context = "n=" + std::to_string(n) +
                                    " in_range=" + std::to_string(in_range);
        ASSERT_EQ(kernels::scalar64::mac_row(weights.data(), inputs.data(), n,
                                             bias, in_range, spec),
                  reference)
            << "scalar64 " << context;
        if (kernels::avx2_available()) {
          ASSERT_EQ(kernels::avx2::mac_row(weights.data(), inputs.data(), n,
                                           bias, in_range, spec),
                    reference)
              << "avx2 " << context;
        }
        if (kernels::avx512_available()) {
          ASSERT_EQ(kernels::avx512::mac_row(weights.data(), inputs.data(), n,
                                             bias, in_range, spec),
                    reference)
              << "avx512 " << context;
        }
        ASSERT_EQ(kernels::mac_row(weights.data(), inputs.data(), n, bias,
                                   in_range, spec),
                  reference)
            << "dispatched " << context;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The row proof is chosen exactly when it holds
// ---------------------------------------------------------------------------

TYPED_TEST(FixedKernelTest, ProductsInRangeHoldsExactlyBelowOne) {
  using Fixed = TypeParam;
  const auto spec = kernels::spec_of<Fixed>();
  const std::int64_t one = std::int64_t{1} << Fixed::frac_bits;
  const auto in_range = [&](std::vector<std::int64_t> raws) {
    std::vector<std::int32_t> row(raws.begin(), raws.end());
    return kernels::products_in_range(row.data(), row.size(), spec);
  };
  EXPECT_TRUE(in_range({}));
  EXPECT_TRUE(in_range({0}));
  EXPECT_TRUE(in_range({one - 1}));
  EXPECT_TRUE(in_range({-(one - 1)}));
  EXPECT_TRUE(in_range({one - 1, -(one - 1), 0, 1, -1}));
  EXPECT_FALSE(in_range({one}));
  EXPECT_FALSE(in_range({-one}));
  EXPECT_FALSE(in_range({Fixed::raw_max}));
  EXPECT_FALSE(in_range({Fixed::raw_min}));
  EXPECT_FALSE(in_range({0, one - 1, 1, one}));  // the last entry counts

  // The bound is tight: the largest in-range weight times either rail
  // stays inside the rails, while -1.0 times raw_min already passes one.
  const auto rounded = [&](std::int64_t w, std::int64_t x) {
    return kernels::round_shift(w * x, spec.frac_bits);
  };
  for (const std::int64_t w : {one - 1, -(one - 1)}) {
    for (const std::int64_t x : {Fixed::raw_max, Fixed::raw_min}) {
      EXPECT_LE(rounded(w, x), Fixed::raw_max) << w << " * " << x;
      EXPECT_GE(rounded(w, x), Fixed::raw_min) << w << " * " << x;
    }
  }
  EXPECT_GT(rounded(-one, Fixed::raw_min), Fixed::raw_max);

  // Random rows: true exactly when max |w| <= 2^F - 1.
  xoshiro256 rng(2032);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform(1.0, 40.0));
    auto row = in_range_raws<Fixed>(rng, n);
    if (trial % 2 == 1) {
      row[static_cast<std::size_t>(rng.uniform(0.0, static_cast<double>(n))) %
          n] = random_raws<Fixed>(rng, 1, true)[0];
    }
    std::int64_t largest = 0;
    for (const std::int32_t w : row) {
      largest = std::max(largest, std::abs(static_cast<std::int64_t>(w)));
    }
    ASSERT_EQ(kernels::products_in_range(row.data(), n, spec),
              largest <= one - 1)
        << "trial " << trial;
  }
}

TYPED_TEST(FixedKernelTest, QuantizedNetworkRowFlagsMatchTheProof) {
  using Fixed = TypeParam;
  const auto spec = kernels::spec_of<Fixed>();
  xoshiro256 rng(2033);
  auto float_net = nn::make_mlp(31, {16, 8});
  float_net.initialize(nn::weight_init::he_normal, rng);
  // Every weight of layer 0 inside (-1, 1) except one at exactly 1.0 in
  // row 6; layer 1 keeps its He-normal draws.
  auto& first = float_net.layer(0).weights();
  for (std::size_t o = 0; o < first.rows(); ++o) {
    for (std::size_t i = 0; i < first.cols(); ++i) {
      first(o, i) = static_cast<float>(rng.uniform(-0.9, 0.9));
    }
  }
  first(6, 17) = 1.0f;
  const hw::quantized_network<Fixed> net(float_net);
  const auto rows = net.layer_rows_in_range(0);
  ASSERT_EQ(rows.size(), 16u);
  for (std::size_t o = 0; o < rows.size(); ++o) {
    EXPECT_EQ(rows[o], o == 6 ? 0 : 1) << "row " << o;
  }
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    const auto& weights = net.layer_weights(l);
    const std::size_t out_dim = net.layer_bias(l).size();
    const std::size_t in_dim = weights.size() / out_dim;
    std::vector<std::int32_t> raws;
    for (const Fixed w : weights) {
      raws.push_back(static_cast<std::int32_t>(w.raw()));
    }
    const auto expected = row_flags(raws, out_dim, in_dim, spec);
    const auto flags = net.layer_rows_in_range(l);
    EXPECT_TRUE(std::equal(flags.begin(), flags.end(), expected.begin(),
                           expected.end()))
        << "layer " << l;
  }
}

// ---------------------------------------------------------------------------
// quantize_block vs fixed::from_double
// ---------------------------------------------------------------------------

TYPED_TEST(FixedKernelTest, QuantizeBlockMatchesFromDouble) {
  using Fixed = TypeParam;
  const auto spec = kernels::spec_of<Fixed>();
  std::vector<float> values;
  // Tie lattice around zero: (k + 0.5) LSB steps in both signs, plus the
  // floats just either side of each tie.
  for (int k = -64; k <= 64; ++k) {
    const auto tie = static_cast<float>((static_cast<double>(k) + 0.5) *
                                        Fixed::resolution());
    values.push_back(tie);
    values.push_back(std::nextafter(tie, 0.0f));
    values.push_back(std::nextafter(tie, 2.0f * tie));
  }
  // A strided sweep over every float bit pattern: all exponents, both
  // signs, subnormals, infinities and NaN payloads.
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << 32);
       bits += 65521) {
    const auto pattern = static_cast<std::uint32_t>(bits);
    float value = 0.0f;
    std::memcpy(&value, &pattern, sizeof(value));
    values.push_back(value);
  }
  // Rails and beyond, NaN, signed zero, infinities, tiny magnitudes.
  const double rail = static_cast<double>(Fixed::raw_max) *
                      Fixed::resolution();
  for (const double v :
       {rail - 1.0, rail, rail + 1.0, -rail, -rail - 1.0, 1e30, -1e30, 0.0,
        -0.0, 1e-30, -1e-30}) {
    values.push_back(static_cast<float>(v));
  }
  values.push_back(std::numeric_limits<float>::quiet_NaN());
  values.push_back(std::numeric_limits<float>::infinity());
  values.push_back(-std::numeric_limits<float>::infinity());
  xoshiro256 rng(99);
  for (int trial = 0; trial < 5000; ++trial) {
    values.push_back(
        static_cast<float>(rng.uniform(-2.5 * rail, 2.5 * rail)));
  }
  std::vector<std::int32_t> expected(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    expected[i] =
        static_cast<std::int32_t>(Fixed::from_double(values[i]).raw());
  }
  std::vector<std::int32_t> scalar(values.size(), -1);
  kernels::scalar64::quantize_block(values.data(), values.size(),
                                    scalar.data(), spec);
  EXPECT_EQ(scalar, expected);
  if (kernels::avx2_available()) {
    std::vector<std::int32_t> simd(values.size(), -1);
    kernels::avx2::quantize_block(values.data(), values.size(), simd.data(),
                                  spec);
    EXPECT_EQ(simd, expected);
  }
  if (kernels::avx512_available()) {
    std::vector<std::int32_t> simd(values.size(), -1);
    kernels::avx512::quantize_block(values.data(), values.size(), simd.data(),
                                    spec);
    EXPECT_EQ(simd, expected);
  }
  std::vector<std::int32_t> dispatched(values.size(), -1);
  kernels::quantize_block(values.data(), values.size(), dispatched.data(),
                          spec);
  EXPECT_EQ(dispatched, expected);
}

// ---------------------------------------------------------------------------
// frontend_tile: every tier vs quantize_trace + extract (the fixed<I,F> path)
// ---------------------------------------------------------------------------

template <class T>
void put(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// A fitted pipeline carrying exactly these calibration constants, built
/// through its serialized form (header, matched filter, normalizer) because
/// fitting cannot pin x_min and the shift exponents. An empty envelope
/// means no matched filter.
dsp::feature_pipeline pipeline_with(std::size_t groups,
                                    const std::vector<float>& envelope,
                                    const std::vector<float>& x_min,
                                    const std::vector<int>& shift) {
  std::stringstream blob;
  blob.write("KLNQFPL1", 8);
  put(blob, static_cast<std::uint64_t>(groups));
  put(blob, static_cast<std::uint8_t>(envelope.empty() ? 0 : 1));
  put(blob, static_cast<std::uint8_t>(dsp::norm_mode::pow2_shift));
  if (!envelope.empty()) dsp::matched_filter(envelope).save(blob);
  blob.write("KLNQNRM1", 8);
  put(blob, static_cast<std::uint64_t>(x_min.size()));
  put(blob, static_cast<std::uint8_t>(dsp::norm_mode::pow2_shift));
  blob.write(reinterpret_cast<const char*>(x_min.data()),
             static_cast<std::streamsize>(x_min.size() * sizeof(float)));
  const std::vector<float> sigma(x_min.size(), 1.0f);
  blob.write(reinterpret_cast<const char*>(sigma.data()),
             static_cast<std::streamsize>(sigma.size() * sizeof(float)));
  blob.write(reinterpret_cast<const char*>(shift.data()),
             static_cast<std::streamsize>(shift.size() * sizeof(int)));
  return dsp::feature_pipeline::load(blob);
}

/// Front-end geometry under test: N samples per quadrature, G groups.
struct frontend_case {
  std::size_t n;
  std::size_t groups;
  bool matched_filter;
};

/// Group lengths 5 (G = 100) and 33/34 (G = 15) at N = 500, lengths that
/// do not divide N (N = 97, G = 10), and a front end without MF.
constexpr frontend_case kFrontendCases[] = {
    {500, 100, true}, {500, 15, true}, {97, 10, true}, {500, 15, false}};

/// NORM exponents cycled over the features: left shifts past the 32-bit
/// cap, at it and below, zero, and right shifts up to and past the 62-bit
/// cap (k >= 32 rounds every register to 0 or ±1).
constexpr int kShiftCycle[] = {-40, -33, -32, -31, -6, -1, 0,
                               1,   5,   16,  31,  32, 62, 70};

/// Calibration constants that hit the NORM corners: x_min on and past the
/// rails (the saturating subtract), tiny and ordinary offsets.
template <class Fixed>
dsp::feature_pipeline adversarial_pipeline(const frontend_case& shape,
                                           xoshiro256& rng) {
  const double rail = static_cast<double>(Fixed::raw_max) *
                      Fixed::resolution();
  std::vector<float> envelope;
  if (shape.matched_filter) {
    envelope.resize(2 * shape.n);
    for (std::size_t i = 0; i < envelope.size(); ++i) {
      envelope[i] = i % 97 == 0   ? static_cast<float>(rail)
                    : i % 89 == 0 ? static_cast<float>(-rail)
                                  : static_cast<float>(rng.uniform(-1.5, 1.5));
    }
  }
  const std::size_t width = 2 * shape.groups + (shape.matched_filter ? 1 : 0);
  std::vector<float> x_min(width);
  std::vector<int> shift(width);
  for (std::size_t c = 0; c < width; ++c) {
    const double pick = rng.uniform(0.0, 1.0);
    x_min[c] = pick < 0.1   ? static_cast<float>(2.0 * rail)
               : pick < 0.2 ? static_cast<float>(-2.0 * rail)
               : pick < 0.3 ? static_cast<float>(Fixed::resolution())
                            : static_cast<float>(rng.uniform(-2.0, 2.0));
    shift[c] = kShiftCycle[c % std::size(kShiftCycle)];
  }
  return pipeline_with(shape.groups, envelope, x_min, shift);
}

/// ADC traces that hit the quantizer corners: rails and beyond, ±inf, NaN,
/// ±0, denormals, half-ULP ties of both signs, and random full-range
/// values; one lane in eight is pinned to a rail to drive saturating sums.
template <class Fixed>
std::vector<float> adversarial_trace(std::size_t n, xoshiro256& rng) {
  const double lsb = Fixed::resolution();
  const double rail = static_cast<double>(Fixed::raw_max) * lsb;
  const float specials[] = {
      static_cast<float>(rail),
      static_cast<float>(-rail),
      static_cast<float>(rail + 1.0),
      static_cast<float>(-rail - 1.0),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      1e-30f,
  };
  std::vector<float> trace(2 * n);
  const bool pinned = rng.uniform(0.0, 1.0) < 0.125;
  for (auto& v : trace) {
    const double pick = rng.uniform(0.0, 1.0);
    if (pinned) {
      v = static_cast<float>(rail);
    } else if (pick < 0.1) {
      v = specials[static_cast<std::size_t>(rng.uniform(0.0, 1.0) *
                                            std::size(specials)) %
                   std::size(specials)];
    } else if (pick < 0.3) {
      // (k + 1/2) LSB: a half-ULP tie, either sign.
      const double k = std::floor(rng.uniform(-300.0, 300.0));
      v = static_cast<float>((k + 0.5) * lsb);
    } else if (pick < 0.4) {
      v = static_cast<float>(rng.uniform(-2.5 * rail, 2.5 * rail));
    } else {
      v = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
  }
  return trace;
}

/// The fixed<I,F> reference features of one trace: quantize_trace + extract.
template <class Fixed>
std::vector<Fixed> reference_features(const hw::fixed_frontend<Fixed>& frontend,
                                      std::span<const float> trace,
                                      std::size_t n) {
  std::vector<Fixed> features(frontend.output_width());
  frontend.extract(hw::fixed_frontend<Fixed>::quantize_trace(trace), n,
                   features);
  return features;
}

TYPED_TEST(FixedKernelTest, FrontendTileTiersMatchFixedReference) {
  using Fixed = TypeParam;
  using tile_fn = void (*)(const float* const*, std::size_t,
                           const kernels::frontend_spec&, std::int32_t*,
                           std::size_t, const kernels::mac_spec&) noexcept;
  struct tier {
    const char* name;
    tile_fn run;
    bool available;
  };
  const tier tiers[] = {
      {"scalar64", kernels::scalar64::frontend_tile, true},
      {"avx2", kernels::avx2::frontend_tile, kernels::avx2_available()},
      {"avx512", kernels::avx512::frontend_tile, kernels::avx512_available()},
      {"dispatched", kernels::frontend_tile, true},
  };
  constexpr std::size_t stride = kernels::max_tile_lanes;
  constexpr std::int32_t kUntouched = 0x5eed;
  xoshiro256 rng(2027);
  for (const frontend_case& shape : kFrontendCases) {
    const hw::fixed_frontend<Fixed> frontend(
        adversarial_pipeline<Fixed>(shape, rng));
    const std::size_t width = frontend.output_width();
    std::vector<std::vector<float>> traces;
    std::vector<const float*> lanes_in;
    std::vector<std::vector<Fixed>> expected;
    for (std::size_t s = 0; s < stride; ++s) {
      traces.push_back(adversarial_trace<Fixed>(shape.n, rng));
      lanes_in.push_back(traces.back().data());
      expected.push_back(reference_features(frontend, traces.back(), shape.n));
    }
    hw::frontend_layout spare;
    const kernels::frontend_spec spec = frontend.kernel_spec(shape.n, spare);
    for (const tier& t : tiers) {
      if (!t.available) continue;
      for (std::size_t lanes = 1; lanes <= stride; ++lanes) {
        std::vector<std::int32_t> plane(width * stride, kUntouched);
        t.run(lanes_in.data(), lanes, spec, plane.data(), stride,
              kernels::spec_of<Fixed>());
        for (std::size_t c = 0; c < width; ++c) {
          for (std::size_t s = 0; s < stride; ++s) {
            const std::int64_t want =
                s < lanes ? expected[s][c].raw() : kUntouched;
            ASSERT_EQ(plane[c * stride + s], want)
                << t.name << " N=" << shape.n << " G=" << shape.groups
                << " mf=" << shape.matched_filter << " lanes=" << lanes
                << " feature=" << c << " shot=" << s
                << " shift=" << spec.shift[c];
          }
        }
      }
    }
    // extract_raw (over quantize_trace_raw registers) is the same function.
    std::vector<std::int32_t> raw(2 * shape.n);
    std::vector<std::int32_t> row(width);
    for (std::size_t s = 0; s < 8; ++s) {
      hw::fixed_frontend<Fixed>::quantize_trace_raw(traces[s], raw);
      frontend.extract_raw(raw, shape.n, row.data(), 1);
      for (std::size_t c = 0; c < width; ++c) {
        ASSERT_EQ(row[c], expected[s][c].raw())
            << "extract_raw N=" << shape.n << " feature=" << c;
      }
    }
  }
}

// A trained-style envelope (every tap below 1.0) puts the MF products on
// the unclamped path; taps at exactly -1.0 put them back on the clamp.
// Either way every tier equals the fixed<I,F> reference, and the clamped
// path stays valid for in-range taps too.
TYPED_TEST(FixedKernelTest, FrontendTileInRangeTapsMatchFixedReference) {
  using Fixed = TypeParam;
  using tile_fn = void (*)(const float* const*, std::size_t,
                           const kernels::frontend_spec&, std::int32_t*,
                           std::size_t, const kernels::mac_spec&) noexcept;
  struct tier {
    const char* name;
    tile_fn run;
    bool available;
  };
  const tier tiers[] = {
      {"scalar64", kernels::scalar64::frontend_tile, true},
      {"avx2", kernels::avx2::frontend_tile, kernels::avx2_available()},
      {"avx512", kernels::avx512::frontend_tile, kernels::avx512_available()},
      {"dispatched", kernels::frontend_tile, true},
  };
  const auto spec = kernels::spec_of<Fixed>();
  constexpr std::size_t stride = kernels::max_tile_lanes;
  const frontend_case shape{97, 10, true};
  const std::size_t width = 2 * shape.groups + 1;
  const auto below_one = static_cast<float>(1.0 - Fixed::resolution());
  xoshiro256 rng(2034);
  for (const bool taps_in_range : {true, false}) {
    std::vector<float> envelope(2 * shape.n);
    for (std::size_t i = 0; i < envelope.size(); ++i) {
      envelope[i] = i % 5 == 0   ? below_one
                    : i % 5 == 1 ? -below_one
                                 : static_cast<float>(rng.uniform(-0.99, 0.99));
      if (!taps_in_range && i % 7 == 3) envelope[i] = -1.0f;
    }
    std::vector<float> x_min(width);
    std::vector<int> shift(width);
    for (std::size_t c = 0; c < width; ++c) {
      x_min[c] = static_cast<float>(rng.uniform(-2.0, 2.0));
      shift[c] = kShiftCycle[c % std::size(kShiftCycle)];
    }
    const hw::fixed_frontend<Fixed> frontend(
        pipeline_with(shape.groups, envelope, x_min, shift));
    hw::frontend_layout spare;
    const kernels::frontend_spec chosen = frontend.kernel_spec(shape.n, spare);
    ASSERT_EQ(chosen.taps_in_range, taps_in_range);
    ASSERT_EQ(chosen.taps_in_range,
              kernels::products_in_range(chosen.envelope, 2 * shape.n, spec));
    std::vector<std::vector<float>> traces;
    std::vector<const float*> lanes_in;
    std::vector<std::vector<Fixed>> expected;
    for (std::size_t s = 0; s < stride; ++s) {
      traces.push_back(adversarial_trace<Fixed>(shape.n, rng));
      lanes_in.push_back(traces.back().data());
      expected.push_back(reference_features(frontend, traces.back(), shape.n));
    }
    kernels::frontend_spec clamped = chosen;
    clamped.taps_in_range = false;
    for (const kernels::frontend_spec& fspec : {chosen, clamped}) {
      for (const tier& t : tiers) {
        if (!t.available) continue;
        for (const std::size_t lanes : {1, 3, 4, 5, 8, 9, 17, 64}) {
          std::vector<std::int32_t> plane(width * stride, kUntouchedLane);
          t.run(lanes_in.data(), lanes, fspec, plane.data(), stride, spec);
          for (std::size_t c = 0; c < width; ++c) {
            for (std::size_t s = 0; s < stride; ++s) {
              const std::int64_t want =
                  s < lanes ? expected[s][c].raw() : kUntouchedLane;
              ASSERT_EQ(plane[c * stride + s], want)
                  << t.name << " taps_in_range=" << fspec.taps_in_range
                  << " lanes=" << lanes << " feature=" << c << " shot=" << s;
            }
          }
        }
      }
    }
    // extract_raw runs the MF through mac_row with the same flag.
    std::vector<std::int32_t> raw(2 * shape.n);
    std::vector<std::int32_t> row(width);
    for (std::size_t s = 0; s < 8; ++s) {
      hw::fixed_frontend<Fixed>::quantize_trace_raw(traces[s], raw);
      frontend.extract_raw(raw, shape.n, row.data(), 1);
      for (std::size_t c = 0; c < width; ++c) {
        ASSERT_EQ(row[c], expected[s][c].raw())
            << "extract_raw taps_in_range=" << taps_in_range
            << " feature=" << c;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Network parity: forward_logits_plane / forward_logit vs the int128 pass
// ---------------------------------------------------------------------------

template <class Fixed>
Fixed ref_forward(const nn::network& float_net,
                  const hw::quantized_network<Fixed>& net,
                  std::span<const Fixed> input) {
  std::vector<Fixed> current(input.begin(), input.end());
  std::vector<Fixed> next;
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    const auto& weights = net.layer_weights(l);
    const auto& bias = net.layer_bias(l);
    const std::size_t out_dim = bias.size();
    const std::size_t in_dim = current.size();
    next.assign(out_dim, Fixed::zero());
    for (std::size_t neuron = 0; neuron < out_dim; ++neuron) {
      fixed_accumulator<Fixed> acc;
      for (std::size_t i = 0; i < in_dim; ++i) {
        acc.add(weights[neuron * in_dim + i] * current[i]);
      }
      acc.add(bias[neuron]);
      Fixed value = acc.result();
      if (float_net.layer(l).act() == nn::activation::relu &&
          value.sign_bit()) {
        value = Fixed::zero();
      }
      next[neuron] = value;
    }
    current.swap(next);
  }
  return current.front();
}

TYPED_TEST(FixedKernelTest, ForwardLogitsMatchInt128ReferenceUnderPool) {
  using Fixed = TypeParam;
  xoshiro256 rng(31);
  auto float_net = nn::make_mlp(31, {16, 8});
  float_net.initialize(nn::weight_init::he_normal, rng);
  const hw::quantized_network<Fixed> net(float_net);

  const std::size_t shots = 130;  // two full tiles + a ragged tail
  la::matrix<Fixed> inputs(shots, 31);
  for (std::size_t r = 0; r < shots; ++r) {
    for (std::size_t c = 0; c < 31; ++c) {
      inputs(r, c) = Fixed::from_double(rng.uniform(-4.0, 4.0));
    }
  }
  std::vector<Fixed> expected(shots);
  for (std::size_t r = 0; r < shots; ++r) {
    expected[r] = ref_forward<Fixed>(float_net, net, inputs.row(r));
  }

  // Batched (kernel tile path), serial: the inputs transposed into the
  // feature-major kBatchTile plane the discriminator's tile feeds.
  constexpr std::size_t kTile = hw::quantized_network<Fixed>::kBatchTile;
  hw::quantized_scratch<Fixed> scratch;
  aligned_vector<std::int32_t> plane(31 * kTile);
  std::int32_t logits[kTile];
  for (std::size_t begin = 0; begin < shots; begin += kTile) {
    const std::size_t tile = std::min(kTile, shots - begin);
    for (std::size_t s = 0; s < tile; ++s) {
      for (std::size_t c = 0; c < 31; ++c) {
        plane[c * kTile + s] =
            static_cast<std::int32_t>(inputs(begin + s, c).raw());
      }
    }
    net.forward_logits_plane(plane.data(), tile, logits, scratch);
    for (std::size_t s = 0; s < tile; ++s) {
      ASSERT_EQ(logits[s], expected[begin + s].raw()) << "row " << begin + s;
    }
  }

  // Single-shot (kernel row path).
  for (std::size_t r = 0; r < shots; r += 17) {
    ASSERT_EQ(net.forward_logit(inputs.row(r), scratch).raw(),
              expected[r].raw())
        << "row " << r;
  }

  // Under the pool: per-chunk scratch, exactly like fixed_discriminator.
  std::vector<Fixed> pooled(shots);
  parallel_for_chunked(0, shots, [&](std::size_t begin, std::size_t end) {
    hw::quantized_scratch<Fixed> local;
    for (std::size_t r = begin; r < end; ++r) {
      pooled[r] = net.forward_logit(inputs.row(r), local);
    }
  });
  for (std::size_t r = 0; r < shots; ++r) {
    ASSERT_EQ(pooled[r].raw(), expected[r].raw()) << "row " << r;
  }
}

// Every discriminator entry point runs the fused tile; each must equal the
// int128 forward of the reference features, for any tile shape.
TYPED_TEST(FixedKernelTest, DiscriminatorEntryPointsMatchInt128Reference) {
  using Fixed = TypeParam;
  xoshiro256 rng(2028);
  for (const frontend_case& shape : kFrontendCases) {
    const dsp::feature_pipeline pipeline =
        adversarial_pipeline<Fixed>(shape, rng);
    auto float_net = nn::make_mlp(pipeline.output_width(), {16, 8});
    float_net.initialize(nn::weight_init::he_normal, rng);
    const hw::fixed_discriminator<Fixed> discriminator(
        kd::student_model(pipeline, float_net));
    const std::size_t shots = 129;  // two full tiles + a one-shot tail
    data::trace_dataset dataset(shots, shape.n);
    for (std::size_t r = 0; r < shots; ++r) {
      dataset.append(adversarial_trace<Fixed>(shape.n, rng), r % 2 == 0);
    }
    std::vector<std::int64_t> expected(shots);
    for (std::size_t r = 0; r < shots; ++r) {
      const std::vector<Fixed> features = reference_features(
          discriminator.frontend(), dataset.trace(r), shape.n);
      expected[r] =
          ref_forward<Fixed>(float_net, discriminator.net(), features).raw();
    }
    const auto context = [&](const char* entry) {
      return std::string(entry) + " N=" + std::to_string(shape.n) +
             " G=" + std::to_string(shape.groups) +
             " mf=" + std::to_string(shape.matched_filter);
    };

    hw::discriminator_scratch<Fixed> scratch;
    std::vector<Fixed> block(shots);
    discriminator.logits_block(dataset, 0, shots, block, scratch);
    std::vector<Fixed> pooled(shots);
    discriminator.logits(dataset, pooled);
    for (std::size_t r = 0; r < shots; ++r) {
      ASSERT_EQ(block[r].raw(), expected[r]) << context("block") << " row "
                                             << r;
      ASSERT_EQ(pooled[r].raw(), expected[r]) << context("logits") << " row "
                                              << r;
      ASSERT_EQ(discriminator.logit(dataset.trace(r), shape.n, scratch).raw(),
                expected[r])
          << context("logit") << " row " << r;
    }

    for (const std::size_t lanes : {1, 2, 3, 7, 8, 9, 33, 64}) {
      std::vector<const data::trace_dataset*> sets(lanes, &dataset);
      std::vector<std::size_t> rows(lanes);
      for (std::size_t s = 0; s < lanes; ++s) rows[s] = (7 * s + 3) % shots;
      std::vector<Fixed> packed(lanes);
      discriminator.logits_lanes(sets.data(), rows.data(), lanes, packed,
                                 scratch);
      for (std::size_t s = 0; s < lanes; ++s) {
        ASSERT_EQ(packed[s].raw(), expected[rows[s]])
            << context("lanes") << " lanes=" << lanes << " lane " << s;
      }
    }
  }
}

// Q24.24 products need int128, so its run_tile takes the fixed<I,F>
// reference lane by lane; every entry point still goes through it and must
// equal the int128 forward of the reference features.
TEST(FixedKernelsWideFormat, Q24DiscriminatorEntryPointsMatchReference) {
  using Fixed = fx::q24_24;
  static_assert(!kernels::has_int64_fast_path<Fixed>);
  xoshiro256 rng(41);
  for (const frontend_case& shape : kFrontendCases) {
    const dsp::feature_pipeline pipeline =
        adversarial_pipeline<Fixed>(shape, rng);
    auto float_net = nn::make_mlp(pipeline.output_width(), {16, 8});
    float_net.initialize(nn::weight_init::he_normal, rng);
    const hw::fixed_discriminator<Fixed> discriminator(
        kd::student_model(pipeline, float_net));
    const std::size_t shots = 70;  // one full tile + a ragged tail
    data::trace_dataset dataset(shots, shape.n);
    std::vector<std::int64_t> expected(shots);
    for (std::size_t r = 0; r < shots; ++r) {
      dataset.append(adversarial_trace<Fixed>(shape.n, rng), r % 2 == 0);
      expected[r] = ref_forward<Fixed>(float_net, discriminator.net(),
                                       reference_features(
                                           discriminator.frontend(),
                                           dataset.trace(r), shape.n))
                        .raw();
    }
    const std::string where = " N=" + std::to_string(shape.n) +
                              " G=" + std::to_string(shape.groups);

    hw::discriminator_scratch<Fixed> scratch;
    std::vector<Fixed> block(shots);
    discriminator.logits_block(dataset, 0, shots, block, scratch);
    std::vector<Fixed> pooled(shots);
    discriminator.logits(dataset, pooled);
    for (std::size_t r = 0; r < shots; ++r) {
      ASSERT_EQ(block[r].raw(), expected[r]) << "block" << where << " " << r;
      ASSERT_EQ(pooled[r].raw(), expected[r]) << "logits" << where << " " << r;
      ASSERT_EQ(discriminator.logit(dataset.trace(r), shape.n, scratch).raw(),
                expected[r])
          << "logit" << where << " row " << r;
    }
    for (const std::size_t lanes : {1, 7, 64}) {
      std::vector<const data::trace_dataset*> sets(lanes, &dataset);
      std::vector<std::size_t> rows(lanes);
      for (std::size_t s = 0; s < lanes; ++s) rows[s] = (7 * s + 3) % shots;
      std::vector<Fixed> packed(lanes);
      discriminator.logits_lanes(sets.data(), rows.data(), lanes, packed,
                                 scratch);
      for (std::size_t s = 0; s < lanes; ++s) {
        ASSERT_EQ(packed[s].raw(), expected[rows[s]])
            << "lanes=" << lanes << where << " lane " << s;
      }
    }
  }
}

// Every single-shot entry point reads the trace through raw pointers, so
// each must reject a trace that is not 2N samples wide.
TEST(EntryPointGuards, SingleShotRejectsWrongTraceWidth) {
  xoshiro256 rng(53);
  const frontend_case shape{97, 10, true};
  const dsp::feature_pipeline pipeline =
      adversarial_pipeline<q16_16>(shape, rng);
  auto float_net = nn::make_mlp(pipeline.output_width(), {16, 8});
  float_net.initialize(nn::weight_init::he_normal, rng);
  const kd::student_model student(pipeline, float_net);
  const hw::fixed_discriminator<q16_16> q16(student);
  const hw::fixed_discriminator<fx::q24_24> q24(student);
  for (const std::size_t width : {2 * shape.n - 1, 2 * shape.n + 1}) {
    const std::vector<float> trace(width, 0.25f);
    EXPECT_THROW(student.logit(trace, shape.n), invalid_argument_error);
    EXPECT_THROW(student.predict_state(trace, shape.n),
                 invalid_argument_error);
    EXPECT_THROW(q16.logit(trace, shape.n), invalid_argument_error);
    EXPECT_THROW(q24.logit(trace, shape.n), invalid_argument_error);
  }
  const std::vector<float> good(2 * shape.n, 0.25f);
  EXPECT_NO_THROW(student.logit(good, shape.n));
  EXPECT_NO_THROW(q16.logit(good, shape.n));
  EXPECT_NO_THROW(q24.logit(good, shape.n));
}

}  // namespace
