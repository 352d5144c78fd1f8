// Vectorized fixed-point kernels over raw register planes: the network MACs
// and the fused ADC front end.
//
// fixed::operator* models the FPGA's DSP post-scaler with a full-width
// int128 product and a branchy round-to-nearest shift — bit-accurate, but
// ~10x slower than the float path when it runs once per weight. For every
// format whose register fits 32 bits the int128 is pure overhead: with
// |raw| < 2^(I+F-1) a weight*input product is bounded by 2^(2(I+F)-2), so
// for 2*(I+F) <= 64 (Q8.8, Q12.12, Q16.16 — the paper's datapath) the
// product plus the rounding bias 2^(F-1) stays strictly below 2^63 and the
// whole post-scaler runs branchless in int64:
//
//   sign     = product >> 63                      (arithmetic, 0 or -1)
//   mag      = (product ^ sign) - sign            (|product|, exact)
//   rounded  = (mag + 2^(F-1)) >> F               (round half away from zero)
//   value    = clamp((rounded ^ sign) - sign)     (the activation rails)
//
// computed on the magnitude so negative exact multiples stay exact — the
// same tie rule fixed::round_shift_right implements in int128. Kernels
// accumulate the products in plain int64 (the wide adder tree; integer
// addition is exact, so any summation order is bit-identical) and saturate
// once at extraction, exactly like fixed_accumulator.
//
// The per-product clamp runs only where it can fire. A weight row (or the
// MF envelope) whose registers all satisfy |w| <= 2^F - 1 cannot produce a
// product past the rails (products_in_range states the proof), so callers
// compute that fact once from the parameters and the kernels drop the
// clamp for those rows. Results are bit-identical either way.
//
// The kernels come in three SIMD tiers, one kernel_table each (see the end
// of this file), chosen at runtime via klinq/common/cpu_dispatch.hpp. Wide
// formats (Q24.24) fail the int64 bound and stay on the fixed<I,F>
// reference path — the hw:: layer gates on has_int64_fast_path.
#pragma once

#include <cstddef>
#include <cstdint>

#include "klinq/common/cpu_dispatch.hpp"
#include "klinq/fixed/fixed.hpp"

namespace klinq::fx::kernels {

/// Runtime description of a fixed<I,F> format as the kernels consume it.
struct mac_spec {
  int frac_bits = 0;
  std::int64_t raw_min = 0;
  std::int64_t raw_max = 0;
};

/// True when fixed<I,F> qualifies for the int64 fast path (see file
/// comment): products of in-range registers, rounding bias included, never
/// overflow int64, and every register (rails included) fits an int32 lane.
template <class Fixed>
inline constexpr bool has_int64_fast_path = 2 * Fixed::total_bits <= 64;

template <class Fixed>
constexpr mac_spec spec_of() noexcept {
  static_assert(has_int64_fast_path<Fixed>,
                "format too wide for the int64 kernel fast path");
  return {Fixed::frac_bits, Fixed::raw_min, Fixed::raw_max};
}

/// spec_of for contexts that instantiate wide formats too: a default
/// (never-dispatched) spec for formats on the int128 reference path.
template <class Fixed>
constexpr mac_spec spec_or_default() noexcept {
  if constexpr (has_int64_fast_path<Fixed>) {
    return spec_of<Fixed>();
  } else {
    return mac_spec{};
  }
}

/// Largest shot-tile width the tile kernels accept (the hw:: layer's cache
/// tile); callers must keep `tile <= max_tile_lanes <= stride`.
inline constexpr std::size_t max_tile_lanes = 64;

/// Single saturation at the adder-tree root (fixed_accumulator::result).
constexpr std::int64_t clamp_raw(std::int64_t value, std::int64_t raw_min,
                                 std::int64_t raw_max) noexcept {
  const std::int64_t low = value < raw_min ? raw_min : value;
  return low > raw_max ? raw_max : low;
}

/// The branchless DSP post-scaler without its rails: round a full-precision
/// product back to F fractional bits (ties away from zero, on the
/// magnitude). Exact for |product| <= 2^62.
constexpr std::int64_t round_shift(std::int64_t product,
                                   int frac_bits) noexcept {
  const std::int64_t sign = product >> 63;  // 0 or -1
  const std::int64_t magnitude = (product ^ sign) - sign;
  const std::int64_t half =
      frac_bits > 0 ? std::int64_t{1} << (frac_bits - 1) : 0;
  const std::int64_t rounded = (magnitude + half) >> frac_bits;
  return (rounded ^ sign) - sign;
}

/// The full DSP post-scaler: round_shift, then clamp to the format rails.
/// Bit-identical to fixed::operator* whenever |product| <= 2^62 —
/// guaranteed for every fast-path format.
constexpr std::int64_t round_shift_clamp(std::int64_t product, int frac_bits,
                                         std::int64_t raw_min,
                                         std::int64_t raw_max) noexcept {
  return clamp_raw(round_shift(product, frac_bits), raw_min, raw_max);
}

/// The row proof: true iff every weight register satisfies
/// |w_raw| <= 2^F - 1 (|w| < 1). Then no product of a weight with any
/// register of the format can pass the rails, so the per-product clamp of
/// round_shift_clamp is a no-op and round_shift alone is bit-identical.
///
/// Proof. Let T = I + F. Every register has |x_raw| <= 2^(T-1), so
/// |w_raw * x_raw| <= (2^F - 1) * 2^(T-1) = 2^(T-1+F) - 2^(T-1). Rounding
/// to nearest is monotone in the magnitude, and that bound is an exact
/// multiple of 2^F when T-1 >= F (I >= 1; fixed<I,F> requires I >= 2), so
/// the rounded magnitude is at most 2^(T-1) - 2^(T-1-F) <= 2^(T-1) - 1 =
/// raw_max < -raw_min. Both signs stay inside the rails. QED.
///
/// Weights are widened before the magnitude test, so raw_min (-2^31 for
/// Q16.16) is handled without overflow.
constexpr bool products_in_range(const std::int32_t* w, std::size_t n,
                                 const mac_spec& spec) noexcept {
  const std::int64_t limit = (std::int64_t{1} << spec.frac_bits) - 1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t raw = w[i];
    if (raw > limit || raw < -limit) return false;
  }
  return true;
}

/// One ADC sample through the input quantizer: bit-identical to
/// Fixed::from_double (round to nearest, ties away from zero; rails
/// saturate; NaN quantizes to 0). Branchless selects throughout: the rail
/// comparisons and the round direction are data-dependent and
/// unpredictable on real traces.
constexpr std::int32_t quantize_raw(double value,
                                    const mac_spec& spec) noexcept {
  const double scaled =
      value * static_cast<double>(std::int64_t{1} << spec.frac_bits);
  const double rail_max = static_cast<double>(spec.raw_max);
  const double rail_min = static_cast<double>(spec.raw_min);
  // Clamp before the cast so huge/infinite/NaN inputs never reach the
  // (otherwise UB) double->int64 conversion; the rail and NaN selects
  // below overwrite the clamped result, so it never escapes.
  double bounded = scaled < rail_max ? scaled : rail_max;
  bounded = bounded > rail_min ? bounded : rail_min;
  std::int64_t raw = round_half_away_from_zero(bounded);
  raw = scaled >= rail_max ? spec.raw_max : raw;
  raw = scaled <= rail_min ? spec.raw_min : raw;
  raw = value != value ? 0 : raw;  // hardware has no NaN; define as 0
  return static_cast<std::int32_t>(raw);
}

/// AVG output: the group's exact int64 sum saturated once at the adder-tree
/// root, times the raw 1/length register through the post-scaler —
/// fixed_accumulator::result() * reciprocal.
constexpr std::int64_t average_raw(std::int64_t sum, std::int32_t reciprocal,
                                   const mac_spec& spec) noexcept {
  return round_shift_clamp(clamp_raw(sum, spec.raw_min, spec.raw_max) *
                               reciprocal,
                           spec.frac_bits, spec.raw_min, spec.raw_max);
}

/// Largest NORM right shift applied literally; any register shifted
/// further rounds to 0 either way, and the bias 2^(k-1) stays in int64.
inline constexpr int max_norm_right_shift = 62;
/// Largest NORM left shift applied literally: every fast-path register
/// (|raw| <= 2^31) shifted by 32 still fits int64, and any non-zero one
/// already sits past the rails, so longer shifts saturate identically.
inline constexpr int max_norm_left_shift = 32;

/// NORM: (value − x_min) shifted by the σ exponent k, exactly
/// (Fixed(value) − Fixed(x_min)).shifted_right(k): the difference saturates,
/// k > 0 rounds to nearest on the magnitude (ties away from zero), k < 0 is
/// the saturating left shift clamp(diff << min(−k, 32)). Branchless: a zero
/// shift is the identity in either direction, so both shifts apply in turn.
constexpr std::int64_t normalize_raw(std::int64_t value, std::int64_t x_min,
                                     int shift,
                                     const mac_spec& spec) noexcept {
  const std::int64_t diff =
      clamp_raw(value - x_min, spec.raw_min, spec.raw_max);
  const int right = shift < 0 ? 0
                    : shift < max_norm_right_shift ? shift
                                                   : max_norm_right_shift;
  const int left = shift > 0 ? 0
                   : -shift < max_norm_left_shift ? -shift
                                                  : max_norm_left_shift;
  return clamp_raw(
      round_shift_clamp(diff, right, spec.raw_min, spec.raw_max) *
          (std::int64_t{1} << left),
      spec.raw_min, spec.raw_max);
}

/// The front end's parameter BRAM as frontend_tile consumes it, for traces
/// of `samples` complex samples ([I | Q], 2N floats) split into `groups` AVG
/// groups per quadrature. The 2G (+1) features are AVG I (c < G), AVG Q
/// (G <= c < 2G), then the MF output (c == 2G) when `envelope` is set.
struct frontend_spec {
  std::size_t samples = 0;
  std::size_t groups = 0;
  /// G ascending group ends within a quadrature: group g covers samples
  /// [group_end[g - 1], group_end[g]) (from 0 for g = 0); group_end[G-1] = N.
  const std::size_t* group_end = nullptr;
  /// G raw 1/length registers, one per group.
  const std::int32_t* reciprocal = nullptr;
  /// 2N raw matched-filter taps; nullptr when the front end has no MF.
  const std::int32_t* envelope = nullptr;
  /// products_in_range over the 2N taps: the MF products skip the clamp.
  bool taps_in_range = false;
  /// width() raw NORM offsets and σ exponents (k > 0 shifts right).
  const std::int32_t* x_min = nullptr;
  const int* shift = nullptr;
};

// ---------------------------------------------------------------------------
// Kernel tables
//
// Each tier is one kernel_table: a scalar int64 path any host runs, an AVX2
// path (4 x int64 lanes) and an AVX-512 path (8 x int64 lanes, F+BW+DQ).
// Every tier meets the contract stated on the members, and all are
// bit-identical to each other and to the int128 reference (integer
// arithmetic is exact, so lane count and summation order don't matter);
// tests/test_fixed_kernels.cpp proves it adversarially over every table
// kernels_for hands out.
// ---------------------------------------------------------------------------

struct kernel_table {
  /// One neuron's MAC: sum_i round_shift_clamp(w[i] * x[i]) over contiguous
  /// raw rows, plus bias_raw, saturated once. Returns the raw register (no
  /// activation applied). `in_range` must be products_in_range(weights, n,
  /// spec); when set the products skip the clamp.
  std::int64_t (*mac_row)(const std::int32_t* weights,
                          const std::int32_t* inputs, std::size_t n,
                          std::int64_t bias_raw, bool in_range,
                          const mac_spec& spec) noexcept;

  /// One layer over a shot tile. `weights` is (out_dim x in_dim) row-major,
  /// `bias` and `rows_in_range` have out_dim entries; rows_in_range[o] must
  /// be products_in_range of row o. Planes are feature-major: shot s of
  /// feature i lives at plane[i * stride + s]; lanes s in [0, tile) are
  /// written, lanes beyond `tile` are neither read nor written. Requires
  /// tile <= max_tile_lanes and tile <= stride. `relu` applies the RTL's
  /// sign-bit ReLU to every output. Rows run in blocks of 4 (each input lane
  /// is loaded once per block); a block skips the per-product clamp only
  /// when all of its rows are in range.
  void (*mac_tile)(const std::int32_t* weights, const std::int32_t* bias,
                   const std::uint8_t* rows_in_range, std::size_t out_dim,
                   std::size_t in_dim, const std::int32_t* in_plane,
                   std::size_t tile, std::size_t stride, bool relu,
                   std::int32_t* out_plane, const mac_spec& spec) noexcept;

  /// Float samples -> raw registers, bit-identical to Fixed::from_double per
  /// element (round to nearest, ties away from zero; rails saturate; NaN
  /// quantizes to 0).
  void (*quantize_block)(const float* values, std::size_t n,
                         std::int32_t* out, const mac_spec& spec) noexcept;

  /// The whole pre-processing front end (paper Fig. 3) over a tile of shots
  /// in one pass: traces[s] points at shot s's 2N floats. Each sample is
  /// quantized (quantize_raw), added to its group's int64 sum and, with an
  /// MF envelope, multiplied through the post-scaler into the MF sum; each
  /// group's sum becomes its feature through average_raw, and every feature
  /// goes through normalize_raw. MF products skip the clamp when
  /// `frontend.taps_in_range` is set. Feature c of shot s lands at
  /// plane[c * stride + s]; lanes s in [0, lanes) are written, nothing
  /// else. Requires lanes <= stride. SIMD tiers hold one shot per int64 lane
  /// and transpose the traces in registers; a SIMD block with too few shots
  /// to fill it runs them one at a time, with the shot's samples across the
  /// lanes instead.
  void (*frontend_tile)(const float* const* traces, std::size_t lanes,
                        const frontend_spec& frontend, std::int32_t* plane,
                        std::size_t stride, const mac_spec& spec) noexcept;
};

/// The table of `tier`, or nullptr when this build (non-x86, or
/// KLINQ_DISABLE_SIMD) or the executing CPU cannot run it.
/// kernels_for(simd_tier::scalar64) is never null.
const kernel_table* kernels_for(simd_tier tier) noexcept;

/// The table of active_simd_tier(), resolved once per process: the kernels
/// the hw:: datapath runs.
const kernel_table& active_kernels() noexcept;

}  // namespace klinq::fx::kernels
