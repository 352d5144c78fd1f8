#include "klinq/fixed/fixed_kernels.hpp"

#include <algorithm>
#include <limits>

#if KLINQ_HAVE_X86_SIMD
#include <immintrin.h>
#endif

namespace klinq::fx::kernels {

namespace {

/// Rows per mac_tile block: each input lane is loaded once for this many
/// neurons.
constexpr std::size_t kRowBlock = 4;

/// The post-scaler a product takes: the rails only where the row proof
/// (products_in_range) failed.
template <bool Clamp>
constexpr std::int64_t post_scale(std::int64_t product,
                                  const mac_spec& spec) noexcept {
  if constexpr (Clamp) {
    return round_shift_clamp(product, spec.frac_bits, spec.raw_min,
                             spec.raw_max);
  } else {
    return round_shift(product, spec.frac_bits);
  }
}

/// True when every row of a block passed products_in_range, so the whole
/// block may run without the per-product clamp.
inline bool block_in_range(const std::uint8_t* rows_in_range,
                           std::size_t rows) noexcept {
  for (std::size_t r = 0; r < rows; ++r) {
    if (rows_in_range[r] == 0) return false;
  }
  return true;
}

/// One mac_tile call's shot geometry, shared by its row blocks.
struct tile_args {
  std::size_t in_dim;
  const std::int32_t* in_plane;
  std::size_t tile;
  std::size_t stride;
  bool relu;
};

}  // namespace

// ---------------------------------------------------------------------------
// scalar64 tier
// ---------------------------------------------------------------------------

namespace scalar64 {

namespace {

template <bool Clamp>
std::int64_t mac_row_impl(const std::int32_t* weights,
                          const std::int32_t* inputs, std::size_t n,
                          std::int64_t bias_raw,
                          const mac_spec& spec) noexcept {
  std::int64_t acc = bias_raw;
  for (std::size_t i = 0; i < n; ++i) {
    acc += post_scale<Clamp>(static_cast<std::int64_t>(weights[i]) * inputs[i],
                             spec);
  }
  return clamp_raw(acc, spec.raw_min, spec.raw_max);
}

/// `Rows` neurons of mac_tile over the whole tile. Shot-inner accumulation:
/// each input lane is read once for the block, and the compiler
/// SLP-vectorizes the shot loop on its own.
template <std::size_t Rows, bool Clamp>
void mac_rows(const std::int32_t* weights, const std::int32_t* bias,
              std::int32_t* out, const tile_args& t,
              const mac_spec& spec) noexcept {
  std::int64_t acc[Rows][max_tile_lanes];
  for (std::size_t r = 0; r < Rows; ++r) {
    for (std::size_t s = 0; s < t.tile; ++s) acc[r][s] = bias[r];
  }
  for (std::size_t i = 0; i < t.in_dim; ++i) {
    std::int64_t w[Rows];
    for (std::size_t r = 0; r < Rows; ++r) w[r] = weights[r * t.in_dim + i];
    const std::int32_t* lane = t.in_plane + i * t.stride;
    for (std::size_t s = 0; s < t.tile; ++s) {
      const std::int64_t x = lane[s];
      for (std::size_t r = 0; r < Rows; ++r) {
        acc[r][s] += post_scale<Clamp>(w[r] * x, spec);
      }
    }
  }
  for (std::size_t r = 0; r < Rows; ++r) {
    std::int32_t* out_row = out + r * t.stride;
    for (std::size_t s = 0; s < t.tile; ++s) {
      std::int64_t value = clamp_raw(acc[r][s], spec.raw_min, spec.raw_max);
      if (t.relu && value < 0) value = 0;
      out_row[s] = static_cast<std::int32_t>(value);
    }
  }
}

template <std::size_t Rows>
void mac_rows(const std::int32_t* weights, const std::int32_t* bias,
              bool in_range, std::int32_t* out, const tile_args& t,
              const mac_spec& spec) noexcept {
  if (in_range) {
    mac_rows<Rows, false>(weights, bias, out, t, spec);
  } else {
    mac_rows<Rows, true>(weights, bias, out, t, spec);
  }
}

template <bool ClampTaps>
void frontend_tile_impl(const float* const* traces, std::size_t lanes,
                        const frontend_spec& frontend, std::int32_t* plane,
                        std::size_t stride, const mac_spec& spec) noexcept {
  const std::size_t n = frontend.samples;
  const std::size_t groups = frontend.groups;
  const std::int32_t* envelope = frontend.envelope;
  for (std::size_t s = 0; s < lanes; ++s) {
    std::int64_t mf = 0;
    for (std::size_t quadrature = 0; quadrature < 2; ++quadrature) {
      const float* samples = traces[s] + quadrature * n;
      const std::int32_t* taps =
          envelope != nullptr ? envelope + quadrature * n : nullptr;
      std::size_t begin = 0;
      for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t end = frontend.group_end[g];
        std::int64_t sum = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const std::int64_t x = quantize_raw(samples[i], spec);
          sum += x;
          if (taps != nullptr) mf += post_scale<ClampTaps>(taps[i] * x, spec);
        }
        begin = end;
        const std::size_t c = quadrature * groups + g;
        plane[c * stride + s] = static_cast<std::int32_t>(normalize_raw(
            average_raw(sum, frontend.reciprocal[g], spec), frontend.x_min[c],
            frontend.shift[c], spec));
      }
    }
    if (envelope != nullptr) {
      const std::size_t c = 2 * groups;
      plane[c * stride + s] = static_cast<std::int32_t>(normalize_raw(
          clamp_raw(mf, spec.raw_min, spec.raw_max), frontend.x_min[c],
          frontend.shift[c], spec));
    }
  }
}

}  // namespace

std::int64_t mac_row(const std::int32_t* weights, const std::int32_t* inputs,
                     std::size_t n, std::int64_t bias_raw, bool in_range,
                     const mac_spec& spec) noexcept {
  return in_range ? mac_row_impl<false>(weights, inputs, n, bias_raw, spec)
                  : mac_row_impl<true>(weights, inputs, n, bias_raw, spec);
}

void mac_tile(const std::int32_t* weights, const std::int32_t* bias,
              const std::uint8_t* rows_in_range, std::size_t out_dim,
              std::size_t in_dim, const std::int32_t* in_plane,
              std::size_t tile, std::size_t stride, bool relu,
              std::int32_t* out_plane, const mac_spec& spec) noexcept {
  const tile_args t{in_dim, in_plane, tile, stride, relu};
  std::size_t row = 0;
  for (; row + kRowBlock <= out_dim; row += kRowBlock) {
    mac_rows<kRowBlock>(weights + row * in_dim, bias + row,
                        block_in_range(rows_in_range + row, kRowBlock),
                        out_plane + row * stride, t, spec);
  }
  for (; row < out_dim; ++row) {
    mac_rows<1>(weights + row * in_dim, bias + row, rows_in_range[row] != 0,
                out_plane + row * stride, t, spec);
  }
}

void quantize_block(const float* values, std::size_t n, std::int32_t* out,
                    const mac_spec& spec) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = quantize_raw(values[i], spec);
}

void frontend_tile(const float* const* traces, std::size_t lanes,
                   const frontend_spec& frontend, std::int32_t* plane,
                   std::size_t stride, const mac_spec& spec) noexcept {
  if (frontend.taps_in_range) {
    frontend_tile_impl<false>(traces, lanes, frontend, plane, stride, spec);
  } else {
    frontend_tile_impl<true>(traces, lanes, frontend, plane, stride, spec);
  }
}

}  // namespace scalar64

// ---------------------------------------------------------------------------
// avx2 tier
// ---------------------------------------------------------------------------

#if KLINQ_HAVE_X86_SIMD

namespace {

// Per-function target("avx2") keeps the rest of the library buildable
// without -mavx2 while the runtime dispatcher guards execution via cpuid.

/// 4-lane round_shift: magnitude, biased shift, sign restore. AVX2 has no
/// 64-bit arithmetic shift, so the rounding runs on the magnitude.
__attribute__((target("avx2"))) inline __m256i round_shift_lanes(
    __m256i product, __m256i half, __m128i shift) {
  const __m256i sign =
      _mm256_cmpgt_epi64(_mm256_setzero_si256(), product);  // -1 if negative
  __m256i magnitude =
      _mm256_sub_epi64(_mm256_xor_si256(product, sign), sign);
  magnitude = _mm256_srl_epi64(_mm256_add_epi64(magnitude, half), shift);
  return _mm256_sub_epi64(_mm256_xor_si256(magnitude, sign), sign);
}

/// Saturate 4 int64 lanes to the rails (compare/blend: AVX2 has no 64-bit
/// min/max).
__attribute__((target("avx2"))) inline __m256i clamp_lanes(__m256i value,
                                                           __m256i rail_min,
                                                           __m256i rail_max) {
  value = _mm256_blendv_epi8(value, rail_max,
                             _mm256_cmpgt_epi64(value, rail_max));
  value = _mm256_blendv_epi8(value, rail_min,
                             _mm256_cmpgt_epi64(rail_min, value));
  return value;
}

/// Widen 4 packed int32 registers to the low halves of 4 int64 lanes.
__attribute__((target("avx2"))) inline __m256i load_lanes(
    const std::int32_t* p) {
  return _mm256_cvtepi32_epi64(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

/// Narrow 4 rail-clamped int64 lanes back to 4 packed int32 registers.
__attribute__((target("avx2"))) inline __m128i narrow_lanes(__m256i value) {
  const __m256i index = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(value, index));
}

/// Mask selecting the first `count` of 4 int32/float lanes.
__attribute__((target("avx2"))) inline __m128i first_lanes_mask(
    std::size_t count) {
  return _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int>(count)),
                         _mm_setr_epi32(0, 1, 2, 3));
}

/// Broadcast constants of the AVX2 kernels.
struct lanes256_consts {
  __m256d scale;
  __m256d rail_min_pd;
  __m256d rail_max_pd;
  __m256d sign_bit;
  __m256d half_pd;
  __m256i half;  // post-scaler rounding bias 2^(F-1)
  __m128i frac_shift;
  __m256i rail_min;
  __m256i rail_max;
};

__attribute__((target("avx2"))) inline lanes256_consts make_lanes256_consts(
    const mac_spec& spec) {
  return {
      .scale = _mm256_set1_pd(
          static_cast<double>(std::int64_t{1} << spec.frac_bits)),
      .rail_min_pd = _mm256_set1_pd(static_cast<double>(spec.raw_min)),
      .rail_max_pd = _mm256_set1_pd(static_cast<double>(spec.raw_max)),
      .sign_bit = _mm256_set1_pd(-0.0),
      .half_pd = _mm256_set1_pd(0.5),
      .half = _mm256_set1_epi64x(
          spec.frac_bits > 0 ? std::int64_t{1} << (spec.frac_bits - 1) : 0),
      .frac_shift = _mm_cvtsi32_si128(spec.frac_bits),
      .rail_min = _mm256_set1_epi64x(spec.raw_min),
      .rail_max = _mm256_set1_epi64x(spec.raw_max),
  };
}

/// post_scale over 4 lanes.
template <bool Clamp>
__attribute__((target("avx2"))) inline __m256i post_scale256(
    __m256i product, const lanes256_consts& k) {
  const __m256i value = round_shift_lanes(product, k.half, k.frac_shift);
  if constexpr (Clamp) {
    return clamp_lanes(value, k.rail_min, k.rail_max);
  } else {
    return value;
  }
}

template <bool Clamp>
__attribute__((target("avx2"))) std::int64_t mac_row_avx2(
    const std::int32_t* weights, const std::int32_t* inputs, std::size_t n,
    std::int64_t bias_raw, const mac_spec& spec) noexcept {
  const lanes256_consts k = make_lanes256_consts(spec);
  // Two accumulators break the add-latency chain on long rows (the 2N-wide
  // matched-filter MAC); integer addition is exact, so the split is still
  // bit-identical to any other summation order.
  __m256i acc_lo = _mm256_setzero_si256();
  __m256i acc_hi = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i product_lo =
        _mm256_mul_epi32(load_lanes(weights + i), load_lanes(inputs + i));
    const __m256i product_hi = _mm256_mul_epi32(load_lanes(weights + i + 4),
                                                load_lanes(inputs + i + 4));
    acc_lo = _mm256_add_epi64(acc_lo, post_scale256<Clamp>(product_lo, k));
    acc_hi = _mm256_add_epi64(acc_hi, post_scale256<Clamp>(product_hi, k));
  }
  // The last 1-7 inputs, 4 at a time; masked lanes read nothing and
  // multiply to 0.
  for (; i < n; i += 4) {
    const __m128i mask = first_lanes_mask(std::min<std::size_t>(4, n - i));
    const __m256i product = _mm256_mul_epi32(
        _mm256_cvtepi32_epi64(_mm_maskload_epi32(weights + i, mask)),
        _mm256_cvtepi32_epi64(_mm_maskload_epi32(inputs + i, mask)));
    acc_lo = _mm256_add_epi64(acc_lo, post_scale256<Clamp>(product, k));
  }
  const __m256i acc = _mm256_add_epi64(acc_lo, acc_hi);
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return clamp_raw(bias_raw + lanes[0] + lanes[1] + lanes[2] + lanes[3],
                   spec.raw_min, spec.raw_max);
}

/// `Rows` neurons x `Vecs` 4-shot vectors of mac_tile: each input vector is
/// loaded and widened once for all the block's neurons. With `Tail` the one
/// vector holds the tile's last `active` (< 4) shots and reads and writes
/// only those lanes.
template <std::size_t Rows, std::size_t Vecs, bool Clamp, bool Tail>
__attribute__((target("avx2"))) inline void mac_block_avx2(
    const std::int32_t* weights, const std::int32_t* bias,
    const std::int32_t* column, std::int32_t* out, const tile_args& t,
    __m128i active, const lanes256_consts& k) {
  static_assert(!Tail || Vecs == 1, "a tail block is one vector");
  __m256i acc[Rows][Vecs];
  for (std::size_t r = 0; r < Rows; ++r) {
    for (std::size_t v = 0; v < Vecs; ++v) {
      acc[r][v] = _mm256_set1_epi64x(bias[r]);
    }
  }
  for (std::size_t i = 0; i < t.in_dim; ++i) {
    const std::int32_t* lane = column + i * t.stride;
    __m256i x[Vecs];
    for (std::size_t v = 0; v < Vecs; ++v) {
      if constexpr (Tail) {
        x[v] = _mm256_cvtepi32_epi64(_mm_maskload_epi32(lane, active));
      } else {
        x[v] = load_lanes(lane + 4 * v);
      }
    }
    for (std::size_t r = 0; r < Rows; ++r) {
      const __m256i w = _mm256_set1_epi32(weights[r * t.in_dim + i]);
      for (std::size_t v = 0; v < Vecs; ++v) {
        acc[r][v] = _mm256_add_epi64(
            acc[r][v], post_scale256<Clamp>(_mm256_mul_epi32(w, x[v]), k));
      }
    }
  }
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t r = 0; r < Rows; ++r) {
    for (std::size_t v = 0; v < Vecs; ++v) {
      __m256i value = clamp_lanes(acc[r][v], k.rail_min, k.rail_max);
      if (t.relu) {
        value = _mm256_andnot_si256(_mm256_cmpgt_epi64(zero, value), value);
      }
      std::int32_t* dst = out + r * t.stride + 4 * v;
      if constexpr (Tail) {
        _mm_maskstore_epi32(dst, active, narrow_lanes(value));
      } else {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), narrow_lanes(value));
      }
    }
  }
}

template <std::size_t Rows, bool Clamp>
__attribute__((target("avx2"))) void mac_rows_avx2(
    const std::int32_t* weights, const std::int32_t* bias, std::int32_t* out,
    const tile_args& t, const lanes256_consts& k) {
  const __m128i all = _mm_set1_epi32(-1);
  std::size_t s = 0;
  for (; s + 8 <= t.tile; s += 8) {
    mac_block_avx2<Rows, 2, Clamp, false>(weights, bias, t.in_plane + s,
                                          out + s, t, all, k);
  }
  for (; s + 4 <= t.tile; s += 4) {
    mac_block_avx2<Rows, 1, Clamp, false>(weights, bias, t.in_plane + s,
                                          out + s, t, all, k);
  }
  if (s < t.tile) {
    mac_block_avx2<Rows, 1, Clamp, true>(weights, bias, t.in_plane + s,
                                         out + s, t,
                                         first_lanes_mask(t.tile - s), k);
  }
}

template <std::size_t Rows>
__attribute__((target("avx2"))) void mac_rows_avx2(
    const std::int32_t* weights, const std::int32_t* bias, bool in_range,
    std::int32_t* out, const tile_args& t, const lanes256_consts& k) {
  if (in_range) {
    mac_rows_avx2<Rows, false>(weights, bias, out, t, k);
  } else {
    mac_rows_avx2<Rows, true>(weights, bias, out, t, k);
  }
}

__attribute__((target("avx2"))) void mac_tile_avx2(
    const std::int32_t* weights, const std::int32_t* bias,
    const std::uint8_t* rows_in_range, std::size_t out_dim,
    const tile_args& t, std::int32_t* out_plane,
    const mac_spec& spec) noexcept {
  const lanes256_consts k = make_lanes256_consts(spec);
  std::size_t row = 0;
  for (; row + kRowBlock <= out_dim; row += kRowBlock) {
    mac_rows_avx2<kRowBlock>(weights + row * t.in_dim, bias + row,
                             block_in_range(rows_in_range + row, kRowBlock),
                             out_plane + row * t.stride, t, k);
  }
  for (; row < out_dim; ++row) {
    mac_rows_avx2<1>(weights + row * t.in_dim, bias + row,
                     rows_in_range[row] != 0, out_plane + row * t.stride, t,
                     k);
  }
}

/// quantize_raw over 4 samples, bit-identical per lane: clamp to the
/// (integer) rails, add ±0.5 with the value's sign — exact for a float
/// scaled by 2^F within the rails (see quantize_lanes512) — and truncate.
/// NaN lanes are zeroed before the conversion.
__attribute__((target("avx2"))) inline __m128i quantize_lanes(
    __m128 samples, const lanes256_consts& k) {
  const __m256d value = _mm256_cvtps_pd(samples);
  const __m256d ordered = _mm256_cmp_pd(value, value, _CMP_ORD_Q);
  const __m256d bounded = _mm256_min_pd(
      _mm256_max_pd(_mm256_mul_pd(value, k.scale), k.rail_min_pd),
      k.rail_max_pd);
  const __m256d signed_half =
      _mm256_or_pd(_mm256_and_pd(bounded, k.sign_bit), k.half_pd);
  return _mm256_cvttpd_epi32(
      _mm256_and_pd(_mm256_add_pd(bounded, signed_half), ordered));
}

__attribute__((target("avx2"))) void quantize_block_avx2(
    const float* values, std::size_t n, std::int32_t* out,
    const mac_spec& spec) noexcept {
  const lanes256_consts k = make_lanes256_consts(spec);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     quantize_lanes(_mm_loadu_ps(values + i), k));
  }
  if (i < n) scalar64::quantize_block(values + i, n - i, out + i, spec);
}

/// NORM over 4 shot lanes (normalize_raw per lane), then stores the lanes
/// as int32 registers at `out`.
__attribute__((target("avx2"))) inline void normalize_store_lanes(
    __m256i value, std::int32_t x_min, int shift, const lanes256_consts& k,
    std::int32_t* out) {
  const __m256i diff =
      clamp_lanes(_mm256_sub_epi64(value, _mm256_set1_epi64x(x_min)),
                  k.rail_min, k.rail_max);
  __m256i result;
  if (shift >= 0) {
    const int right =
        shift < max_norm_right_shift ? shift : max_norm_right_shift;
    result = clamp_lanes(
        round_shift_lanes(
            diff,
            _mm256_set1_epi64x(right > 0 ? std::int64_t{1} << (right - 1) : 0),
            _mm_cvtsi32_si128(right)),
        k.rail_min, k.rail_max);
  } else {
    const int left =
        -shift < max_norm_left_shift ? -shift : max_norm_left_shift;
    result = clamp_lanes(_mm256_sll_epi64(diff, _mm_cvtsi32_si128(left)),
                         k.rail_min, k.rail_max);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), narrow_lanes(result));
}

/// One shot through the front end with its samples across the 4 lanes —
/// the single-shot form of the kernel, where shot-per-lane would leave 3 of
/// 4 lanes idle. Each 64-sample block is quantized and MF-accumulated in
/// vectors; its int32 registers then feed the AVG adder trees, AVG and NORM
/// in scalar code.
template <bool ClampTaps>
__attribute__((target("avx2"))) void frontend_shot_avx2(
    const float* trace, const frontend_spec& frontend, std::int32_t* out,
    std::size_t stride, const lanes256_consts& k, const mac_spec& spec) {
  constexpr std::size_t kBlock = 64;
  const std::size_t n = frontend.samples;
  const std::size_t groups = frontend.groups;
  __m256i mf = _mm256_setzero_si256();
  alignas(32) std::int32_t block[kBlock];
  for (std::size_t quadrature = 0; quadrature < 2; ++quadrature) {
    const float* samples = trace + quadrature * n;
    const std::int32_t* taps = frontend.envelope != nullptr
                                   ? frontend.envelope + quadrature * n
                                   : nullptr;
    std::size_t g = 0;
    std::size_t end = frontend.group_end[0];
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < n; i += kBlock) {
      const std::size_t count = std::min(kBlock, n - i);
      for (std::size_t v = 0; v < count; v += 4) {
        // Lanes past the trace's end load 0.0, which quantizes to 0 and
        // multiplies a zero tap.
        const __m128i mask =
            first_lanes_mask(std::min<std::size_t>(4, count - v));
        const __m128i x32 = quantize_lanes(
            _mm_maskload_ps(samples + i + v, mask), k);
        _mm_store_si128(reinterpret_cast<__m128i*>(block + v), x32);
        if (taps != nullptr) {
          const __m256i tap = _mm256_cvtepi32_epi64(
              _mm_maskload_epi32(taps + i + v, mask));
          mf = _mm256_add_epi64(
              mf, post_scale256<ClampTaps>(
                      _mm256_mul_epi32(tap, _mm256_cvtepi32_epi64(x32)), k));
        }
      }
      for (std::size_t j = 0; j < count;) {
        const std::size_t stop = std::min(count, end - i);
        for (; j < stop; ++j) sum += block[j];
        if (i + stop == end) {
          const std::size_t c = quadrature * groups + g;
          out[c * stride] = static_cast<std::int32_t>(normalize_raw(
              average_raw(sum, frontend.reciprocal[g], spec),
              frontend.x_min[c], frontend.shift[c], spec));
          sum = 0;
          if (++g < groups) end = frontend.group_end[g];
        }
      }
    }
  }
  if (frontend.envelope != nullptr) {
    alignas(32) std::int64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), mf);
    const std::size_t c = 2 * groups;
    out[c * stride] = static_cast<std::int32_t>(normalize_raw(
        clamp_raw(lanes[0] + lanes[1] + lanes[2] + lanes[3], spec.raw_min,
                  spec.raw_max),
        frontend.x_min[c], frontend.shift[c], spec));
  }
}

template <bool ClampTaps>
__attribute__((target("avx2"))) void frontend_tile_avx2(
    const float* const* traces, std::size_t lanes,
    const frontend_spec& frontend, std::int32_t* plane, std::size_t stride,
    const mac_spec& spec) noexcept {
  constexpr std::size_t kLanes = 4;
  const std::size_t n = frontend.samples;
  const std::size_t groups = frontend.groups;
  const lanes256_consts k = make_lanes256_consts(spec);
  const __m256i zero = _mm256_setzero_si256();
  std::size_t base = 0;
  for (; base + kLanes <= lanes; base += kLanes) {
    const float* const* src = traces + base;
    std::int32_t* out = plane + base;
    __m256i mf = zero;
    for (std::size_t quadrature = 0; quadrature < 2; ++quadrature) {
      const std::size_t offset = quadrature * n;
      const std::int32_t* taps = frontend.envelope != nullptr
                                     ? frontend.envelope + offset
                                     : nullptr;
      std::size_t g = 0;
      std::size_t end = frontend.group_end[0];
      __m256i sum = zero;
      for (std::size_t i = 0; i < n; i += kLanes) {
        // Four samples of four shots, transposed in registers so row j
        // holds sample i + j of every shot lane.
        const std::size_t count = std::min(kLanes, n - i);
        const __m128i load_mask = first_lanes_mask(count);
        __m128 rows[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) {
          rows[l] = _mm_maskload_ps(src[l] + offset + i, load_mask);
        }
        _MM_TRANSPOSE4_PS(rows[0], rows[1], rows[2], rows[3]);
#pragma GCC unroll 4
        for (std::size_t j = 0; j < kLanes; ++j) {
          if (j == count) break;
          const __m256i x = _mm256_cvtepi32_epi64(quantize_lanes(rows[j], k));
          sum = _mm256_add_epi64(sum, x);
          if (taps != nullptr) {
            mf = _mm256_add_epi64(
                mf, post_scale256<ClampTaps>(
                        _mm256_mul_epi32(_mm256_set1_epi32(taps[i + j]), x),
                        k));
          }
          if (i + j + 1 == end) {
            const std::size_t c = quadrature * groups + g;
            const __m256i average = post_scale256<true>(
                _mm256_mul_epi32(clamp_lanes(sum, k.rail_min, k.rail_max),
                                 _mm256_set1_epi32(frontend.reciprocal[g])),
                k);
            normalize_store_lanes(average, frontend.x_min[c],
                                  frontend.shift[c], k, out + c * stride);
            sum = zero;
            if (++g < groups) end = frontend.group_end[g];
          }
        }
      }
    }
    if (frontend.envelope != nullptr) {
      const std::size_t c = 2 * groups;
      normalize_store_lanes(clamp_lanes(mf, k.rail_min, k.rail_max),
                            frontend.x_min[c], frontend.shift[c], k,
                            out + c * stride);
    }
  }
  // A ragged tail of 1-3 shots would pay for a full 4-lane pass; one at a
  // time, each costs about what a shot costs inside a full block
  // (bench_fixed_kernels BM_FrontendTile rows).
  for (; base < lanes; ++base) {
    frontend_shot_avx2<ClampTaps>(traces[base], frontend, plane + base,
                                  stride, k, spec);
  }
}

// ---------------------------------------------------------------------------
// avx512 tier
// ---------------------------------------------------------------------------

// GCC's avx512 intrinsic headers implement the unmasked min/max/convert
// forms via _mm512_undefined_*() and trip -Wmaybe-uninitialized on
// themselves (GCC PR105593); the suppression covers only this tier.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

/// Saturate 8 int64 lanes to the rails.
__attribute__((target("avx512f,avx512bw,avx512dq"))) inline __m512i
clamp_lanes512(__m512i value, __m512i rail_min, __m512i rail_max) {
  return _mm512_max_epi64(_mm512_min_epi64(value, rail_max), rail_min);
}

/// Widen 8 packed int32 registers to 8 int64 lanes.
__attribute__((target("avx512f,avx512bw,avx512dq"))) inline __m512i
load_lanes512(const std::int32_t* p) {
  return _mm512_cvtepi32_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

/// Widen the first lanes (per `mask`) of 8 int32 registers to int64 lanes;
/// masked lanes read nothing and come back 0.
__attribute__((target("avx512f,avx512bw,avx512dq"))) inline __m512i
load_lanes512_masked(__mmask8 mask, const void* p) {
  return _mm512_cvtepi32_epi64(
      _mm512_castsi512_si256(_mm512_maskz_loadu_epi32(mask, p)));
}

/// Broadcast constants of the AVX-512 kernels.
struct lanes512_consts {
  __m512d scale;
  __m512d rail_min_pd;
  __m512d rail_max_pd;
  __m512i sign_bit;
  __m512i half_pd;      // the bit pattern of 0.5
  __m512i half;         // post-scaler rounding bias 2^(F-1) (see
  __m512i half_neg;     //   round_shift_sra512)
  __m128i frac_shift;
  __m512i rail_min;
  __m512i rail_max;
};

__attribute__((target("avx512f,avx512bw,avx512dq"))) inline lanes512_consts
make_lanes512_consts(const mac_spec& spec) {
  const std::int64_t half =
      spec.frac_bits > 0 ? std::int64_t{1} << (spec.frac_bits - 1) : 0;
  return {
      .scale = _mm512_set1_pd(
          static_cast<double>(std::int64_t{1} << spec.frac_bits)),
      .rail_min_pd = _mm512_set1_pd(static_cast<double>(spec.raw_min)),
      .rail_max_pd = _mm512_set1_pd(static_cast<double>(spec.raw_max)),
      .sign_bit = _mm512_set1_epi64(std::numeric_limits<std::int64_t>::min()),
      .half_pd = _mm512_castpd_si512(_mm512_set1_pd(0.5)),
      .half = _mm512_set1_epi64(half),
      .half_neg = _mm512_set1_epi64(half > 0 ? half - 1 : 0),
      .frac_shift = _mm_cvtsi32_si128(spec.frac_bits),
      .rail_min = _mm512_set1_epi64(spec.raw_min),
      .rail_max = _mm512_set1_epi64(spec.raw_max),
  };
}

/// round_shift over 8 lanes through the 64-bit arithmetic shift (vpsraq,
/// which AVX2 lacks): rounding |p| / 2^k half away from zero is
/// floor((p + bias) / 2^k) with bias 2^(k-1) for p >= 0 and 2^(k-1) - 1 for
/// p < 0 (both 0 when k = 0). Four operations, where the magnitude form
/// takes seven.
__attribute__((target("avx512f,avx512bw,avx512dq"))) inline __m512i
round_shift_sra512(__m512i product, __m512i half, __m512i half_neg,
                   __m128i shift) {
  const __mmask8 negative =
      _mm512_cmplt_epi64_mask(product, _mm512_setzero_si512());
  const __m512i biased = _mm512_mask_add_epi64(
      _mm512_add_epi64(product, half), negative, product, half_neg);
  return _mm512_sra_epi64(biased, shift);
}

/// post_scale over 8 lanes.
template <bool Clamp>
__attribute__((target("avx512f,avx512bw,avx512dq"))) inline __m512i
post_scale512(__m512i product, const lanes512_consts& k) {
  const __m512i value =
      round_shift_sra512(product, k.half, k.half_neg, k.frac_shift);
  if constexpr (Clamp) {
    return clamp_lanes512(value, k.rail_min, k.rail_max);
  } else {
    return value;
  }
}

template <bool Clamp>
__attribute__((target("avx512f,avx512bw,avx512dq"))) std::int64_t
mac_row_avx512(const std::int32_t* weights, const std::int32_t* inputs,
               std::size_t n, std::int64_t bias_raw,
               const mac_spec& spec) noexcept {
  const lanes512_consts k = make_lanes512_consts(spec);
  // Two accumulators break the add-latency chain on long rows; integer
  // addition is exact, so the split stays bit-identical to any other
  // summation order.
  __m512i acc_lo = _mm512_setzero_si512();
  __m512i acc_hi = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i product_lo = _mm512_mul_epi32(load_lanes512(weights + i),
                                                load_lanes512(inputs + i));
    const __m512i product_hi = _mm512_mul_epi32(load_lanes512(weights + i + 8),
                                                load_lanes512(inputs + i + 8));
    acc_lo = _mm512_add_epi64(acc_lo, post_scale512<Clamp>(product_lo, k));
    acc_hi = _mm512_add_epi64(acc_hi, post_scale512<Clamp>(product_hi, k));
  }
  // The last 1-15 inputs, 8 at a time; masked lanes read nothing and
  // multiply to 0.
  for (; i < n; i += 8) {
    const auto mask = static_cast<__mmask8>(
        (1u << std::min<std::size_t>(8, n - i)) - 1);
    const __m512i product =
        _mm512_mul_epi32(load_lanes512_masked(mask, weights + i),
                         load_lanes512_masked(mask, inputs + i));
    acc_lo = _mm512_add_epi64(acc_lo, post_scale512<Clamp>(product, k));
  }
  return clamp_raw(
      bias_raw + _mm512_reduce_add_epi64(_mm512_add_epi64(acc_lo, acc_hi)),
      spec.raw_min, spec.raw_max);
}

/// `Rows` neurons x `Vecs` 8-shot vectors of mac_tile: each input vector is
/// loaded and widened once for all the block's neurons. With `Tail` the one
/// vector holds the tile's last `active` shots and reads and writes only
/// those lanes.
template <std::size_t Rows, std::size_t Vecs, bool Clamp, bool Tail>
__attribute__((target("avx512f,avx512bw,avx512dq"))) inline void
mac_block512(const std::int32_t* weights, const std::int32_t* bias,
             const std::int32_t* column, std::int32_t* out,
             const tile_args& t, __mmask8 active, const lanes512_consts& k) {
  static_assert(!Tail || Vecs == 1, "a tail block is one vector");
  __m512i acc[Rows][Vecs];
  for (std::size_t r = 0; r < Rows; ++r) {
    for (std::size_t v = 0; v < Vecs; ++v) {
      acc[r][v] = _mm512_set1_epi64(bias[r]);
    }
  }
  for (std::size_t i = 0; i < t.in_dim; ++i) {
    const std::int32_t* lane = column + i * t.stride;
    __m512i x[Vecs];
    for (std::size_t v = 0; v < Vecs; ++v) {
      if constexpr (Tail) {
        x[v] = load_lanes512_masked(active, lane);
      } else {
        x[v] = load_lanes512(lane + 8 * v);
      }
    }
    for (std::size_t r = 0; r < Rows; ++r) {
      // vpmuldq reads the low 32 bits of each 64-bit lane, so a 32-bit
      // broadcast of the weight serves.
      const __m512i w = _mm512_set1_epi32(weights[r * t.in_dim + i]);
      for (std::size_t v = 0; v < Vecs; ++v) {
        acc[r][v] = _mm512_add_epi64(
            acc[r][v], post_scale512<Clamp>(_mm512_mul_epi32(w, x[v]), k));
      }
    }
  }
  const __m512i zero = _mm512_setzero_si512();
  for (std::size_t r = 0; r < Rows; ++r) {
    for (std::size_t v = 0; v < Vecs; ++v) {
      __m512i value = clamp_lanes512(acc[r][v], k.rail_min, k.rail_max);
      if (t.relu) value = _mm512_max_epi64(value, zero);
      std::int32_t* dst = out + r * t.stride + 8 * v;
      if constexpr (Tail) {
        _mm512_mask_cvtepi64_storeu_epi32(dst, active, value);
      } else {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                            _mm512_cvtepi64_epi32(value));
      }
    }
  }
}

template <std::size_t Rows, bool Clamp>
__attribute__((target("avx512f,avx512bw,avx512dq"))) void mac_rows512(
    const std::int32_t* weights, const std::int32_t* bias, std::int32_t* out,
    const tile_args& t, const lanes512_consts& k) {
  std::size_t s = 0;
  for (; s + 16 <= t.tile; s += 16) {
    mac_block512<Rows, 2, Clamp, false>(weights, bias, t.in_plane + s,
                                        out + s, t, 0xff, k);
  }
  for (; s + 8 <= t.tile; s += 8) {
    mac_block512<Rows, 1, Clamp, false>(weights, bias, t.in_plane + s,
                                        out + s, t, 0xff, k);
  }
  if (s < t.tile) {
    mac_block512<Rows, 1, Clamp, true>(
        weights, bias, t.in_plane + s, out + s, t,
        static_cast<__mmask8>((1u << (t.tile - s)) - 1), k);
  }
}

template <std::size_t Rows>
__attribute__((target("avx512f,avx512bw,avx512dq"))) void mac_rows512(
    const std::int32_t* weights, const std::int32_t* bias, bool in_range,
    std::int32_t* out, const tile_args& t, const lanes512_consts& k) {
  if (in_range) {
    mac_rows512<Rows, false>(weights, bias, out, t, k);
  } else {
    mac_rows512<Rows, true>(weights, bias, out, t, k);
  }
}

__attribute__((target("avx512f,avx512bw,avx512dq"))) void mac_tile_avx512(
    const std::int32_t* weights, const std::int32_t* bias,
    const std::uint8_t* rows_in_range, std::size_t out_dim,
    const tile_args& t, std::int32_t* out_plane,
    const mac_spec& spec) noexcept {
  const lanes512_consts k = make_lanes512_consts(spec);
  std::size_t row = 0;
  for (; row + kRowBlock <= out_dim; row += kRowBlock) {
    mac_rows512<kRowBlock>(weights + row * t.in_dim, bias + row,
                           block_in_range(rows_in_range + row, kRowBlock),
                           out_plane + row * t.stride, t, k);
  }
  for (; row < out_dim; ++row) {
    mac_rows512<1>(weights + row * t.in_dim, bias + row,
                   rows_in_range[row] != 0, out_plane + row * t.stride, t, k);
  }
}

/// quantize_raw over 8 samples, bit-identical per lane, in 8 operations.
/// Clamping to the rails before rounding never changes a result (the rails
/// are integers). Adding ±0.5 with the value's sign is exact: a float
/// scaled by 2^F has at most 24 significant bits and |x| <= 2^31, and where
/// |x| is too small for the sum to be exact it still lies strictly between
/// 0 and ±1. Truncation then rounds half away from zero; NaN (unordered)
/// lanes quantize to 0 through the conversion's zero mask.
__attribute__((target("avx512f,avx512bw,avx512dq"))) inline __m512i
quantize_lanes512(__m256 samples, const lanes512_consts& k) {
  const __m512d value = _mm512_cvtps_pd(samples);
  const __mmask8 ordered = _mm512_cmp_pd_mask(value, value, _CMP_ORD_Q);
  const __m512d bounded = _mm512_min_pd(
      _mm512_max_pd(_mm512_mul_pd(value, k.scale), k.rail_min_pd),
      k.rail_max_pd);
  // (bounded & sign) | 0.5 — copysign(0.5, bounded) in one ternary op.
  const __m512d signed_half = _mm512_castsi512_pd(_mm512_ternarylogic_epi64(
      _mm512_castpd_si512(bounded), k.sign_bit, k.half_pd, 0xEA));
  return _mm512_maskz_cvttpd_epi64(ordered,
                                   _mm512_add_pd(bounded, signed_half));
}

__attribute__((target("avx512f,avx512bw,avx512dq"))) void quantize_block_avx512(
    const float* values, std::size_t n, std::int32_t* out,
    const mac_spec& spec) noexcept {
  const lanes512_consts k = make_lanes512_consts(spec);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i raw = quantize_lanes512(_mm256_loadu_ps(values + i), k);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm512_cvtepi64_epi32(raw));
  }
  if (i < n) scalar64::quantize_block(values + i, n - i, out + i, spec);
}

/// In-register 8x8 transpose: afterwards rows[j] holds element j of every
/// input row, i.e. sample j of each of the 8 shot lanes.
__attribute__((target("avx512f,avx512bw,avx512dq"))) inline void transpose8(
    __m256* rows) {
  __m256 t[8];
  for (int r = 0; r < 8; r += 2) {
    t[r] = _mm256_unpacklo_ps(rows[r], rows[r + 1]);
    t[r + 1] = _mm256_unpackhi_ps(rows[r], rows[r + 1]);
  }
  __m256 u[8];
  for (int r = 0; r < 8; r += 4) {
    u[r] = _mm256_shuffle_ps(t[r], t[r + 2], _MM_SHUFFLE(1, 0, 1, 0));
    u[r + 1] = _mm256_shuffle_ps(t[r], t[r + 2], _MM_SHUFFLE(3, 2, 3, 2));
    u[r + 2] = _mm256_shuffle_ps(t[r + 1], t[r + 3], _MM_SHUFFLE(1, 0, 1, 0));
    u[r + 3] = _mm256_shuffle_ps(t[r + 1], t[r + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int r = 0; r < 4; ++r) {
    rows[r] = _mm256_permute2f128_ps(u[r], u[r + 4], 0x20);
    rows[r + 4] = _mm256_permute2f128_ps(u[r], u[r + 4], 0x31);
  }
}

/// NORM over 8 shot lanes (normalize_raw per lane); stores the lanes
/// selected by `active` as int32 registers at `out`.
__attribute__((target("avx512f,avx512bw,avx512dq"))) inline void
normalize_store_lanes512(__m512i value, std::int32_t x_min, int shift,
                         const lanes512_consts& k, std::int32_t* out,
                         __mmask8 active) {
  const __m512i diff = clamp_lanes512(
      _mm512_sub_epi64(value, _mm512_set1_epi64(x_min)), k.rail_min,
      k.rail_max);
  __m512i result;
  if (shift >= 0) {
    const int right =
        shift < max_norm_right_shift ? shift : max_norm_right_shift;
    const std::int64_t half = right > 0 ? std::int64_t{1} << (right - 1) : 0;
    result = clamp_lanes512(
        round_shift_sra512(diff, _mm512_set1_epi64(half),
                           _mm512_set1_epi64(half > 0 ? half - 1 : 0),
                           _mm_cvtsi32_si128(right)),
        k.rail_min, k.rail_max);
  } else {
    const int left =
        -shift < max_norm_left_shift ? -shift : max_norm_left_shift;
    result = clamp_lanes512(_mm512_sll_epi64(diff, _mm_cvtsi32_si128(left)),
                            k.rail_min, k.rail_max);
  }
  _mm512_mask_cvtepi64_storeu_epi32(out, active, result);
}

/// AVG + NORM for `count` (<= 8) consecutive features of one shot, one
/// feature per lane: `sums` holds their groups' int64 sums, `reciprocal`
/// their 1/length registers; x_min/shift point at the first feature's
/// parameters. The σ exponents differ per lane, so both NORM shifts run as
/// per-lane variable shifts (a zero shift is the identity either way).
/// Feature i lands at out[i * stride].
__attribute__((target("avx512f,avx512bw,avx512dq"))) inline void
average_normalize_features512(const std::int64_t* sums, std::size_t count,
                              const std::int32_t* reciprocal,
                              const std::int32_t* x_min, const int* shift,
                              const lanes512_consts& k, std::int32_t* out,
                              std::size_t stride) {
  const auto mask = static_cast<__mmask8>((1u << count) - 1);
  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i sum = clamp_lanes512(_mm512_maskz_loadu_epi64(mask, sums),
                                     k.rail_min, k.rail_max);
  const __m512i product =
      _mm512_mul_epi32(sum, load_lanes512_masked(mask, reciprocal));
  const __m512i average = post_scale512<true>(product, k);
  const __m512i offset = load_lanes512_masked(mask, x_min);
  const __m512i diff = clamp_lanes512(_mm512_sub_epi64(average, offset),
                                      k.rail_min, k.rail_max);
  const __m512i exponent = load_lanes512_masked(mask, shift);
  const __m512i right =
      _mm512_min_epi64(_mm512_max_epi64(exponent, zero),
                       _mm512_set1_epi64(max_norm_right_shift));
  const __m512i left = _mm512_min_epi64(
      _mm512_max_epi64(_mm512_sub_epi64(zero, exponent), zero),
      _mm512_set1_epi64(max_norm_left_shift));
  // Rounding bias 2^(right-1), and 2^(right-1) - 1 for negative values.
  const __mmask8 shifting = _mm512_cmpgt_epi64_mask(right, zero);
  const __m512i half =
      _mm512_maskz_sllv_epi64(shifting, one, _mm512_sub_epi64(right, one));
  const __m512i half_neg = _mm512_mask_sub_epi64(half, shifting, half, one);
  const __mmask8 negative = _mm512_cmplt_epi64_mask(diff, zero);
  const __m512i biased = _mm512_mask_add_epi64(_mm512_add_epi64(diff, half),
                                               negative, diff, half_neg);
  const __m512i rounded = clamp_lanes512(_mm512_srav_epi64(biased, right),
                                         k.rail_min, k.rail_max);
  const __m512i result = clamp_lanes512(_mm512_sllv_epi64(rounded, left),
                                        k.rail_min, k.rail_max);
  alignas(32) std::int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                     _mm512_cvtepi64_epi32(result));
  for (std::size_t i = 0; i < count; ++i) out[i * stride] = lanes[i];
}

/// One shot through the front end with its samples across the 8 lanes —
/// the single-shot form of the kernel, where shot-per-lane would leave 7 of
/// 8 lanes idle. Each 64-sample block is quantized and MF-accumulated in
/// vectors; its int32 registers then feed the AVG adder trees in scalar
/// code, and every 8 finished groups take AVG + NORM together in vectors.
template <bool ClampTaps>
__attribute__((target("avx512f,avx512bw,avx512dq"))) void frontend_shot_avx512(
    const float* trace, const frontend_spec& frontend, std::int32_t* out,
    std::size_t stride, const lanes512_consts& k, const mac_spec& spec) {
  constexpr std::size_t kBlock = 64;
  const std::size_t n = frontend.samples;
  const std::size_t groups = frontend.groups;
  __m512i mf = _mm512_setzero_si512();
  alignas(64) std::int32_t block[kBlock];
  std::int64_t sums[8];
  for (std::size_t quadrature = 0; quadrature < 2; ++quadrature) {
    const float* samples = trace + quadrature * n;
    const std::int32_t* taps = frontend.envelope != nullptr
                                   ? frontend.envelope + quadrature * n
                                   : nullptr;
    // Finished groups [first, g) wait in sums[] for their AVG + NORM.
    std::size_t g = 0;
    std::size_t first = 0;
    std::size_t end = frontend.group_end[0];
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < n; i += kBlock) {
      const std::size_t count = std::min(kBlock, n - i);
      for (std::size_t v = 0; v < count; v += 8) {
        // Lanes past the trace's end load 0.0, which quantizes to 0 and
        // multiplies a zero tap.
        const auto mask = static_cast<__mmask16>(
            (1u << std::min<std::size_t>(8, count - v)) - 1);
        const __m512i x = quantize_lanes512(
            _mm512_castps512_ps256(
                _mm512_maskz_loadu_ps(mask, samples + i + v)),
            k);
        _mm256_store_si256(reinterpret_cast<__m256i*>(block + v),
                           _mm512_cvtepi64_epi32(x));
        if (taps != nullptr) {
          const __m512i tap = load_lanes512_masked(static_cast<__mmask8>(mask),
                                                   taps + i + v);
          mf = _mm512_add_epi64(
              mf, post_scale512<ClampTaps>(_mm512_mul_epi32(tap, x), k));
        }
      }
      for (std::size_t j = 0; j < count;) {
        const std::size_t stop = std::min(count, end - i);
        for (; j < stop; ++j) sum += block[j];
        if (i + stop == end) {
          sums[g - first] = sum;
          sum = 0;
          if (++g - first == 8) {
            const std::size_t c = quadrature * groups + first;
            average_normalize_features512(
                sums, 8, frontend.reciprocal + first, frontend.x_min + c,
                frontend.shift + c, k, out + c * stride, stride);
            first = g;
          }
          if (g < groups) end = frontend.group_end[g];
        }
      }
    }
    if (g > first) {
      const std::size_t c = quadrature * groups + first;
      average_normalize_features512(sums, g - first,
                                    frontend.reciprocal + first,
                                    frontend.x_min + c, frontend.shift + c, k,
                                    out + c * stride, stride);
    }
  }
  if (frontend.envelope != nullptr) {
    const std::size_t c = 2 * groups;
    out[c * stride] = static_cast<std::int32_t>(normalize_raw(
        clamp_raw(_mm512_reduce_add_epi64(mf), spec.raw_min, spec.raw_max),
        frontend.x_min[c], frontend.shift[c], spec));
  }
}

/// Fewest shots an 8-lane block holds for shot-per-lane to beat running
/// each shot through frontend_shot_avx512: a block costs about as much as
/// three to six single shots (bench_fixed_kernels BM_FrontendTile rows).
constexpr std::size_t kMinLaneShots512 = 4;

template <bool ClampTaps>
__attribute__((target("avx512f,avx512bw,avx512dq"))) void frontend_tile_avx512(
    const float* const* traces, std::size_t lanes,
    const frontend_spec& frontend, std::int32_t* plane, std::size_t stride,
    const mac_spec& spec) noexcept {
  constexpr std::size_t kLanes = 8;
  const std::size_t n = frontend.samples;
  const std::size_t groups = frontend.groups;
  const lanes512_consts k = make_lanes512_consts(spec);
  const __m512i zero = _mm512_setzero_si512();
  for (std::size_t base = 0; base < lanes; base += kLanes) {
    const std::size_t active = std::min(kLanes, lanes - base);
    std::int32_t* out = plane + base;
    if (active < kMinLaneShots512) {
      for (std::size_t l = 0; l < active; ++l) {
        frontend_shot_avx512<ClampTaps>(traces[base + l], frontend, out + l,
                                        stride, k, spec);
      }
      continue;
    }
    const auto active_mask = static_cast<__mmask8>((1u << active) - 1);
    // Lanes past a ragged tile's end re-read its first shot; their results
    // are never stored.
    const float* src[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      src[l] = traces[base + (l < active ? l : 0)];
    }
    __m512i mf = zero;
    for (std::size_t quadrature = 0; quadrature < 2; ++quadrature) {
      const std::size_t offset = quadrature * n;
      const std::int32_t* taps = frontend.envelope != nullptr
                                     ? frontend.envelope + offset
                                     : nullptr;
      std::size_t g = 0;
      std::size_t end = frontend.group_end[0];
      __m512i sum = zero;
      for (std::size_t i = 0; i < n; i += kLanes) {
        // Eight samples of eight shots, transposed in registers so row j
        // holds sample i + j of every shot lane.
        const std::size_t count = std::min(kLanes, n - i);
        const auto load_mask = static_cast<__mmask16>((1u << count) - 1);
        __m256 rows[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) {
          rows[l] = _mm512_castps512_ps256(
              _mm512_maskz_loadu_ps(load_mask, src[l] + offset + i));
        }
        transpose8(rows);
#pragma GCC unroll 8
        for (std::size_t j = 0; j < kLanes; ++j) {
          if (j == count) break;
          const __m512i x = quantize_lanes512(rows[j], k);
          sum = _mm512_add_epi64(sum, x);
          if (taps != nullptr) {
            mf = _mm512_add_epi64(
                mf, post_scale512<ClampTaps>(
                        _mm512_mul_epi32(_mm512_set1_epi32(taps[i + j]), x),
                        k));
          }
          if (i + j + 1 == end) {
            const std::size_t c = quadrature * groups + g;
            const __m512i average = post_scale512<true>(
                _mm512_mul_epi32(clamp_lanes512(sum, k.rail_min, k.rail_max),
                                 _mm512_set1_epi32(frontend.reciprocal[g])),
                k);
            normalize_store_lanes512(average, frontend.x_min[c],
                                     frontend.shift[c], k, out + c * stride,
                                     active_mask);
            sum = zero;
            if (++g < groups) end = frontend.group_end[g];
          }
        }
      }
    }
    if (frontend.envelope != nullptr) {
      const std::size_t c = 2 * groups;
      normalize_store_lanes512(clamp_lanes512(mf, k.rail_min, k.rail_max),
                               frontend.x_min[c], frontend.shift[c], k,
                               out + c * stride, active_mask);
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace

namespace avx2 {

std::int64_t mac_row(const std::int32_t* weights, const std::int32_t* inputs,
                     std::size_t n, std::int64_t bias_raw, bool in_range,
                     const mac_spec& spec) noexcept {
  return in_range ? mac_row_avx2<false>(weights, inputs, n, bias_raw, spec)
                  : mac_row_avx2<true>(weights, inputs, n, bias_raw, spec);
}

void mac_tile(const std::int32_t* weights, const std::int32_t* bias,
              const std::uint8_t* rows_in_range, std::size_t out_dim,
              std::size_t in_dim, const std::int32_t* in_plane,
              std::size_t tile, std::size_t stride, bool relu,
              std::int32_t* out_plane, const mac_spec& spec) noexcept {
  mac_tile_avx2(weights, bias, rows_in_range, out_dim,
                tile_args{in_dim, in_plane, tile, stride, relu}, out_plane,
                spec);
}

void quantize_block(const float* values, std::size_t n, std::int32_t* out,
                    const mac_spec& spec) noexcept {
  quantize_block_avx2(values, n, out, spec);
}

void frontend_tile(const float* const* traces, std::size_t lanes,
                   const frontend_spec& frontend, std::int32_t* plane,
                   std::size_t stride, const mac_spec& spec) noexcept {
  if (frontend.taps_in_range) {
    frontend_tile_avx2<false>(traces, lanes, frontend, plane, stride, spec);
  } else {
    frontend_tile_avx2<true>(traces, lanes, frontend, plane, stride, spec);
  }
}

}  // namespace avx2

namespace avx512 {

std::int64_t mac_row(const std::int32_t* weights, const std::int32_t* inputs,
                     std::size_t n, std::int64_t bias_raw, bool in_range,
                     const mac_spec& spec) noexcept {
  return in_range ? mac_row_avx512<false>(weights, inputs, n, bias_raw, spec)
                  : mac_row_avx512<true>(weights, inputs, n, bias_raw, spec);
}

void mac_tile(const std::int32_t* weights, const std::int32_t* bias,
              const std::uint8_t* rows_in_range, std::size_t out_dim,
              std::size_t in_dim, const std::int32_t* in_plane,
              std::size_t tile, std::size_t stride, bool relu,
              std::int32_t* out_plane, const mac_spec& spec) noexcept {
  mac_tile_avx512(weights, bias, rows_in_range, out_dim,
                  tile_args{in_dim, in_plane, tile, stride, relu}, out_plane,
                  spec);
}

void quantize_block(const float* values, std::size_t n, std::int32_t* out,
                    const mac_spec& spec) noexcept {
  quantize_block_avx512(values, n, out, spec);
}

void frontend_tile(const float* const* traces, std::size_t lanes,
                   const frontend_spec& frontend, std::int32_t* plane,
                   std::size_t stride, const mac_spec& spec) noexcept {
  if (frontend.taps_in_range) {
    frontend_tile_avx512<false>(traces, lanes, frontend, plane, stride, spec);
  } else {
    frontend_tile_avx512<true>(traces, lanes, frontend, plane, stride, spec);
  }
}

}  // namespace avx512

#else  // !KLINQ_HAVE_X86_SIMD

// Keep the avx2:: / avx512:: entry points linkable on builds without the
// SIMD bodies; avx2_available() / avx512_available() report false, so the
// harness skips rather than compares scalar against itself.
namespace avx2 {

std::int64_t mac_row(const std::int32_t* weights, const std::int32_t* inputs,
                     std::size_t n, std::int64_t bias_raw, bool in_range,
                     const mac_spec& spec) noexcept {
  return scalar64::mac_row(weights, inputs, n, bias_raw, in_range, spec);
}

void mac_tile(const std::int32_t* weights, const std::int32_t* bias,
              const std::uint8_t* rows_in_range, std::size_t out_dim,
              std::size_t in_dim, const std::int32_t* in_plane,
              std::size_t tile, std::size_t stride, bool relu,
              std::int32_t* out_plane, const mac_spec& spec) noexcept {
  scalar64::mac_tile(weights, bias, rows_in_range, out_dim, in_dim, in_plane,
                     tile, stride, relu, out_plane, spec);
}

void quantize_block(const float* values, std::size_t n, std::int32_t* out,
                    const mac_spec& spec) noexcept {
  scalar64::quantize_block(values, n, out, spec);
}

void frontend_tile(const float* const* traces, std::size_t lanes,
                   const frontend_spec& frontend, std::int32_t* plane,
                   std::size_t stride, const mac_spec& spec) noexcept {
  scalar64::frontend_tile(traces, lanes, frontend, plane, stride, spec);
}

}  // namespace avx2

namespace avx512 {

std::int64_t mac_row(const std::int32_t* weights, const std::int32_t* inputs,
                     std::size_t n, std::int64_t bias_raw, bool in_range,
                     const mac_spec& spec) noexcept {
  return scalar64::mac_row(weights, inputs, n, bias_raw, in_range, spec);
}

void mac_tile(const std::int32_t* weights, const std::int32_t* bias,
              const std::uint8_t* rows_in_range, std::size_t out_dim,
              std::size_t in_dim, const std::int32_t* in_plane,
              std::size_t tile, std::size_t stride, bool relu,
              std::int32_t* out_plane, const mac_spec& spec) noexcept {
  scalar64::mac_tile(weights, bias, rows_in_range, out_dim, in_dim, in_plane,
                     tile, stride, relu, out_plane, spec);
}

void quantize_block(const float* values, std::size_t n, std::int32_t* out,
                    const mac_spec& spec) noexcept {
  scalar64::quantize_block(values, n, out, spec);
}

void frontend_tile(const float* const* traces, std::size_t lanes,
                   const frontend_spec& frontend, std::int32_t* plane,
                   std::size_t stride, const mac_spec& spec) noexcept {
  scalar64::frontend_tile(traces, lanes, frontend, plane, stride, spec);
}

}  // namespace avx512

#endif  // KLINQ_HAVE_X86_SIMD

bool avx2_available() noexcept {
  return KLINQ_HAVE_X86_SIMD != 0 && cpu_supports_avx2();
}

bool avx512_available() noexcept {
  return KLINQ_HAVE_X86_SIMD != 0 && cpu_supports_avx512();
}

// ---------------------------------------------------------------------------
// Dispatched entry points
// ---------------------------------------------------------------------------

namespace {

struct kernel_table {
  std::int64_t (*mac_row)(const std::int32_t*, const std::int32_t*,
                          std::size_t, std::int64_t, bool,
                          const mac_spec&) noexcept;
  void (*mac_tile)(const std::int32_t*, const std::int32_t*,
                   const std::uint8_t*, std::size_t, std::size_t,
                   const std::int32_t*, std::size_t, std::size_t, bool,
                   std::int32_t*, const mac_spec&) noexcept;
  void (*quantize_block)(const float*, std::size_t, std::int32_t*,
                         const mac_spec&) noexcept;
  void (*frontend_tile)(const float* const*, std::size_t,
                        const frontend_spec&, std::int32_t*, std::size_t,
                        const mac_spec&) noexcept;
};

const kernel_table& active_table() noexcept {
  static const kernel_table table = [] {
    switch (active_simd_tier()) {
      case simd_tier::avx512:
        return kernel_table{avx512::mac_row, avx512::mac_tile,
                            avx512::quantize_block, avx512::frontend_tile};
      case simd_tier::avx2:
        return kernel_table{avx2::mac_row, avx2::mac_tile,
                            avx2::quantize_block, avx2::frontend_tile};
      case simd_tier::scalar64:
        break;
    }
    return kernel_table{scalar64::mac_row, scalar64::mac_tile,
                        scalar64::quantize_block, scalar64::frontend_tile};
  }();
  return table;
}

}  // namespace

std::int64_t mac_row(const std::int32_t* weights, const std::int32_t* inputs,
                     std::size_t n, std::int64_t bias_raw, bool in_range,
                     const mac_spec& spec) noexcept {
  return active_table().mac_row(weights, inputs, n, bias_raw, in_range, spec);
}

void mac_tile(const std::int32_t* weights, const std::int32_t* bias,
              const std::uint8_t* rows_in_range, std::size_t out_dim,
              std::size_t in_dim, const std::int32_t* in_plane,
              std::size_t tile, std::size_t stride, bool relu,
              std::int32_t* out_plane, const mac_spec& spec) noexcept {
  active_table().mac_tile(weights, bias, rows_in_range, out_dim, in_dim,
                          in_plane, tile, stride, relu, out_plane, spec);
}

void quantize_block(const float* values, std::size_t n, std::int32_t* out,
                    const mac_spec& spec) noexcept {
  active_table().quantize_block(values, n, out, spec);
}

void frontend_tile(const float* const* traces, std::size_t lanes,
                   const frontend_spec& frontend, std::int32_t* plane,
                   std::size_t stride, const mac_spec& spec) noexcept {
  active_table().frontend_tile(traces, lanes, frontend, plane, stride, spec);
}

}  // namespace klinq::fx::kernels
