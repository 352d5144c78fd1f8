#include "klinq/nn/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "klinq/common/aligned.hpp"
#include "klinq/common/error.hpp"
#include "klinq/common/thread_pool.hpp"

#if KLINQ_HAVE_X86_SIMD
#include <immintrin.h>
#endif

namespace klinq::nn::kernels {

namespace {

/// The AVG group lengths of an n-sample quadrature in order: group g spans
/// [floor(g·n/groups), floor((g+1)·n/groups)). Boundaries advance by
/// Bresenham carry instead of two integer divisions per group — at
/// ~33-sample groups the divisions would cost more than the sums. Every
/// kernel that walks groups takes its lengths from here, so a tile lane's
/// groups are the single shot's.
class group_walk {
 public:
  group_walk(std::size_t n, std::size_t groups) noexcept
      : quotient_(n / groups), remainder_(n % groups), groups_(groups) {}

  /// Length of the next group.
  std::size_t next() noexcept {
    std::size_t len = quotient_;
    carry_ += remainder_;
    if (carry_ >= groups_) {
      carry_ -= groups_;
      ++len;
    }
    return len;
  }

 private:
  std::size_t quotient_;
  std::size_t remainder_;
  std::size_t groups_;
  std::size_t carry_ = 0;
};

/// One shot of extract_tile through a tier's single-shot kernel: its
/// grouped_mean_dot per quadrature (means written `stride` apart, straight
/// into plane lane `out`), the MF partials summed as 0 + I + Q, then the
/// NORM op per feature in place — feature_pipeline::extract's sequence.
template <auto GroupedMeanDot>
void extract_shot(const float* trace, std::size_t n, const extract_spec& spec,
                  float* out, std::size_t stride) noexcept {
  const std::size_t groups = spec.groups;
  float mf = 0.0f;
  for (std::size_t quadrature = 0; quadrature < 2; ++quadrature) {
    const std::size_t base = quadrature * n;
    mf += GroupedMeanDot(
        trace + base, spec.envelope != nullptr ? spec.envelope + base : nullptr,
        n, groups, out + quadrature * groups * stride, stride);
  }
  if (spec.envelope != nullptr) out[2 * groups * stride] = mf;
  for (std::size_t c = 0; c < spec.width(); ++c) {
    const float centred = out[c * stride] - spec.offset[c];
    out[c * stride] = spec.op == norm_op::multiply ? centred * spec.scale[c]
                                                   : centred / spec.scale[c];
  }
}

/// Writes +0 to lanes [from, to) of `width` feature rows.
void zero_lanes(std::size_t width, std::size_t from, std::size_t to,
                float* plane, std::size_t stride) noexcept {
  for (std::size_t c = 0; c < width; ++c) {
    for (std::size_t s = from; s < to; ++s) plane[c * stride + s] = 0.0f;
  }
}

// ---------------------------------------------------------------------------
// scalar tier
// ---------------------------------------------------------------------------

float dot_scalar(const float* a, const float* b, std::size_t n) noexcept {
  // The seed's 4-lane reduction (gemm.cpp dot_lanes), kept verbatim so the
  // pinned scalar tier reproduces historical numerics bit for bit.
  float acc0 = 0.0f;
  float acc1 = 0.0f;
  float acc2 = 0.0f;
  float acc3 = 0.0f;
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    acc0 += a[p] * b[p];
    acc1 += a[p + 1] * b[p + 1];
    acc2 += a[p + 2] * b[p + 2];
    acc3 += a[p + 3] * b[p + 3];
  }
  float acc = (acc0 + acc1) + (acc2 + acc3);
  for (; p < n; ++p) acc += a[p] * b[p];
  return acc;
}

float sum_scalar(const float* values, std::size_t n) noexcept {
  // Same 4-lane order as the seed's interval_averager accumulation.
  float acc0 = 0.0f;
  float acc1 = 0.0f;
  float acc2 = 0.0f;
  float acc3 = 0.0f;
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    acc0 += values[p];
    acc1 += values[p + 1];
    acc2 += values[p + 2];
    acc3 += values[p + 3];
  }
  float acc = (acc0 + acc1) + (acc2 + acc3);
  for (; p < n; ++p) acc += values[p];
  return acc;
}

/// grouped_mean_dot with the means written `out_stride` apart, so
/// extract_tile runs the identical operation sequence straight into a plane
/// lane. The SIMD tiers' grouped_mean_dot_* take the same arguments.
float grouped_mean_dot_scalar(const float* values, const float* weights,
                              std::size_t n, std::size_t groups,
                              float* out_means,
                              std::size_t out_stride) noexcept {
  // One pass serves both features. The group sums reduce per group (their
  // boundaries demand it), but the matched-filter accumulators persist
  // across groups — lanes for the vectorizable body, one scalar chain for
  // the per-group tails — and reduce once at the end.
  float dot0 = 0.0f;
  float dot1 = 0.0f;
  float dot2 = 0.0f;
  float dot3 = 0.0f;
  float dot_tail = 0.0f;
  group_walk walk(n, groups);
  std::size_t begin = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t len = walk.next();
    const float* p = values + begin;
    const float* w = weights != nullptr ? weights + begin : nullptr;
    begin += len;
    float sum0 = 0.0f;
    float sum1 = 0.0f;
    float sum2 = 0.0f;
    float sum3 = 0.0f;
    std::size_t s = 0;
    if (w != nullptr) {
      for (; s + 4 <= len; s += 4) {
        sum0 += p[s];
        sum1 += p[s + 1];
        sum2 += p[s + 2];
        sum3 += p[s + 3];
        dot0 += p[s] * w[s];
        dot1 += p[s + 1] * w[s + 1];
        dot2 += p[s + 2] * w[s + 2];
        dot3 += p[s + 3] * w[s + 3];
      }
      float acc = (sum0 + sum1) + (sum2 + sum3);
      for (; s < len; ++s) {
        acc += p[s];
        dot_tail += p[s] * w[s];
      }
      out_means[g * out_stride] = acc / static_cast<float>(len);
    } else {
      for (; s + 4 <= len; s += 4) {
        sum0 += p[s];
        sum1 += p[s + 1];
        sum2 += p[s + 2];
        sum3 += p[s + 3];
      }
      float acc = (sum0 + sum1) + (sum2 + sum3);
      for (; s < len; ++s) acc += p[s];
      out_means[g * out_stride] = acc / static_cast<float>(len);
    }
  }
  return (dot0 + dot1) + (dot2 + dot3) + dot_tail;
}

void fc_plane_scalar(const float* weights, const float* bias,
                     std::size_t out_dim, std::size_t in_dim,
                     const float* in_plane, std::size_t lanes,
                     std::size_t stride, bool relu, float* out_plane) noexcept {
  const std::size_t padded = padded_lanes(lanes);
  for (std::size_t o = 0; o < out_dim; ++o) {
    const float* w = weights + o * in_dim;
    const float bias_value = bias != nullptr ? bias[o] : 0.0f;
    float* out_row = out_plane + o * stride;
    for (std::size_t s0 = 0; s0 < padded; s0 += lane_group) {
      // One whole lane group per pass; per lane the accumulation over i is
      // strictly ascending, so GCC SLP-vectorizes the group and a lane's
      // value never depends on its position in the tile.
      float acc[lane_group];
      for (std::size_t l = 0; l < lane_group; ++l) acc[l] = bias_value;
      const float* column = in_plane + s0;
      for (std::size_t i = 0; i < in_dim; ++i) {
        const float wv = w[i];
        const float* lane = column + i * stride;
        for (std::size_t l = 0; l < lane_group; ++l) acc[l] += wv * lane[l];
      }
      for (std::size_t l = 0; l < lane_group; ++l) {
        const float value = acc[l];
        out_row[s0 + l] = relu && value < 0.0f ? 0.0f : value;
      }
    }
  }
}

void extract_tile_scalar(const float* const* traces, std::size_t lanes,
                         std::size_t samples_per_quadrature,
                         const extract_spec& spec, float* plane,
                         std::size_t stride) noexcept {
  // Shot by shot through grouped_mean_dot's own body.
  for (std::size_t s = 0; s < lanes; ++s) {
    extract_shot<grouped_mean_dot_scalar>(traces[s], samples_per_quadrature,
                                          spec, plane + s, stride);
  }
  zero_lanes(spec.width(), lanes, padded_lanes(lanes), plane, stride);
}

// ---------------------------------------------------------------------------
// avx2 tier
// ---------------------------------------------------------------------------

#if KLINQ_HAVE_X86_SIMD

// Per-function target("avx2,fma") keeps the rest of the library buildable
// without -mavx2 while the runtime dispatcher guards execution via cpuid.

/// Fixed-order horizontal reduction of one 8-lane accumulator: low+high
/// halves, then pairwise within the 4-lane result.
__attribute__((target("avx2,fma"))) inline float reduce_lanes(__m256 acc) {
  const __m128 lo = _mm256_castps256_ps128(acc);
  const __m128 hi = _mm256_extractf128_ps(acc, 1);
  const __m128 quad = _mm_add_ps(lo, hi);
  const __m128 pair = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
  const __m128 one =
      _mm_add_ss(pair, _mm_shuffle_ps(pair, pair, _MM_SHUFFLE(1, 1, 1, 1)));
  return _mm_cvtss_f32(one);
}

__attribute__((target("avx2,fma"))) float dot_avx2(const float* a,
                                                   const float* b,
                                                   std::size_t n) noexcept {
  // Four independent FMA accumulators hide the 4-cycle FMA latency on the
  // 2N-wide matched-filter MAC; combined pairwise in a fixed order so the
  // result depends only on (a, b, n).
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                           _mm256_loadu_ps(b + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                           _mm256_loadu_ps(b + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  const __m256 acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                                   _mm256_add_ps(acc2, acc3));
  float total = reduce_lanes(acc);
  // FMA tail keeps the whole reduction contraction-consistent.
  for (; i < n; ++i) total = std::fmaf(a[i], b[i], total);
  return total;
}

__attribute__((target("avx2,fma"))) float sum_avx2(const float* values,
                                                   std::size_t n) noexcept {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(values + i));
    acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(values + i + 8));
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(values + i));
  }
  float total = reduce_lanes(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) total += values[i];
  return total;
}

/// Horizontal sums of four 8-lane accumulators in one hadd tree:
/// returns [Σa, Σb, Σc, Σd]. Amortizes the per-group reduction the interval
/// means need — one tree per four groups instead of four serial reductions.
__attribute__((target("avx2,fma"))) inline __m128 reduce_four(__m256 a,
                                                              __m256 b,
                                                              __m256 c,
                                                              __m256 d) {
  const __m256 ab = _mm256_hadd_ps(a, b);
  const __m256 cd = _mm256_hadd_ps(c, d);
  const __m256 quad = _mm256_hadd_ps(ab, cd);
  return _mm_add_ps(_mm256_castps256_ps128(quad),
                    _mm256_extractf128_ps(quad, 1));
}

/// Per-group accumulation state that persists across groups: the two
/// matched-filter FMA lanes and the scalar tail chain.
struct mean_dot_state {
  __m256 dot_acc0;
  __m256 dot_acc1;
  float dot_tail;
};

/// Accumulates one group's vector sum into *acc and its tail samples into
/// *tail; the matched-filter accumulators in *state ride along when
/// weights are present. `p`/`w` point at the group's first sample.
__attribute__((target("avx2,fma"))) inline void accumulate_group(
    const float* p, const float* w, std::size_t len, mean_dot_state* state,
    __m256* acc, float* tail) noexcept {
  __m256 sum0 = _mm256_setzero_ps();
  __m256 sum1 = _mm256_setzero_ps();
  float t = 0.0f;
  std::size_t s = 0;
  if (w != nullptr) {
    for (; s + 16 <= len; s += 16) {
      const __m256 v0 = _mm256_loadu_ps(p + s);
      const __m256 v1 = _mm256_loadu_ps(p + s + 8);
      sum0 = _mm256_add_ps(sum0, v0);
      sum1 = _mm256_add_ps(sum1, v1);
      state->dot_acc0 =
          _mm256_fmadd_ps(v0, _mm256_loadu_ps(w + s), state->dot_acc0);
      state->dot_acc1 =
          _mm256_fmadd_ps(v1, _mm256_loadu_ps(w + s + 8), state->dot_acc1);
    }
    for (; s + 8 <= len; s += 8) {
      const __m256 v = _mm256_loadu_ps(p + s);
      sum0 = _mm256_add_ps(sum0, v);
      state->dot_acc0 =
          _mm256_fmadd_ps(v, _mm256_loadu_ps(w + s), state->dot_acc0);
    }
    for (; s < len; ++s) {
      t += p[s];
      state->dot_tail = std::fmaf(p[s], w[s], state->dot_tail);
    }
  } else {
    for (; s + 16 <= len; s += 16) {
      sum0 = _mm256_add_ps(sum0, _mm256_loadu_ps(p + s));
      sum1 = _mm256_add_ps(sum1, _mm256_loadu_ps(p + s + 8));
    }
    for (; s + 8 <= len; s += 8) {
      sum0 = _mm256_add_ps(sum0, _mm256_loadu_ps(p + s));
    }
    for (; s < len; ++s) t += p[s];
  }
  *acc = _mm256_add_ps(sum0, sum1);
  *tail = t;
}

__attribute__((target("avx2,fma"))) float grouped_mean_dot_avx2(
    const float* values, const float* weights, std::size_t n,
    std::size_t groups, float* out_means, std::size_t out_stride) noexcept {
  // 8-lane fused pass. Per group one vector loop feeds both the group-sum
  // accumulator (reduced per group — the boundaries demand it) and the
  // matched-filter FMA accumulators, which persist across groups and reduce
  // once at the end; per-group tail samples feed scalar chains. Groups are
  // processed four at a time so their horizontal reductions share one hadd
  // tree and one vector divide. Means land `out_stride` apart (1 for the
  // single shot, the plane stride for a lane of extract_tile).
  mean_dot_state state{_mm256_setzero_ps(), _mm256_setzero_ps(), 0.0f};
  group_walk walk(n, groups);
  std::size_t begin = 0;
  std::size_t g = 0;
  for (; g + 4 <= groups; g += 4) {
    __m256 acc[4];
    alignas(16) float tails[4];
    alignas(16) float lens[4];
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t len = walk.next();
      accumulate_group(values + begin,
                       weights != nullptr ? weights + begin : nullptr, len,
                       &state, &acc[k], &tails[k]);
      lens[k] = static_cast<float>(len);
      begin += len;
    }
    const __m128 sums =
        _mm_add_ps(reduce_four(acc[0], acc[1], acc[2], acc[3]),
                   _mm_load_ps(tails));
    alignas(16) float means[4];
    _mm_store_ps(means, _mm_div_ps(sums, _mm_load_ps(lens)));
    for (std::size_t k = 0; k < 4; ++k) {
      out_means[(g + k) * out_stride] = means[k];
    }
  }
  for (; g < groups; ++g) {
    __m256 acc;
    float tail;
    const std::size_t len = walk.next();
    accumulate_group(values + begin,
                     weights != nullptr ? weights + begin : nullptr, len,
                     &state, &acc, &tail);
    begin += len;
    out_means[g * out_stride] =
        (reduce_lanes(acc) + tail) / static_cast<float>(len);
  }
  return reduce_lanes(_mm256_add_ps(state.dot_acc0, state.dot_acc1)) +
         state.dot_tail;
}

// --- extract_tile, avx2: eight shots per ymm ------------------------------

/// True when every AVG group is shorter than a `width`-lane vector, so
/// grouped_mean_dot runs no vector body and every sample is a tail sample
/// (FNN-B's 5-sample groups).
constexpr bool tails_only(std::size_t n, std::size_t groups,
                          std::size_t width) noexcept {
  return (n + groups - 1) / groups < width;
}

/// In-register 8x8 transpose: rows[j][l] <- rows[l][j].
__attribute__((target("avx2,fma"))) inline void transpose8(__m256* rows) {
  __m256 t[8];
  for (std::size_t k = 0; k < 4; ++k) {
    t[2 * k] = _mm256_unpacklo_ps(rows[2 * k], rows[2 * k + 1]);
    t[2 * k + 1] = _mm256_unpackhi_ps(rows[2 * k], rows[2 * k + 1]);
  }
  __m256 u[8];
  for (std::size_t m = 0; m < 2; ++m) {
    const __m256* v = t + 4 * m;
    u[4 * m] = _mm256_shuffle_ps(v[0], v[2], _MM_SHUFFLE(1, 0, 1, 0));
    u[4 * m + 1] = _mm256_shuffle_ps(v[0], v[2], _MM_SHUFFLE(3, 2, 3, 2));
    u[4 * m + 2] = _mm256_shuffle_ps(v[1], v[3], _MM_SHUFFLE(1, 0, 1, 0));
    u[4 * m + 3] = _mm256_shuffle_ps(v[1], v[3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (std::size_t j = 0; j < 4; ++j) {
    rows[j] = _mm256_permute2f128_ps(u[j], u[4 + j], 0x20);
    rows[4 + j] = _mm256_permute2f128_ps(u[j], u[4 + j], 0x31);
  }
}

/// Samples [i, i + count) of eight shots, count <= 8, transposed so rows[j]
/// holds sample i + j of every shot lane. Rows past `count` read zero
/// without touching memory.
__attribute__((target("avx2,fma"))) inline void load_rows8(
    const float* const* src, std::size_t i, std::size_t count,
    __m256* rows) {
  if (count == 8) {
    for (std::size_t l = 0; l < 8; ++l) rows[l] = _mm256_loadu_ps(src[l] + i);
  } else {
    const __m256i mask =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    for (std::size_t l = 0; l < 8; ++l) {
      rows[l] = _mm256_maskload_ps(src[l] + i, mask);
    }
  }
  transpose8(rows);
}

/// Where a shot-per-lane block's features go: feature c of its lanes at
/// out[c * stride], lanes outside `keep` as +0.
struct block_out8 {
  const extract_spec* spec;
  float* out;
  std::size_t stride;
  __m256 keep;
};

/// NORM feature c of the block's eight lanes and store it.
__attribute__((target("avx2,fma"))) inline void store_feature8(
    const block_out8& dst, std::size_t c, __m256 x) {
  const extract_spec& spec = *dst.spec;
  const __m256 centred = _mm256_sub_ps(x, _mm256_set1_ps(spec.offset[c]));
  const __m256 scale = _mm256_set1_ps(spec.scale[c]);
  const __m256 y = spec.op == norm_op::multiply ? _mm256_mul_ps(centred, scale)
                                                : _mm256_div_ps(centred, scale);
  _mm256_storeu_ps(dst.out + c * dst.stride, _mm256_and_ps(y, dst.keep));
}

/// One quadrature of eight shots whose groups are all shorter than a
/// vector: every sample is a tail sample, so the quadrature streams through
/// transposed 8x8 blocks used straight from registers. Writes the group
/// means as features [first, first + groups) and returns the MF partial.
/// The single-shot kernel's reductions see all-zero accumulators here, so
/// they enter as +0.
__attribute__((target("avx2,fma"))) inline __m256 stream_quadrature8(
    const float* const* shot, std::size_t n, std::size_t groups,
    const float* w, std::size_t first, const block_out8& dst) {
  const __m256 zero = _mm256_setzero_ps();
  group_walk walk(n, groups);
  std::size_t g = 0;
  std::size_t len = walk.next();
  std::size_t end = len;
  __m256 t = zero;
  __m256 dot_tail = zero;
  for (std::size_t i = 0; i < n; i += 8) {
    const std::size_t count = std::min<std::size_t>(8, n - i);
    __m256 rows[8];
    load_rows8(shot, i, count, rows);
#pragma GCC unroll 8
    for (std::size_t j = 0; j < 8; ++j) {
      if (j == count) break;
      t = _mm256_add_ps(t, rows[j]);
      if (w != nullptr) {
        dot_tail = _mm256_fmadd_ps(rows[j], _mm256_set1_ps(w[i + j]), dot_tail);
      }
      if (i + j + 1 == end) {
        store_feature8(dst, first + g,
                       _mm256_div_ps(_mm256_add_ps(zero, t),
                                     _mm256_set1_ps(static_cast<float>(len))));
        t = zero;
        if (++g < groups) {
          len = walk.next();
          end += len;
        }
      }
    }
  }
  return _mm256_add_ps(zero, dot_tail);
}

__attribute__((target("avx2,fma"))) void extract_tile_avx2(
    const float* const* traces, std::size_t lanes, std::size_t n,
    const extract_spec& spec, float* plane, std::size_t stride) noexcept {
  // Shapes whose groups are all shorter than a vector run
  // grouped_mean_dot_avx2 on eight shots at once: every sample is a tail
  // sample, so `t += p` and the MF tail fmaf become one vector op for eight
  // shots. Shapes with vector bodies, and a block with one live shot, run
  // shot by shot through grouped_mean_dot_avx2 itself.
  constexpr std::size_t kShots = 8;
  const std::size_t groups = spec.groups;
  const bool streamed = tails_only(n, groups, kShots);
  const float* envelope = spec.envelope;
  for (std::size_t base = 0; base < lanes; base += kShots) {
    const std::size_t active = std::min(kShots, lanes - base);
    float* out = plane + base;
    if (!streamed || active == 1) {
      for (std::size_t l = 0; l < active; ++l) {
        extract_shot<grouped_mean_dot_avx2>(traces[base + l], n, spec,
                                            out + l, stride);
      }
      zero_lanes(spec.width(), active, kShots, out, stride);
      continue;
    }
    const block_out8 dst{
        &spec, out, stride,
        _mm256_castsi256_ps(
            _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(active)),
                               _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)))};
    __m256 mf = _mm256_setzero_ps();
    for (std::size_t quadrature = 0; quadrature < 2; ++quadrature) {
      const std::size_t offset = quadrature * n;
      const float* w = envelope != nullptr ? envelope + offset : nullptr;
      // Lanes past a ragged tile's end re-read its first shot.
      const float* shot[kShots];
      for (std::size_t l = 0; l < kShots; ++l) {
        shot[l] = traces[base + (l < active ? l : 0)] + offset;
      }
      mf = _mm256_add_ps(
          mf, stream_quadrature8(shot, n, groups, w, quadrature * groups, dst));
    }
    if (envelope != nullptr) store_feature8(dst, 2 * groups, mf);
  }
}

__attribute__((target("avx2,fma"))) void fc_plane_avx2(
    const float* weights, const float* bias, std::size_t out_dim,
    std::size_t in_dim, const float* in_plane, std::size_t lanes,
    std::size_t stride, bool relu, float* out_plane) noexcept {
  const std::size_t padded = padded_lanes(lanes);
  const __m256 zero = _mm256_setzero_ps();
  // Two neurons x two lane groups per pass: each plane load feeds two FMAs
  // (one per neuron), so the inner loop is FMA-bound instead of load-bound.
  // Per (neuron, lane) the accumulation is the identical ascending FMA
  // chain in every variant below — lane position in the tile never changes
  // a shot's value.
  std::size_t o = 0;
  for (; o + 2 <= out_dim; o += 2) {
    const float* w0 = weights + o * in_dim;
    const float* w1 = w0 + in_dim;
    const __m256 b0 = _mm256_set1_ps(bias != nullptr ? bias[o] : 0.0f);
    const __m256 b1 = _mm256_set1_ps(bias != nullptr ? bias[o + 1] : 0.0f);
    float* out0 = out_plane + o * stride;
    float* out1 = out0 + stride;
    std::size_t s = 0;
    for (; s + 2 * lane_group <= padded; s += 2 * lane_group) {
      __m256 acc00 = b0;
      __m256 acc01 = b0;
      __m256 acc10 = b1;
      __m256 acc11 = b1;
      const float* column = in_plane + s;
      for (std::size_t i = 0; i < in_dim; ++i) {
        const float* lane = column + i * stride;
        const __m256 x0 = _mm256_loadu_ps(lane);
        const __m256 x1 = _mm256_loadu_ps(lane + lane_group);
        const __m256 wv0 = _mm256_set1_ps(w0[i]);
        const __m256 wv1 = _mm256_set1_ps(w1[i]);
        acc00 = _mm256_fmadd_ps(wv0, x0, acc00);
        acc01 = _mm256_fmadd_ps(wv0, x1, acc01);
        acc10 = _mm256_fmadd_ps(wv1, x0, acc10);
        acc11 = _mm256_fmadd_ps(wv1, x1, acc11);
      }
      if (relu) {
        acc00 = _mm256_max_ps(acc00, zero);
        acc01 = _mm256_max_ps(acc01, zero);
        acc10 = _mm256_max_ps(acc10, zero);
        acc11 = _mm256_max_ps(acc11, zero);
      }
      _mm256_storeu_ps(out0 + s, acc00);
      _mm256_storeu_ps(out0 + s + lane_group, acc01);
      _mm256_storeu_ps(out1 + s, acc10);
      _mm256_storeu_ps(out1 + s + lane_group, acc11);
    }
    for (; s < padded; s += lane_group) {
      __m256 acc0 = b0;
      __m256 acc1 = b1;
      const float* column = in_plane + s;
      for (std::size_t i = 0; i < in_dim; ++i) {
        const __m256 x = _mm256_loadu_ps(column + i * stride);
        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(w0[i]), x, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(w1[i]), x, acc1);
      }
      if (relu) {
        acc0 = _mm256_max_ps(acc0, zero);
        acc1 = _mm256_max_ps(acc1, zero);
      }
      _mm256_storeu_ps(out0 + s, acc0);
      _mm256_storeu_ps(out1 + s, acc1);
    }
  }
  for (; o < out_dim; ++o) {
    const float* w = weights + o * in_dim;
    const __m256 b = _mm256_set1_ps(bias != nullptr ? bias[o] : 0.0f);
    float* out_row = out_plane + o * stride;
    for (std::size_t s = 0; s < padded; s += lane_group) {
      __m256 acc = b;
      const float* column = in_plane + s;
      for (std::size_t i = 0; i < in_dim; ++i) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(w[i]),
                              _mm256_loadu_ps(column + i * stride), acc);
      }
      if (relu) acc = _mm256_max_ps(acc, zero);
      _mm256_storeu_ps(out_row + s, acc);
    }
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

/// Fixed-order horizontal reduction of one 16-lane accumulator: low+high
/// 256-bit halves, then the avx2 tier's 8-lane tree.
__attribute__((target("avx512f,avx512bw,avx512dq,fma"))) inline float
reduce_lanes512(__m512 acc) {
  const __m256 half = _mm256_add_ps(_mm512_castps512_ps256(acc),
                                    _mm512_extractf32x8_ps(acc, 1));
  const __m128 lo = _mm256_castps256_ps128(half);
  const __m128 hi = _mm256_extractf128_ps(half, 1);
  const __m128 quad = _mm_add_ps(lo, hi);
  const __m128 pair = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
  const __m128 one =
      _mm_add_ss(pair, _mm_shuffle_ps(pair, pair, _MM_SHUFFLE(1, 1, 1, 1)));
  return _mm_cvtss_f32(one);
}

__attribute__((target("avx512f,avx512bw,avx512dq,fma"))) float dot_avx512(
    const float* a, const float* b, std::size_t n) noexcept {
  // Same shape as the avx2 body at twice the width: four independent FMA
  // accumulators combined pairwise in a fixed order, so the result depends
  // only on (a, b, n).
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps();
  __m512 acc3 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
    acc2 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 32),
                           _mm512_loadu_ps(b + i + 32), acc2);
    acc3 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 48),
                           _mm512_loadu_ps(b + i + 48), acc3);
  }
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i),
                           acc0);
  }
  const __m512 acc = _mm512_add_ps(_mm512_add_ps(acc0, acc1),
                                   _mm512_add_ps(acc2, acc3));
  float total = reduce_lanes512(acc);
  // FMA tail keeps the whole reduction contraction-consistent.
  for (; i < n; ++i) total = std::fmaf(a[i], b[i], total);
  return total;
}

__attribute__((target("avx512f,avx512bw,avx512dq,fma"))) float sum_avx512(
    const float* values, std::size_t n) noexcept {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_add_ps(acc0, _mm512_loadu_ps(values + i));
    acc1 = _mm512_add_ps(acc1, _mm512_loadu_ps(values + i + 16));
  }
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_add_ps(acc0, _mm512_loadu_ps(values + i));
  }
  float total = reduce_lanes512(_mm512_add_ps(acc0, acc1));
  for (; i < n; ++i) total += values[i];
  return total;
}

/// 16-lane grouped_mean_dot accumulation state (see the avx2 tier).
struct mean_dot_state512 {
  __m512 dot_acc0;
  __m512 dot_acc1;
  float dot_tail;
};

__attribute__((target("avx512f,avx512bw,avx512dq,fma"))) inline void
accumulate_group512(const float* p, const float* w, std::size_t len,
                    mean_dot_state512* state, __m512* acc,
                    float* tail) noexcept {
  __m512 sum0 = _mm512_setzero_ps();
  __m512 sum1 = _mm512_setzero_ps();
  float t = 0.0f;
  std::size_t s = 0;
  if (w != nullptr) {
    for (; s + 32 <= len; s += 32) {
      const __m512 v0 = _mm512_loadu_ps(p + s);
      const __m512 v1 = _mm512_loadu_ps(p + s + 16);
      sum0 = _mm512_add_ps(sum0, v0);
      sum1 = _mm512_add_ps(sum1, v1);
      state->dot_acc0 =
          _mm512_fmadd_ps(v0, _mm512_loadu_ps(w + s), state->dot_acc0);
      state->dot_acc1 =
          _mm512_fmadd_ps(v1, _mm512_loadu_ps(w + s + 16), state->dot_acc1);
    }
    for (; s + 16 <= len; s += 16) {
      const __m512 v = _mm512_loadu_ps(p + s);
      sum0 = _mm512_add_ps(sum0, v);
      state->dot_acc0 =
          _mm512_fmadd_ps(v, _mm512_loadu_ps(w + s), state->dot_acc0);
    }
    for (; s < len; ++s) {
      t += p[s];
      state->dot_tail = std::fmaf(p[s], w[s], state->dot_tail);
    }
  } else {
    for (; s + 32 <= len; s += 32) {
      sum0 = _mm512_add_ps(sum0, _mm512_loadu_ps(p + s));
      sum1 = _mm512_add_ps(sum1, _mm512_loadu_ps(p + s + 16));
    }
    for (; s + 16 <= len; s += 16) {
      sum0 = _mm512_add_ps(sum0, _mm512_loadu_ps(p + s));
    }
    for (; s < len; ++s) t += p[s];
  }
  *acc = _mm512_add_ps(sum0, sum1);
  *tail = t;
}

__attribute__((target("avx512f,avx512bw,avx512dq,fma"))) float
grouped_mean_dot_avx512(const float* values, const float* weights,
                        std::size_t n, std::size_t groups, float* out_means,
                        std::size_t out_stride) noexcept {
  // 16-lane fused pass, same structure as the avx2 tier: per group one
  // vector loop feeds both the group-sum accumulator (reduced per group)
  // and the matched-filter FMA accumulators (persist across groups, reduced
  // once).
  mean_dot_state512 state{_mm512_setzero_ps(), _mm512_setzero_ps(), 0.0f};
  group_walk walk(n, groups);
  std::size_t begin = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t len = walk.next();
    __m512 acc;
    float tail;
    accumulate_group512(values + begin,
                        weights != nullptr ? weights + begin : nullptr, len,
                        &state, &acc, &tail);
    begin += len;
    out_means[g * out_stride] =
        (reduce_lanes512(acc) + tail) / static_cast<float>(len);
  }
  return reduce_lanes512(_mm512_add_ps(state.dot_acc0, state.dot_acc1)) +
         state.dot_tail;
}

// --- extract_tile, avx512: sixteen shots per zmm ---------------------------

/// In-register 16x16 transpose: rows[j][l] <- rows[l][j].
__attribute__((target("avx512f,avx512bw,avx512dq,fma"))) inline void
transpose16(__m512* rows) {
  __m512 t[16];
  for (std::size_t k = 0; k < 8; ++k) {
    t[2 * k] = _mm512_unpacklo_ps(rows[2 * k], rows[2 * k + 1]);
    t[2 * k + 1] = _mm512_unpackhi_ps(rows[2 * k], rows[2 * k + 1]);
  }
  // u[4m + j], 128-bit lane h: element 4h + j of rows 4m..4m+3.
  __m512 u[16];
  for (std::size_t m = 0; m < 4; ++m) {
    const __m512* v = t + 4 * m;
    u[4 * m] = _mm512_shuffle_ps(v[0], v[2], _MM_SHUFFLE(1, 0, 1, 0));
    u[4 * m + 1] = _mm512_shuffle_ps(v[0], v[2], _MM_SHUFFLE(3, 2, 3, 2));
    u[4 * m + 2] = _mm512_shuffle_ps(v[1], v[3], _MM_SHUFFLE(1, 0, 1, 0));
    u[4 * m + 3] = _mm512_shuffle_ps(v[1], v[3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (std::size_t j = 0; j < 4; ++j) {
    const __m512 a =
        _mm512_shuffle_f32x4(u[j], u[4 + j], _MM_SHUFFLE(2, 0, 2, 0));
    const __m512 b =
        _mm512_shuffle_f32x4(u[j], u[4 + j], _MM_SHUFFLE(3, 1, 3, 1));
    const __m512 c =
        _mm512_shuffle_f32x4(u[8 + j], u[12 + j], _MM_SHUFFLE(2, 0, 2, 0));
    const __m512 d =
        _mm512_shuffle_f32x4(u[8 + j], u[12 + j], _MM_SHUFFLE(3, 1, 3, 1));
    rows[j] = _mm512_shuffle_f32x4(a, c, _MM_SHUFFLE(2, 0, 2, 0));
    rows[8 + j] = _mm512_shuffle_f32x4(a, c, _MM_SHUFFLE(3, 1, 3, 1));
    rows[4 + j] = _mm512_shuffle_f32x4(b, d, _MM_SHUFFLE(2, 0, 2, 0));
    rows[12 + j] = _mm512_shuffle_f32x4(b, d, _MM_SHUFFLE(3, 1, 3, 1));
  }
}

/// Samples [i, i + count) of sixteen shots, count <= 16, transposed so
/// rows[j] holds sample i + j of every shot lane. Rows past `count` read
/// zero without touching memory.
__attribute__((target("avx512f,avx512bw,avx512dq,fma"))) inline void
load_rows16(const float* const* src, std::size_t i, std::size_t count,
            __m512* rows) {
  const auto mask = static_cast<__mmask16>((1u << count) - 1);
  for (std::size_t l = 0; l < 16; ++l) {
    rows[l] = _mm512_maskz_loadu_ps(mask, src[l] + i);
  }
  transpose16(rows);
}

/// Where a shot-per-lane block's features go: feature c of its lanes at
/// out[c * stride], the lanes in `store` written, those outside `keep` as
/// +0.
struct block_out16 {
  const extract_spec* spec;
  float* out;
  std::size_t stride;
  __mmask16 keep;
  __mmask16 store;
};

/// NORM feature c of the block's sixteen lanes and store it.
__attribute__((target("avx512f,avx512bw,avx512dq,fma"))) inline void
store_feature16(const block_out16& dst, std::size_t c, __m512 x) {
  const extract_spec& spec = *dst.spec;
  const __m512 centred = _mm512_sub_ps(x, _mm512_set1_ps(spec.offset[c]));
  const __m512 scale = _mm512_set1_ps(spec.scale[c]);
  const __m512 y = spec.op == norm_op::multiply ? _mm512_mul_ps(centred, scale)
                                                : _mm512_div_ps(centred, scale);
  _mm512_mask_storeu_ps(dst.out + c * dst.stride, dst.store,
                        _mm512_maskz_mov_ps(dst.keep, y));
}

/// stream_quadrature8 at sixteen shots: transposed 16x16 blocks used
/// straight from registers.
__attribute__((target("avx512f,avx512bw,avx512dq,fma"))) inline __m512
stream_quadrature16(const float* const* shot, std::size_t n,
                    std::size_t groups, const float* w, std::size_t first,
                    const block_out16& dst) {
  const __m512 zero = _mm512_setzero_ps();
  group_walk walk(n, groups);
  std::size_t g = 0;
  std::size_t len = walk.next();
  std::size_t end = len;
  __m512 t = zero;
  __m512 dot_tail = zero;
  for (std::size_t i = 0; i < n; i += 16) {
    const std::size_t count = std::min<std::size_t>(16, n - i);
    __m512 rows[16];
    load_rows16(shot, i, count, rows);
#pragma GCC unroll 16
    for (std::size_t j = 0; j < 16; ++j) {
      if (j == count) break;
      t = _mm512_add_ps(t, rows[j]);
      if (w != nullptr) {
        dot_tail = _mm512_fmadd_ps(rows[j], _mm512_set1_ps(w[i + j]), dot_tail);
      }
      if (i + j + 1 == end) {
        store_feature16(dst, first + g,
                        _mm512_div_ps(_mm512_add_ps(zero, t),
                                      _mm512_set1_ps(static_cast<float>(len))));
        t = zero;
        if (++g < groups) {
          len = walk.next();
          end += len;
        }
      }
    }
  }
  return _mm512_add_ps(zero, dot_tail);
}

__attribute__((target("avx512f,avx512bw,avx512dq,fma"))) void
extract_tile_avx512(const float* const* traces, std::size_t lanes,
                    std::size_t n, const extract_spec& spec, float* plane,
                    std::size_t stride) noexcept {
  // extract_tile_avx2's structure at sixteen shots per zmm.
  constexpr std::size_t kShots = 16;
  const std::size_t groups = spec.groups;
  const std::size_t padded = padded_lanes(lanes);
  const bool streamed = tails_only(n, groups, kShots);
  const float* envelope = spec.envelope;
  for (std::size_t base = 0; base < padded; base += kShots) {
    const std::size_t active = std::min(kShots, lanes - base);
    const std::size_t block = std::min(kShots, padded - base);
    float* out = plane + base;
    if (!streamed || active == 1) {
      for (std::size_t l = 0; l < active; ++l) {
        extract_shot<grouped_mean_dot_avx512>(traces[base + l], n, spec,
                                              out + l, stride);
      }
      zero_lanes(spec.width(), active, block, out, stride);
      continue;
    }
    const block_out16 dst{&spec, out, stride,
                          static_cast<__mmask16>((1u << active) - 1),
                          static_cast<__mmask16>((1u << block) - 1)};
    __m512 mf = _mm512_setzero_ps();
    for (std::size_t quadrature = 0; quadrature < 2; ++quadrature) {
      const std::size_t offset = quadrature * n;
      const float* w = envelope != nullptr ? envelope + offset : nullptr;
      // Lanes past a ragged tile's end re-read its first shot.
      const float* shot[kShots];
      for (std::size_t l = 0; l < kShots; ++l) {
        shot[l] = traces[base + (l < active ? l : 0)] + offset;
      }
      mf = _mm512_add_ps(mf, stream_quadrature16(shot, n, groups, w,
                                                 quadrature * groups, dst));
    }
    if (envelope != nullptr) store_feature16(dst, 2 * groups, mf);
  }
}

__attribute__((target("avx512f,avx512bw,avx512dq,fma"))) void fc_plane_avx512(
    const float* weights, const float* bias, std::size_t out_dim,
    std::size_t in_dim, const float* in_plane, std::size_t lanes,
    std::size_t stride, bool relu, float* out_plane) noexcept {
  // Two neurons per pass over 16-lane group pairs, dropping to one 256-bit
  // group for the 8-lane remainder (padded is a multiple of lane_group, not
  // of 16). Per (neuron, lane) every variant runs the identical ascending
  // FMA chain, so a shot's value is invariant to its lane position AND to
  // the vector width — this tier's fc_plane is bitwise equal to avx2's.
  const std::size_t padded = padded_lanes(lanes);
  const __m512 zero = _mm512_setzero_ps();
  const __m256 zero256 = _mm256_setzero_ps();
  std::size_t o = 0;
  for (; o + 2 <= out_dim; o += 2) {
    const float* w0 = weights + o * in_dim;
    const float* w1 = w0 + in_dim;
    const float b0s = bias != nullptr ? bias[o] : 0.0f;
    const float b1s = bias != nullptr ? bias[o + 1] : 0.0f;
    const __m512 b0 = _mm512_set1_ps(b0s);
    const __m512 b1 = _mm512_set1_ps(b1s);
    float* out0 = out_plane + o * stride;
    float* out1 = out0 + stride;
    std::size_t s = 0;
    for (; s + 32 <= padded; s += 32) {
      __m512 acc00 = b0;
      __m512 acc01 = b0;
      __m512 acc10 = b1;
      __m512 acc11 = b1;
      const float* column = in_plane + s;
      for (std::size_t i = 0; i < in_dim; ++i) {
        const float* lane = column + i * stride;
        const __m512 x0 = _mm512_loadu_ps(lane);
        const __m512 x1 = _mm512_loadu_ps(lane + 16);
        const __m512 wv0 = _mm512_set1_ps(w0[i]);
        const __m512 wv1 = _mm512_set1_ps(w1[i]);
        acc00 = _mm512_fmadd_ps(wv0, x0, acc00);
        acc01 = _mm512_fmadd_ps(wv0, x1, acc01);
        acc10 = _mm512_fmadd_ps(wv1, x0, acc10);
        acc11 = _mm512_fmadd_ps(wv1, x1, acc11);
      }
      if (relu) {
        acc00 = _mm512_max_ps(acc00, zero);
        acc01 = _mm512_max_ps(acc01, zero);
        acc10 = _mm512_max_ps(acc10, zero);
        acc11 = _mm512_max_ps(acc11, zero);
      }
      _mm512_storeu_ps(out0 + s, acc00);
      _mm512_storeu_ps(out0 + s + 16, acc01);
      _mm512_storeu_ps(out1 + s, acc10);
      _mm512_storeu_ps(out1 + s + 16, acc11);
    }
    for (; s + 16 <= padded; s += 16) {
      __m512 acc0 = b0;
      __m512 acc1 = b1;
      const float* column = in_plane + s;
      for (std::size_t i = 0; i < in_dim; ++i) {
        const __m512 x = _mm512_loadu_ps(column + i * stride);
        acc0 = _mm512_fmadd_ps(_mm512_set1_ps(w0[i]), x, acc0);
        acc1 = _mm512_fmadd_ps(_mm512_set1_ps(w1[i]), x, acc1);
      }
      if (relu) {
        acc0 = _mm512_max_ps(acc0, zero);
        acc1 = _mm512_max_ps(acc1, zero);
      }
      _mm512_storeu_ps(out0 + s, acc0);
      _mm512_storeu_ps(out1 + s, acc1);
    }
    for (; s < padded; s += lane_group) {
      __m256 acc0 = _mm256_set1_ps(b0s);
      __m256 acc1 = _mm256_set1_ps(b1s);
      const float* column = in_plane + s;
      for (std::size_t i = 0; i < in_dim; ++i) {
        const __m256 x = _mm256_loadu_ps(column + i * stride);
        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(w0[i]), x, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(w1[i]), x, acc1);
      }
      if (relu) {
        acc0 = _mm256_max_ps(acc0, zero256);
        acc1 = _mm256_max_ps(acc1, zero256);
      }
      _mm256_storeu_ps(out0 + s, acc0);
      _mm256_storeu_ps(out1 + s, acc1);
    }
  }
  for (; o < out_dim; ++o) {
    const float* w = weights + o * in_dim;
    const float bs = bias != nullptr ? bias[o] : 0.0f;
    const __m512 b = _mm512_set1_ps(bs);
    float* out_row = out_plane + o * stride;
    std::size_t s = 0;
    for (; s + 16 <= padded; s += 16) {
      __m512 acc = b;
      const float* column = in_plane + s;
      for (std::size_t i = 0; i < in_dim; ++i) {
        acc = _mm512_fmadd_ps(_mm512_set1_ps(w[i]),
                              _mm512_loadu_ps(column + i * stride), acc);
      }
      if (relu) acc = _mm512_max_ps(acc, zero);
      _mm512_storeu_ps(out_row + s, acc);
    }
    for (; s < padded; s += lane_group) {
      __m256 acc = _mm256_set1_ps(bs);
      const float* column = in_plane + s;
      for (std::size_t i = 0; i < in_dim; ++i) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(w[i]),
                              _mm256_loadu_ps(column + i * stride), acc);
      }
      if (relu) acc = _mm256_max_ps(acc, zero256);
      _mm256_storeu_ps(out_row + s, acc);
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // KLINQ_HAVE_X86_SIMD

// ---------------------------------------------------------------------------
// Kernel tables
// ---------------------------------------------------------------------------

/// The table's grouped_mean_dot over a tier's strided body: means written
/// contiguously.
template <auto GroupedMeanDot>
float grouped_mean_dot_entry(const float* values, const float* weights,
                             std::size_t n, std::size_t groups,
                             float* out_means) noexcept {
  return GroupedMeanDot(values, weights, n, groups, out_means, 1);
}

constexpr kernel_table kScalar{
    .dot = dot_scalar,
    .sum = sum_scalar,
    .grouped_mean_dot = grouped_mean_dot_entry<grouped_mean_dot_scalar>,
    .fc_plane = fc_plane_scalar,
    .extract_tile = extract_tile_scalar};

#if KLINQ_HAVE_X86_SIMD

constexpr kernel_table kAvx2{
    .dot = dot_avx2,
    .sum = sum_avx2,
    .grouped_mean_dot = grouped_mean_dot_entry<grouped_mean_dot_avx2>,
    .fc_plane = fc_plane_avx2,
    .extract_tile = extract_tile_avx2};

constexpr kernel_table kAvx512{
    .dot = dot_avx512,
    .sum = sum_avx512,
    .grouped_mean_dot = grouped_mean_dot_entry<grouped_mean_dot_avx512>,
    .fc_plane = fc_plane_avx512,
    .extract_tile = extract_tile_avx512};

#endif  // KLINQ_HAVE_X86_SIMD

}  // namespace

const kernel_table* kernels_for(simd_tier tier) noexcept {
#if KLINQ_HAVE_X86_SIMD
  if (tier == simd_tier::avx512) {
    return cpu_supports_avx512() ? &kAvx512 : nullptr;
  }
  if (tier == simd_tier::avx2) return cpu_supports_avx2() ? &kAvx2 : nullptr;
#endif
  return tier == simd_tier::scalar64 ? &kScalar : nullptr;
}

const kernel_table& active_kernels() noexcept {
  static const kernel_table& table = *kernels_for(active_simd_tier());
  return table;
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

void pack_rows(const float* rows, std::size_t count, std::size_t width,
               std::size_t row_stride, float* plane,
               std::size_t stride) noexcept {
  // Row-outer scatter: each source row is read contiguously once; the
  // strided plane writes stay within one cache line per 16 rows.
  for (std::size_t r = 0; r < count; ++r) {
    const float* src = rows + r * row_stride;
    for (std::size_t i = 0; i < width; ++i) plane[i * stride + r] = src[i];
  }
  const std::size_t padded = padded_lanes(count);
  for (std::size_t r = count; r < padded; ++r) {
    for (std::size_t i = 0; i < width; ++i) plane[i * stride + r] = 0.0f;
  }
}

void unpack_plane(const float* plane, std::size_t out_dim, std::size_t stride,
                  std::size_t count, float* rows, std::size_t row_stride,
                  bool accumulate) noexcept {
  for (std::size_t r = 0; r < count; ++r) {
    float* dst = rows + r * row_stride;
    if (accumulate) {
      for (std::size_t o = 0; o < out_dim; ++o) dst[o] += plane[o * stride + r];
    } else {
      for (std::size_t o = 0; o < out_dim; ++o) dst[o] = plane[o * stride + r];
    }
  }
}

// ---------------------------------------------------------------------------
// Matrix drivers
// ---------------------------------------------------------------------------

namespace {

/// Flops below which the row-tile loop stays single-threaded (same bar as
/// the la:: kernels).
constexpr std::size_t kParallelFlopThreshold = 1u << 16;

/// Per-thread packing scratch: the feature-major A panel and the plane the
/// microkernel writes, reused across calls (and across tiles of one call).
struct panel_scratch {
  aligned_vector<float> panel;
  aligned_vector<float> out_plane;
};

panel_scratch& tls_panels() {
  thread_local panel_scratch scratch;
  return scratch;
}

void gemm_nt_driver(const la::matrix_f& a, const la::matrix_f& b,
                    la::matrix_f& c, std::span<const float> bias, bool relu,
                    bool accumulate) {
  KLINQ_REQUIRE(a.cols() == b.cols(), "nn::kernels::gemm_nt: inner dims");
  KLINQ_REQUIRE(c.rows() == a.rows() && c.cols() == b.rows(),
                "nn::kernels::gemm_nt: output shape mismatch");
  KLINQ_REQUIRE(bias.empty() || bias.size() == b.rows(),
                "nn::kernels::gemm_nt: bias length must equal out columns");
  const std::size_t m = a.rows();
  const std::size_t n = b.rows();
  const std::size_t k = a.cols();
  if (m == 0 || n == 0) return;
  const float* bias_ptr = bias.empty() ? nullptr : bias.data();

  if (m < lane_group) {
    // Row blocks below one lane group: a packed tile would waste 8/m of the
    // kernel work, so run one dispatched dot per output instead.
    for (std::size_t i = 0; i < m; ++i) {
      const float* a_row = a.data() + i * k;
      float* c_row = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        float value = active_kernels().dot(a_row, b.data() + j * k, k);
        if (bias_ptr != nullptr) value += bias_ptr[j];
        if (relu && value < 0.0f) value = 0.0f;
        if (accumulate) {
          c_row[j] += value;
        } else {
          c_row[j] = value;
        }
      }
    }
    return;
  }

  const std::size_t tiles = (m + max_tile_lanes - 1) / max_tile_lanes;
  const auto run_tiles = [&](std::size_t tile_begin, std::size_t tile_end) {
    panel_scratch& scratch = tls_panels();
    scratch.panel.resize(k * max_tile_lanes);
    scratch.out_plane.resize(n * max_tile_lanes);
    for (std::size_t t = tile_begin; t < tile_end; ++t) {
      const std::size_t row0 = t * max_tile_lanes;
      const std::size_t rows = std::min(max_tile_lanes, m - row0);
      pack_rows(a.data() + row0 * k, rows, k, k, scratch.panel.data(),
                max_tile_lanes);
      active_kernels().fc_plane(b.data(), bias_ptr, n, k, scratch.panel.data(),
                                rows, max_tile_lanes, relu,
                                scratch.out_plane.data());
      unpack_plane(scratch.out_plane.data(), n, max_tile_lanes, rows,
                   c.data() + row0 * n, n, accumulate);
    }
  };
  if (tiles == 1 || m * n * k < kParallelFlopThreshold) {
    run_tiles(0, tiles);
  } else {
    parallel_for_chunked(0, tiles, run_tiles);
  }
}

}  // namespace

void gemm_nt_bias_act(const la::matrix_f& a, const la::matrix_f& b,
                      la::matrix_f& c, std::span<const float> bias,
                      activation act) {
  gemm_nt_driver(a, b, c, bias, act == activation::relu,
                 /*accumulate=*/false);
  if (act != activation::relu && act != activation::identity) {
    apply_activation(act, c.flat());
  }
}

void gemm_nt(const la::matrix_f& a, const la::matrix_f& b, la::matrix_f& c,
             std::span<const float> bias, bool accumulate) {
  gemm_nt_driver(a, b, c, bias, /*relu=*/false, accumulate);
}

}  // namespace klinq::nn::kernels
