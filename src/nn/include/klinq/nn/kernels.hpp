// Vectorized single-precision kernels for the float inference datapath.
//
// The float student/teacher path (dense_layer forward, batched
// predict_logits, the matched-filter inner product) used to lean entirely on
// GCC's SLP vectorization of a 4-lane scalar reduction — SSE2-width, no FMA.
// This module supplies the hot loops as explicit kernels in three tiers,
// mirroring klinq/fixed/fixed_kernels.hpp:
//
//   scalar — plain float arithmetic (separate multiply and add), every host
//            runs it; `dot`/`sum` keep the historical 4-lane reduction
//            order. Note that pinning scalar makes results host-
//            INDEPENDENT, not history-identical: the fused extraction
//            (grouped_mean_dot) reduces the matched filter per group/
//            quadrature rather than as one contiguous dot, so extraction
//            numerics differ from pre-kernel builds in last ULPs on every
//            tier.
//   avx2   — 8-lane AVX2 FMA bodies compiled per-function (no -mavx2 needed
//            for the rest of the build), selected at runtime via
//            klinq/common/cpu_dispatch.hpp.
//   avx512 — 16-lane AVX-512 FMA bodies (F+BW+DQ), same per-function
//            compilation and runtime selection. fc_plane runs 16-lane group
//            pairs with an 8-lane remainder group, so every lane still sees
//            the identical ascending FMA chain — avx512 fc_plane output is
//            bitwise equal to avx2's; only the reduction kernels (dot, sum,
//            grouped_mean_dot, and extract_tile, which follows
//            grouped_mean_dot) differ from avx2 in last ULPs.
//
// Unlike the fixed-point kernels, the float tiers are NOT bit-identical to
// each other: FMA contracts the multiply-add rounding and the wider lanes
// reassociate reductions. Which tier runs is resolved once per process from
// active_simd_tier(), as for the fixed kernels — KLINQ_SIMD=scalar pins the
// scalar tier for host-independent results (see README "Determinism").
//
// The tile kernels operate on feature-major planes exactly like the fixed
// datapath: feature i of lane (shot) s lives at plane[i * stride + s].
// Lanes are processed in whole groups of `lane_group`; a plane's pad lanes
// (up to padded_lanes(lanes)) must exist and hold finite values — the
// packing helpers zero-fill them. Because every lane of fc_plane runs the
// identical per-element operation sequence regardless of its position in
// the tile, a shot's output is invariant to tile width, lane index, batch
// size and worker count WITHIN a tier — the fused and unfused batched float
// paths are therefore bitwise equal, and only comparisons against
// network::predict_logit (dot order) and across tiers need tolerances.
// extract_tile, the front end of that tile, holds the same invariance: each
// shot's features are bitwise those of the single-shot grouped_mean_dot
// extraction on the same tier, whatever the tile width or lane position.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "klinq/common/cpu_dispatch.hpp"
#include "klinq/linalg/matrix.hpp"
#include "klinq/nn/activation.hpp"

namespace klinq::nn::kernels {

/// Widest shot tile the plane kernels are tuned for (matches the fixed
/// datapath's hw::quantized_network::kBatchTile).
inline constexpr std::size_t max_tile_lanes = 64;

/// Lanes are processed in whole groups of this many shots (one AVX2 vector;
/// the AVX-512 tier consumes two groups per 512-bit vector and drops to one
/// 256-bit group for the remainder, preserving per-lane operation order).
inline constexpr std::size_t lane_group = 8;

/// Smallest whole-group lane count covering `lanes`; plane buffers must be
/// at least this wide (stride >= padded_lanes(lanes)).
constexpr std::size_t padded_lanes(std::size_t lanes) noexcept {
  return (lanes + lane_group - 1) / lane_group * lane_group;
}

/// How extract_tile's NORM stage scales an offset feature.
enum class norm_op : std::uint8_t {
  multiply,  ///< (x − offset) · scale — the power-of-two σ as 2^-k
  divide,    ///< (x − offset) / scale — the exact or z-score σ
};

/// The fitted float front end (AVG ∥ MF → NORM) as extract_tile reads it.
/// dsp::feature_pipeline::tile_spec() assembles it from the matched filter
/// and normalizer it fits or loads; the pointers borrow that storage. The
/// width() features are the G AVG means of I, the G AVG means of Q, then the
/// MF output when `envelope` is set.
struct extract_spec {
  /// G averaging groups per quadrature; group g covers samples
  /// [floor(g·N/G), floor((g+1)·N/G)) of each quadrature.
  std::size_t groups = 0;
  /// 2N matched-filter taps over [I | Q], or null (no MF feature).
  const float* envelope = nullptr;
  /// width() NORM offsets (x_min, or the mean in z-score mode).
  const float* offset = nullptr;
  /// width() NORM factors: 2^-k multipliers or σ divisors, per `op`.
  const float* scale = nullptr;
  norm_op op = norm_op::multiply;

  std::size_t width() const noexcept {
    return 2 * groups + (envelope != nullptr ? 1 : 0);
  }
};

// ---------------------------------------------------------------------------
// Kernel tables
//
// Each tier (scalar, avx2, avx512 — see the file comment) is one
// kernel_table, and every tier meets the contract stated on the members.
// ---------------------------------------------------------------------------

struct kernel_table {
  /// Inner product of two contiguous rows (the matched filter's 2N-wide
  /// MAC, gemv rows). The scalar tier reduces in the historical 4-lane
  /// order; avx2 uses 4 x 8-lane FMA accumulators combined pairwise.
  float (*dot)(const float* a, const float* b, std::size_t n) noexcept;

  /// Sum of a contiguous row (the interval averager's group accumulation).
  /// The scalar tier keeps the seed's 4-lane order.
  float (*sum)(const float* values, std::size_t n) noexcept;

  /// Fused single-pass extraction kernel: interval group means plus an
  /// optional weighted reduction over one quadrature segment. Groups follow
  /// the interval averager's layout — group g covers samples
  /// [g*n/groups, (g+1)*n/groups) — and out_means[g] receives that group's
  /// mean. Returns Σ values[i]·weights[i] accumulated group by group (the
  /// matched-filter partial for this quadrature), or 0 when `weights` is
  /// null. One pass over `values` serves both features, so a trace is
  /// streamed once instead of twice (averager pass + MF pass). Deterministic
  /// per (n, groups) within a tier; like dot, the tiers differ in last-ULP
  /// rounding.
  float (*grouped_mean_dot)(const float* values, const float* weights,
                            std::size_t n, std::size_t groups,
                            float* out_means) noexcept;

  /// One dense layer over a feature-major shot tile:
  ///   out_plane[o*stride + s] =
  ///       act(bias[o] + sum_i weights[o*in_dim + i] * in_plane[i*stride + s])
  /// for every lane s in [0, padded_lanes(lanes)). `weights` is
  /// (out_dim x in_dim) row-major, `bias` may be null (treated as zero),
  /// `relu` applies max(x, 0). Requires padded_lanes(lanes) <= stride; pad
  /// lanes of in_plane must be finite (the packers zero-fill them).
  /// Accumulation over i is strictly ascending per (o, s), so a lane's value
  /// never depends on its position in the tile.
  void (*fc_plane)(const float* weights, const float* bias,
                   std::size_t out_dim, std::size_t in_dim,
                   const float* in_plane, std::size_t lanes,
                   std::size_t stride, bool relu, float* out_plane) noexcept;

  /// The float front end over a shot tile, the tile producer of the fused
  /// float datapath: lane s reads the flattened [I | Q] trace traces[s]
  /// (2N floats) and gets its width() NORMed features at
  /// plane[c * stride + s]. Lanes [lanes, padded_lanes(lanes)) are written
  /// as +0.0f; lanes from padded_lanes(lanes) up to `stride` are neither
  /// read nor written. Requires 1 <= groups <= N, padded_lanes(lanes) <=
  /// stride, and a 2N-tap envelope when it is set. Any lane count works;
  /// tiles of max_tile_lanes are what it is tuned for.
  ///
  /// Per shot the result is BITWISE equal, within a tier, to that tier's
  /// grouped_mean_dot over each quadrature (MF partials summed as
  /// 0 + I + Q) followed by the NORM op per feature — i.e. to
  /// dsp::feature_pipeline::extract on the same tier; grouped_mean_dot
  /// stays the single-shot kernel and is this kernel's oracle. When every
  /// group is shorter than one vector (FNN-B's 5-sample groups),
  /// grouped_mean_dot runs each sample on its serial tail; the SIMD tiers
  /// then keep that operation sequence and only interleave shots: the
  /// samples run shot-per-lane — 16 shots per zmm, 8 per ymm, loaded
  /// through in-register transposes — so a scalar `t += p` or fmaf becomes
  /// one vector op for the block. Shapes with vector bodies, a lone live
  /// shot in a block, and the scalar tier run the tier's grouped_mean_dot
  /// shot by shot.
  void (*extract_tile)(const float* const* traces, std::size_t lanes,
                       std::size_t samples_per_quadrature,
                       const extract_spec& spec, float* plane,
                       std::size_t stride) noexcept;
};

/// The table of `tier`, or nullptr when this build (non-x86, or
/// KLINQ_DISABLE_SIMD) or the executing CPU cannot run it.
/// kernels_for(simd_tier::scalar64), the scalar tier, is never null.
const kernel_table* kernels_for(simd_tier tier) noexcept;

/// The table of active_simd_tier(), resolved once per process: the kernels
/// the float datapath runs.
const kernel_table& active_kernels() noexcept;

// --- packing helpers (tier-independent data movement) -----------------------

/// Transposes `count` row-major rows (each `width` floats, consecutive rows
/// `row_stride` apart) into a feature-major plane: feature i of row r lands
/// at plane[i * stride + r]. Lanes [count, padded_lanes(count)) are
/// zero-filled so the plane kernels can run whole lane groups. Requires
/// padded_lanes(count) <= stride.
void pack_rows(const float* rows, std::size_t count, std::size_t width,
               std::size_t row_stride, float* plane,
               std::size_t stride) noexcept;

/// Scatters a (out_dim x stride) plane back to row-major rows:
/// rows[r * row_stride + o] (+)= plane[o * stride + r] for r < count.
void unpack_plane(const float* plane, std::size_t out_dim, std::size_t stride,
                  std::size_t count, float* rows, std::size_t row_stride,
                  bool accumulate) noexcept;

// --- matrix drivers ---------------------------------------------------------

/// C = act(A(m×k) · B(n×k)ᵀ + bias) → (m×n), the forward-pass GEMM with the
/// bias add and activation fused into the microkernel's store (identity and
/// relu run fully fused; sigmoid is applied in a second pass over C). Packs
/// A into feature-major panels of max_tile_lanes rows and runs fc_plane per
/// panel — one weight-row stream per tile — parallelized over row tiles on
/// the global thread pool. Row blocks smaller than one lane group fall back
/// to a dot-per-output path (no padding overhead for single-row calls).
void gemm_nt_bias_act(const la::matrix_f& a, const la::matrix_f& b,
                      la::matrix_f& c, std::span<const float> bias,
                      activation act);

/// Bias-only forward GEMM: C = A · Bᵀ (+ bias), optionally accumulating
/// into C — the drop-in replacement for la::gemm_nt on the float hot path.
void gemm_nt(const la::matrix_f& a, const la::matrix_f& b, la::matrix_f& c,
             std::span<const float> bias = {}, bool accumulate = false);

}  // namespace klinq::nn::kernels
