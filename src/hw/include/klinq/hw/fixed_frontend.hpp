// Fixed-point data pre-processing front-end (paper §IV, Fig. 3).
//
// Mirrors the PL pipeline ahead of the fully connected layers:
//   AVG   — per-group adder tree, then multiply by a precomputed reciprocal
//           (a configuration constant; the datapath never divides),
//   NORM  — subtract the calibrated x_min, arithmetic-shift by the
//           power-of-two σ exponent (the paper's division-free normalizer),
//   MF    — wide MAC of the quantized envelope against the raw trace,
//           normalized through its own (x_min, shift) pair,
//   CONCAT — [avg I | avg Q | MF] forms the student network input.
//
// Constructed from a fitted float feature_pipeline; all calibration
// constants — quantized envelope, x_min, shift exponents, and for the trace
// duration the matched filter fixes the AVG group bounds and reciprocals —
// are computed once at build time, exactly like writing the FPGA's
// parameter BRAM.
//
// Two datapaths compute the same registers. extract() is the fixed<I,F>
// reference (int128 products, per-operation saturation). For formats on
// the int64 kernel fast path, extract_tile() is the deployed datapath: like
// the FPGA, where ADC samples stream once through AVG ∥ MF → NORM, one
// fx::kernels::frontend_tile pass over a tile of float traces quantizes
// every sample, feeds it to its group's adder tree and the MF MAC, applies
// the reciprocal and NORM at each group boundary, and writes the features
// straight into the network's feature-major plane — one shot per SIMD lane.
// Construction checks the quantized MF envelope once against
// fx::kernels::products_in_range; when every tap is below 1.0 the kernel's
// MF products skip the per-product clamp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "klinq/common/aligned.hpp"
#include "klinq/common/error.hpp"
#include "klinq/dsp/feature_pipeline.hpp"
#include "klinq/fixed/fixed.hpp"
#include "klinq/fixed/fixed_kernels.hpp"

namespace klinq::hw {

/// AVG parameters for one trace duration: the G group ends within a
/// quadrature and each group's raw 1/length register (the layout
/// fx::kernels::frontend_spec points into).
struct frontend_layout {
  std::size_t samples = 0;
  std::vector<std::size_t> group_end;
  std::vector<std::int32_t> reciprocal;
};

template <class Fixed>
class fixed_frontend {
 public:
  /// True when this format runs the vectorized raw-register kernels (see
  /// fixed_kernels.hpp); Q24.24 stays on the fixed<I,F> reference path.
  static constexpr bool kernel_fast_path =
      fx::kernels::has_int64_fast_path<Fixed>;

  fixed_frontend() = default;

  explicit fixed_frontend(const dsp::feature_pipeline& pipeline) {
    KLINQ_REQUIRE(pipeline.is_fitted(), "fixed_frontend: unfitted pipeline");
    KLINQ_REQUIRE(
        pipeline.normalizer().mode() == dsp::norm_mode::pow2_shift,
        "fixed_frontend: hardware requires power-of-two normalization");
    groups_ = pipeline.averager().groups_per_quadrature();
    use_mf_ = pipeline.config().use_matched_filter;
    if (use_mf_) {
      for (const float w : pipeline.filter().envelope()) {
        mf_envelope_.push_back(Fixed::from_double(w));
      }
    }
    const auto& norm = pipeline.normalizer();
    KLINQ_REQUIRE(norm.feature_width() == output_width(),
                  "fixed_frontend: normalizer width != feature width");
    for (std::size_t c = 0; c < norm.feature_width(); ++c) {
      x_min_.push_back(Fixed::from_double(norm.x_min()[c]));
    }
    shift_.assign(norm.shift_exponents().begin(),
                  norm.shift_exponents().end());
    if constexpr (kernel_fast_path) {
      for (const Fixed w : mf_envelope_) {
        mf_envelope_raw_.push_back(static_cast<std::int32_t>(w.raw()));
      }
      // With every tap below 1.0 (trained envelopes peak near 0.3) the MF
      // products cannot reach a rail and skip the clamp.
      taps_in_range_ = fx::kernels::products_in_range(
          mf_envelope_raw_.data(), mf_envelope_raw_.size(), kSpec);
      for (const Fixed x : x_min_) {
        x_min_raw_.push_back(static_cast<std::int32_t>(x.raw()));
      }
      // The matched filter fixes the trace duration, so its AVG layout is
      // known now; without one, kernel_spec builds it per call's N.
      if (use_mf_ && mf_envelope_.size() / 2 >= groups_) {
        build_layout(mf_envelope_.size() / 2, layout_);
      }
    }
  }

  std::size_t output_width() const noexcept {
    return 2 * groups_ + (use_mf_ ? 1 : 0);
  }
  std::size_t groups_per_quadrature() const noexcept { return groups_; }
  bool uses_matched_filter() const noexcept { return use_mf_; }

  /// Quantizes a float ADC trace into a caller-provided register file
  /// (allocation-free hot path for batched evaluation).
  static void quantize_trace(std::span<const float> trace,
                             std::span<Fixed> out) {
    KLINQ_REQUIRE(out.size() == trace.size(),
                  "fixed_frontend: quantize output width != trace width");
    for (std::size_t i = 0; i < trace.size(); ++i) {
      out[i] = Fixed::from_double(trace[i]);
    }
  }

  /// Quantizes a float ADC trace into the fixed input register file.
  static std::vector<Fixed> quantize_trace(std::span<const float> trace) {
    std::vector<Fixed> out(trace.size());
    quantize_trace(trace, out);
    return out;
  }

  /// Fast path: quantizes a float ADC trace into raw int32 registers through
  /// the dispatched quantize_block kernel — bit-identical to quantize_trace
  /// (Fixed::from_double) per sample.
  static void quantize_trace_raw(std::span<const float> trace,
                                 std::span<std::int32_t> out)
    requires(kernel_fast_path)
  {
    KLINQ_REQUIRE(out.size() == trace.size(),
                  "fixed_frontend: quantize output width != trace width");
    fx::kernels::active_kernels().quantize_block(trace.data(), trace.size(),
                                                 out.data(), kSpec);
  }

  /// Runs AVG → NORM ∥ MF → CONCAT on a quantized trace of N complex
  /// samples. `out` must have output_width() entries.
  void extract(std::span<const Fixed> trace,
               std::size_t samples_per_quadrature,
               std::span<Fixed> out) const {
    const std::size_t n = samples_per_quadrature;
    KLINQ_REQUIRE(trace.size() == 2 * n, "fixed_frontend: trace width != 2N");
    KLINQ_REQUIRE(out.size() == output_width(),
                  "fixed_frontend: bad output span");
    KLINQ_REQUIRE(n >= groups_, "fixed_frontend: fewer samples than groups");
    KLINQ_REQUIRE(!use_mf_ || mf_envelope_.size() == 2 * n,
                  "fixed_frontend: envelope width does not match this trace "
                  "duration (rebuild the front-end for the new duration)");

    // AVG: adder tree per group, multiply by reciprocal group length.
    for (std::size_t quadrature = 0; quadrature < 2; ++quadrature) {
      for (std::size_t g = 0; g < groups_; ++g) {
        const std::size_t begin = g * n / groups_;
        const std::size_t end = (g + 1) * n / groups_;
        fx::fixed_accumulator<Fixed> acc;
        for (std::size_t s = begin; s < end; ++s) {
          acc.add(trace[quadrature * n + s]);
        }
        // Reciprocal is a configuration constant (per group length), not a
        // runtime division.
        const Fixed reciprocal =
            Fixed::from_double(1.0 / static_cast<double>(end - begin));
        out[quadrature * groups_ + g] = acc.result() * reciprocal;
      }
    }

    // MF: wide MAC over the raw quantized trace.
    if (use_mf_) {
      fx::fixed_accumulator<Fixed> acc;
      for (std::size_t i = 0; i < trace.size(); ++i) {
        acc.add(mf_envelope_[i] * trace[i]);
      }
      out[out.size() - 1] = acc.result();
    }

    // NORM: (x − x_min) >> k for every concatenated feature.
    for (std::size_t c = 0; c < out.size(); ++c) {
      out[c] = (out[c] - x_min_[c]).shifted_right(shift_[c]);
    }
  }

  /// The parameter BRAM for N-sample traces as the frontend_tile kernel
  /// reads it. Validates N against the front end; the AVG layout comes from
  /// construction when N is the matched filter's duration, else it is built
  /// into `spare` (kept there until N changes).
  fx::kernels::frontend_spec kernel_spec(std::size_t samples_per_quadrature,
                                         frontend_layout& spare) const
    requires(kernel_fast_path)
  {
    const std::size_t n = samples_per_quadrature;
    KLINQ_REQUIRE(groups_ > 0, "fixed_frontend: unconfigured front end");
    KLINQ_REQUIRE(n >= groups_, "fixed_frontend: fewer samples than groups");
    KLINQ_REQUIRE(!use_mf_ || mf_envelope_.size() == 2 * n,
                  "fixed_frontend: envelope width does not match this trace "
                  "duration (rebuild the front-end for the new duration)");
    const frontend_layout* layout = &layout_;
    if (layout_.samples != n) {
      if (spare.samples != n) build_layout(n, spare);
      layout = &spare;
    }
    return {.samples = n,
            .groups = groups_,
            .group_end = layout->group_end.data(),
            .reciprocal = layout->reciprocal.data(),
            .envelope = use_mf_ ? mf_envelope_raw_.data() : nullptr,
            .taps_in_range = taps_in_range_,
            .x_min = x_min_raw_.data(),
            .shift = shift_.data()};
  }

  /// The deployed datapath: quantize + AVG ∥ MF → NORM for `lanes` float
  /// traces of 2N samples (traces[s] is shot s) in one dispatched
  /// frontend_tile pass. Feature c of shot s lands at plane[c * stride + s];
  /// bit-identical to quantize_trace + extract per shot.
  void extract_tile(const float* const* traces, std::size_t lanes,
                    std::size_t samples_per_quadrature, std::int32_t* plane,
                    std::size_t stride, frontend_layout& spare) const
    requires(kernel_fast_path)
  {
    KLINQ_REQUIRE(lanes <= stride, "fixed_frontend: tile wider than stride");
    fx::kernels::active_kernels().frontend_tile(
        traces, lanes, kernel_spec(samples_per_quadrature, spare), plane,
        stride, kSpec);
  }

  /// extract() over an already-quantized raw register trace (e.g. from
  /// quantize_trace_raw) — bit-identical to extract() per feature. Writes
  /// feature c to out[c * out_stride].
  void extract_raw(std::span<const std::int32_t> trace,
                   std::size_t samples_per_quadrature, std::int32_t* out,
                   std::size_t out_stride) const
    requires(kernel_fast_path)
  {
    const std::size_t n = samples_per_quadrature;
    KLINQ_REQUIRE(trace.size() == 2 * n, "fixed_frontend: trace width != 2N");
    frontend_layout spare;
    const fx::kernels::frontend_spec spec = kernel_spec(n, spare);
    for (std::size_t quadrature = 0; quadrature < 2; ++quadrature) {
      const std::int32_t* samples = trace.data() + quadrature * n;
      std::size_t begin = 0;
      for (std::size_t g = 0; g < groups_; ++g) {
        std::int64_t sum = 0;
        for (std::size_t s = begin; s < spec.group_end[g]; ++s) {
          sum += samples[s];
        }
        begin = spec.group_end[g];
        const std::size_t c = quadrature * groups_ + g;
        const std::int64_t average =
            fx::kernels::average_raw(sum, spec.reciprocal[g], kSpec);
        out[c * out_stride] = static_cast<std::int32_t>(
            fx::kernels::normalize_raw(average, spec.x_min[c], spec.shift[c],
                                       kSpec));
      }
    }
    if (use_mf_) {
      const std::size_t c = 2 * groups_;
      const std::int64_t mf =
          fx::kernels::active_kernels().mac_row(spec.envelope, trace.data(),
                                                trace.size(), 0,
                                                spec.taps_in_range, kSpec);
      out[c * out_stride] = static_cast<std::int32_t>(
          fx::kernels::normalize_raw(mf, spec.x_min[c], spec.shift[c], kSpec));
    }
  }

 private:
  static constexpr fx::kernels::mac_spec kSpec =
      fx::kernels::spec_or_default<Fixed>();

  /// Group g covers [gN/G, (g+1)N/G) (interval_averager); its reciprocal is
  /// a configuration constant quantized once, never a runtime division.
  void build_layout(std::size_t n, frontend_layout& layout) const {
    layout.samples = n;
    layout.group_end.resize(groups_);
    layout.reciprocal.resize(groups_);
    for (std::size_t g = 0; g < groups_; ++g) {
      const std::size_t begin =
          dsp::interval_averager::group_begin(g, n, groups_);
      const std::size_t end =
          dsp::interval_averager::group_begin(g + 1, n, groups_);
      layout.group_end[g] = end;
      layout.reciprocal[g] = static_cast<std::int32_t>(
          Fixed::from_double(1.0 / static_cast<double>(end - begin)).raw());
    }
  }

  std::size_t groups_ = 0;
  bool use_mf_ = false;
  std::vector<Fixed> mf_envelope_;
  std::vector<Fixed> x_min_;
  std::vector<int> shift_;
  // Fast-path raw copies of the parameters above, plus the AVG layout for
  // the matched filter's trace duration.
  aligned_vector<std::int32_t> mf_envelope_raw_;
  bool taps_in_range_ = false;
  aligned_vector<std::int32_t> x_min_raw_;
  frontend_layout layout_;
};

}  // namespace klinq::hw
