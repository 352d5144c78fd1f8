// Feature normalization with the hardware's power-of-two trick (paper §IV).
//
// The FPGA normalizes as (x − x_min) / σ_x, but replaces the division by a
// barrel shift after approximating σ_x by the nearest power of two — σ and
// x_min come from training-time calibration. To keep training and hardware
// numerics aligned, the *float* pipeline can apply the identical
// power-of-two σ (mode::pow2_shift, the default); mode::exact keeps the
// true σ for comparison studies.
//
// mode::zscore centres on the per-feature *mean* instead of the minimum
// (classic standardization). The min-offset produces all-positive inputs
// whose common DC component badly conditions large-input networks — fine
// for the 31/201-input students the hardware runs, but the software-side
// teacher (1000 raw inputs) needs the zero-mean form to train at all.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "klinq/linalg/matrix.hpp"

namespace klinq::dsp {

enum class norm_mode : std::uint8_t { exact = 0, pow2_shift = 1, zscore = 2 };

class feature_normalizer {
 public:
  feature_normalizer() = default;

  /// Fits per-feature x_min and σ over the rows of `features`.
  /// `sigma_floor` avoids division blow-up on constant features.
  static feature_normalizer fit(const la::matrix_f& features,
                                norm_mode mode = norm_mode::pow2_shift,
                                double sigma_floor = 1e-9);

  bool is_fitted() const noexcept { return !x_min_.empty(); }
  std::size_t feature_width() const noexcept { return x_min_.size(); }
  norm_mode mode() const noexcept { return mode_; }

  /// Per-feature offset subtracted before scaling: the training-set minimum
  /// in exact/pow2_shift modes (the paper's formula), the mean in zscore.
  std::span<const float> x_min() const noexcept {
    return std::span<const float>(x_min_);
  }
  std::span<const float> sigma() const noexcept {
    return std::span<const float>(sigma_);
  }
  /// Shift exponent k per feature: the hardware computes (x − x_min) >> k
  /// (negative k means a left shift), with 2^k ≈ σ.
  std::span<const int> shift_exponents() const noexcept {
    return std::span<const int>(shift_exponent_);
  }

  /// The 2^-k multipliers apply() uses in pow2_shift mode (derived from
  /// the exponents at fit()/load()).
  std::span<const float> pow2_scale() const noexcept {
    return std::span<const float>(pow2_scale_);
  }

  /// Effective divisor actually applied (2^k in pow2 mode, σ in exact mode).
  float effective_sigma(std::size_t feature) const;

  /// In-place normalization of one feature row.
  void apply(std::span<float> features) const;

  /// Normalizes every row of a matrix in place.
  void apply_all(la::matrix_f& features) const;

  void save(std::ostream& out) const;
  static feature_normalizer load(std::istream& in);

 private:
  /// Recomputes the cached 2^-k multipliers from shift_exponent_ (derived
  /// state; not serialized).
  void rebuild_pow2_scale();

  std::vector<float> x_min_;
  std::vector<float> sigma_;
  std::vector<int> shift_exponent_;
  std::vector<float> pow2_scale_;
  norm_mode mode_ = norm_mode::pow2_shift;
};

}  // namespace klinq::dsp
