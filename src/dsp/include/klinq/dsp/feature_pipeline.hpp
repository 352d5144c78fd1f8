// Student-network input pipeline (paper Fig. 2): averaged I/Q + MF feature.
//
// extract() maps one flattened [I|Q] trace to the student input vector
//   [ norm(avg I_0..G−1), norm(avg Q_0..G−1), norm(MF(trace)) ]
// of width 2G + 1 (31 for FNN-A, 201 for FNN-B at G = 15 / 100).
//
// fit() calibrates, in order: the MF envelope on raw labelled traces, then
// the normalizer over the stacked [averaged | MF] features. The normalizer
// defaults to power-of-two σ so float training sees exactly the arithmetic
// the fixed-point hardware implements.
#pragma once

#include <iosfwd>
#include <optional>
#include <span>

#include "klinq/data/trace_dataset.hpp"
#include "klinq/dsp/averager.hpp"
#include "klinq/dsp/matched_filter.hpp"
#include "klinq/dsp/normalization.hpp"
#include "klinq/nn/kernels.hpp"

namespace klinq::dsp {

struct feature_pipeline_config {
  /// Averaging groups per quadrature (G); student input width is 2G + 1.
  std::size_t groups_per_quadrature = 15;
  /// Include the matched-filter scalar (paper always does; the ablation
  /// bench switches it off to quantify its contribution).
  bool use_matched_filter = true;
  norm_mode normalization = norm_mode::pow2_shift;
};

class feature_pipeline {
 public:
  feature_pipeline() = default;

  /// Calibrates MF + normalizer on a labelled training set.
  static feature_pipeline fit(const data::trace_dataset& train,
                              const feature_pipeline_config& config);

  bool is_fitted() const noexcept { return normalizer_.is_fitted(); }

  const feature_pipeline_config& config() const noexcept { return config_; }
  std::size_t output_width() const noexcept {
    return averager_.output_width() + (config_.use_matched_filter ? 1 : 0);
  }

  const interval_averager& averager() const noexcept { return averager_; }
  const matched_filter& filter() const noexcept { return filter_; }
  const feature_normalizer& normalizer() const noexcept { return normalizer_; }

  /// Extracts the normalized student input for one trace.
  void extract(std::span<const float> trace,
               std::size_t samples_per_quadrature,
               std::span<float> out) const;

  /// The fitted front end as nn::kernels::extract_tile reads it: group
  /// count, MF envelope (null when the MF feature is off) and the NORM
  /// offsets and factors, all computed at fit()/load(). The pointers borrow
  /// this pipeline's storage, so the spec is a view — take it per call
  /// rather than keeping it past a copy or move of the pipeline.
  nn::kernels::extract_spec tile_spec() const noexcept;

  /// Extracts features for every row of a dataset → (n × output_width).
  /// Runs through batch_extractor (thread-pool-parallel over trace blocks).
  la::matrix_f extract_all(const data::trace_dataset& dataset) const;

  void save(std::ostream& out) const;
  static feature_pipeline load(std::istream& in);

 private:
  /// The un-normalized feature row: fused single-pass grouped means + MF
  /// partials per quadrature (one stream over the trace instead of an
  /// averager pass plus an MF pass). Shared by fit() and extract() so the
  /// normalizer is calibrated on exactly the values extract() produces.
  void extract_unnormalized(std::span<const float> trace,
                            std::size_t samples_per_quadrature,
                            std::span<float> out) const;

  feature_pipeline_config config_{};
  interval_averager averager_{15};
  matched_filter filter_;
  feature_normalizer normalizer_;
};

}  // namespace klinq::dsp
