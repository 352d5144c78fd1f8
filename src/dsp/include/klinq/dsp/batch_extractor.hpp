// Batched feature extraction: the dataset-scale front of the inference
// engine.
//
// Runs feature_pipeline::extract over a block of traces into a preallocated
// feature matrix, parallelized over the global thread pool. Each trace's
// features are written directly into its output row, so steady-state
// extraction performs no per-shot heap allocation; repeated extract() calls
// into the same matrix reuse its storage.
#pragma once

#include <cstddef>

#include "klinq/data/trace_dataset.hpp"
#include "klinq/dsp/feature_pipeline.hpp"
#include "klinq/linalg/matrix.hpp"

namespace klinq::dsp {

class batch_extractor {
 public:
  batch_extractor() = default;

  /// Non-owning: `pipeline` must be fitted and outlive the extractor.
  explicit batch_extractor(const feature_pipeline& pipeline);

  const feature_pipeline& pipeline() const noexcept { return *pipeline_; }

  /// Extracts every trace of `dataset` into `out`, resized to
  /// (dataset.size() × output_width). Blocks of traces run in parallel on
  /// the global thread pool; results are independent of worker count.
  void extract(const data::trace_dataset& dataset, la::matrix_f& out) const;

  /// Serial extraction of dataset rows [row_begin, row_end) into out rows
  /// [out_row_begin, out_row_begin + count). `out` must already be sized;
  /// no allocation. Building block for custom sharding.
  void extract_block(const data::trace_dataset& dataset, std::size_t row_begin,
                     std::size_t row_end, la::matrix_f& out,
                     std::size_t out_row_begin = 0) const;

  /// Fused-path tile producer: extracts dataset rows
  /// [row_begin, row_begin + lanes) straight into a feature-major plane —
  /// feature i of shot s at plane[i * stride + s] — the layout the float
  /// plane kernels (klinq/nn/kernels.hpp) consume as the first-layer GEMM
  /// panel, so no full feature matrix is ever materialized. Pad lanes
  /// [lanes, nn::kernels::padded_lanes(lanes)) are zero-filled; requires
  /// padded_lanes(lanes) <= stride. Per-shot feature values are identical to
  /// extract()/extract_block — only the layout differs.
  void extract_tile(const data::trace_dataset& dataset, std::size_t row_begin,
                    std::size_t lanes, float* plane, std::size_t stride) const;

  /// The same tile over `lanes` arbitrary traces: traces[s] points at lane
  /// s's flattened [I|Q] trace of 2 * samples_per_quadrature floats. The
  /// lanes may come from different datasets (the serve lane packer) as long
  /// as they share the trace duration. The dataset overload forwards here.
  void extract_tile(const float* const* traces, std::size_t lanes,
                    std::size_t samples_per_quadrature, float* plane,
                    std::size_t stride) const;

 private:
  const feature_pipeline* pipeline_ = nullptr;
};

}  // namespace klinq::dsp
