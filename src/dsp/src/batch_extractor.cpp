#include "klinq/dsp/batch_extractor.hpp"

#include <algorithm>

#include "klinq/common/error.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/nn/kernels.hpp"

namespace klinq::dsp {

namespace {
/// Datasets smaller than this extract serially — pool dispatch costs more
/// than the work.
constexpr std::size_t kParallelTraceThreshold = 32;
}  // namespace

batch_extractor::batch_extractor(const feature_pipeline& pipeline)
    : pipeline_(&pipeline) {
  KLINQ_REQUIRE(pipeline.is_fitted(), "batch_extractor: unfitted pipeline");
}

void batch_extractor::extract(const data::trace_dataset& dataset,
                              la::matrix_f& out) const {
  KLINQ_REQUIRE(pipeline_ != nullptr, "batch_extractor: default-constructed");
  const std::size_t width = pipeline_->output_width();
  if (out.rows() != dataset.size() || out.cols() != width) {
    out.resize(dataset.size(), width);
  }
  if (dataset.size() < kParallelTraceThreshold) {
    extract_block(dataset, 0, dataset.size(), out, 0);
    return;
  }
  parallel_for_chunked(0, dataset.size(),
                       [&](std::size_t begin, std::size_t end) {
                         extract_block(dataset, begin, end, out, begin);
                       });
}

void batch_extractor::extract_block(const data::trace_dataset& dataset,
                                    std::size_t row_begin, std::size_t row_end,
                                    la::matrix_f& out,
                                    std::size_t out_row_begin) const {
  KLINQ_REQUIRE(pipeline_ != nullptr, "batch_extractor: default-constructed");
  KLINQ_REQUIRE(row_begin <= row_end && row_end <= dataset.size(),
                "batch_extractor: row range out of bounds");
  KLINQ_REQUIRE(out_row_begin + (row_end - row_begin) <= out.rows() &&
                    out.cols() == pipeline_->output_width(),
                "batch_extractor: output block out of bounds");
  const std::size_t n = dataset.samples_per_quadrature();
  for (std::size_t r = row_begin; r < row_end; ++r) {
    pipeline_->extract(dataset.trace(r), n,
                       out.row(out_row_begin + (r - row_begin)));
  }
}

void batch_extractor::extract_tile(const data::trace_dataset& dataset,
                                   std::size_t row_begin, std::size_t lanes,
                                   float* plane, std::size_t stride) const {
  KLINQ_REQUIRE(row_begin + lanes <= dataset.size(),
                "batch_extractor: tile rows out of bounds");
  KLINQ_REQUIRE(nn::kernels::padded_lanes(lanes) <= stride,
                "batch_extractor: stride too small for padded lanes");
  // Gathered in kernel-tile chunks so the pointer array stays on the stack;
  // only the last chunk can be ragged, so only it writes pad lanes.
  constexpr std::size_t kChunk = nn::kernels::max_tile_lanes;
  const float* traces[kChunk];
  for (std::size_t begin = 0; begin < lanes; begin += kChunk) {
    const std::size_t chunk = std::min(kChunk, lanes - begin);
    for (std::size_t s = 0; s < chunk; ++s) {
      traces[s] = dataset.trace(row_begin + begin + s).data();
    }
    extract_tile(traces, chunk, dataset.samples_per_quadrature(),
                 plane + begin, stride);
  }
}

void batch_extractor::extract_tile(const float* const* traces,
                                   std::size_t lanes,
                                   std::size_t samples_per_quadrature,
                                   float* plane, std::size_t stride) const {
  KLINQ_REQUIRE(pipeline_ != nullptr, "batch_extractor: default-constructed");
  KLINQ_REQUIRE(nn::kernels::padded_lanes(lanes) <= stride,
                "batch_extractor: stride too small for padded lanes");
  const nn::kernels::extract_spec spec = pipeline_->tile_spec();
  const std::size_t n = samples_per_quadrature;
  KLINQ_REQUIRE(n >= spec.groups,
                "batch_extractor: fewer samples than groups");
  KLINQ_REQUIRE(spec.envelope == nullptr ||
                    pipeline_->filter().input_width() == 2 * n,
                "batch_extractor: matched-filter width mismatch");
  nn::kernels::active_kernels().extract_tile(traces, lanes, n, spec, plane,
                                             stride);
}

}  // namespace klinq::dsp
