#include "klinq/dsp/feature_pipeline.hpp"

#include <array>
#include <istream>
#include <ostream>

#include "klinq/common/error.hpp"
#include "klinq/dsp/batch_extractor.hpp"
#include "klinq/nn/kernels.hpp"

namespace klinq::dsp {

feature_pipeline feature_pipeline::fit(const data::trace_dataset& train,
                                       const feature_pipeline_config& config) {
  KLINQ_REQUIRE(train.size() > 1, "feature_pipeline::fit: empty training set");
  feature_pipeline pipeline;
  pipeline.config_ = config;
  pipeline.averager_ = interval_averager(config.groups_per_quadrature);
  if (config.use_matched_filter) {
    pipeline.filter_ = matched_filter::fit(train);
  }

  // Build the un-normalized feature matrix, then calibrate the normalizer.
  // Goes through the same fused extraction pass extract() runs, so the
  // calibration sees exactly the deployed arithmetic.
  const std::size_t width = pipeline.output_width();
  la::matrix_f features(train.size(), width);
  for (std::size_t r = 0; r < train.size(); ++r) {
    pipeline.extract_unnormalized(train.trace(r),
                                  train.samples_per_quadrature(),
                                  features.row(r));
  }
  pipeline.normalizer_ =
      feature_normalizer::fit(features, config.normalization);
  return pipeline;
}

void feature_pipeline::extract_unnormalized(std::span<const float> trace,
                                            std::size_t samples_per_quadrature,
                                            std::span<float> out) const {
  const std::size_t n = samples_per_quadrature;
  const std::size_t groups = averager_.groups_per_quadrature();
  KLINQ_REQUIRE(trace.size() == 2 * n,
                "feature_pipeline: trace width != 2N");
  KLINQ_REQUIRE(n >= groups, "feature_pipeline: fewer samples than groups");
  const float* envelope = nullptr;
  if (config_.use_matched_filter) {
    KLINQ_REQUIRE(filter_.input_width() == trace.size(),
                  "feature_pipeline: matched-filter width mismatch");
    envelope = filter_.envelope().data();
  }
  float mf = 0.0f;
  for (std::size_t quadrature = 0; quadrature < 2; ++quadrature) {
    const std::size_t base = quadrature * n;
    mf += nn::kernels::grouped_mean_dot(
        trace.data() + base, envelope != nullptr ? envelope + base : nullptr,
        n, groups, out.data() + quadrature * groups);
  }
  if (config_.use_matched_filter) out[out.size() - 1] = mf;
}

void feature_pipeline::extract(std::span<const float> trace,
                               std::size_t samples_per_quadrature,
                               std::span<float> out) const {
  KLINQ_REQUIRE(is_fitted(), "feature_pipeline::extract before fit");
  KLINQ_REQUIRE(out.size() == output_width(),
                "feature_pipeline::extract: bad output width");
  extract_unnormalized(trace, samples_per_quadrature, out);
  normalizer_.apply(out);
}

nn::kernels::extract_spec feature_pipeline::tile_spec() const noexcept {
  const bool pow2 = normalizer_.mode() == norm_mode::pow2_shift;
  return {.groups = averager_.groups_per_quadrature(),
          .envelope = config_.use_matched_filter ? filter_.envelope().data()
                                                 : nullptr,
          .offset = normalizer_.x_min().data(),
          .scale = pow2 ? normalizer_.pow2_scale().data()
                        : normalizer_.sigma().data(),
          .op = pow2 ? nn::kernels::norm_op::multiply
                     : nn::kernels::norm_op::divide};
}

la::matrix_f feature_pipeline::extract_all(
    const data::trace_dataset& dataset) const {
  la::matrix_f features;
  batch_extractor(*this).extract(dataset, features);
  return features;
}

namespace {
constexpr std::array<char, 8> kMagic = {'K', 'L', 'N', 'Q', 'F', 'P', 'L', '1'};
}

void feature_pipeline::save(std::ostream& out) const {
  KLINQ_REQUIRE(is_fitted(), "feature_pipeline::save before fit");
  out.write(kMagic.data(), kMagic.size());
  const std::uint64_t groups = config_.groups_per_quadrature;
  out.write(reinterpret_cast<const char*>(&groups), sizeof(groups));
  const std::uint8_t use_mf = config_.use_matched_filter ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&use_mf), 1);
  const auto mode_raw = static_cast<std::uint8_t>(config_.normalization);
  out.write(reinterpret_cast<const char*>(&mode_raw), 1);
  if (config_.use_matched_filter) filter_.save(out);
  normalizer_.save(out);
  if (!out) throw io_error("feature_pipeline::save: stream write failed");
}

feature_pipeline feature_pipeline::load(std::istream& in) {
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) {
    throw io_error("feature_pipeline::load: bad magic");
  }
  std::uint64_t groups = 0;
  in.read(reinterpret_cast<char*>(&groups), sizeof(groups));
  std::uint8_t use_mf = 0;
  in.read(reinterpret_cast<char*>(&use_mf), 1);
  std::uint8_t mode_raw = 0;
  in.read(reinterpret_cast<char*>(&mode_raw), 1);
  if (!in) throw io_error("feature_pipeline::load: truncated header");
  KLINQ_REQUIRE(groups > 0 && groups < (1u << 20),
                "feature_pipeline::load: implausible group count");
  KLINQ_REQUIRE(mode_raw <= 2, "feature_pipeline::load: unknown norm mode");

  feature_pipeline pipeline;
  pipeline.config_.groups_per_quadrature = static_cast<std::size_t>(groups);
  pipeline.config_.use_matched_filter = (use_mf != 0);
  pipeline.config_.normalization = static_cast<norm_mode>(mode_raw);
  pipeline.averager_ = interval_averager(pipeline.config_.groups_per_quadrature);
  if (pipeline.config_.use_matched_filter) {
    pipeline.filter_ = matched_filter::load(in);
  }
  pipeline.normalizer_ = feature_normalizer::load(in);
  return pipeline;
}

}  // namespace klinq::dsp
