#include "klinq/dsp/matched_filter.hpp"

#include <array>
#include <istream>
#include <ostream>

#include "klinq/common/error.hpp"
#include "klinq/nn/kernels.hpp"

namespace klinq::dsp {

matched_filter::matched_filter(std::vector<float> envelope)
    : envelope_(std::move(envelope)) {
  KLINQ_REQUIRE(!envelope_.empty(), "matched_filter: empty envelope");
}

matched_filter matched_filter::fit(const data::trace_dataset& dataset,
                                   float var_floor) {
  const auto rows0 = dataset.rows_with_label(false);
  const auto rows1 = dataset.rows_with_label(true);
  KLINQ_REQUIRE(!rows0.empty() && !rows1.empty(),
                "matched_filter::fit: need traces of both states");
  const std::size_t width = dataset.feature_width();

  // Per-sample ensemble means of each class.
  std::vector<double> mean0(width, 0.0);
  std::vector<double> mean1(width, 0.0);
  for (const std::size_t r : rows0) {
    const auto row = dataset.trace(r);
    for (std::size_t c = 0; c < width; ++c) mean0[c] += row[c];
  }
  for (const std::size_t r : rows1) {
    const auto row = dataset.trace(r);
    for (std::size_t c = 0; c < width; ++c) mean1[c] += row[c];
  }
  for (std::size_t c = 0; c < width; ++c) {
    mean0[c] /= static_cast<double>(rows0.size());
    mean1[c] /= static_cast<double>(rows1.size());
  }

  // var(T0 − T1) per sample: with independent ensembles this is
  // var(T0) + var(T1), estimated per class around its own mean.
  std::vector<double> var_sum(width, 0.0);
  for (const std::size_t r : rows0) {
    const auto row = dataset.trace(r);
    for (std::size_t c = 0; c < width; ++c) {
      const double d = row[c] - mean0[c];
      var_sum[c] += d * d / static_cast<double>(rows0.size());
    }
  }
  for (const std::size_t r : rows1) {
    const auto row = dataset.trace(r);
    for (std::size_t c = 0; c < width; ++c) {
      const double d = row[c] - mean1[c];
      var_sum[c] += d * d / static_cast<double>(rows1.size());
    }
  }

  std::vector<float> envelope(width);
  for (std::size_t c = 0; c < width; ++c) {
    const double variance = std::max<double>(var_sum[c], var_floor);
    envelope[c] = static_cast<float>((mean0[c] - mean1[c]) / variance);
  }
  return matched_filter(std::move(envelope));
}

float matched_filter::apply(std::span<const float> trace) const {
  KLINQ_REQUIRE(is_fitted(), "matched_filter::apply before fit");
  KLINQ_REQUIRE(trace.size() == envelope_.size(),
                "matched_filter::apply: trace width mismatch");
  // The 2N-wide MAC is the extraction hot spot; the dispatched kernel runs
  // it with AVX2 FMA where available (scalar tier = the seed's la::dot
  // order, pinned by KLINQ_SIMD=scalar).
  return nn::kernels::active_kernels().dot(trace.data(), envelope_.data(),
                                           trace.size());
}

std::vector<float> matched_filter::apply_all(
    const data::trace_dataset& dataset) const {
  std::vector<float> outputs(dataset.size());
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    outputs[r] = apply(dataset.trace(r));
  }
  return outputs;
}

bool matched_filter::classify_as_ground(std::span<const float> trace,
                                        float threshold) const {
  return apply(trace) >= threshold;
}

float matched_filter::fit_threshold(const data::trace_dataset& dataset) const {
  double sum0 = 0.0;
  double sum1 = 0.0;
  std::size_t n0 = 0;
  std::size_t n1 = 0;
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    const float mf = apply(dataset.trace(r));
    if (dataset.label_state(r)) {
      sum1 += mf;
      ++n1;
    } else {
      sum0 += mf;
      ++n0;
    }
  }
  KLINQ_REQUIRE(n0 > 0 && n1 > 0, "fit_threshold: need both states");
  return static_cast<float>(0.5 * (sum0 / n0 + sum1 / n1));
}

namespace {
constexpr std::array<char, 8> kMagic = {'K', 'L', 'N', 'Q', 'M', 'F', '0', '1'};
}

void matched_filter::save(std::ostream& out) const {
  out.write(kMagic.data(), kMagic.size());
  const std::uint64_t width = envelope_.size();
  out.write(reinterpret_cast<const char*>(&width), sizeof(width));
  out.write(reinterpret_cast<const char*>(envelope_.data()),
            static_cast<std::streamsize>(envelope_.size() * sizeof(float)));
  if (!out) throw io_error("matched_filter::save: stream write failed");
}

matched_filter matched_filter::load(std::istream& in) {
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) {
    throw io_error("matched_filter::load: bad magic");
  }
  std::uint64_t width = 0;
  in.read(reinterpret_cast<char*>(&width), sizeof(width));
  if (!in) throw io_error("matched_filter::load: truncated header");
  KLINQ_REQUIRE(width > 0 && width < (1u << 24),
                "matched_filter::load: implausible width");
  std::vector<float> envelope(width);
  in.read(reinterpret_cast<char*>(envelope.data()),
          static_cast<std::streamsize>(width * sizeof(float)));
  if (!in) throw io_error("matched_filter::load: truncated payload");
  return matched_filter(std::move(envelope));
}

}  // namespace klinq::dsp
