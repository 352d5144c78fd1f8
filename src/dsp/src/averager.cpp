#include "klinq/dsp/averager.hpp"

#include "klinq/common/error.hpp"
#include "klinq/nn/kernels.hpp"

namespace klinq::dsp {

interval_averager::interval_averager(std::size_t groups_per_quadrature)
    : groups_(groups_per_quadrature) {
  KLINQ_REQUIRE(groups_ > 0, "interval_averager: group count must be > 0");
}

std::size_t interval_averager::group_size(std::size_t g, std::size_t n) const {
  KLINQ_REQUIRE(g < groups_, "group_size: group index out of range");
  return group_begin(g + 1, n, groups_) - group_begin(g, n, groups_);
}

void interval_averager::apply(std::span<const float> trace,
                              std::size_t samples_per_quadrature,
                              std::span<float> out) const {
  const std::size_t n = samples_per_quadrature;
  KLINQ_REQUIRE(trace.size() == 2 * n, "averager: trace width != 2N");
  KLINQ_REQUIRE(out.size() == output_width(), "averager: bad output span");
  KLINQ_REQUIRE(n >= groups_, "averager: fewer samples than groups");

  for (std::size_t quadrature = 0; quadrature < 2; ++quadrature) {
    const std::size_t in_base = quadrature * n;
    const std::size_t out_base = quadrature * groups_;
    for (std::size_t g = 0; g < groups_; ++g) {
      const std::size_t begin = group_begin(g, n, groups_);
      const std::size_t end = group_begin(g + 1, n, groups_);
      // Dispatched group sum: AVX2 8-lane adds where available; the scalar
      // tier keeps the seed's 4-lane accumulator order bit for bit.
      const std::size_t len = end - begin;
      const float acc = nn::kernels::active_kernels().sum(
          trace.data() + in_base + begin, len);
      out[out_base + g] = acc / static_cast<float>(len);
    }
  }
}

la::matrix_f interval_averager::apply_all(
    const data::trace_dataset& dataset) const {
  la::matrix_f features(dataset.size(), output_width());
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    apply(dataset.trace(r), dataset.samples_per_quadrature(), features.row(r));
  }
  return features;
}

}  // namespace klinq::dsp
