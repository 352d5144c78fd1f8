#include "klinq/nn/network.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "klinq/common/error.hpp"
#include "klinq/common/math.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/nn/kernels.hpp"

namespace klinq::nn {

network::network(std::size_t input_dim, std::initializer_list<layer_spec> specs)
    : network(input_dim, std::vector<layer_spec>(specs)) {}

network::network(std::size_t input_dim, const std::vector<layer_spec>& specs)
    : input_dim_(input_dim) {
  KLINQ_REQUIRE(input_dim > 0, "network: input_dim must be positive");
  KLINQ_REQUIRE(!specs.empty(), "network: at least one layer required");
  std::size_t prev = input_dim;
  layers_.reserve(specs.size());
  for (const layer_spec& spec : specs) {
    KLINQ_REQUIRE(spec.width > 0, "network: layer width must be positive");
    layers_.emplace_back(prev, spec.width, spec.act);
    prev = spec.width;
  }
}

std::size_t network::parameter_count() const noexcept {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer.parameter_count();
  return total;
}

std::string network::topology_string() const {
  std::ostringstream out;
  out << input_dim_;
  for (const auto& layer : layers_) out << "-" << layer.out_dim();
  return out.str();
}

void network::initialize(weight_init scheme, xoshiro256& rng) {
  for (auto& layer : layers_) layer.initialize(scheme, rng);
}

const la::matrix_f& network::forward(const la::matrix_f& input,
                                     forward_workspace& ws) const {
  KLINQ_REQUIRE(input.cols() == input_dim_, "network::forward: bad input dim");
  ws.pre.resize(layers_.size());
  ws.post.resize(layers_.size());
  const la::matrix_f* current = &input;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].forward(*current, ws.pre[l], ws.post[l]);
    current = &ws.post[l];
  }
  return ws.post.back();
}

float network::predict_logit(std::span<const float> input) const {
  KLINQ_REQUIRE(input.size() == input_dim_, "predict_logit: bad input dim");
  thread_local std::vector<float> buffer_a;
  thread_local std::vector<float> buffer_b;
  buffer_a.assign(input.begin(), input.end());
  std::vector<float>* in = &buffer_a;
  std::vector<float>* out = &buffer_b;
  for (const auto& layer : layers_) {
    out->assign(layer.out_dim(), 0.0f);
    layer.forward_single(*in, *out);
    std::swap(in, out);
  }
  return in->front();
}

void network::predict_logits_plane(const float* in_plane, std::size_t lanes,
                                   std::size_t stride, float* out,
                                   inference_scratch& scratch) const {
  KLINQ_REQUIRE(!layers_.empty(), "predict_logits_plane: empty network");
  KLINQ_REQUIRE(kernels::padded_lanes(lanes) <= stride,
                "predict_logits_plane: stride too small for padded lanes");
  const std::size_t padded = kernels::padded_lanes(lanes);
  std::size_t max_width = 0;
  for (const auto& layer : layers_) {
    max_width = std::max(max_width, layer.out_dim());
  }
  scratch.plane_a.resize(max_width * stride);
  scratch.plane_b.resize(max_width * stride);
  const float* current = in_plane;
  float* next = scratch.plane_a.data();
  for (const auto& layer : layers_) {
    const activation act = layer.act();
    kernels::active_kernels().fc_plane(
        layer.weights().data(), layer.bias().data(), layer.out_dim(),
        layer.in_dim(), current, lanes, stride, act == activation::relu, next);
    if (act != activation::relu && act != activation::identity) {
      // Rare non-fused activations (sigmoid) run row-wise over the padded
      // lanes so pads stay finite for the next layer.
      for (std::size_t o = 0; o < layer.out_dim(); ++o) {
        apply_activation(act, std::span<float>(next + o * stride, padded));
      }
    }
    current = next;
    next = (current == scratch.plane_a.data()) ? scratch.plane_b.data()
                                               : scratch.plane_a.data();
  }
  // The binary logit head lives in plane row 0.
  for (std::size_t s = 0; s < lanes; ++s) out[s] = current[s];
}

void network::predict_logits(const la::matrix_f& input, std::span<float> out,
                             inference_scratch& scratch) const {
  KLINQ_REQUIRE(!layers_.empty(), "predict_logits: empty network");
  KLINQ_REQUIRE(input.cols() == input_dim_, "predict_logits: bad input dim");
  KLINQ_REQUIRE(out.size() == input.rows(),
                "predict_logits: output span must have one entry per row");
  const std::size_t rows = input.rows();
  if (rows == 0) return;
  const std::size_t k = input_dim_;
  constexpr std::size_t kTile = kernels::max_tile_lanes;
  const auto run_rows = [&](std::size_t begin, std::size_t end,
                            inference_scratch& local) {
    local.panel.resize(k * kTile);
    for (std::size_t t = begin; t < end; t += kTile) {
      const std::size_t count = std::min(kTile, end - t);
      kernels::pack_rows(input.data() + t * k, count, k, k,
                         local.panel.data(), kTile);
      predict_logits_plane(local.panel.data(), count, kTile, out.data() + t,
                           local);
    }
  };
  // Beyond a few tiles, chunk tile-aligned ranges across the pool with one
  // persistent per-thread scratch arena (warm after the first dispatch, so
  // the steady state stays allocation-free). Results are chunking-invariant:
  // the kernels are lane-invariant, so a shot's logit does not depend on
  // where its tile boundary falls.
  const std::size_t tiles = (rows + kTile - 1) / kTile;
  if (tiles < 4) {
    run_rows(0, rows, scratch);
    return;
  }
  parallel_for_chunked(0, tiles, [&](std::size_t tile_begin,
                                     std::size_t tile_end) {
    thread_local inference_scratch local;
    run_rows(tile_begin * kTile, std::min(tile_end * kTile, rows), local);
  });
}

std::vector<float> network::predict_logits(const la::matrix_f& input) const {
  inference_scratch scratch;
  std::vector<float> out(input.rows());
  predict_logits(input, out, scratch);
  return out;
}

float network::predict_probability(std::span<const float> input) const {
  return static_cast<float>(sigmoid(predict_logit(input)));
}

bool network::predict_state(std::span<const float> input) const {
  return predict_logit(input) >= 0.0f;
}

void network::backward(const la::matrix_f& input, const forward_workspace& ws,
                       const la::matrix_f& d_logits,
                       gradient_buffers& grads) const {
  KLINQ_REQUIRE(ws.post.size() == layers_.size(),
                "network::backward: workspace does not match a forward pass");
  const std::size_t n_layers = layers_.size();
  grads.d_weights.resize(n_layers);
  grads.d_bias.resize(n_layers);
  grads.d_pre.resize(n_layers);
  for (std::size_t l = 0; l < n_layers; ++l) {
    grads.d_bias[l].assign(layers_[l].out_dim(), 0.0f);
  }

  grads.d_pre[n_layers - 1] = d_logits;
  for (std::size_t l = n_layers; l-- > 0;) {
    const la::matrix_f& layer_input = (l == 0) ? input : ws.post[l - 1];
    la::matrix_f* d_input = (l == 0) ? nullptr : &grads.d_pre[l - 1];
    layers_[l].backward(layer_input, grads.d_pre[l], grads.d_weights[l],
                        grads.d_bias[l], d_input);
    if (l > 0) {
      // Fold the previous layer's activation derivative into d_pre[l-1]:
      // d_pre = d_post ⊙ f'(post).
      const activation prev_act = layers_[l - 1].act();
      const auto post = ws.post[l - 1].flat();
      const auto d = grads.d_pre[l - 1].flat();
      for (std::size_t i = 0; i < d.size(); ++i) {
        d[i] *= activation_derivative_from_output(prev_act, post[i]);
      }
    }
  }
}

void network::for_each_parameter(
    gradient_buffers& grads,
    const std::function<void(std::span<float>, std::span<const float>)>& fn) {
  KLINQ_REQUIRE(grads.d_weights.size() == layers_.size(),
                "for_each_parameter: gradients do not match network");
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    fn(layers_[l].weights().flat(), grads.d_weights[l].flat());
    fn(layers_[l].bias(), std::span<const float>(grads.d_bias[l]));
  }
}

network make_mlp(std::size_t input_dim, const std::vector<std::size_t>& hidden,
                 std::size_t output_dim) {
  std::vector<layer_spec> specs;
  specs.reserve(hidden.size() + 1);
  for (const std::size_t width : hidden) {
    specs.push_back({width, activation::relu});
  }
  specs.push_back({output_dim, activation::identity});
  return network(input_dim, specs);
}

}  // namespace klinq::nn
