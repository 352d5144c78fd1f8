#include "klinq/nn/dense_layer.hpp"

#include "klinq/common/error.hpp"
#include "klinq/linalg/gemm.hpp"
#include "klinq/nn/kernels.hpp"

namespace klinq::nn {

dense_layer::dense_layer(std::size_t in_dim, std::size_t out_dim,
                         activation act)
    : weights_(out_dim, in_dim), bias_(out_dim, 0.0f), act_(act) {
  KLINQ_REQUIRE(in_dim > 0 && out_dim > 0,
                "dense_layer: dimensions must be positive");
}

void dense_layer::initialize(weight_init scheme, xoshiro256& rng) {
  initialize_weights(scheme, weights_.flat(), in_dim(), out_dim(), rng);
  for (float& b : bias_) b = 0.0f;
}

void dense_layer::forward(const la::matrix_f& input, la::matrix_f& pre,
                          la::matrix_f& post) const {
  KLINQ_REQUIRE(input.cols() == in_dim(), "dense_layer::forward: bad input");
  if (act_ == activation::identity) {
    // Pre- and post-activation coincide: GEMM straight into `post` instead
    // of materializing `pre` and copying the whole matrix.
    forward_inference(input, post);
    return;
  }
  if (pre.rows() != input.rows() || pre.cols() != out_dim()) {
    pre.resize(input.rows(), out_dim());
  }
  kernels::gemm_nt(input, weights_, pre, bias());
  if (post.rows() != pre.rows() || post.cols() != pre.cols()) {
    post.resize(pre.rows(), pre.cols());
  }
  const auto src = pre.flat();
  const auto dst = post.flat();
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = apply_activation(act_, src[i]);
  }
}

void dense_layer::forward_inference(const la::matrix_f& input,
                                    la::matrix_f& out) const {
  KLINQ_REQUIRE(input.cols() == in_dim(),
                "dense_layer::forward_inference: bad input");
  if (out.rows() != input.rows() || out.cols() != out_dim()) {
    out.resize(input.rows(), out_dim());
  }
  // Dispatched AVX2/scalar forward GEMM with the bias add and ReLU fused
  // into the microkernel store (klinq/nn/kernels.hpp).
  kernels::gemm_nt_bias_act(input, weights_, out, bias(), act_);
}

void dense_layer::forward_single(std::span<const float> input,
                                 std::span<float> output) const {
  KLINQ_REQUIRE(input.size() == in_dim() && output.size() == out_dim(),
                "dense_layer::forward_single: bad spans");
  // One dispatched dot per neuron — the AVX2 tier cuts single-shot latency;
  // the scalar tier keeps the seed's gemv reduction order bit for bit.
  for (std::size_t o = 0; o < out_dim(); ++o) {
    output[o] = kernels::active_kernels().dot(weights_.data() + o * in_dim(),
                                              input.data(), in_dim()) +
                bias_[o];
  }
  apply_activation(act_, output);
}

void dense_layer::backward(const la::matrix_f& input,
                           const la::matrix_f& d_pre, la::matrix_f& d_weights,
                           std::span<float> d_bias,
                           la::matrix_f* d_input) const {
  KLINQ_REQUIRE(d_pre.rows() == input.rows() && d_pre.cols() == out_dim(),
                "dense_layer::backward: shape mismatch");
  if (d_weights.rows() != out_dim() || d_weights.cols() != in_dim()) {
    d_weights.resize(out_dim(), in_dim());
  }
  // dW(out×in) = d_pre(b×out)ᵀ · input(b×in)
  la::gemm_tn(d_pre, input, d_weights);
  la::column_sums(d_pre, d_bias);
  if (d_input != nullptr) {
    if (d_input->rows() != input.rows() || d_input->cols() != in_dim()) {
      d_input->resize(input.rows(), in_dim());
    }
    // dX(b×in) = d_pre(b×out) · W(out×in)
    la::gemm_nn(d_pre, weights_, *d_input);
  }
}

}  // namespace klinq::nn
