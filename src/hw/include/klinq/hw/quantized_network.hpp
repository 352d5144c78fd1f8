// Fixed-point FNN inference engine (paper §IV).
//
// Bit-accurate software model of the FPGA datapath:
//   * weights/biases quantized from the trained float network,
//   * per-neuron MAC: full-precision products rounded back to F fractional
//     bits (the DSP post-scaler), summed in a wide accumulator with a single
//     saturation at the adder-tree root,
//   * ReLU realized as the RTL does it — inspect the sign bit, zero or pass,
//   * overflow managed by saturation in the activation stage.
//
// Templated on the fixed format so the word-width ablation (Q8.8 / Q12.12 /
// Q16.16 / Q24.24) reuses one implementation. Formats whose registers fit
// 32 bits (every ablation format except Q24.24) additionally keep each
// layer's parameters as cache-aligned raw int32 planes and run the MAC
// loops through the vectorized kernels in klinq/fixed/fixed_kernels.hpp
// (branchless int64 scalar, AVX2 or AVX-512, runtime-dispatched) —
// bit-identical to the fixed<I,F> reference path by construction
// (tests/test_fixed_kernels.cpp proves it adversarially). Construction also
// records, per output row, whether the row's weights prove that the DSP
// post-scaler's per-product clamp cannot fire (every |w| < 1, see
// fx::kernels::products_in_range); the kernels skip the clamp on those
// rows. Batches run as feature-major tiles through forward_logits_plane;
// forward_logit is the single-shot entry and, for Q24.24, the int128
// reference path itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "klinq/common/aligned.hpp"
#include "klinq/common/error.hpp"
#include "klinq/fixed/fixed.hpp"
#include "klinq/fixed/fixed_kernels.hpp"
#include "klinq/nn/network.hpp"

namespace klinq::hw {

/// Reusable buffers for the fixed-point forward pass. Explicit
/// (caller-owned) rather than thread_local: const networks stay safely
/// shareable, reentrancy is by construction, and steady-state batched
/// evaluation performs zero heap allocations. `a`/`b` are the reference
/// path's ping-pong activations; the `_raw` planes back the kernel fast
/// path (feature-major int32 tiles).
template <class Fixed>
struct quantized_scratch {
  std::vector<Fixed> a;
  std::vector<Fixed> b;
  aligned_vector<std::int32_t> a_raw;
  aligned_vector<std::int32_t> b_raw;
  aligned_vector<std::int32_t> in_raw;
};

template <class Fixed>
class quantized_network {
 public:
  /// True when this format runs the vectorized raw-register kernels.
  static constexpr bool kernel_fast_path =
      fx::kernels::has_int64_fast_path<Fixed>;

  quantized_network() = default;

  /// Quantizes every parameter of a trained float network.
  explicit quantized_network(const nn::network& net) {
    input_dim_ = net.input_dim();
    layers_.reserve(net.layer_count());
    for (std::size_t l = 0; l < net.layer_count(); ++l) {
      const nn::dense_layer& src = net.layer(l);
      layer quantized;
      quantized.in_dim = src.in_dim();
      quantized.out_dim = src.out_dim();
      quantized.act = src.act();
      quantized.weights.reserve(src.weights().size());
      for (const float w : src.weights().flat()) {
        quantized.weights.push_back(Fixed::from_double(w));
      }
      quantized.bias.reserve(src.bias().size());
      for (const float b : src.bias()) {
        quantized.bias.push_back(Fixed::from_double(b));
      }
      if constexpr (kernel_fast_path) {
        // Raw SoA planes for the kernels: registers fit int32 exactly
        // (rails included) whenever the fast path is enabled.
        quantized.weights_raw.reserve(quantized.weights.size());
        for (const Fixed w : quantized.weights) {
          quantized.weights_raw.push_back(
              static_cast<std::int32_t>(w.raw()));
        }
        quantized.bias_raw.reserve(quantized.bias.size());
        for (const Fixed b : quantized.bias) {
          quantized.bias_raw.push_back(static_cast<std::int32_t>(b.raw()));
        }
        quantized.rows_in_range.reserve(quantized.out_dim);
        for (std::size_t o = 0; o < quantized.out_dim; ++o) {
          quantized.rows_in_range.push_back(fx::kernels::products_in_range(
              quantized.weights_raw.data() + o * quantized.in_dim,
              quantized.in_dim, kSpec));
        }
      }
      layers_.push_back(std::move(quantized));
    }
  }

  std::size_t input_dim() const noexcept { return input_dim_; }
  std::size_t layer_count() const noexcept { return layers_.size(); }

  /// Input widths per layer, e.g. {31, 16, 8} for FNN-A — drives the
  /// adder-tree terms of the cycle and resource models.
  std::vector<std::size_t> layer_input_widths() const {
    std::vector<std::size_t> widths;
    widths.reserve(layers_.size());
    for (const auto& l : layers_) widths.push_back(l.in_dim);
    return widths;
  }

  std::size_t parameter_count() const noexcept {
    std::size_t total = 0;
    for (const auto& l : layers_) total += l.weights.size() + l.bias.size();
    return total;
  }

  /// FNV-1a over the quantized parameter registers (raw bit patterns in
  /// layer order, dims and activations mixed in) — a cheap integrity
  /// fingerprint. Registry snapshots stamp it at save time and re-verify it
  /// after requantizing the loaded student, so a file whose quantization no
  /// longer reproduces the recorded registers is rejected instead of
  /// silently serving different decisions.
  std::uint64_t parameter_hash() const noexcept {
    std::uint64_t hash = 14695981039346656037ull;
    const auto mix = [&hash](std::uint64_t value) noexcept {
      for (int b = 0; b < 64; b += 8) {
        hash = (hash ^ ((value >> b) & 0xff)) * 1099511628211ull;
      }
    };
    mix(input_dim_);
    for (const auto& l : layers_) {
      mix(l.out_dim);
      mix(static_cast<std::uint64_t>(l.act));
      for (const Fixed w : l.weights) {
        mix(static_cast<std::uint64_t>(w.raw()));
      }
      for (const Fixed b : l.bias) {
        mix(static_cast<std::uint64_t>(b.raw()));
      }
    }
    return hash;
  }

  /// Raw quantized tensors (row-major out×in), e.g. for RTL export.
  const std::vector<Fixed>& layer_weights(std::size_t index) const {
    KLINQ_REQUIRE(index < layers_.size(), "layer_weights: index out of range");
    return layers_[index].weights;
  }
  const std::vector<Fixed>& layer_bias(std::size_t index) const {
    KLINQ_REQUIRE(index < layers_.size(), "layer_bias: index out of range");
    return layers_[index].bias;
  }

  /// One flag per output row of a layer: 1 when the row's weights pass
  /// fx::kernels::products_in_range, so its MACs run without the
  /// per-product clamp. Derived from the weights at construction.
  std::span<const std::uint8_t> layer_rows_in_range(std::size_t index) const
    requires(kernel_fast_path)
  {
    KLINQ_REQUIRE(index < layers_.size(),
                  "layer_rows_in_range: index out of range");
    return layers_[index].rows_in_range;
  }

  /// Shots per cache block of the batched forward: the input tile
  /// (kBatchTile × 201 registers for FNN-B) stays L1/L2-resident while each
  /// weight row is streamed across it once. Matches the kernel layer's lane
  /// cap so tiles vectorize whole.
  static constexpr std::size_t kBatchTile = fx::kernels::max_tile_lanes;

  /// Full fixed-point forward pass through caller-provided scratch; returns
  /// the output logit register.
  Fixed forward_logit(std::span<const Fixed> input,
                      quantized_scratch<Fixed>& scratch) const {
    KLINQ_REQUIRE(!layers_.empty(), "quantized_network: empty network");
    KLINQ_REQUIRE(input.size() == input_dim_,
                  "quantized_network: bad input width");
    if constexpr (kernel_fast_path) {
      scratch.in_raw.resize(input_dim_);
      for (std::size_t i = 0; i < input_dim_; ++i) {
        scratch.in_raw[i] = static_cast<std::int32_t>(input[i].raw());
      }
      return Fixed::from_raw(forward_logit_raw(scratch.in_raw.data(),
                                               scratch));
    } else {
      scratch.a.assign(input.begin(), input.end());
      std::vector<Fixed>* current = &scratch.a;
      std::vector<Fixed>* next = &scratch.b;
      for (const layer& l : layers_) {
        next->assign(l.out_dim, Fixed::zero());
        for (std::size_t neuron = 0; neuron < l.out_dim; ++neuron) {
          (*next)[neuron] = neuron_mac(l, neuron, current->data());
        }
        std::swap(current, next);
      }
      return current->front();
    }
  }

  /// Convenience single-shot overload (allocates its own scratch).
  Fixed forward_logit(std::span<const Fixed> input) const {
    quantized_scratch<Fixed> scratch;
    return forward_logit(input, scratch);
  }

  /// Fast-path single-shot forward over a contiguous raw register row: one
  /// mac_row per neuron (the dispatched row kernel vectorizes along the
  /// inputs, where a one-lane tile could not). Bit-identical to
  /// forward_logit; returns the raw output logit.
  std::int32_t forward_logit_raw(const std::int32_t* input,
                                 quantized_scratch<Fixed>& scratch) const
    requires(kernel_fast_path)
  {
    KLINQ_REQUIRE(!layers_.empty(), "quantized_network: empty network");
    const std::size_t width = max_width();
    scratch.a_raw.resize(width);
    scratch.b_raw.resize(width);
    const std::int32_t* current = input;
    std::int32_t* planes[2] = {scratch.a_raw.data(), scratch.b_raw.data()};
    int which = 0;
    for (const layer& l : layers_) {
      std::int32_t* next = planes[which];
      const bool relu = l.act == nn::activation::relu;
      for (std::size_t neuron = 0; neuron < l.out_dim; ++neuron) {
        std::int64_t value = fx::kernels::active_kernels().mac_row(
            l.weights_raw.data() + neuron * l.in_dim, current, l.in_dim,
            l.bias_raw[neuron], l.rows_in_range[neuron] != 0, kSpec);
        if (relu && value < 0) value = 0;
        next[neuron] = static_cast<std::int32_t>(value);
      }
      current = next;
      which ^= 1;
    }
    return current[0];
  }

  /// Fast-path batched forward over a feature-major raw-register plane:
  /// `in_plane` holds input_dim rows of kBatchTile int32 lanes (shot s of
  /// feature i at in_plane[i * kBatchTile + s]); writes one raw output logit
  /// per shot to out_raw[0..tile). Bit-identical to forward_logit per lane;
  /// a one-lane tile runs the row kernels (forward_logit_raw).
  void forward_logits_plane(const std::int32_t* in_plane, std::size_t tile,
                            std::int32_t* out_raw,
                            quantized_scratch<Fixed>& scratch) const
    requires(kernel_fast_path)
  {
    KLINQ_REQUIRE(!layers_.empty(), "quantized_network: empty network");
    KLINQ_REQUIRE(tile <= kBatchTile,
                  "quantized_network: tile exceeds kBatchTile lanes");
    if (tile == 1) {
      // One lane: the row kernel vectorizes along the inputs, where the
      // tile kernel would leave all but one lane idle.
      scratch.in_raw.resize(input_dim_);
      for (std::size_t i = 0; i < input_dim_; ++i) {
        scratch.in_raw[i] = in_plane[i * kBatchTile];
      }
      out_raw[0] = forward_logit_raw(scratch.in_raw.data(), scratch);
      return;
    }
    const std::size_t width = max_width();
    scratch.a_raw.resize(kBatchTile * width);
    scratch.b_raw.resize(kBatchTile * width);
    // First layer reads the caller's plane while writing a_raw, then the
    // planes ping-pong — the input is never overwritten mid-layer.
    const std::int32_t* current = in_plane;
    std::int32_t* planes[2] = {scratch.a_raw.data(), scratch.b_raw.data()};
    int which = 0;
    for (const layer& l : layers_) {
      std::int32_t* next = planes[which];
      fx::kernels::active_kernels().mac_tile(
          l.weights_raw.data(), l.bias_raw.data(), l.rows_in_range.data(),
          l.out_dim, l.in_dim, current, tile, kBatchTile,
          l.act == nn::activation::relu, next, kSpec);
      current = next;
      which ^= 1;
    }
    // The logit is row 0 of the final plane.
    std::copy(current, current + tile, out_raw);
  }

  /// Hard decision: output register sign bit clear ⇒ state 1 ≡ logit >= 0.
  bool predict_state(std::span<const Fixed> input) const {
    return !forward_logit(input).sign_bit();
  }

 private:
  struct layer {
    std::size_t in_dim = 0;
    std::size_t out_dim = 0;
    nn::activation act = nn::activation::identity;
    std::vector<Fixed> weights;  // (out × in) row-major
    std::vector<Fixed> bias;
    // Fast-path twins of weights/bias as cache-aligned raw int32 planes,
    // and each row's products_in_range flag.
    aligned_vector<std::int32_t> weights_raw;
    aligned_vector<std::int32_t> bias_raw;
    std::vector<std::uint8_t> rows_in_range;
  };

  static constexpr fx::kernels::mac_spec kSpec =
      fx::kernels::spec_or_default<Fixed>();

  std::size_t max_width() const noexcept {
    std::size_t width = input_dim_;
    for (const layer& l : layers_) width = std::max(width, l.out_dim);
    return width;
  }

  /// One neuron's datapath on the int128 reference path: MAC with wide
  /// accumulator — products rounded to F fractional bits (the DSP
  /// post-scaler), summed without intermediate clamping, saturated once at
  /// the adder-tree root — then the RTL's sign-bit ReLU.
  static Fixed neuron_mac(const layer& l, std::size_t neuron,
                          const Fixed* input) {
    fx::fixed_accumulator<Fixed> acc;
    const Fixed* weight_row = l.weights.data() + neuron * l.in_dim;
    for (std::size_t i = 0; i < l.in_dim; ++i) {
      acc.add(weight_row[i] * input[i]);
    }
    acc.add(l.bias[neuron]);
    Fixed value = acc.result();
    if (l.act == nn::activation::relu && value.sign_bit()) {
      value = Fixed::zero();
    }
    return value;
  }

  std::size_t input_dim_ = 0;
  std::vector<layer> layers_;
};

}  // namespace klinq::hw
