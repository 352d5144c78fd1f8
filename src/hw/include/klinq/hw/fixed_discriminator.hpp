// End-to-end fixed-point qubit discriminator: the deployable FPGA model.
//
// Combines the fixed front-end (AVG/NORM/MF) with the quantized student
// network. predict_state() is the full ADC-to-decision path in hardware
// numerics; agreement_with_float() quantifies how often the fixed datapath
// reproduces the float model's decision (the paper's "maintains
// discrimination accuracy" claim for Q16.16).
//
// Every entry point — logit(), logits_block(), logits_lanes() and the
// pool-parallel logits() — only gathers trace pointers and runs one private
// datapath, run_tile(), over tiles of up to kBatchTile shots. For the 32-bit
// formats (the int64 kernel fast path) a single frontend_tile pass streams
// each float trace once through quantize → AVG ∥ MF → NORM with one shot per
// SIMD lane (a tile of only a few shots runs them one at a time, samples
// across the lanes), writing the feature-major plane the network tile
// (mac_tile per layer) consumes directly; no fixed<I,F> temporary is
// materialized. Q24.24, whose products need int128, runs the fixed<I,F>
// reference (quantize_trace + extract + forward_logit) lane by lane inside
// the same run_tile. Both are bit-identical to that reference per shot;
// logit() is a one-lane tile.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "klinq/common/aligned.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/data/trace_dataset.hpp"
#include "klinq/hw/fixed_frontend.hpp"
#include "klinq/hw/quantized_network.hpp"
#include "klinq/kd/distiller.hpp"

namespace klinq::hw {

/// Reusable buffers for the full trace→decision path. The wide (Q24.24)
/// reference lanes use the quantized trace register file, one feature row
/// and the network's ping-pong arena; the kernel fast path (32-bit formats)
/// uses the feature-major raw plane, the tile's raw output logits, and an
/// AVG layout for trace durations the front end was not built for.
template <class Fixed>
struct discriminator_scratch {
  std::vector<Fixed> trace;
  std::vector<Fixed> features;
  quantized_scratch<Fixed> net;
  frontend_layout layout;
  aligned_vector<std::int32_t> plane_raw;
  aligned_vector<std::int32_t> logits_raw;
};

template <class Fixed>
class fixed_discriminator {
 public:
  fixed_discriminator() = default;

  /// Quantizes a trained student model into hardware form.
  explicit fixed_discriminator(const kd::student_model& student)
      : frontend_(student.pipeline()), net_(student.net()) {
    KLINQ_REQUIRE(frontend_.output_width() == net_.input_dim(),
                  "fixed_discriminator: front-end/network width mismatch");
  }

  const fixed_frontend<Fixed>& frontend() const noexcept { return frontend_; }
  const quantized_network<Fixed>& net() const noexcept { return net_; }

  /// Output logit register for one float (ADC) trace, through caller-provided
  /// scratch (allocation-free when reused).
  Fixed logit(std::span<const float> trace, std::size_t samples_per_quadrature,
              discriminator_scratch<Fixed>& scratch) const {
    // A one-lane tile — the mid-circuit repeated-measurement hot path.
    KLINQ_REQUIRE(trace.size() == 2 * samples_per_quadrature,
                  "fixed_discriminator: trace width != 2N");
    const float* lane = trace.data();
    Fixed out;
    run_tile(&lane, 1, samples_per_quadrature, &out, scratch);
    return out;
  }

  /// Convenience single-shot overload (allocates its own scratch).
  Fixed logit(std::span<const float> trace,
              std::size_t samples_per_quadrature) const {
    discriminator_scratch<Fixed> scratch;
    return logit(trace, samples_per_quadrature, scratch);
  }

  /// Per-shot decision through caller-provided scratch — the repeated-
  /// measurement (mid-circuit) hot path: zero allocation once the scratch
  /// is warm.
  bool predict_state(std::span<const float> trace,
                     std::size_t samples_per_quadrature,
                     discriminator_scratch<Fixed>& scratch) const {
    return !logit(trace, samples_per_quadrature, scratch).sign_bit();
  }

  bool predict_state(std::span<const float> trace,
                     std::size_t samples_per_quadrature) const {
    return !logit(trace, samples_per_quadrature).sign_bit();
  }

  /// Serial ADC-to-logit evaluation of dataset rows [row_begin, row_end)
  /// through caller-provided scratch, in tiles of kBatchTile shots. Writes
  /// out[r - row_begin] for each row r; bit-identical to logit() per trace.
  /// Zero steady-state allocation once the scratch is warm — this is the
  /// serve engine's shard executor.
  void logits_block(const data::trace_dataset& dataset, std::size_t row_begin,
                    std::size_t row_end, std::span<Fixed> out,
                    discriminator_scratch<Fixed>& scratch) const {
    KLINQ_REQUIRE(row_begin <= row_end && row_end <= dataset.size(),
                  "fixed_discriminator: row range out of bounds");
    KLINQ_REQUIRE(out.size() == row_end - row_begin,
                  "fixed_discriminator: one logit per row required");
    const std::size_t n = dataset.samples_per_quadrature();
    constexpr std::size_t kTile = quantized_network<Fixed>::kBatchTile;
    const float* traces[kTile];
    for (std::size_t tile_begin = row_begin; tile_begin < row_end;
         tile_begin += kTile) {
      const std::size_t tile = std::min(kTile, row_end - tile_begin);
      for (std::size_t s = 0; s < tile; ++s) {
        traces[s] = dataset.trace(tile_begin + s).data();
      }
      run_tile(traces, tile, n, out.data() + (tile_begin - row_begin),
               scratch);
    }
  }

  /// Lane-packed single-shot evaluation: one row drawn from each of `lanes`
  /// (possibly distinct) datasets of one trace duration, pushed through one
  /// tile. datasets[s]/rows[s] name lane s's trace; out[s] receives its
  /// logit. Bit-identical to logit()/logits_block() per trace — the integer
  /// datapath is exact, so lane position and tile width never change a
  /// register. This is the serve coalescer's cross-request lane-pack
  /// executor. Requires 0 < lanes <= kBatchTile.
  void logits_lanes(const data::trace_dataset* const* datasets,
                    const std::size_t* rows, std::size_t lanes,
                    std::span<Fixed> out,
                    discriminator_scratch<Fixed>& scratch) const {
    constexpr std::size_t kTile = quantized_network<Fixed>::kBatchTile;
    KLINQ_REQUIRE(lanes > 0 && lanes <= kTile,
                  "fixed_discriminator: lane count exceeds the network tile");
    KLINQ_REQUIRE(out.size() == lanes,
                  "fixed_discriminator: one logit per lane required");
    const std::size_t n = datasets[0]->samples_per_quadrature();
    const float* traces[kTile];
    for (std::size_t s = 0; s < lanes; ++s) {
      KLINQ_REQUIRE(datasets[s]->samples_per_quadrature() == n,
                    "fixed_discriminator: lanes of one tile must share "
                    "the trace duration");
      traces[s] = datasets[s]->trace(rows[s]).data();
    }
    run_tile(traces, lanes, n, out.data(), scratch);
  }

  /// Batched ADC-to-logit evaluation: one output register per dataset row.
  /// Parallelized over trace blocks; bit-identical to logit() per trace.
  void logits(const data::trace_dataset& dataset, std::span<Fixed> out) const {
    KLINQ_REQUIRE(out.size() == dataset.size(),
                  "fixed_discriminator: one logit per trace required");
    if (dataset.empty()) return;
    const auto evaluate_block = [&](std::size_t begin, std::size_t end) {
      // One scratch arena per worker chunk: allocations are per-chunk (a
      // handful per pool dispatch), never per shot.
      discriminator_scratch<Fixed> scratch;
      logits_block(dataset, begin, end, out.subspan(begin, end - begin),
                   scratch);
    };
    if (dataset.size() < quantized_network<Fixed>::kBatchTile) {
      evaluate_block(0, dataset.size());
      return;
    }
    parallel_for_chunked(0, dataset.size(), evaluate_block);
  }

  /// Batched hard decisions (1 = state |1⟩), one per dataset row.
  void predict_states(const data::trace_dataset& dataset,
                      std::span<std::uint8_t> out) const {
    KLINQ_REQUIRE(out.size() == dataset.size(),
                  "fixed_discriminator: one decision per trace required");
    std::vector<Fixed> registers(dataset.size());
    logits(dataset, registers);
    for (std::size_t r = 0; r < registers.size(); ++r) {
      out[r] = registers[r].sign_bit() ? 0 : 1;
    }
  }

  /// Assignment accuracy of the fixed-point datapath on a dataset.
  double accuracy(const data::trace_dataset& dataset) const {
    if (dataset.empty()) return 0.0;
    std::vector<Fixed> registers(dataset.size());
    logits(dataset, registers);
    std::size_t correct = 0;
    for (std::size_t r = 0; r < registers.size(); ++r) {
      const bool predicted = !registers[r].sign_bit();
      correct += (predicted == dataset.label_state(r)) ? 1 : 0;
    }
    return static_cast<double>(correct) /
           static_cast<double>(dataset.size());
  }

  /// Fraction of traces where fixed and float decisions agree.
  double agreement_with_float(const kd::student_model& student,
                              const data::trace_dataset& dataset) const {
    if (dataset.empty()) return 1.0;
    std::vector<Fixed> registers(dataset.size());
    logits(dataset, registers);
    const std::vector<float> float_logits = student.predict_batch(dataset);
    std::size_t agree = 0;
    for (std::size_t r = 0; r < registers.size(); ++r) {
      const bool fixed_decision = !registers[r].sign_bit();
      const bool float_decision = float_logits[r] >= 0.0f;
      agree += (fixed_decision == float_decision) ? 1 : 0;
    }
    return static_cast<double>(agree) / static_cast<double>(dataset.size());
  }

 private:
  /// The one datapath: `lanes` traces of 2N samples to out[0..lanes).
  /// 32-bit formats run one frontend_tile pass into the feature plane, then
  /// the network tile; Q24.24 runs the fixed<I,F> reference per lane.
  void run_tile(const float* const* traces, std::size_t lanes, std::size_t n,
                Fixed* out, discriminator_scratch<Fixed>& scratch) const {
    if constexpr (quantized_network<Fixed>::kernel_fast_path) {
      constexpr std::size_t kTile = quantized_network<Fixed>::kBatchTile;
      scratch.plane_raw.resize(frontend_.output_width() * kTile);
      scratch.logits_raw.resize(kTile);
      frontend_.extract_tile(traces, lanes, n, scratch.plane_raw.data(), kTile,
                             scratch.layout);
      net_.forward_logits_plane(scratch.plane_raw.data(), lanes,
                                scratch.logits_raw.data(), scratch.net);
      for (std::size_t s = 0; s < lanes; ++s) {
        out[s] = Fixed::from_raw(scratch.logits_raw[s]);
      }
    } else {
      scratch.trace.resize(2 * n);
      scratch.features.resize(frontend_.output_width());
      for (std::size_t s = 0; s < lanes; ++s) {
        fixed_frontend<Fixed>::quantize_trace({traces[s], 2 * n},
                                              scratch.trace);
        frontend_.extract(scratch.trace, n, scratch.features);
        out[s] = net_.forward_logit(scratch.features, scratch.net);
      }
    }
  }

  fixed_frontend<Fixed> frontend_;
  quantized_network<Fixed> net_;
};

}  // namespace klinq::hw
