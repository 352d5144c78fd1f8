// Log-binned histogram shared by every metric producer in the stack.
//
// Values are counted into logarithmic bins (kBinsPerDecade per decade from
// kMinValue up, one underflow and one overflow slot), so record() is O(1)
// and the memory footprint is fixed.
//
//  * record() is thread-safe and lock-free — every slot is a relaxed
//    atomic, min/max are CAS loops — so handles can be hammered from the
//    submit/shard hot paths without a mutex.
//  * quantile() interpolates within the covering bin (log-space) and clamps
//    to the exact observed min/max, so it is exact at the extremes and well
//    inside one bin width in between.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace klinq::obs {

/// Plain-data copy of a log_histogram: what snapshots carry and what the
/// quantile/merge math operates on. Also the unit-testable core.
struct histogram_data {
  static constexpr double kMinValue = 1e-7;  // 100 ns floor for latencies
  static constexpr int kBinsPerDecade = 16;
  static constexpr int kDecades = 9;  // 1e-7 .. 1e2
  // First slot: below kMinValue (or non-positive); last slot: overflow.
  static constexpr std::size_t kBinCount =
      static_cast<std::size_t>(kBinsPerDecade) * kDecades + 2;

  std::array<std::uint64_t, kBinCount> bins{};
  std::uint64_t count = 0;
  double sum = 0.0;
  /// Exact observed extremes; both 0 while the histogram is empty.
  double min = 0.0;
  double max = 0.0;

  /// Value at quantile q in [0, 1] (q = 0.5 → p50), interpolated in
  /// log-space within the covering bin and clamped to [min, max]; the
  /// underflow/overflow bins report the exact min/max. 0 when empty.
  double quantile(double q) const noexcept;

  /// Accumulate another histogram into this one (for cross-series
  /// aggregation, e.g. a quantile over all qubits of one stage family).
  void merge(const histogram_data& other) noexcept;

  /// Lower/upper value edges of a bin index (underflow: [0, kMinValue);
  /// overflow upper edge is +inf).
  static double bin_lower_edge(std::size_t bin) noexcept;
  static double bin_upper_edge(std::size_t bin) noexcept;
};

class log_histogram {
 public:
  static constexpr double kMinValue = histogram_data::kMinValue;
  /// The same floor, named for latency histograms.
  static constexpr double kMinSeconds = histogram_data::kMinValue;
  static constexpr int kBinsPerDecade = histogram_data::kBinsPerDecade;
  static constexpr int kDecades = histogram_data::kDecades;

  log_histogram() = default;
  // Copyable (relaxed element-wise) so accumulator structs holding one —
  // the drift monitor's baseline capture — keep working. The copy is not a
  // consistent point-in-time cut under concurrent writers; copy quiescent
  // histograms (the drift monitor copies under its own mutex).
  log_histogram(const log_histogram& other) noexcept { copy_from(other); }
  log_histogram& operator=(const log_histogram& other) noexcept {
    if (this != &other) copy_from(other);
    return *this;
  }

  /// Lock-free, wait-free except for the min/max CAS loops. Relaxed order:
  /// readers see eventually-consistent totals, never torn slots.
  void record(double value) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// Exact observed extremes; 0 while empty.
  double min() const noexcept;
  double max() const noexcept;

  /// Interpolated quantile — see histogram_data::quantile.
  double quantile(double q) const noexcept { return data().quantile(q); }

  /// Relaxed-read copy of the current state.
  histogram_data data() const noexcept;

  void reset() noexcept;

 private:
  void copy_from(const log_histogram& other) noexcept;

  std::array<std::atomic<std::uint64_t>, histogram_data::kBinCount> bins_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // +inf / -inf sentinels while empty; min()/max() normalize to 0.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

}  // namespace klinq::obs
