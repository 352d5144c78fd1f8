#include "klinq/obs/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace klinq::obs {

namespace {

constexpr std::size_t kUnderflowBin = 0;
constexpr std::size_t kFirstLogBin = 1;
constexpr std::size_t kOverflowBin = histogram_data::kBinCount - 1;

}  // namespace

double histogram_data::bin_lower_edge(std::size_t bin) noexcept {
  if (bin == kUnderflowBin) return 0.0;
  return kMinValue *
         std::pow(10.0, static_cast<double>(bin - kFirstLogBin) /
                            kBinsPerDecade);
}

double histogram_data::bin_upper_edge(std::size_t bin) noexcept {
  if (bin == kUnderflowBin) return kMinValue;
  if (bin >= kOverflowBin) {
    return std::numeric_limits<double>::infinity();
  }
  return kMinValue *
         std::pow(10.0, static_cast<double>(bin - kFirstLogBin + 1) /
                            kBinsPerDecade);
}

double histogram_data::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // The extremes are tracked exactly — answer them without touching bins
  // (the interpolation below would land mid-bin for q = 0).
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Rank of the requested quantile, 1-based; ceil so q = 1 is the max.
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < bins.size(); ++b) {
    seen += bins[b];
    if (seen < rank) continue;
    // The extreme bins have no usable geometry — report the exact extremes
    // tracked alongside the bins instead.
    if (b == kUnderflowBin) return min;
    if (b == kOverflowBin) return max;
    const std::uint64_t before = seen - bins[b];
    const double low = bin_lower_edge(b);
    const double high = bin_upper_edge(b);
    // Interpolate the rank's position within the covering bin in log-space
    // (the bin is one kBinsPerDecade-th of a decade wide), then clamp to
    // the observed extremes so q→0/1 converge on real values.
    const double frac = static_cast<double>(rank - before) /
                        static_cast<double>(bins[b]);
    const double value = low * std::pow(high / low, frac);
    return std::clamp(value, min, max);
  }
  return max;  // unreachable: seen == count >= rank by the last bin
}

void histogram_data::merge(const histogram_data& other) noexcept {
  for (std::size_t b = 0; b < bins.size(); ++b) bins[b] += other.bins[b];
  if (other.count > 0) {
    min = count == 0 ? other.min : std::min(min, other.min);
    max = count == 0 ? other.max : std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
}

void log_histogram::record(double value) noexcept {
  std::size_t bin;
  if (!(value > 0.0) || value < kMinValue) {
    bin = kUnderflowBin;  // also NaN: !(NaN > 0.0)
  } else {
    const double position = std::log10(value / kMinValue) * kBinsPerDecade;
    bin = std::min(kFirstLogBin + static_cast<std::size_t>(position),
                   kOverflowBin);
  }
  bins_[bin].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(value)) {
    sum_.fetch_add(value, std::memory_order_relaxed);
    double seen = min_.load(std::memory_order_relaxed);
    while (value < seen && !min_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen && !max_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }
}

double log_histogram::min() const noexcept {
  const double v = min_.load(std::memory_order_relaxed);
  return std::isinf(v) ? 0.0 : v;
}

double log_histogram::max() const noexcept {
  const double v = max_.load(std::memory_order_relaxed);
  return std::isinf(v) ? 0.0 : v;
}

histogram_data log_histogram::data() const noexcept {
  histogram_data out;
  for (std::size_t b = 0; b < out.bins.size(); ++b) {
    out.bins[b] = bins_[b].load(std::memory_order_relaxed);
  }
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  out.min = min();
  out.max = max();
  return out;
}

void log_histogram::reset() noexcept {
  for (auto& bin : bins_) bin.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

void log_histogram::copy_from(const log_histogram& other) noexcept {
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    bins_[b].store(other.bins_[b].load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
  count_.store(other.count_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  sum_.store(other.sum_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  min_.store(other.min_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
  max_.store(other.max_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
}

}  // namespace klinq::obs
