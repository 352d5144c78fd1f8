// Shared pieces of the perfbench program: options, the metric report,
// quantiles, process resource readings, hashing, spans and run context.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "klinq/obs/trace.hpp"

namespace perfbench {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the smoke self-test: every metric is still produced.
  bool smoke = false;
  /// Directory for Chrome trace files written by traced runs ("" = none).
  std::string out_dir;
};

/// One named measurement. `samples` is how many observations the value
/// summarizes (requests for a latency quantile, repetitions for a median).
struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// Collects metrics, counts attempted/failed operations and correctness,
/// and prints the human table plus the final one-line JSON result.
class report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples);
  /// Free-form context line ("context <key> <value>").
  void context(const std::string& key, const std::string& value);
  /// A human-readable line that is not a metric.
  void note(const std::string& line);

  void count_attempted(std::uint64_t n) { attempted_ += n; }
  void count_failed(std::uint64_t n) { failed_ += n; }
  /// Records a served result that differs from the serial reference.
  void count_mismatch(std::uint64_t n) {
    mismatches_ += n;
    failed_ += n;
  }

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  std::uint64_t mismatches() const noexcept { return mismatches_; }
  bool correct() const noexcept { return mismatches_ == 0; }
  const std::vector<metric>& metrics() const noexcept { return metrics_; }

  /// Prints every metric as "metric <name> <value> <unit> n=<samples>" and
  /// then the JSON line holding the metrics named in `json_names`.
  void print(const std::vector<std::string>& json_names) const;

 private:
  std::vector<metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t mismatches_ = 0;
};

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
/// Median of whole-microsecond samples (trace spans), reading each value v
/// as spread evenly over [v - 0.5, v + 0.5): the interpolated median of
/// grouped data, so the figure keeps its sub-microsecond information.
double grouped_median(std::vector<double> values);

/// Seconds on the steady clock since an arbitrary process epoch.
double now_seconds() noexcept;
/// Sleeps until now_seconds() >= t (returns at once when t has passed).
void sleep_until(double t) noexcept;

/// Process CPU time (user + system) in seconds.
double process_cpu_seconds() noexcept;
/// Peak resident set size of the process in MiB.
double peak_rss_mib() noexcept;

/// FNV-1a over raw bytes, chainable through `h`.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 0xcbf29ce484222325ull) noexcept;
std::string hex64(std::uint64_t value);

/// CPUs the process may run on: nproc-style count and the affinity list.
std::size_t affinity_cpu_count();
std::string affinity_cpu_list();
/// Contents of the cgroup v2 cpu.max file, or "unavailable".
std::string cgroup_cpu_max();

/// Cumulative (steal, total) CPU ticks of the machine from /proc/stat, or
/// (0, 0) when unreadable. On a virtual machine, steal is time the host ran
/// something else while a vCPU wanted to run: the noise floor of every
/// timing this benchmark takes.
std::pair<double, double> cpu_steal_ticks();

/// Records one bench-side span into `ring` (times in trace_clock_us).
void record_span(klinq::obs::trace_ring& ring, std::uint64_t trace_id,
                 std::uint64_t span_id, std::uint64_t parent,
                 std::uint64_t start_us, std::uint64_t end_us,
                 const char* name);

}  // namespace perfbench
