#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

void report::add(const std::string& name, double value,
                 const std::string& unit, std::uint64_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void report::context(const std::string& key, const std::string& value) {
  std::printf("context %s %s\n", key.c_str(), value.c_str());
}

void report::note(const std::string& line) {
  std::printf("%s\n", line.c_str());
}

void report::print(const std::vector<std::string>& json_names) const {
  for (const metric& m : metrics_) {
    std::printf("metric %s %.9g %s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : json_names) {
    const auto it =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const metric& m) { return m.name == name; });
    if (it == metrics_.end()) continue;  // the self-test reports the gap
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(it->value) ? it->value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            it->unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double grouped_median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double m = values[values.size() / 2];
  const auto lo = std::lower_bound(values.begin(), values.end(), m);
  const auto hi = std::upper_bound(values.begin(), values.end(), m);
  const auto below = static_cast<double>(lo - values.begin());
  const auto equal = static_cast<double>(hi - lo);
  return m - 0.5 + (static_cast<double>(values.size()) / 2.0 - below) / equal;
}

double now_seconds() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until(double t) noexcept {
  // Plain sleeps, no spinning: a generator that spins loses the scheduler's
  // favour and then stalls for milliseconds behind busy workers, while a
  // sleeping one wakes a steady ~50 µs (the timer slack) late. The lateness
  // is measured (loadgen.lag_p99_us) and included in open-loop latency.
  const double left = t - now_seconds();
  if (left > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(left));
  }
}

double process_cpu_seconds() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::size_t affinity_cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string affinity_cpu_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unavailable";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    int last = cpu;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
    if (last > cpu) out += "-" + std::to_string(last);
    cpu = last;
  }
  return out;
}

std::string cgroup_cpu_max() {
  std::ifstream in("/sys/fs/cgroup/cpu.max");
  std::string line;
  if (!in || !std::getline(in, line)) return "unavailable";
  std::replace(line.begin(), line.end(), ' ', '/');
  return line;
}

std::pair<double, double> cpu_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  double total = 0.0, steal = 0.0, v = 0.0;
  if (!(in >> label) || label != "cpu") return {0.0, 0.0};
  for (int field = 0; field < 8 && (in >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

void record_span(klinq::obs::trace_ring& ring, std::uint64_t trace_id,
                 std::uint64_t span_id, std::uint64_t parent,
                 std::uint64_t start_us, std::uint64_t end_us,
                 const char* name) {
  klinq::obs::trace_span span;
  span.trace_id = trace_id;
  span.span_id = span_id;
  span.parent_span = parent;
  span.start_us = start_us;
  span.duration_us = end_us > start_us ? end_us - start_us : 0;
  span.name = name;
  span.category = "bench";
  ring.record(std::move(span));
}

}  // namespace perfbench
