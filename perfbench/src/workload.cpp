#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <unordered_map>

#include "klinq/common/cpu_dispatch.hpp"
#include "klinq/common/rng.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/core/fidelity.hpp"

#ifndef KLINQ_BUILD_TYPE
#define KLINQ_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace klinq;

request_block make_block(const deployment& dep,
                         const std::vector<reference>& refs, std::size_t qubit,
                         const std::vector<std::size_t>& rows) {
  request_block block;
  block.qubit = qubit;
  block.traces = dep.qubits[qubit].data.test.subset(rows);
  for (const std::size_t r : rows) {
    block.ref_registers.push_back(refs[qubit].registers[r]);
    block.ref_logits.push_back(refs[qubit].logits[r]);
    block.labels.push_back(dep.qubits[qubit].data.test.label_state(r) ? 1 : 0);
  }
  return block;
}

std::vector<std::size_t> draw_rows(const deployment& dep, std::size_t qubit,
                                   std::size_t count, std::uint64_t stream) {
  const std::size_t available = dep.qubits[qubit].data.test.size();
  std::vector<std::size_t> all(available);
  std::iota(all.begin(), all.end(), std::size_t{0});
  xoshiro256 rng(stream);
  for (std::size_t i = available; i > 1; --i) {
    std::swap(all[i - 1], all[rng.uniform_index(i)]);
  }
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < count; ++i) rows.push_back(all[i % available]);
  return rows;
}

std::uint64_t hash_blocks(const std::vector<request_block>& blocks,
                          std::uint64_t h) {
  for (const request_block& b : blocks) {
    h = fnv1a(&b.qubit, sizeof(b.qubit), h);
    const auto& flat = b.traces.features().flat();
    h = fnv1a(flat.data(), flat.size() * sizeof(float), h);
  }
  return h;
}

namespace {

void score(tally& t, const request_block& block,
           std::span<const std::uint8_t> states, auto other_decision) {
  const std::size_t q = block.qubit;
  t.shots[q] += states.size();
  for (std::size_t i = 0; i < states.size(); ++i) {
    t.correct[q] += states[i] == block.labels[i] ? 1 : 0;
    t.agree[q] += states[i] == other_decision(i) ? 1 : 0;
  }
}

}  // namespace

bool tally::check_fixed(const request_block& block,
                        std::span<const std::int32_t> registers,
                        std::span<const std::uint8_t> states) {
  const std::size_t n = block.ref_registers.size();
  bool ok = registers.size() == n && states.size() == n &&
            std::memcmp(registers.data(), block.ref_registers.data(),
                        n * sizeof(std::int32_t)) == 0;
  for (std::size_t i = 0; ok && i < n; ++i) {
    ok = states[i] == (block.ref_registers[i] >= 0 ? 1 : 0);
  }
  if (!ok) {
    ++mismatched_requests;
    return false;
  }
  score(*this, block, states,
        [&](std::size_t i) { return block.ref_logits[i] >= 0.0f ? 1 : 0; });
  return true;
}

bool tally::check_float(const request_block& block,
                        std::span<const float> logits,
                        std::span<const std::uint8_t> states) {
  const std::size_t n = block.ref_logits.size();
  bool ok = logits.size() == n && states.size() == n &&
            std::memcmp(logits.data(), block.ref_logits.data(),
                        n * sizeof(float)) == 0;
  for (std::size_t i = 0; ok && i < n; ++i) {
    ok = states[i] == (block.ref_logits[i] >= 0.0f ? 1 : 0);
  }
  if (!ok) {
    ++mismatched_requests;
    return false;
  }
  score(*this, block, states,
        [&](std::size_t i) { return block.ref_registers[i] >= 0 ? 1 : 0; });
  return true;
}

bool tally::check(const request_block& block,
                  const serve::readout_result& result) {
  if (result.engine == serve::engine_kind::float_student) {
    return check_float(block, result.logits, result.states);
  }
  std::vector<std::int32_t> raw(result.registers.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::int32_t>(result.registers[i].raw());
  }
  return check_fixed(block, raw, result.states);
}

std::unique_ptr<deployment> run_setups(
    const scale& sizes, std::uint64_t seed, bool with_registry,
    setup_timing& timing, const std::function<void()>& teardown,
    const std::function<void(deployment&)>& start) {
  std::unique_ptr<deployment> dep;
  for (std::size_t rep = 0; rep < sizes.setup_repetitions; ++rep) {
    teardown();
    dep.reset();
    const double t0 = now_seconds();
    dep = build_deployment(sizes, seed, with_registry);
    const double t1 = now_seconds();
    start(*dep);
    const double t2 = now_seconds();
    timing.total.push_back(t2 - t0);
    timing.qsim.push_back(dep->qsim_seconds);
    timing.distill.push_back(dep->distill_seconds);
    timing.quantize.push_back(dep->quantize_seconds);
    timing.start.push_back(t2 - t1);
  }
  return dep;
}

void print_steal(report& rep, std::pair<double, double> before,
                 std::pair<double, double> after) {
  const double total = after.second - before.second;
  char value[32];
  std::snprintf(value, sizeof(value), "%.4f",
                total > 0.0 ? (after.first - before.first) / total : 0.0);
  rep.context("host_steal_fraction", total > 0.0 ? value : "unavailable");
}

void print_slo(report& rep, const std::string& what,
               const std::vector<double>& latencies, double limit) {
  std::size_t over = 0;
  for (const double l : latencies) over += l > limit ? 1 : 0;
  const double p99 = quantile(latencies, 0.99);
  const auto n =
      static_cast<double>(std::max<std::size_t>(1, latencies.size()));
  char line[240];
  std::snprintf(line, sizeof(line),
                "slo %s: limit p99 %.0f us, p99 %.1f us, %.4f of requests "
                "over the limit or failed -> %s",
                what.c_str(), limit * 1e6, p99 * 1e6,
                static_cast<double>(over) / n, p99 <= limit ? "met" : "missed");
  rep.note(line);
}

void account(report& rep, const phase_result& phase, const tally& t) {
  rep.count_attempted(phase.attempted);
  rep.count_failed(phase.failed - t.mismatched_requests);
  rep.count_mismatch(t.mismatched_requests);
}

double windowed_quantile(const phase_result& phase, double q) {
  const auto min_samples =
      static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q)));
  const auto windows = static_cast<std::size_t>(phase.wall_seconds);
  std::vector<std::vector<double>> per_window(windows);
  for (std::size_t i = 0; i < phase.latencies.size(); ++i) {
    const auto w = static_cast<std::size_t>(std::max(0.0, phase.latency_at[i]));
    if (w < windows) per_window[w].push_back(phase.latencies[i]);
  }
  std::vector<double> per_window_q;
  for (const std::vector<double>& w : per_window) {
    if (w.size() >= min_samples) per_window_q.push_back(quantile(w, q));
  }
  return per_window_q.empty() ? quantile(phase.latencies, q)
                              : median(per_window_q);
}

void add_end_to_end(report& rep, const phase_result& phase, const tally& t,
                    const setup_timing& timing) {
  const auto shots =
      static_cast<double>(std::max<std::uint64_t>(1, phase.shots));
  rep.add("shots_per_s",
          phase.window_shots_per_s.empty() ? phase.shots / phase.wall_seconds
                                           : median(phase.window_shots_per_s),
          "shots/s", phase.requests);
  for (const auto& [name, q] : {std::pair{"latency_p50_us", 0.50},
                                std::pair{"latency_p90_us", 0.90},
                                std::pair{"latency_p99_us", 0.99}}) {
    rep.add(name, windowed_quantile(phase, q) * 1e6, "us",
            phase.latencies.size());
  }
  const double attempted =
      static_cast<double>(std::max<std::uint64_t>(1, phase.attempted));
  rep.add("failed_ratio", static_cast<double>(phase.failed) / attempted,
          "ratio", phase.attempted);
  rep.add("ok_ratio", 1.0 - static_cast<double>(phase.failed) / attempted,
          "ratio", phase.attempted);
  rep.add("cpu_us_per_shot",
          phase.window_cpu_us_per_shot.empty()
              ? phase.cpu_seconds * 1e6 / shots
              : median(phase.window_cpu_us_per_shot),
          "us", phase.shots);

  core::fidelity_report served{"perfbench served", {}};
  std::uint64_t verified = 0, agree = 0;
  for (std::size_t q = 0; q < kQubits; ++q) {
    served.per_qubit.push_back(
        t.shots[q] == 0 ? 0.0
                        : static_cast<double>(t.correct[q]) /
                              static_cast<double>(t.shots[q]));
    verified += t.shots[q];
    agree += t.agree[q];
  }
  rep.add("fidelity_f5q", served.geometric_mean_all(), "ratio", verified);
  rep.add("fixed_float_agreement",
          static_cast<double>(agree) /
              static_cast<double>(std::max<std::uint64_t>(1, verified)),
          "ratio", verified);
  rep.add("setup_s", median(timing.total), "s", timing.total.size());
  rep.add("peak_rss_mib", peak_rss_mib(), "MiB", 1);

  // Paper anchor: Table I's KLiNQ row next to what this run served.
  const core::fidelity_report paper{"[paper] KLiNQ",
                                    {0.968, 0.748, 0.929, 0.934, 0.959}};
  char line[256];
  for (const core::fidelity_report* row :
       {static_cast<const core::fidelity_report*>(&served), &paper}) {
    std::snprintf(line, sizeof(line),
                  "fidelity %-18s F1..F5 %.4f %.4f %.4f %.4f %.4f  F5Q %.4f  "
                  "F4Q %.4f",
                  row->label.c_str(), row->per_qubit[0], row->per_qubit[1],
                  row->per_qubit[2], row->per_qubit[3], row->per_qubit[4],
                  row->geometric_mean_all(), row->geometric_mean_excluding(1));
    rep.note(line);
  }
  std::snprintf(line, sizeof(line),
                "fidelity gap (served - paper): F5Q %+.4f  F4Q %+.4f  "
                "(small teacher, %llu served shots; not tuned to close it)",
                served.geometric_mean_all() - paper.geometric_mean_all(),
                served.geometric_mean_excluding(1) -
                    paper.geometric_mean_excluding(1),
                static_cast<unsigned long long>(verified));
  rep.note(line);
}

void add_setup_layers(report& rep, const setup_timing& timing) {
  const std::uint64_t n = timing.total.size();
  rep.add("setup.qsim_s", median(timing.qsim), "s", n);
  rep.add("setup.distill_s", median(timing.distill), "s", n);
  rep.add("setup.quantize_s", median(timing.quantize), "s", n);
  rep.add("setup.start_s", median(timing.start), "s", n);
}

obs::histogram_data histogram_delta(const obs::metrics_snapshot& after,
                                    const obs::metrics_snapshot& before,
                                    const std::string& family,
                                    const obs::label_list& match) {
  const auto merged = [&](const obs::metrics_snapshot& snap) {
    obs::histogram_data out;
    const obs::family_snapshot* fam = snap.find(family);
    if (fam == nullptr) return out;
    for (const obs::series_snapshot& s : fam->series) {
      bool ok = true;
      for (const auto& want : match) {
        ok = ok && std::find(s.labels.begin(), s.labels.end(), want) !=
                       s.labels.end();
      }
      if (ok) out.merge(s.histogram);
    }
    return out;
  };
  obs::histogram_data a = merged(after);
  const obs::histogram_data b = merged(before);
  for (std::size_t i = 0; i < a.bins.size(); ++i) a.bins[i] -= b.bins[i];
  a.count -= b.count;
  a.sum -= b.sum;
  return a;
}

double counter_delta(const obs::metrics_snapshot& after,
                     const obs::metrics_snapshot& before,
                     const std::string& family) {
  const auto total = [&](const obs::metrics_snapshot& snap) {
    double sum = 0.0;
    if (const obs::family_snapshot* fam = snap.find(family)) {
      for (const obs::series_snapshot& s : fam->series) sum += s.value;
    }
    return sum;
  };
  return total(after) - total(before);
}

void add_serve_layers(report& rep, const obs::metrics_snapshot& after,
                      const obs::metrics_snapshot& before,
                      const phase_result& traced, double shots_per_second,
                      double block_ns_per_shot, std::size_t workers) {
  rep.add("serve.submit_us_p50", quantile(traced.submit_seconds, 0.5) * 1e6,
          "us", traced.submit_seconds.size());
  rep.add("serve.submit_us_p99", quantile(traced.submit_seconds, 0.99) * 1e6,
          "us", traced.submit_seconds.size());
  const auto stage = [&](const char* name) {
    return histogram_delta(after, before, "klinq_serve_stage_seconds",
                           {{"stage", name}});
  };
  const obs::histogram_data hold = stage("hold");
  const obs::histogram_data queue = stage("queue");
  const obs::histogram_data exec = stage("exec");
  rep.add("serve.hold_us_p50", hold.quantile(0.5) * 1e6, "us", hold.count);
  rep.add("serve.queue_us_p50", queue.quantile(0.5) * 1e6, "us", queue.count);
  rep.add("serve.queue_us_p99", queue.quantile(0.99) * 1e6, "us", queue.count);
  rep.add("serve.exec_us_p50", exec.quantile(0.5) * 1e6, "us", exec.count);
  rep.add("serve.exec_us_p99", exec.quantile(0.99) * 1e6, "us", exec.count);

  const obs::histogram_data shards =
      histogram_delta(after, before, "klinq_serve_shard_exec_seconds");
  const double requests = std::max(1.0, counter_delta(
      after, before, "klinq_serve_requests_submitted_total"));
  rep.add("serve.shards_per_request",
          static_cast<double>(shards.count) / requests, "count", shards.count);
  rep.add("serve.coalesced_ratio",
          counter_delta(after, before, "klinq_serve_requests_coalesced_total") /
              requests,
          "ratio", static_cast<std::uint64_t>(requests));
  rep.add("serve.packed_ratio",
          counter_delta(after, before, "klinq_serve_packed_requests_total") /
              requests,
          "ratio", static_cast<std::uint64_t>(requests));
  const obs::histogram_data lanes =
      histogram_delta(after, before, "klinq_serve_lane_occupancy");
  rep.add("serve.pack_lanes_mean",
          lanes.count == 0 ? 0.0 : lanes.sum / static_cast<double>(lanes.count),
          "count", lanes.count);
  // Completions by status; a series missing from `before` reads 0.
  const std::string completed = "klinq_serve_requests_completed_total";
  double failed = 0.0;
  if (const obs::family_snapshot* fam = after.find(completed)) {
    for (const obs::series_snapshot& s : fam->series) {
      for (const auto& [key, value] : s.labels) {
        if (key == "status" && value != "ok") {
          failed += s.value - before.value(completed, s.labels);
        }
      }
    }
  }
  rep.add("serve.failed_requests", failed, "count",
          static_cast<std::uint64_t>(requests));
  rep.add("serve.parallel_efficiency",
          shots_per_second * block_ns_per_shot * 1e-9 /
              static_cast<double>(std::max<std::size_t>(1, workers)),
          "ratio", 1);
}

void add_load_layers(report& rep, const phase_result& measured) {
  rep.add("pool.cpu_busy_fraction",
          measured.cpu_seconds / (measured.wall_seconds *
                                  static_cast<double>(affinity_cpu_count())),
          "ratio", 1);
  rep.add("loadgen.lag_p99_us", quantile(measured.lag, 0.99) * 1e6, "us",
          measured.lag.size());
  rep.add("loadgen.offered_per_s", measured.offered_per_second, "1/s",
          measured.lag.size());
}

void add_in_process_net_layers(report& rep, const phase_result& measured,
                               const net_probe& probe) {
  rep.add("net.bulk_rtt_p99_us", quantile(measured.latencies, 0.99) * 1e6,
          "us", measured.latencies.size());
  rep.add("net.busy_ratio", probe.busy_ratio, "ratio", probe.requests);
  rep.add("net.bytes_per_request", probe.bytes_per_request, "bytes",
          probe.requests);
}

namespace {

/// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> spans) {
  std::sort(spans.begin(), spans.end());
  double total = 0.0, cur_start = 0.0, cur_end = -1.0;
  for (const auto& [s, e] : spans) {
    if (s > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

struct span_analysis {
  std::map<std::string, std::vector<double>> self_us;
  std::vector<double> root_us;
  /// Per observed request: the named layers' time over its latency.
  std::vector<double> coverage;

  double p50(const std::string& name) const {
    const auto it = self_us.find(name);
    return it == self_us.end() ? 0.0 : grouped_median(it->second);
  }
  std::uint64_t count(const std::string& name) const {
    const auto it = self_us.find(name);
    return it == self_us.end() ? 0 : it->second.size();
  }
};

/// Self time of a span = its duration minus the union of its children's
/// intervals clipped to it.
span_analysis analyze_spans(const std::vector<obs::trace_span>& spans,
                            const std::string& root,
                            const std::vector<std::string>& latency_layers,
                            bool root_self_is_wire) {
  std::unordered_map<std::uint64_t, std::vector<const obs::trace_span*>> kids;
  for (const obs::trace_span& s : spans) {
    if (s.parent_span != 0) kids[s.parent_span].push_back(&s);
  }
  span_analysis out;
  for (const obs::trace_span& s : spans) {
    std::vector<std::pair<double, double>> covered;
    double layer_us = 0.0;
    const double begin = static_cast<double>(s.start_us);
    const double end = begin + static_cast<double>(s.duration_us);
    if (const auto it = kids.find(s.span_id); it != kids.end()) {
      for (const obs::trace_span* k : it->second) {
        const double ks = std::max(begin, static_cast<double>(k->start_us));
        const double ke = std::min(
            end, static_cast<double>(k->start_us + k->duration_us));
        if (ke > ks) covered.emplace_back(ks, ke);
        if (std::find(latency_layers.begin(), latency_layers.end(),
                      k->name) != latency_layers.end()) {
          layer_us += static_cast<double>(k->duration_us);
        }
      }
    }
    const double self =
        static_cast<double>(s.duration_us) - union_length(std::move(covered));
    out.self_us[s.name].push_back(self);
    if (s.name == root) {
      out.root_us.push_back(static_cast<double>(s.duration_us));
      if (root_self_is_wire) layer_us += self;
      if (s.duration_us > 0) {
        out.coverage.push_back(layer_us / static_cast<double>(s.duration_us));
      }
    }
  }
  return out;
}

}  // namespace

void add_trace_layers(report& rep, const trace_inputs& in) {
  const std::vector<obs::trace_span> spans = in.ring->spans();
  const span_analysis a = analyze_spans(spans, in.root, in.latency_layers,
                                        in.root_self_is_wire);
  for (const auto& [name, values] : a.self_us) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "span %-14s count %8zu self_p50_us %9.2f self_p99_us %9.2f",
                  name.c_str(), values.size(), grouped_median(values),
                  quantile(values, 0.99));
    rep.note(line);
  }
  // The net layer: the load phase's own spans on TCP, else the probe's.
  const span_analysis net =
      in.probe == nullptr
          ? a
          : analyze_spans(in.probe->spans, "client.rtt", {}, true);
  const std::string net_root = in.probe == nullptr ? in.root : "client.rtt";
  for (const char* name :
       {"net.read", "net.decode", "net.admit", "net.write"}) {
    rep.add(std::string(name) + "_us_p50", net.p50(name), "us",
            net.count(name));
  }
  rep.add("net.wire_us_p50", net.p50(net_root), "us", net.count(net_root));

  rep.add("obs.trace_overhead_ratio",
          in.untraced_latency_p50 > 0.0
              ? in.traced_latency_p50 / in.untraced_latency_p50
              : 0.0,
          "ratio", a.root_us.size());
  rep.add("obs.spans_dropped", static_cast<double>(in.ring->dropped()),
          "count", in.ring->recorded());

  const double latency_coverage = quantile(a.coverage, 0.5);
  const double exec_coverage =
      in.served_exec_seconds > 0.0
          ? in.isolated_exec_ns * 1e-9 / in.served_exec_seconds
          : 0.0;
  rep.add("layers.exec_coverage", exec_coverage, "ratio", a.root_us.size());
  rep.add("layers.latency_coverage", latency_coverage, "ratio",
          a.coverage.size());
  char line[200];
  std::snprintf(line, sizeof(line),
                "reconcile exec_coverage %.3f (tolerance %.2f..%.2f) "
                "latency_coverage %.3f (tolerance %.2f..%.2f)",
                exec_coverage, kExecCoverageMin, kExecCoverageMax,
                latency_coverage, kLatencyCoverageMin, kLatencyCoverageMax);
  rep.note(line);

  if (!in.chrome_trace_path.empty()) {
    std::ofstream out(in.chrome_trace_path);
    out << obs::chrome_trace_json(spans);
    rep.note("chrome trace written to " + in.chrome_trace_path);
  }
}

void print_context(report& rep, const options& opt,
                   const std::string& load_model) {
  rep.context("workload", opt.workload);
  rep.context("load_model", load_model);
  rep.context("seed", std::to_string(opt.seed));
  rep.context("seconds", std::to_string(opt.seconds));
  rep.context("nproc", std::to_string(std::thread::hardware_concurrency()));
  rep.context("affinity_cpus", std::to_string(affinity_cpu_count()) + " [" +
                                   affinity_cpu_list() + "]");
  rep.context("cgroup_cpu_max", cgroup_cpu_max());
  rep.context("pool_workers",
              std::to_string(global_thread_pool().worker_count()));
  rep.context("fixed_simd_tier", simd_tier_name(active_simd_tier()));
  rep.context("float_simd_tier", simd_tier_name(active_float_simd_tier()));
  rep.context("float_path", fused_float_path_enabled() ? "fused" : "two-phase");
  rep.context("build_type", KLINQ_BUILD_TYPE);
}

}  // namespace perfbench
