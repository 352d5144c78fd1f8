// Pieces shared by the three workloads: request blocks with their serial
// references, the correctness tally, set-up repetition, phase results and
// the end-to-end and per-layer metric emitters.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "harness.hpp"
#include "klinq/obs/metrics.hpp"
#include "klinq/obs/trace.hpp"
#include "klinq/serve/readout_server.hpp"
#include "setup.hpp"

namespace perfbench {

inline constexpr std::size_t kQubits = 5;

/// Span capacity of a traced run's ring; the traced phase stops early at
/// kTraceStopFill of it so obs.spans_dropped stays 0.
inline constexpr std::size_t kTraceCapacity = std::size_t{1} << 18;
inline constexpr double kTraceStopFill = 0.75;
/// Requests of each isolated probe (net probe, isolated submit timing).
inline constexpr std::size_t kNetProbeRequests = 2000;

/// The three workloads. Each prints its context and adds its metrics to
/// `rep`: the end-to-end set from the untraced phase, and with opt.trace
/// the per-layer set as well.
void run_bulk_fixed(const options& opt, const scale& sizes, report& rep);
void run_stream_float(const options& opt, const scale& sizes, report& rep);
void run_feedback_tcp(const options& opt, const scale& sizes, report& rep);

/// A borrowed-by-requests trace block for one qubit plus the serial
/// reference outputs and prepared labels of its rows.
struct request_block {
  std::size_t qubit = 0;
  klinq::data::trace_dataset traces;
  std::vector<std::int32_t> ref_registers;
  std::vector<float> ref_logits;
  std::vector<std::uint8_t> labels;
};

/// Copies test-split rows `rows` of `qubit` into a block.
request_block make_block(const deployment& dep,
                         const std::vector<reference>& refs, std::size_t qubit,
                         const std::vector<std::size_t>& rows);

/// `count` distinct test-split rows of `qubit`, drawn from `rng`.
std::vector<std::size_t> draw_rows(const deployment& dep, std::size_t qubit,
                                   std::size_t count, std::uint64_t stream);

/// Hash of the traces a workload serves (chained into its sequence hash).
std::uint64_t hash_blocks(const std::vector<request_block>& blocks,
                          std::uint64_t h);

/// Served-result accounting: per-qubit fidelity against prepared labels,
/// agreement with the other engine, and reference mismatches.
struct tally {
  std::array<std::uint64_t, kQubits> shots{};
  std::array<std::uint64_t, kQubits> correct{};
  std::array<std::uint64_t, kQubits> agree{};
  std::uint64_t mismatched_requests = 0;

  /// Checks a fixed-engine result (raw Q16.16 registers) bit for bit.
  bool check_fixed(const request_block& block,
                   std::span<const std::int32_t> registers,
                   std::span<const std::uint8_t> states);
  /// Checks a float-engine result bitwise against predict_batch.
  bool check_float(const request_block& block, std::span<const float> logits,
                   std::span<const std::uint8_t> states);
  /// Checks a serve result of either engine.
  bool check(const request_block& block,
             const klinq::serve::readout_result& result);
};

/// Set-up repetition: each repetition tears the previous serving stack down
/// (`teardown`), builds a fresh deployment and starts the serving stack on
/// it (`start`). The last deployment is kept.
struct setup_timing {
  std::vector<double> total, qsim, distill, quantize, start;
};
std::unique_ptr<deployment> run_setups(
    const scale& sizes, std::uint64_t seed, bool with_registry,
    setup_timing& timing, const std::function<void()>& teardown,
    const std::function<void(deployment&)>& start);

/// What one load phase observed. Latencies are of the workload's measured
/// request class, in seconds.
struct phase_result {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  /// Completed within the measured window (shots_per_s counts these).
  std::uint64_t shots = 0;
  std::uint64_t requests = 0;
  /// Every request of the phase, the drain after the window included.
  std::uint64_t requests_total = 0;
  std::uint64_t shots_total = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latencies;
  /// When each latency sample's request was due or sent, seconds from the
  /// phase start: latency quantiles are medians over 1-second windows.
  std::vector<double> latency_at;
  /// Closed loop only: throughput and CPU per shot of each 1-second window
  /// (shots_per_s and cpu_us_per_shot are then their medians).
  std::vector<double> window_shots_per_s;
  std::vector<double> window_cpu_us_per_shot;
  /// Send lateness, seconds: open loop, send time minus due time; closed
  /// loop, submit time minus when the slot's previous request was collected.
  std::vector<double> lag;
  /// Bench-timed readout_server::submit calls, seconds.
  std::vector<double> submit_seconds;
  double offered_per_second = 0.0;
};

/// Prints the host's CPU steal share between two cpu_steal_ticks() readings.
void print_steal(report& rep, std::pair<double, double> before,
                 std::pair<double, double> after);

/// Prints the latency-limit verdict of an open-loop workload: the p99 of
/// `latencies` (seconds; a failed request carries a huge value and so
/// misses) against `limit`, and the share of requests over it.
void print_slo(report& rep, const std::string& what,
               const std::vector<double>& latencies, double limit);

/// Adds a phase's requests to the result line's attempted/failed counts
/// and its reference mismatches to the correctness verdict.
void account(report& rep, const phase_result& phase, const tally& t);

/// Latency quantile q of a phase: the median over its 1-second windows of
/// each window's quantile, counting windows with at least ten samples beyond
/// the quantile (the whole phase's quantile when none has). A short burst
/// of host vCPU steal lands in a few windows; the median keeps it from
/// deciding a run's figure.
double windowed_quantile(const phase_result& phase, double q);

/// Adds every end-to-end metric (plus failed_ratio and the paper anchor
/// lines) for the untraced measured phase.
void add_end_to_end(report& rep, const phase_result& phase, const tally& t,
                    const setup_timing& timing);

/// Adds the setup.* layer metrics.
void add_setup_layers(report& rep, const setup_timing& timing);

/// Difference of a histogram family (series matching `match`) between two
/// snapshots of the same registry.
klinq::obs::histogram_data histogram_delta(
    const klinq::obs::metrics_snapshot& after,
    const klinq::obs::metrics_snapshot& before, const std::string& family,
    const klinq::obs::label_list& match = {});
double counter_delta(const klinq::obs::metrics_snapshot& after,
                     const klinq::obs::metrics_snapshot& before,
                     const std::string& family);

/// Serve-layer metrics of one traced phase, read through two snapshots of
/// the server's metrics, plus the bench-timed submit calls.
void add_serve_layers(report& rep, const klinq::obs::metrics_snapshot& after,
                      const klinq::obs::metrics_snapshot& before,
                      const phase_result& traced, double shots_per_second,
                      double block_ns_per_shot, std::size_t workers);

/// Isolated engine cost (ns) of evaluating one request of `shots` rows on
/// its own, serially — the reconciliation's model of one request's exec.
using request_cost_fn = std::function<double(std::size_t shots)>;

/// Loopback TCP probe of the net layer for the in-process workloads: single-
/// shot feedback requests through a temporary front end, traced at 100 %.
struct net_probe {
  std::vector<klinq::obs::trace_span> spans;
  double busy_ratio = 0.0;
  double bytes_per_request = 0.0;
  std::uint64_t requests = 0;
};

/// pool.cpu_busy_fraction and loadgen.* of the untraced measured phase.
void add_load_layers(report& rep, const phase_result& measured);

/// net.bulk_rtt_p99_us, net.busy_ratio and net.bytes_per_request of an
/// in-process workload: every request there is a bulk-lane round trip, and
/// the counters come from the loopback probe.
void add_in_process_net_layers(report& rep, const phase_result& measured,
                               const net_probe& probe);

/// Span analysis of a traced phase: per-name self times, the net/wire
/// layer metrics, obs.* and layers.* reconciliation. `root` is the span
/// name of one observed request ("bench.request" or "client.rtt").
struct trace_inputs {
  const klinq::obs::trace_ring* ring = nullptr;
  /// In-process workloads: the net.* span metrics come from this probe.
  const net_probe* probe = nullptr;
  std::string root;
  /// Child span names whose durations, summed per request and divided by
  /// its latency, give layers.latency_coverage (median over requests).
  std::vector<std::string> latency_layers;
  /// Whether the root's self time is the wire layer (TCP).
  bool root_self_is_wire = false;
  double untraced_latency_p50 = 0.0;
  double traced_latency_p50 = 0.0;
  /// Σ isolated cost of the traced phase's completed requests (ns) and the
  /// served Σ shard execution time (s).
  double isolated_exec_ns = 0.0;
  double served_exec_seconds = 0.0;
  std::string chrome_trace_path;
};
void add_trace_layers(report& rep, const trace_inputs& in);

/// Tolerances the traced run states for the reconciliation metrics; the
/// smoke self-test fails a traced run outside them.
inline constexpr double kExecCoverageMin = 0.33;
inline constexpr double kExecCoverageMax = 3.0;
inline constexpr double kLatencyCoverageMin = 0.7;
inline constexpr double kLatencyCoverageMax = 1.3;

/// Run-context lines: CPUs, affinity, cgroup quota, pool workers, SIMD
/// tiers, float path, build type, seed, rates and limits.
void print_context(report& rep, const options& opt,
                   const std::string& load_model);

}  // namespace perfbench
