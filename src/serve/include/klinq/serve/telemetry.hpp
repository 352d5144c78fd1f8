// Serving telemetry surface. Latency histograms are the stack-wide
// `obs::log_histogram` (klinq/obs/histogram.hpp).
//
// `server_stats` remains the one-call lifetime summary. Since the obs PR it
// is a *view*: readout_server keeps every count in labeled metric families
// (per-{qubit, engine, status} counters, per-stage histograms — see
// readout_server::metrics()) and stats() sums them back into this flat
// struct, so existing callers and tests see identical numbers while
// dashboards get the labeled series.
#pragma once

#include <cstddef>
#include <cstdint>

namespace klinq::serve {

/// Point-in-time snapshot of a server's counters.
struct server_stats {
  std::uint64_t requests_submitted = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t shots_submitted = 0;
  std::uint64_t shots_completed = 0;
  /// Requests routed through the coalescing path (held and merged with
  /// other small same-(qubit, engine) requests).
  std::uint64_t requests_coalesced = 0;
  /// Merged batches dispatched: each one cost a single pool round-trip and
  /// arena acquisition for all of its member requests.
  std::uint64_t coalesced_batches = 0;
  /// Requests whose shots ran inside a shared lane-packed kernel tile
  /// (server_config::lane_pack_shots; results stay bit-identical to
  /// unpacked execution).
  std::uint64_t packed_requests = 0;
  /// Lane-packed tiles dispatched: each one evaluated several requests'
  /// shots through a single fc_plane / mac_tile kernel invocation.
  std::uint64_t packed_batches = 0;
  /// Shard-completion events delivered to server_config::on_shard.
  std::uint64_t shard_events = 0;
  /// Times a submit acquired a different model version for a qubit than that
  /// qubit's previous request saw — the observed registry churn rate.
  /// Always 0 with a static (construction-time) engine binding.
  std::uint64_t version_switches = 0;
  /// Requests that resolved with request_status::failed (a shard or
  /// on_shard callback threw). Counted at completion time, so drain() and
  /// the destructor surface failures even when nobody wait()s the ticket.
  std::uint64_t failed_requests = 0;
  /// Requests that resolved with request_status::timed_out (deadline
  /// expired before every shard ran).
  std::uint64_t timed_out_requests = 0;
  /// Requests that resolved with request_status::cancelled.
  std::uint64_t cancelled_requests = 0;
  /// Individual shard executions that threw (several may belong to one
  /// failed request).
  std::uint64_t shard_failures = 0;
  /// Automatic version demotions this server triggered: failure_threshold
  /// consecutive shard failures on a qubit asked the engine provider to
  /// demote the failing version and the provider switched (the registry
  /// rolls back to last-known-good).
  std::uint64_t rollbacks = 0;
  /// Requests submitted on the feedback lane (bypass coalescing, urgent
  /// dispatch); bulk-lane submissions are requests_submitted minus this.
  std::uint64_t feedback_requests = 0;
  /// Requests submitted but not yet consumed by wait().
  std::size_t inflight = 0;
  double uptime_seconds = 0.0;
  /// Lifetime throughput: shots_completed / uptime.
  double shots_per_second = 0.0;
  /// Request latency (submit → completion) quantiles.
  double latency_p50_seconds = 0.0;
  double latency_p99_seconds = 0.0;
  /// Per-lane latency quantiles (the SLO view: feedback must stay bounded
  /// while bulk saturates). 0 when that lane has seen no completions.
  double feedback_p50_seconds = 0.0;
  double feedback_p99_seconds = 0.0;
  double bulk_p50_seconds = 0.0;
  double bulk_p99_seconds = 0.0;

  /// Throws invalid_argument_error when the counters are mutually
  /// inconsistent (completed > submitted, a terminal-status sum exceeding
  /// completions, packed without coalesced, negative quantiles, ...) — the
  /// invariant check the chaos harnesses run after every scenario to prove
  /// ticket accounting reconciled exactly.
  void validate() const;
};

}  // namespace klinq::serve
