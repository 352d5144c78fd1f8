// Streaming multi-qubit readout server (the ROADMAP's "multi-qubit sharded
// serving" item).
//
// submit() splits a (qubit × trace-block) request into shards and enqueues
// them on the shared thread pool; shards of different requests — and of
// different qubits — interleave freely because every qubit's discriminator
// is independent (the paper's per-qubit property). Results come back through
// tickets: poll() to test, wait() to block and collect. All shard outputs
// are bit-identical to the serial per-qubit path (Q16.16 registers and
// float logits), enforced by tests/test_serve.cpp.
//
// Backpressure: at most `max_inflight` tickets may be unresolved at once;
// submit() blocks until a slot frees, try_submit() returns nullopt instead.
// This bounds both queue memory and result-buffer memory under sustained
// overload.
//
// Request coalescing (ROADMAP item): with `coalesce_shots` > 0, requests of
// at most that many shots are held in a per-(qubit, engine) pending batch
// and merged into ONE dispatched task — one queue round-trip and one arena
// acquisition for the whole batch — once the batch accumulates a full
// shard's worth of shots. Partial batches are flushed by wait() (only the
// awaited ticket's batch — other streams keep accumulating), by drain() and
// destruction (everything), and whenever the inflight window would
// otherwise fill with undispatched parked work (submit at capacity,
// try_submit returning nullopt, or parking itself meeting a full window) —
// so every ticket completes and non-blocking producers cannot livelock.
// poll() alone does NOT flush (a held ticket polls false until something
// flushes). Members keep their own tickets/results, bit-identical to
// uncoalesced execution; the trade is per-request latency (hold time is
// included in the latency telemetry) for amortized per-request accounting —
// built for mid-circuit clients streaming many small same-qubit blocks.
//
// Cross-request lane packing: with `lane_pack_shots` > 0, members of a
// merged batch whose shot counts fit the budget are additionally grouped —
// per pinned engine version and trace duration — into shared 64-lane kernel
// tiles, so one fc_plane / mac_tile invocation evaluates many requests'
// shots at once instead of each single-shot member paying a full padded
// tile alone. Results stay bit-identical to unpacked execution (exact
// integer datapath, lane-invariant float plane kernels), and each member
// resolves individually (its own status, deadline, cancellation, on_shard
// event, and stage spans). Keying on the trace duration keeps members
// independent: a member that fails alone (say, a trace duration the engine
// was not built for) never shares a tile with members that would not.
//
// Execution model: every scheduler task runs segments — (request, row
// range) pairs — through one executor. A shard is one segment; a merged
// batch is cut into packs of segments (a member that does not pack is a
// pack of one). Per call the executor runs per-segment skip checks
// (cancellation, deadline, the "serve.shard.run" fault site), one engine
// call (logits_block / predict_block for one segment, logits_lanes /
// predict_lanes over the gathered lanes for more), per-segment on_shard
// events, one locked completion block, and then — with no lock held — the
// doorbells of the requests it resolved.
//
// Steady-state allocation: completed slots and shard arenas are recycled
// through free-lists. The wait(ticket, result&) overload swaps buffers with
// the caller, so a submit/wait loop that reuses one readout_result performs
// zero heap allocations once warm.
//
// Engine acquisition: the server resolves a request's engines through an
// engine_provider at submit time (the vector constructor wraps a static
// provider for the original fixed-binding behavior). A versioned provider —
// klinq::registry::model_registry — may hot-swap models while traffic flows:
// each request pins the version active at its submit and every one of its
// shards runs on that snapshot (the lease's shared_ptr keeps it alive), so
// publication is never disruptive and no request observes a torn model.
//
// Streaming partial results: server_config::on_shard delivers each finished
// shard's row range (decisions + engine-native logits) from the worker
// thread that produced it, before the whole request drains — see
// shard_event in request.hpp for the aliasing/threading contract.
//
// Failure model: a request always resolves — as ok, timed_out (its deadline
// expired before every shard ran; late answers are worthless to feedback
// loops, so unstarted shards are skipped rather than computed), cancelled
// (cancel(ticket) landed in flight), or failed (a shard threw; wait()
// rethrows). Skipped and failed shards still run completion accounting, so
// wait() never blocks forever, arenas return to the pool, and coalesced
// batches drain. Persistent failures self-heal: failure_threshold
// consecutive shard failures on one qubit ask the engine provider to demote
// the serving version (the registry rolls back to last-known-good) before
// the failing request resolves, so its wait() already sees the rollback. The
// fault points compiled into this path (klinq/fault/fault.hpp:
// "serve.submit.lease", "serve.shard.run") let tests and the --chaos demo
// inject all of it deterministically.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "klinq/common/stopwatch.hpp"
#include "klinq/obs/flight_recorder.hpp"
#include "klinq/obs/metrics.hpp"
#include "klinq/obs/trace.hpp"
#include "klinq/serve/engine_provider.hpp"
#include "klinq/serve/request.hpp"
#include "klinq/serve/shard_scheduler.hpp"
#include "klinq/serve/telemetry.hpp"

namespace klinq::serve {

struct server_config {
  /// Rows per shard; 0 = scheduler default (four cache tiles). Validated at
  /// server construction: values above kMaxShardShots (a wrapped negative
  /// from a careless cast, say) are rejected instead of silently clamped.
  std::size_t shard_shots = 0;
  /// Maximum unresolved tickets before submit() blocks. Must be positive.
  std::size_t max_inflight = 64;
  /// Requests with at most this many shots are held and merged with other
  /// pending small requests for the same (qubit, engine) into one dispatched
  /// batch (see the coalescing note above). 0 disables coalescing.
  std::size_t coalesce_shots = 0;
  /// Cross-request lane packing inside coalesced batches: members with at
  /// most this many shots are grouped (per pinned engine version and trace
  /// duration) into shared kernel tiles of up to kMaxLanePackShots lanes —
  /// one plane-kernel dispatch for many requests' shots, bit-identical to
  /// unpacked execution (see the lane-packing note above). 0 disables
  /// packing; values above kMaxLanePackShots are rejected. Effective only
  /// together with coalesce_shots > 0, since packing operates on merged
  /// batches.
  std::size_t lane_pack_shots = 0;
  /// Streaming partial results: invoked from worker threads as each shard of
  /// a request finishes (see shard_callback's contract in request.hpp).
  /// Empty disables the per-shard notifications.
  shard_callback on_shard;
  /// Deadline applied to requests that do not carry their own
  /// readout_request::deadline_seconds; 0 = no default deadline. Must be
  /// finite and non-negative.
  double default_deadline_seconds = 0.0;
  /// Deadline applied to *feedback-lane* requests that carry no explicit
  /// deadline — feedback callers are deadline-scheduled by definition, so
  /// they get their own (typically much tighter) default. 0 falls back to
  /// default_deadline_seconds. Must be finite and non-negative.
  double feedback_default_deadline_seconds = 0.0;
  /// Completion doorbell: invoked exactly once per submitted ticket at the
  /// moment it reaches a terminal status, with no server lock held (see
  /// completion_callback in request.hpp). Empty disables it. The TCP front
  /// end uses this to drive its completion thread instead of polling.
  completion_callback on_complete;
  /// Consecutive shard failures on one qubit before the server asks the
  /// engine provider to demote the serving version (the registry rolls back
  /// to last-known-good and marks the qubit degraded; a static binding
  /// ignores the request). The counter resets on any successful shard and
  /// after each demotion attempt. Must be positive — effectively disable
  /// the policy with a large value, not 0.
  std::size_t failure_threshold = 8;
  /// Metrics backend (borrowed; must outlive the server). Null — the
  /// default — gives the server a private registry, so per-server counts
  /// stay isolated; point it at obs::default_registry() (as klinq_serve
  /// does) to land every subsystem in one dump. Either way the families
  /// are identical and readable through readout_server::metrics().
  obs::metric_registry* metrics = nullptr;
  /// Flight recorder capacities: every anomalous (failed / timed-out /
  /// cancelled) completion is kept in a ring of `flight_anomalies`, and
  /// the `flight_slowest` slowest ok completions are kept alongside. 0/0
  /// disables capture entirely (the completion-path gate is one relaxed
  /// load either way).
  std::size_t flight_anomalies = 32;
  std::size_t flight_slowest = 8;
  /// Distributed-tracing sink (borrowed; must outlive the server). When set
  /// and armed, requests carrying a nonzero readout_request::trace_id get
  /// their hold/queue/exec stage spans recorded here on completion, on the
  /// same trace_clock_us timeline the network layers stamp. Null — the
  /// default — records nothing; untraced requests cost one branch.
  obs::trace_ring* traces = nullptr;

  /// Largest accepted shard_shots / coalesce_shots value; anything above is
  /// a config bug, not a workload.
  static constexpr std::size_t kMaxShardShots = std::size_t{1} << 24;

  /// Largest lane_pack_shots value — one engine kernel tile
  /// (hw::quantized_network::kBatchTile == nn::kernels::max_tile_lanes), the
  /// unit both packed executors evaluate at once.
  static constexpr std::size_t kMaxLanePackShots = 64;

  /// Throws invalid_argument_error on any inconsistent field (also run by
  /// the readout_server constructor, so a bad config never half-starts a
  /// server).
  void validate() const;
};

class readout_server {
 public:
  /// Serves the given per-qubit engines (borrowed; must outlive the server)
  /// with a fixed construction-time binding — every result reports model
  /// version 0. Each entry must expose at least one datapath; throws
  /// invalid_argument_error otherwise (and for an empty vector or an invalid
  /// config).
  explicit readout_server(std::vector<qubit_engine> qubits,
                          server_config config = {});

  /// Serves engines acquired per request from `provider` (borrowed; must
  /// outlive the server) — the hot-swap path: each submit pins the version
  /// active at submit time for every shard of that request, and results
  /// report it in readout_result::model_version.
  explicit readout_server(const engine_provider& provider,
                          server_config config = {});

  /// Blocks until every enqueued shard has finished. Unconsumed results are
  /// discarded — but not silently: every dropped non-ok result is logged
  /// (its counters were already recorded at completion time).
  ~readout_server();

  readout_server(const readout_server&) = delete;
  readout_server& operator=(const readout_server&) = delete;

  std::size_t qubit_count() const noexcept { return provider_->qubit_count(); }
  std::size_t shard_shots() const noexcept { return scheduler_.shard_shots(); }

  /// Enqueues a request, blocking while the server is at max_inflight.
  /// Throws invalid_argument_error for a bad qubit index, null traces, or a
  /// missing engine path.
  ticket submit(const readout_request& request);

  /// Non-blocking submit: nullopt when the server is at max_inflight.
  std::optional<ticket> try_submit(const readout_request& request);

  /// True once the ticket's result is complete and its completion doorbell
  /// has returned (wait() will not block).
  bool poll(ticket t) const;

  /// Blocks until complete and returns the result, consuming the ticket.
  /// The result's `status` reports how it resolved (ok / timed_out /
  /// cancelled); a failed request rethrows its first shard error instead.
  readout_result wait(ticket t);

  /// Zero-allocation variant: swaps the completed buffers into `out`
  /// (out's previous buffers are recycled into the slot pool).
  void wait(ticket t, readout_result& out);

  /// Requests cancellation of an in-flight ticket: shards that have not
  /// started are skipped (running shards finish — cancellation is
  /// shard-granular) and the ticket resolves with
  /// request_status::cancelled. Returns false when the request had already
  /// completed (its result stays claimable as-is); throws for an unknown or
  /// consumed ticket. The ticket must still be consumed by wait().
  bool cancel(ticket t);

  /// Blocks until every currently submitted request has completed (results
  /// stay claimable by ticket).
  void drain();

  /// Installs (or clears) the completion doorbell after construction. Only
  /// legal while no ticket is unresolved — swapping the callback under live
  /// traffic would let in-flight completions race the handoff.
  void set_on_complete(completion_callback callback);

  server_stats stats() const;

  /// The metric registry backing this server's labeled families (the
  /// private one, or server_config::metrics when shared). Snapshot/export
  /// through it: metrics().prometheus_text(), metrics().snapshot(), ...
  const obs::metric_registry& metrics() const noexcept { return *metrics_; }

  /// Flight-recorder contents: every anomalous completion (bounded ring)
  /// plus the slowest ok requests, each with its hold/queue/exec span
  /// breakdown. See server_config::flight_anomalies / flight_slowest.
  std::vector<obs::flight_record> flight_records() const {
    return recorder_.records();
  }

  /// The underlying recorder (internally synchronized) — the /statusz data
  /// source for net::install_introspection_handlers.
  const obs::flight_recorder& recorder() const noexcept { return recorder_; }

 private:
  static constexpr std::uint64_t kNoVersionYet =
      ~static_cast<std::uint64_t>(0);

  struct slot {
    std::uint64_t id = 0;
    /// The request's borrowed trace block (immutable after submit).
    const data::trace_dataset* traces = nullptr;
    readout_result result;
    std::size_t shots = 0;
    std::size_t remaining_shards = 0;  // guarded by mutex_
    bool done = false;                 // guarded by mutex_
    /// The completion doorbell has returned (set with `done` when none is
    /// configured); the ticket is claimable only from then on. Guarded by
    /// mutex_.
    bool rung = false;
    std::exception_ptr error;          // first shard failure; rethrown by wait
    stopwatch timer;
    /// Effective deadline (seconds from submit; 0 = none). Immutable after
    /// submit, so shard executors read it without the mutex.
    double deadline_seconds = 0.0;
    /// Set by cancel() under mutex_ (so it cannot race the done flag), read
    /// lock-free by shard executors deciding whether to skip.
    std::atomic<bool> cancelled{false};
    /// Latency class, immutable after submit (per-lane SLO accounting).
    lane_class lane = lane_class::bulk;
    /// A shard was skipped because the deadline had expired (guarded by
    /// mutex_).
    bool deadline_expired = false;
    /// The request's pinned model view: set at submit, read (lock-free) by
    /// every shard executor, released when the last shard completes.
    engine_lease lease;
    // --- stage-tracing timestamps, all seconds relative to `timer` -------
    /// When the request left the submit path for the scheduler (≈0 for a
    /// direct dispatch; the coalesce hold time for a parked member).
    /// Stamped under mutex_ at the moment the slot leaves the submit path or
    /// its batch leaves pending_ — never after the unlock — so a hold span
    /// can neither race a concurrent submit nor run past the dispatch point.
    double dispatch_at = 0.0;
    /// Earliest shard-execution start (min across shards; guarded by
    /// mutex_). Negative until the first shard reports in.
    double first_exec_at = -1.0;
    /// Total shards this request was split into (for flight records).
    std::size_t shard_count = 0;
    // --- wire tracing (sampled requests only) ----------------------------
    /// Trace correlation copied from the readout_request at submit; 0 means
    /// untraced and the span-emission branch in finish_request_locked is
    /// skipped entirely.
    std::uint64_t trace_id = 0;
    std::uint64_t trace_parent = 0;
    /// trace_clock_us() at submit — the absolute anchor that places the
    /// relative stage stamps (dispatch_at / first_exec_at / latency) on the
    /// shared trace timeline. Stamped only for traced requests.
    std::uint64_t submit_us = 0;
  };

  /// The executor's unit of work: rows [begin, end) of one request. A shard
  /// is one segment; a parked coalescing member is one segment covering its
  /// whole block.
  struct segment {
    slot* s = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  struct pending_batch {
    std::vector<segment> members;
    std::size_t shots = 0;
  };

  /// Validates the request and acquires the provider's current engines for
  /// it — the version active now is the one every shard of this request will
  /// run on.
  engine_lease lease_for(const readout_request& request) const;
  ticket submit_locked(const readout_request& request, engine_lease lease,
                       std::unique_lock<std::mutex>& lock);
  /// The one executor: runs segments sharing a pinned engine — one shard,
  /// or a pack of at most kMaxLanePackShots lanes — as described in the
  /// execution-model note above.
  void execute(std::span<const segment> segments, shard_arena& arena);
  /// Enqueues a merged batch as one scheduler task. The batch must already
  /// be stamped (stamp_dispatch_locked) — its members left pending_ under
  /// the lock that called this.
  void dispatch_batch(pending_batch batch);
  /// Runs a merged batch inside its scheduler task: members with shots <=
  /// lane_pack_shots are grouped by (pinned engine, trace duration) and cut
  /// into packs of at most kMaxLanePackShots lanes; everything else runs as
  /// a lone segment. Each pack is one execute() call.
  void run_batch(const std::vector<segment>& members, shard_arena& arena);
  /// Stamps the coalesce-hold end on every member. Requires mutex_ — the
  /// batch must be leaving pending_ under the same lock, so no member can
  /// join after the stamp.
  void stamp_dispatch_locked(pending_batch& batch);
  /// Dispatches every parked coalescing batch (drain/teardown and
  /// capacity-limited submits call this so held tickets always complete;
  /// submit_locked also flushes whenever parking would leave the inflight
  /// window full of undispatched work).
  void flush_pending();
  /// Dispatches only the parked batch holding `t` (no-op when the ticket is
  /// not parked) — wait()'s flush, which leaves other streams' batches
  /// accumulating so prompt waiters don't defeat the amortization.
  void flush_pending_for(ticket t);
  /// Removes every parked batch from pending_ into `out` (caller dispatches
  /// after unlocking).
  void take_pending_locked(std::vector<pending_batch>& out);
  void recycle_locked(std::unique_ptr<slot> s, readout_result* swap_with);

  /// Backs the vector constructor; null when serving an external provider.
  std::unique_ptr<static_engine_provider> owned_provider_;
  const engine_provider* provider_ = nullptr;
  server_config config_;
  shard_scheduler scheduler_;

  mutable std::mutex mutex_;
  std::condition_variable completed_;  // slot done / all shards drained
  std::condition_variable capacity_;   // inflight dropped below the bound
  std::uint64_t next_ticket_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<slot>> active_;
  std::vector<std::unique_ptr<slot>> free_slots_;
  std::size_t outstanding_shards_ = 0;
  /// Parked coalescing batches keyed by qubit * 2 + engine (guarded by
  /// mutex_; their slots already live in active_ and count against
  /// max_inflight and outstanding_shards_).
  std::unordered_map<std::uint64_t, pending_batch> pending_;

  // --- telemetry: labeled metric cells -----------------------------------
  // Every count lives in a metric family of `metrics_` (the private
  // registry, or server_config::metrics). Handles are pre-resolved here so
  // the submit/shard paths never touch a registry lock — recording is the
  // cell's relaxed atomic. stats() sums the cells back into server_stats.

  /// Per-(qubit, engine, status) stage-histogram handles. The `ok` column
  /// is resolved at construction (the hot path); anomalous statuses are
  /// resolved lazily at their first completion (under mutex_ — the
  /// anomaly path is not throughput-critical until it happens once).
  struct stage_cells {
    obs::log_histogram* hold = nullptr;
    obs::log_histogram* queue = nullptr;
    obs::log_histogram* exec = nullptr;
  };
  /// Handles for one (qubit, engine) pair.
  struct engine_cells {
    obs::counter* submitted = nullptr;
    obs::counter* shots_submitted = nullptr;
    obs::counter* shots_completed = nullptr;
    obs::counter* shard_failures = nullptr;       // lazy (failure path)
    std::array<obs::counter*, 4> completed{};     // by request_status
    std::array<stage_cells, 4> stages{};          // by request_status
    obs::log_histogram* shard_exec = nullptr;
  };
  struct qubit_cells {
    obs::counter* version_switches = nullptr;
    obs::counter* rollbacks = nullptr;            // lazy (failure path)
  };

  /// Resolves the eager handle tables against metrics_.
  void init_metrics();
  /// Returns the (qubit, engine, status) cells, resolving lazily for
  /// non-ok statuses. Requires mutex_ (the lazy write).
  engine_cells& cells_locked(std::size_t qubit, engine_kind engine);
  stage_cells& stages_locked(std::size_t qubit, engine_kind engine,
                             request_status status);
  /// Resolves a request whose last segment just completed (or a zero-shot
  /// request at submit): marks it done, releases its lease, fixes its
  /// latency and terminal status (cancelled > timed_out > failed > ok), then
  /// records the status counters, stage/latency histograms, trace spans and
  /// flight-recorder capture. The only place a terminal status is decided.
  /// Requires mutex_.
  void finish_request_locked(slot* raw);
  /// Failure accounting for one thrown shard, run before that shard counts
  /// as done: bumps the failure counters and, at failure_threshold
  /// consecutive failures, has the provider demote `version` (outside
  /// mutex_, which it takes itself).
  void record_shard_failure(std::size_t qubit, engine_kind engine,
                            std::uint64_t version);
  /// Rings the completion doorbell for a request that just resolved, with
  /// no server lock held, then makes its ticket claimable. No-op on the
  /// doorbell side when none is configured (the ticket is already
  /// claimable).
  void ring_doorbell(slot* raw, ticket t, request_status status);

  std::unique_ptr<obs::metric_registry> owned_metrics_;
  obs::metric_registry* metrics_ = nullptr;
  obs::flight_recorder recorder_;

  stopwatch uptime_;
  std::vector<std::array<engine_cells, 2>> cells_;  // [qubit][engine_kind]
  std::vector<qubit_cells> qubit_cells_;
  obs::counter* requests_coalesced_cell_ = nullptr;
  obs::counter* coalesced_batches_cell_ = nullptr;
  obs::counter* packed_requests_cell_ = nullptr;
  obs::counter* packed_batches_cell_ = nullptr;
  obs::counter* shard_events_cell_ = nullptr;
  obs::gauge* inflight_cell_ = nullptr;
  obs::log_histogram* request_seconds_ = nullptr;
  /// Per-lane SLO series, indexed by lane_class: submissions and
  /// submit→completion latency (the feedback-vs-bulk separation the network
  /// front end's scheduler must demonstrate).
  std::array<obs::counter*, 2> lane_submitted_{};
  std::array<obs::log_histogram*, 2> lane_seconds_{};
  /// Occupied lanes per dispatched pack (1..kMaxLanePackShots) — how full
  /// the shared tiles actually run.
  obs::log_histogram* lane_occupancy_ = nullptr;

  /// Consecutive shard failures per qubit (guarded by mutex_); reaching
  /// config_.failure_threshold triggers a provider demote and resets.
  std::vector<std::size_t> consecutive_failures_;
  /// Last acquired version per qubit (guarded by mutex_); the sentinel marks
  /// "no request yet" so the first acquisition is not counted as a switch.
  std::vector<std::uint64_t> last_version_;
};

}  // namespace klinq::serve
