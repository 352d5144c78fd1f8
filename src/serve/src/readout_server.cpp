#include "klinq/serve/readout_server.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iterator>
#include <span>
#include <string>
#include <utility>

#include "klinq/common/error.hpp"
#include "klinq/common/log.hpp"
#include "klinq/fault/fault.hpp"

namespace klinq::serve {

const char* engine_name(engine_kind engine) noexcept {
  switch (engine) {
    case engine_kind::fixed_q16:
      return "fixed-q16.16";
    case engine_kind::float_student:
      return "float-student";
  }
  return "unknown";
}

const char* status_name(request_status status) noexcept {
  switch (status) {
    case request_status::ok:
      return "ok";
    case request_status::timed_out:
      return "timed-out";
    case request_status::cancelled:
      return "cancelled";
    case request_status::failed:
      return "failed";
  }
  return "unknown";
}

const char* lane_name(lane_class lane) noexcept {
  switch (lane) {
    case lane_class::bulk:
      return "bulk";
    case lane_class::feedback:
      return "feedback";
  }
  return "unknown";
}

engine_lease static_engine_provider::acquire(std::size_t qubit) const {
  KLINQ_REQUIRE(qubit < qubits_.size(),
                "static_engine_provider: qubit index out of range");
  return {qubits_[qubit], 0, nullptr};
}

void server_config::validate() const {
  KLINQ_REQUIRE(max_inflight > 0,
                "server_config: max_inflight must be positive");
  KLINQ_REQUIRE(shard_shots <= kMaxShardShots,
                "server_config: shard_shots is implausibly large (wrapped "
                "negative?)");
  KLINQ_REQUIRE(coalesce_shots <= kMaxShardShots,
                "server_config: coalesce_shots is implausibly large (wrapped "
                "negative?)");
  KLINQ_REQUIRE(lane_pack_shots <= kMaxLanePackShots,
                "server_config: lane_pack_shots exceeds one kernel tile "
                "(kMaxLanePackShots)");
  KLINQ_REQUIRE(
      std::isfinite(default_deadline_seconds) &&
          default_deadline_seconds >= 0.0,
      "server_config: default_deadline_seconds must be finite and "
      "non-negative");
  KLINQ_REQUIRE(failure_threshold > 0,
                "server_config: failure_threshold must be positive (disable "
                "the demote policy with a large value, not 0)");
  KLINQ_REQUIRE(
      std::isfinite(feedback_default_deadline_seconds) &&
          feedback_default_deadline_seconds >= 0.0,
      "server_config: feedback_default_deadline_seconds must be finite and "
      "non-negative");
}

void server_stats::validate() const {
  KLINQ_REQUIRE(requests_completed <= requests_submitted,
                "server_stats: more completions than submissions");
  KLINQ_REQUIRE(
      failed_requests + timed_out_requests + cancelled_requests <=
          requests_completed,
      "server_stats: terminal-status counts exceed total completions");
  KLINQ_REQUIRE(shots_completed <= shots_submitted,
                "server_stats: more shots completed than submitted");
  KLINQ_REQUIRE(requests_coalesced <= requests_submitted,
                "server_stats: more coalesced requests than submissions");
  KLINQ_REQUIRE(packed_requests <= requests_coalesced,
                "server_stats: lane packing only applies to coalesced "
                "requests");
  KLINQ_REQUIRE(coalesced_batches <= requests_coalesced,
                "server_stats: a merged batch needs at least one member");
  KLINQ_REQUIRE(packed_batches <= packed_requests,
                "server_stats: a lane pack needs at least one member");
  KLINQ_REQUIRE(feedback_requests <= requests_submitted,
                "server_stats: more feedback submissions than submissions");
  // inflight counts unconsumed tickets (completed-but-unclaimed slots
  // included), so it is bounded by submissions, not by their difference
  // from completions.
  KLINQ_REQUIRE(inflight <= requests_submitted,
                "server_stats: inflight exceeds submissions");
  const auto non_negative = [](double v) {
    return std::isfinite(v) && v >= 0.0;
  };
  KLINQ_REQUIRE(non_negative(uptime_seconds) &&
                    non_negative(shots_per_second) &&
                    non_negative(latency_p50_seconds) &&
                    non_negative(latency_p99_seconds) &&
                    non_negative(feedback_p50_seconds) &&
                    non_negative(feedback_p99_seconds) &&
                    non_negative(bulk_p50_seconds) &&
                    non_negative(bulk_p99_seconds),
                "server_stats: negative or non-finite timing field");
  KLINQ_REQUIRE(feedback_p50_seconds <= feedback_p99_seconds ||
                    feedback_p99_seconds == 0.0,
                "server_stats: feedback p50 exceeds p99");
  KLINQ_REQUIRE(bulk_p50_seconds <= bulk_p99_seconds ||
                    bulk_p99_seconds == 0.0,
                "server_stats: bulk p50 exceeds p99");
}

readout_server::readout_server(std::vector<qubit_engine> qubits,
                               server_config config)
    : owned_provider_(std::make_unique<static_engine_provider>(
          [&qubits] {
            KLINQ_REQUIRE(!qubits.empty(), "readout_server: no qubit engines");
            for (const qubit_engine& engine : qubits) {
              KLINQ_REQUIRE(
                  engine.student != nullptr || engine.hardware != nullptr,
                  "readout_server: qubit engine exposes no datapath");
            }
            return std::move(qubits);
          }())),
      provider_(owned_provider_.get()),
      config_(std::move(config)),
      scheduler_(global_thread_pool(), config_.shard_shots),
      recorder_(config_.flight_anomalies, config_.flight_slowest),
      consecutive_failures_(provider_->qubit_count(), 0),
      last_version_(provider_->qubit_count(), kNoVersionYet) {
  config_.validate();
  init_metrics();
}

readout_server::readout_server(const engine_provider& provider,
                               server_config config)
    : provider_(&provider),
      config_(std::move(config)),
      scheduler_(global_thread_pool(), config_.shard_shots),
      recorder_(config_.flight_anomalies, config_.flight_slowest),
      consecutive_failures_(provider_->qubit_count(), 0),
      last_version_(provider_->qubit_count(), kNoVersionYet) {
  KLINQ_REQUIRE(provider_->qubit_count() > 0,
                "readout_server: provider serves no qubits");
  config_.validate();
  init_metrics();
}

namespace {

obs::log_histogram& stage_histogram(obs::metric_registry& metrics,
                                    const char* stage,
                                    const std::string& qubit,
                                    const char* engine, const char* status) {
  return metrics.get_histogram(
      "klinq_serve_stage_seconds",
      {{"stage", stage}, {"qubit", qubit}, {"engine", engine},
       {"status", status}},
      "Per-request stage durations: coalesce hold, queue wait, shard "
      "execution");
}

/// Hard decisions for rows [begin, end) from the engine-native outputs —
/// the FPGA's sign-bit readout on either datapath.
void decide_states(readout_result& result, std::size_t begin,
                   std::size_t end) {
  for (std::size_t r = begin; r < end; ++r) {
    result.states[r] = result.engine == engine_kind::fixed_q16
                           ? (result.registers[r].sign_bit() ? 0 : 1)
                           : (result.logits[r] >= 0.0f ? 1 : 0);
  }
}

}  // namespace

void readout_server::init_metrics() {
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::metric_registry>();
    metrics_ = owned_metrics_.get();
  }
  obs::metric_registry& m = *metrics_;
  requests_coalesced_cell_ =
      &m.get_counter("klinq_serve_requests_coalesced_total", {},
                     "Requests routed through the coalescing path");
  coalesced_batches_cell_ =
      &m.get_counter("klinq_serve_coalesced_batches_total", {},
                     "Merged coalesced batches dispatched");
  packed_requests_cell_ =
      &m.get_counter("klinq_serve_packed_requests_total", {},
                     "Requests evaluated inside a shared lane-packed tile");
  packed_batches_cell_ =
      &m.get_counter("klinq_serve_packed_batches_total", {},
                     "Lane-packed kernel tiles dispatched");
  lane_occupancy_ =
      &m.get_histogram("klinq_serve_lane_occupancy", {},
                       "Occupied lanes per dispatched lane pack");
  shard_events_cell_ =
      &m.get_counter("klinq_serve_shard_events_total", {},
                     "Shard completions delivered to on_shard");
  inflight_cell_ = &m.get_gauge("klinq_serve_inflight", {},
                                "Submitted requests not yet consumed");
  request_seconds_ =
      &m.get_histogram("klinq_serve_request_seconds", {},
                       "Request latency, submit to completion");
  for (std::size_t l = 0; l < lane_seconds_.size(); ++l) {
    const char* ln = lane_name(static_cast<lane_class>(l));
    lane_submitted_[l] =
        &m.get_counter("klinq_serve_lane_requests_total", {{"lane", ln}},
                       "Requests accepted, by latency class");
    lane_seconds_[l] = &m.get_histogram(
        "klinq_serve_lane_seconds", {{"lane", ln}},
        "Request latency by latency class (the per-lane SLO series)");
  }
  const std::size_t qubits = provider_->qubit_count();
  cells_.resize(qubits);
  qubit_cells_.resize(qubits);
  for (std::size_t q = 0; q < qubits; ++q) {
    const std::string qs = std::to_string(q);
    qubit_cells_[q].version_switches = &m.get_counter(
        "klinq_serve_version_switches_total", {{"qubit", qs}},
        "Submits that pinned a different model version than the qubit's "
        "previous request");
    for (std::size_t e = 0; e < cells_[q].size(); ++e) {
      const char* en = engine_name(static_cast<engine_kind>(e));
      const obs::label_list qe{{"qubit", qs}, {"engine", en}};
      engine_cells& cells = cells_[q][e];
      cells.submitted = &m.get_counter("klinq_serve_requests_submitted_total",
                                       qe, "Requests accepted by submit");
      cells.shots_submitted = &m.get_counter(
          "klinq_serve_shots_submitted_total", qe, "Shots accepted");
      cells.shots_completed =
          &m.get_counter("klinq_serve_shots_completed_total", qe,
                         "Shots whose request completed");
      // The ok column is the hot path and resolves eagerly; anomalous
      // statuses materialize on first occurrence (finish_request_locked).
      cells.completed[0] = &m.get_counter(
          "klinq_serve_requests_completed_total",
          {{"qubit", qs}, {"engine", en}, {"status", "ok"}},
          "Requests resolved, by terminal status");
      cells.stages[0] = {&stage_histogram(m, "hold", qs, en, "ok"),
                         &stage_histogram(m, "queue", qs, en, "ok"),
                         &stage_histogram(m, "exec", qs, en, "ok")};
      cells.shard_exec = &m.get_histogram("klinq_serve_shard_exec_seconds",
                                          qe, "Single-shard execution time");
    }
  }
}

readout_server::engine_cells& readout_server::cells_locked(
    std::size_t qubit, engine_kind engine) {
  return cells_[qubit][static_cast<std::size_t>(engine)];
}

readout_server::stage_cells& readout_server::stages_locked(
    std::size_t qubit, engine_kind engine, request_status status) {
  stage_cells& st =
      cells_locked(qubit, engine).stages[static_cast<std::size_t>(status)];
  if (st.hold == nullptr) {
    const std::string qs = std::to_string(qubit);
    const char* en = engine_name(engine);
    const char* sn = status_name(status);
    st = {&stage_histogram(*metrics_, "hold", qs, en, sn),
          &stage_histogram(*metrics_, "queue", qs, en, sn),
          &stage_histogram(*metrics_, "exec", qs, en, sn)};
  }
  return st;
}

void readout_server::finish_request_locked(slot* raw) {
  raw->done = true;
  raw->rung = !config_.on_complete;
  raw->lease = engine_lease{};  // nothing runs any more: release the snapshot
  raw->result.latency_seconds = raw->timer.seconds();
  // Resolution precedence: an explicit cancel outranks expiry, expiry
  // outranks a shard error (the caller asked for the answer's absence).
  if (raw->cancelled.load(std::memory_order_relaxed)) {
    raw->result.status = request_status::cancelled;
  } else if (raw->deadline_expired) {
    raw->result.status = request_status::timed_out;
  } else if (raw->error) {
    raw->result.status = request_status::failed;
  } else {
    raw->result.status = request_status::ok;
  }
  const std::size_t qubit = raw->result.qubit;
  const engine_kind engine = raw->result.engine;
  const request_status status = raw->result.status;
  engine_cells& cells = cells_locked(qubit, engine);
  obs::counter*& completed =
      cells.completed[static_cast<std::size_t>(status)];
  if (completed == nullptr) {
    completed = &metrics_->get_counter(
        "klinq_serve_requests_completed_total",
        {{"qubit", std::to_string(qubit)}, {"engine", engine_name(engine)},
         {"status", status_name(status)}},
        "Requests resolved, by terminal status");
  }
  completed->inc();
  cells.shots_completed->inc(raw->shots);
  // Stage spans, all relative to the submit timer: hold is the coalesce
  // park time (0 for direct dispatch), queue is scheduler wait until the
  // first shard started, exec covers first shard start → last shard done.
  const double total = raw->result.latency_seconds;
  const double hold = raw->dispatch_at;
  const double first =
      raw->first_exec_at < 0.0 ? raw->dispatch_at : raw->first_exec_at;
  const double queue = first - raw->dispatch_at;
  const double exec = total - first;
  stage_cells& stages = stages_locked(qubit, engine, status);
  stages.hold->record(hold);
  stages.queue->record(queue);
  stages.exec->record(exec);
  request_seconds_->record(total);
  lane_seconds_[static_cast<std::size_t>(raw->lane)]->record(total);
  const bool anomalous = status != request_status::ok;
  if (recorder_.enabled() && recorder_.should_capture(total, anomalous)) {
    obs::flight_record rec;
    rec.id = raw->id;
    rec.kind = status_name(status);
    rec.anomalous = anomalous;
    rec.total_seconds = total;
    rec.stages = {{"hold", hold}, {"queue", queue}, {"exec", exec}};
    rec.attributes = {
        {"qubit", std::to_string(qubit)},
        {"engine", engine_name(engine)},
        {"version", std::to_string(raw->result.model_version)},
        {"shots", std::to_string(raw->shots)},
        {"shards", std::to_string(raw->shard_count)}};
    if (raw->trace_id != 0) {
      // Joins the flight record to the wire trace: grep the exported trace
      // JSON for this hex id to see the request's full timeline.
      char hex[17];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(raw->trace_id));
      rec.attributes.emplace_back("trace_id", hex);
    }
    recorder_.capture(std::move(rec));
  }
  if (raw->trace_id != 0 && config_.traces != nullptr &&
      config_.traces->armed()) {
    // The same hold/queue/exec breakdown the stage histograms aggregate,
    // placed absolutely via the submit-time anchor. All three spans share
    // the client's parent so the RTT span brackets them in the viewer.
    obs::trace_ring& ring = *config_.traces;
    auto emit = [&](const char* name, double start_s, double dur_s) {
      obs::trace_span span;
      span.trace_id = raw->trace_id;
      span.span_id = ring.next_span_id();
      span.parent_span = raw->trace_parent;
      span.start_us =
          raw->submit_us + static_cast<std::uint64_t>(start_s * 1e6);
      span.duration_us =
          static_cast<std::uint64_t>(std::max(dur_s, 0.0) * 1e6);
      span.name = name;
      span.category = "serve";
      ring.record(std::move(span));
    };
    emit("serve.hold", 0.0, hold);
    emit("serve.queue", hold, queue);
    emit("serve.exec", first, exec);
  }
}

readout_server::~readout_server() {
  // Unconsumed results are discarded, but every enqueued shard still holds a
  // pointer into this server — dispatch any parked coalescing batches, then
  // wait for all of them before tearing down.
  flush_pending();
  {
    std::unique_lock lock(mutex_);
    completed_.wait(lock, [this] { return outstanding_shards_ == 0; });
    // The drop is silent no longer: every unconsumed non-ok result is logged
    // on its way out (counters were recorded at completion time, so stats()
    // already reflected these even while unclaimed).
    for (const auto& [id, s] : active_) {
      if (s->result.status == request_status::ok) continue;
      log_warn("readout_server: dropping unconsumed ",
               status_name(s->result.status), " ticket ", id, " (qubit ",
               s->result.qubit, ", ", s->shots, " shots)");
    }
  }
  // outstanding_shards_ hits zero inside a task's locked completion block,
  // but the task *body* is still running after that: the post-notify
  // doorbell reads config_ and re-takes mutex_, both destroyed before
  // scheduler_ (reverse member order). Wait for the task bodies themselves
  // — the scheduler decrements its pending count only after a body fully
  // returns — so no shard can outlive the members it uses. The
  // cancel-during-flush TSAN hammer in test_serve.cpp regresses this.
  scheduler_.drain();
}

engine_lease readout_server::lease_for(const readout_request& request) const {
  KLINQ_REQUIRE(request.qubit < provider_->qubit_count(),
                "readout_server: qubit index out of range");
  KLINQ_REQUIRE(request.traces != nullptr,
                "readout_server: request has no trace block");
  KLINQ_REQUIRE(
      std::isfinite(request.deadline_seconds) &&
          request.deadline_seconds >= 0.0,
      "readout_server: request deadline must be finite and non-negative");
  fault::trigger("serve.submit.lease");
  engine_lease lease = provider_->acquire(request.qubit);
  if (request.engine == engine_kind::fixed_q16) {
    KLINQ_REQUIRE(lease.engine.hardware != nullptr,
                  "readout_server: qubit has no fixed-point engine");
  } else {
    KLINQ_REQUIRE(lease.engine.student != nullptr,
                  "readout_server: qubit has no float engine");
  }
  return lease;
}

ticket readout_server::submit(const readout_request& request) {
  // Validate and acquire before queueing: the version active at submit time
  // is the one this request is pinned to, even if it then blocks on
  // capacity.
  engine_lease lease = lease_for(request);
  std::unique_lock lock(mutex_);
  // Parked coalescing batches can never be the reason the window is full:
  // submit_locked flushes whenever parking meets a full window, so by the
  // time this wait blocks every active slot holds dispatched work and a
  // consumer's wait() will eventually free one.
  if (active_.size() >= config_.max_inflight && !pending_.empty()) {
    std::vector<pending_batch> ready;
    take_pending_locked(ready);
    lock.unlock();
    for (pending_batch& batch : ready) dispatch_batch(std::move(batch));
    lock.lock();
  }
  capacity_.wait(lock,
                 [this] { return active_.size() < config_.max_inflight; });
  return submit_locked(request, std::move(lease), lock);
}

std::optional<ticket> readout_server::try_submit(
    const readout_request& request) {
  engine_lease lease = lease_for(request);
  std::unique_lock lock(mutex_);
  if (active_.size() >= config_.max_inflight) {
    // Non-blocking producers never call wait() before retrying: dispatch any
    // parked batches so the held tickets can complete (and poll() can turn
    // true) instead of livelocking the retry loop.
    if (!pending_.empty()) {
      std::vector<pending_batch> ready;
      take_pending_locked(ready);
      lock.unlock();
      for (pending_batch& batch : ready) dispatch_batch(std::move(batch));
    }
    return std::nullopt;
  }
  return submit_locked(request, std::move(lease), lock);
}

ticket readout_server::submit_locked(const readout_request& request,
                                     engine_lease lease,
                                     std::unique_lock<std::mutex>& lock) {
  const std::size_t shots = request.traces->size();
  // The feedback lane bypasses coalescing unconditionally: parking a
  // feedback request behind a batch that waits for more members is exactly
  // the queueing delay the lane exists to avoid.
  const bool coalesce = config_.coalesce_shots > 0 && shots > 0 &&
                        shots <= config_.coalesce_shots &&
                        request.lane == lane_class::bulk;

  std::unique_ptr<slot> s;
  if (!free_slots_.empty()) {
    s = std::move(free_slots_.back());
    free_slots_.pop_back();
  } else {
    s = std::make_unique<slot>();
  }
  s->id = next_ticket_++;
  s->traces = request.traces;
  s->shots = shots;
  // A coalesced member executes as one range inside the merged task.
  s->remaining_shards =
      shots == 0 ? 0 : (coalesce ? 1 : scheduler_.shard_count(shots));
  s->done = false;
  s->rung = false;
  s->error = nullptr;
  s->deadline_seconds = request.deadline_seconds;
  if (s->deadline_seconds <= 0.0 && request.lane == lane_class::feedback) {
    s->deadline_seconds = config_.feedback_default_deadline_seconds;
  }
  if (s->deadline_seconds <= 0.0) {
    s->deadline_seconds = config_.default_deadline_seconds;
  }
  s->lane = request.lane;
  s->cancelled.store(false, std::memory_order_relaxed);
  s->deadline_expired = false;
  s->result.qubit = request.qubit;
  s->result.engine = request.engine;
  s->result.latency_seconds = 0.0;
  s->result.status = request_status::ok;
  s->result.model_version = lease.version;
  if (last_version_[request.qubit] != kNoVersionYet &&
      last_version_[request.qubit] != lease.version) {
    qubit_cells_[request.qubit].version_switches->inc();
  }
  last_version_[request.qubit] = lease.version;
  s->lease = std::move(lease);
  // Recycled slots keep vector capacity: these resizes allocate only until
  // the pool has seen this request size once.
  s->result.states.resize(shots);
  if (request.engine == engine_kind::fixed_q16) {
    s->result.registers.resize(shots);
    s->result.logits.clear();
  } else {
    s->result.logits.resize(shots);
    s->result.registers.clear();
  }
  s->dispatch_at = 0.0;
  s->first_exec_at = -1.0;
  s->shard_count = s->remaining_shards;
  s->trace_id = 0;
  s->trace_parent = 0;
  s->submit_us = 0;
  if (request.trace_id != 0 && config_.traces != nullptr &&
      config_.traces->armed()) {
    s->trace_id = request.trace_id;
    s->trace_parent = request.trace_parent;
    s->submit_us = obs::trace_clock_us();
  }
  s->timer.reset();

  slot* raw = s.get();
  const ticket t{raw->id};
  active_.emplace(raw->id, std::move(s));
  engine_cells& cells = cells_locked(request.qubit, request.engine);
  cells.submitted->inc();
  cells.shots_submitted->inc(shots);
  lane_submitted_[static_cast<std::size_t>(request.lane)]->inc();
  inflight_cell_->set(static_cast<double>(active_.size()));
  outstanding_shards_ += raw->remaining_shards;

  if (shots == 0) {
    finish_request_locked(raw);
    const request_status status = raw->result.status;
    completed_.notify_all();
    lock.unlock();
    ring_doorbell(raw, t, status);
    return t;
  }

  if (coalesce) {
    const std::uint64_t key =
        request.qubit * 2 + static_cast<std::uint64_t>(request.engine);
    pending_batch& batch = pending_[key];
    batch.members.push_back({raw, 0, shots});
    batch.shots += shots;
    requests_coalesced_cell_->inc();
    std::vector<pending_batch> ready;
    if (batch.shots >= scheduler_.shard_shots()) {
      // A full shard's worth accumulated: dispatch the merged batch now.
      stamp_dispatch_locked(batch);
      ready.push_back(std::move(batch));
      pending_.erase(key);
      coalesced_batches_cell_->inc();
    } else if (active_.size() < config_.max_inflight) {
      return t;  // keep parking
    }
    if (active_.size() >= config_.max_inflight) {
      // The window is full: nothing may stay parked (a producer that only
      // polls or retries try_submit would otherwise never see these tickets
      // complete), so flush every stream's batch, not just this one's.
      take_pending_locked(ready);
    }
    lock.unlock();
    for (pending_batch& b : ready) dispatch_batch(std::move(b));
    return t;
  }

  // Dispatch outside the lock: the pool has its own mutex, and shards may
  // even run inline here on a workerless (single-CPU) pool. The slot cannot
  // complete early — remaining_shards is already final.
  raw->dispatch_at = raw->timer.seconds();
  lock.unlock();
  scheduler_.dispatch(
      shots,
      [this, raw](std::size_t begin, std::size_t end, shard_arena& arena) {
        const segment shard{raw, begin, end};
        execute({&shard, 1}, arena);
      },
      /*urgent=*/request.lane == lane_class::feedback);
  return t;
}

void readout_server::set_on_complete(completion_callback callback) {
  {
    const std::lock_guard lock(mutex_);
    KLINQ_REQUIRE(active_.empty() && pending_.empty(),
                  "readout_server: set_on_complete requires no unresolved "
                  "tickets (in-flight completions would race the handoff)");
  }
  // A consumed ticket's task *tail* may still be running (it reads the
  // callback lock-free); wait for task bodies to exit before swapping.
  scheduler_.drain();
  const std::lock_guard lock(mutex_);
  KLINQ_REQUIRE(active_.empty() && pending_.empty(),
                "readout_server: a submit raced set_on_complete");
  config_.on_complete = std::move(callback);
}

void readout_server::execute(std::span<const segment> segments,
                             shard_arena& arena) {
  const std::size_t count = segments.size();
  // Every segment shares the qubit, the engine kind and the pinned engine;
  // a pack holds at most kMaxLanePackShots lanes, so at most that many
  // segments.
  constexpr std::size_t kMaxLanes = server_config::kMaxLanePackShots;
  const slot& lead = *segments[0].s;
  const engine_kind kind = lead.result.engine;
  const std::size_t qubit = lead.result.qubit;
  const qubit_engine& engine = lead.lease.engine;
  struct outcome {
    double exec_begin = 0.0;
    bool skipped = false;  // cancelled or expired before it started
    bool expired = false;
    bool ran = false;      // took part in the engine call
    bool event_fired = false;
    // Captured under the lock when this call completed the request: the
    // doorbell after the unlock must not read the slot.
    bool resolved = false;
    ticket done{};
    request_status status = request_status::ok;
    std::exception_ptr error;
  };
  std::array<outcome, kMaxLanes> outcomes;

  // 1. Skip checks, per segment. A skipped segment costs nothing but still
  // runs the completion accounting below, which is what guarantees an
  // expired or cancelled ticket resolves instead of blocking wait() forever.
  // Exec timestamps come off each request's own submit timer, so its stage
  // spans keep tiling its latency.
  std::size_t runnable = 0;
  std::size_t lanes = 0;
  std::size_t last_runnable = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const slot& s = *segments[i].s;
    outcome& o = outcomes[i];
    o.exec_begin = s.timer.seconds();
    const bool cancelled = s.cancelled.load(std::memory_order_relaxed);
    o.expired = !cancelled && s.deadline_seconds > 0.0 &&
                o.exec_begin >= s.deadline_seconds;
    o.skipped = cancelled || o.expired;
    if (o.skipped) continue;
    try {
      if (fault::trigger("serve.shard.run") == fault::action::drop) {
        throw fault::injected_fault(
            "injected fault at serve.shard.run: shard result dropped");
      }
    } catch (...) {
      o.error = std::current_exception();
      continue;
    }
    o.ran = true;
    ++runnable;
    lanes += segments[i].end - segments[i].begin;
    last_runnable = i;
  }

  // 2. One engine call. A lone runnable segment runs the block entry point
  // straight into its slot's buffers; two or more share one kernel tile
  // through the lanes entry point, gathered and scattered lane by lane.
  // Both are bit-identical per shot, so packing never changes a result. A
  // throw fails exactly the segments that shared the call.
  if (runnable > 0) {
    try {
      const segment& one = segments[last_runnable];
      const std::size_t one_rows = one.end - one.begin;
      std::array<const data::trace_dataset*, kMaxLanes> datasets;
      std::array<std::size_t, kMaxLanes> rows;
      std::size_t lane = 0;
      for (std::size_t i = 0; i < count && runnable > 1; ++i) {
        if (!outcomes[i].ran) continue;
        for (std::size_t r = segments[i].begin; r < segments[i].end; ++r) {
          datasets[lane] = segments[i].s->traces;
          rows[lane++] = r;
        }
      }
      const auto scatter = [&](const auto* out, auto readout_result::*buffer) {
        lane = 0;
        for (std::size_t i = 0; i < count; ++i) {
          if (!outcomes[i].ran) continue;
          auto& values = segments[i].s->result.*buffer;
          for (std::size_t r = segments[i].begin; r < segments[i].end; ++r) {
            values[r] = out[lane++];
          }
        }
      };
      if (kind == engine_kind::fixed_q16) {
        if (runnable == 1) {
          engine.hardware->logits_block(
              *one.s->traces, one.begin, one.end,
              std::span(one.s->result.registers).subspan(one.begin, one_rows),
              arena.fixed);
        } else {
          std::array<fx::q16_16, kMaxLanes> out;
          engine.hardware->logits_lanes(datasets.data(), rows.data(), lanes,
                                        std::span(out.data(), lanes),
                                        arena.fixed);
          scatter(out.data(), &readout_result::registers);
        }
      } else if (runnable == 1) {
        engine.student->predict_block(
            *one.s->traces, one.begin, one.end,
            std::span(one.s->result.logits).subspan(one.begin, one_rows),
            arena.student);
      } else {
        std::array<float, kMaxLanes> out;
        engine.student->predict_lanes(datasets.data(), rows.data(), lanes,
                                      std::span(out.data(), lanes),
                                      arena.student);
        scatter(out.data(), &readout_result::logits);
      }
      for (std::size_t i = 0; i < count; ++i) {
        if (!outcomes[i].ran) continue;
        decide_states(segments[i].s->result, segments[i].begin,
                      segments[i].end);
      }
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      for (std::size_t i = 0; i < count; ++i) {
        if (outcomes[i].ran) outcomes[i].error = error;
      }
    }
  }

  // 3. Per-segment on_shard events and shard_exec records. The slot buffers
  // are read without the mutex: this segment is not yet accounted, so its
  // request cannot complete (nor its ticket be consumed) until the callback
  // returns. A callback throw fails only its own segment.
  obs::log_histogram& shard_exec = *cells_locked(qubit, kind).shard_exec;
  for (std::size_t i = 0; i < count; ++i) {
    outcome& o = outcomes[i];
    if (o.skipped) continue;
    if (o.ran && !o.error && config_.on_shard) {
      const segment& seg = segments[i];
      const readout_result& result = seg.s->result;
      const std::size_t b = seg.begin;
      const std::size_t n = seg.end - seg.begin;
      shard_event event{.request = ticket{seg.s->id},
                        .qubit = qubit,
                        .engine = kind,
                        .model_version = result.model_version,
                        .row_begin = seg.begin,
                        .row_end = seg.end,
                        .states = std::span(result.states).subspan(b, n)};
      if (kind == engine_kind::fixed_q16) {
        event.registers = std::span(result.registers).subspan(b, n);
      } else {
        event.logits = std::span(result.logits).subspan(b, n);
      }
      try {
        config_.on_shard(event);
        o.event_fired = true;
      } catch (...) {
        o.error = std::current_exception();
      }
    }
    // Ran or threw, the segment held a worker this long.
    shard_exec.record(segments[i].s->timer.seconds() - o.exec_begin);
  }
  if (count > 1 && runnable > 0) {
    // Pack accounting: the members that shared the tile, the tile itself,
    // and how full it ran.
    packed_batches_cell_->inc();
    packed_requests_cell_->inc(runnable);
    lane_occupancy_->record(static_cast<double>(lanes));
  }

  // 4. Failure accounting (before a failing segment counts as done — see
  // record_shard_failure), then one locked completion block.
  for (std::size_t i = 0; i < count; ++i) {
    if (outcomes[i].error) {
      record_shard_failure(qubit, kind, segments[i].s->result.model_version);
    }
  }
  {
    const std::lock_guard lock(mutex_);
    bool resolved_any = false;
    for (std::size_t i = 0; i < count; ++i) {
      slot* raw = segments[i].s;
      outcome& o = outcomes[i];
      if (o.error && !raw->error) raw->error = o.error;
      if (o.event_fired) shard_events_cell_->inc();
      if (o.expired) raw->deadline_expired = true;
      if (raw->first_exec_at < 0.0 || o.exec_begin < raw->first_exec_at) {
        raw->first_exec_at = o.exec_begin;
      }
      if (o.ran && !o.error) consecutive_failures_[qubit] = 0;
      --outstanding_shards_;
      if (--raw->remaining_shards == 0) {
        finish_request_locked(raw);
        o.resolved = true;
        o.done = ticket{raw->id};
        o.status = raw->result.status;
        resolved_any = true;
      }
    }
    if (resolved_any || outstanding_shards_ == 0) completed_.notify_all();
  }

  // 5. Doorbells, no lock held. Any slot may be consumed (and recycled) the
  // instant the lock drops — with no doorbell configured a resolved one is
  // claimable at once — so nothing is read from the slots here; only the
  // doorbell, which keeps its own request unclaimable until it has rung,
  // touches one.
  for (std::size_t i = 0; i < count; ++i) {
    const outcome& o = outcomes[i];
    if (o.resolved) ring_doorbell(segments[i].s, o.done, o.status);
  }
}

void readout_server::ring_doorbell(slot* raw, ticket t,
                                   request_status status) {
  if (!config_.on_complete) return;
  config_.on_complete(t, status);
  {
    const std::lock_guard lock(mutex_);
    raw->rung = true;
  }
  completed_.notify_all();
}

void readout_server::record_shard_failure(std::size_t qubit,
                                          engine_kind engine,
                                          std::uint64_t version) {
  bool demote_now = false;
  {
    const std::lock_guard lock(mutex_);
    engine_cells& cells = cells_locked(qubit, engine);
    if (cells.shard_failures == nullptr) {
      cells.shard_failures = &metrics_->get_counter(
          "klinq_serve_shard_failures_total",
          {{"qubit", std::to_string(qubit)}, {"engine", engine_name(engine)}},
          "Shard executions that threw");
    }
    cells.shard_failures->inc();
    if (++consecutive_failures_[qubit] >= config_.failure_threshold) {
      // Reset before demoting so the next window needs a full threshold of
      // fresh failures (whether or not the provider switches).
      consecutive_failures_[qubit] = 0;
      demote_now = true;
    }
  }
  // The provider demote takes the provider's own locks, so it runs after
  // mutex_ releases — but before the failing shard counts as done, so a
  // wait() that returns the failed request already sees the rollback.
  if (demote_now && provider_->demote(qubit, version)) {
    const std::lock_guard lock(mutex_);
    obs::counter*& cell = qubit_cells_[qubit].rollbacks;
    if (cell == nullptr) {
      cell = &metrics_->get_counter(
          "klinq_serve_rollbacks_total", {{"qubit", std::to_string(qubit)}},
          "Automatic demote-to-last-known-good rollbacks this server "
          "triggered");
    }
    cell->inc();
  }
}

void readout_server::stamp_dispatch_locked(pending_batch& batch) {
  // End of the coalesce hold, stamped under mutex_ at the moment the batch
  // leaves pending_. No member can join after the stamp (joining requires
  // the same lock and the batch is gone from pending_), so a late joiner can
  // never carry a dispatch_at predating its own submit — hold and queue
  // spans stay non-negative by construction.
  for (const segment& member : batch.members) {
    member.s->dispatch_at = member.s->timer.seconds();
  }
}

void readout_server::dispatch_batch(pending_batch batch) {
  // One scheduler task, one arena: every member runs back to back (alone or
  // in a lane pack — see run_batch), completing (and waking waiters)
  // individually.
  scheduler_.dispatch_one(
      [this, members = std::move(batch.members)](shard_arena& arena) {
        run_batch(members, arena);
      });
}

void readout_server::run_batch(const std::vector<segment>& members,
                               shard_arena& arena) {
  // Members whose shots fit the pack budget are grouped by what a shared
  // tile needs in common: the pinned engine (two hot-swap versions of one
  // qubit's model never share a tile) and the trace duration (so a member of
  // another duration can only fail its own pack). The batch key already
  // fixes (qubit, engine kind). Every other member runs as a lone segment,
  // in submission order.
  struct pack_group {
    qubit_engine engine;
    std::size_t samples = 0;
    std::vector<segment> members;
  };
  std::vector<pack_group> groups;
  for (const segment& member : members) {
    if (member.end - member.begin > config_.lane_pack_shots) {
      execute({&member, 1}, arena);
      continue;
    }
    const qubit_engine& engine = member.s->lease.engine;
    const std::size_t samples = member.s->traces->samples_per_quadrature();
    auto it = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
      return g.engine.student == engine.student &&
             g.engine.hardware == engine.hardware && g.samples == samples;
    });
    if (it == groups.end()) it = groups.insert(it, {engine, samples, {}});
    it->members.push_back(member);
  }
  // Greedy cut of each group into packs of at most kMaxLanePackShots lanes;
  // a pack of one runs the block entry point like any lone segment.
  for (const pack_group& group : groups) {
    const std::vector<segment>& g = group.members;
    std::size_t begin = 0;
    while (begin < g.size()) {
      std::size_t lanes = 0;
      std::size_t end = begin;
      while (end < g.size() && lanes + (g[end].end - g[end].begin) <=
                                   server_config::kMaxLanePackShots) {
        lanes += g[end].end - g[end].begin;
        ++end;
      }
      execute(std::span(g).subspan(begin, end - begin), arena);
      begin = end;
    }
  }
}

void readout_server::take_pending_locked(std::vector<pending_batch>& out) {
  // Counts exactly the batches it appends — `out` may already hold a batch
  // the caller took (and counted) itself, e.g. submit_locked's full-shard
  // batch when the window is simultaneously full.
  out.reserve(out.size() + pending_.size());
  for (auto& [key, batch] : pending_) {
    if (batch.members.empty()) continue;
    stamp_dispatch_locked(batch);
    out.push_back(std::move(batch));
    coalesced_batches_cell_->inc();
  }
  pending_.clear();
}

void readout_server::flush_pending() {
  // Early-out keeps the default (coalescing-off) wait/drain path at a
  // single mutex acquisition.
  if (config_.coalesce_shots == 0) return;
  std::vector<pending_batch> ready;
  {
    const std::lock_guard lock(mutex_);
    take_pending_locked(ready);
  }
  for (pending_batch& batch : ready) dispatch_batch(std::move(batch));
}

void readout_server::flush_pending_for(ticket t) {
  if (config_.coalesce_shots == 0) return;
  std::optional<pending_batch> ready;
  {
    const std::lock_guard lock(mutex_);
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      for (const segment& member : it->second.members) {
        if (member.s->id == t.id) {
          stamp_dispatch_locked(it->second);
          ready = std::move(it->second);
          pending_.erase(it);
          coalesced_batches_cell_->inc();
          break;
        }
      }
      if (ready) break;
    }
  }
  if (ready) dispatch_batch(std::move(*ready));
}

bool readout_server::cancel(ticket t) {
  {
    const std::lock_guard lock(mutex_);
    const auto it = active_.find(t.id);
    KLINQ_REQUIRE(it != active_.end(),
                  "readout_server: unknown or already-consumed ticket");
    slot* raw = it->second.get();
    if (raw->done) return false;  // too late; the result stays claimable
    // Under mutex_ so the flag cannot race the done transition: if the last
    // shard has not completed yet, it (or a later skipped shard) will
    // observe the flag and the request resolves as cancelled.
    raw->cancelled.store(true, std::memory_order_relaxed);
  }
  // The ticket may be parked in a coalescing batch nothing else would flush
  // (a cancelling producer typically stops submitting): dispatch that batch
  // so the skip executes and the ticket resolves promptly.
  flush_pending_for(t);
  return true;
}

bool readout_server::poll(ticket t) const {
  const std::lock_guard lock(mutex_);
  const auto it = active_.find(t.id);
  KLINQ_REQUIRE(it != active_.end(),
                "readout_server: unknown or already-consumed ticket");
  return it->second->done && it->second->rung;
}

readout_result readout_server::wait(ticket t) {
  readout_result result;
  wait(t, result);
  return result;
}

void readout_server::wait(ticket t, readout_result& out) {
  // The ticket may be parked in a coalescing batch; dispatch that batch (and
  // only that one — other streams keep accumulating) so the wait below
  // cannot block on work that was never enqueued.
  flush_pending_for(t);
  std::unique_lock lock(mutex_);
  slot* raw;
  {
    const auto it = active_.find(t.id);
    KLINQ_REQUIRE(it != active_.end(),
                  "readout_server: unknown or already-consumed ticket");
    raw = it->second.get();
  }
  // Slot objects are stable (unique_ptrs shuttle between active_ and the
  // free-list), so `raw` outlives the wait even if a racing wait() consumes
  // the ticket; the predicate also wakes on disappearance so that race ends
  // in the throw below rather than in a stale-iterator dereference.
  completed_.wait(lock, [this, raw, &t] {
    return (raw->done && raw->rung) || active_.find(t.id) == active_.end();
  });
  const auto it = active_.find(t.id);
  KLINQ_REQUIRE(it != active_.end(),
                "readout_server: ticket consumed by a concurrent wait");

  std::unique_ptr<slot> s = std::move(it->second);
  active_.erase(it);
  inflight_cell_->set(static_cast<double>(active_.size()));
  capacity_.notify_one();

  // A failed request rethrows its first shard error; a timed-out or
  // cancelled one resolves through the status field instead (any shard
  // error it also collected is subsumed by the caller's own verdict).
  const std::exception_ptr error =
      s->result.status == request_status::failed ? s->error : nullptr;
  s->error = nullptr;
  recycle_locked(std::move(s), error ? nullptr : &out);
  if (error) {
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void readout_server::recycle_locked(std::unique_ptr<slot> s,
                                    readout_result* swap_with) {
  s->lease = engine_lease{};
  if (swap_with != nullptr) {
    swap_with->qubit = s->result.qubit;
    swap_with->engine = s->result.engine;
    swap_with->latency_seconds = s->result.latency_seconds;
    swap_with->model_version = s->result.model_version;
    swap_with->status = s->result.status;
    // Swapping (not moving) hands the caller's old buffers to the recycled
    // slot, so a submit/wait loop reusing one readout_result settles into
    // zero allocations.
    swap_with->states.swap(s->result.states);
    swap_with->registers.swap(s->result.registers);
    swap_with->logits.swap(s->result.logits);
  }
  free_slots_.push_back(std::move(s));
}

void readout_server::drain() {
  flush_pending();
  {
    std::unique_lock lock(mutex_);
    completed_.wait(lock, [this] { return outstanding_shards_ == 0; });
  }
  // Same task-body wait as the destructor: "drained" must mean no scheduler
  // task is still inside execute() (its doorbell tail runs after the shard
  // count reaches zero), not merely that every ticket is resolved — callers
  // use drain() as a teardown barrier.
  scheduler_.drain();
}

server_stats readout_server::stats() const {
  // A view over the labeled metric cells: the flat lifetime struct is the
  // sum of its per-{qubit, engine, status} series. Taken under mutex_ so
  // the counts are mutually consistent (completions bump several cells
  // under the same lock).
  const std::lock_guard lock(mutex_);
  server_stats snapshot;
  for (std::size_t q = 0; q < cells_.size(); ++q) {
    for (const engine_cells& cells : cells_[q]) {
      snapshot.requests_submitted += cells.submitted->value();
      snapshot.shots_submitted += cells.shots_submitted->value();
      snapshot.shots_completed += cells.shots_completed->value();
      if (cells.shard_failures != nullptr) {
        snapshot.shard_failures += cells.shard_failures->value();
      }
      for (std::size_t s = 0; s < cells.completed.size(); ++s) {
        if (cells.completed[s] == nullptr) continue;  // never materialized
        const std::uint64_t n = cells.completed[s]->value();
        snapshot.requests_completed += n;
        switch (static_cast<request_status>(s)) {
          case request_status::ok: break;
          case request_status::timed_out: snapshot.timed_out_requests += n;
            break;
          case request_status::cancelled: snapshot.cancelled_requests += n;
            break;
          case request_status::failed: snapshot.failed_requests += n; break;
        }
      }
    }
    snapshot.version_switches += qubit_cells_[q].version_switches->value();
    if (qubit_cells_[q].rollbacks != nullptr) {
      snapshot.rollbacks += qubit_cells_[q].rollbacks->value();
    }
  }
  snapshot.requests_coalesced = requests_coalesced_cell_->value();
  snapshot.coalesced_batches = coalesced_batches_cell_->value();
  snapshot.packed_requests = packed_requests_cell_->value();
  snapshot.packed_batches = packed_batches_cell_->value();
  snapshot.shard_events = shard_events_cell_->value();
  snapshot.inflight = active_.size();
  snapshot.uptime_seconds = uptime_.seconds();
  snapshot.shots_per_second =
      snapshot.uptime_seconds > 0.0
          ? static_cast<double>(snapshot.shots_completed) /
                snapshot.uptime_seconds
          : 0.0;
  snapshot.latency_p50_seconds = request_seconds_->quantile(0.50);
  snapshot.latency_p99_seconds = request_seconds_->quantile(0.99);
  constexpr auto kFeedback = static_cast<std::size_t>(lane_class::feedback);
  constexpr auto kBulk = static_cast<std::size_t>(lane_class::bulk);
  snapshot.feedback_requests = lane_submitted_[kFeedback]->value();
  snapshot.feedback_p50_seconds = lane_seconds_[kFeedback]->quantile(0.50);
  snapshot.feedback_p99_seconds = lane_seconds_[kFeedback]->quantile(0.99);
  snapshot.bulk_p50_seconds = lane_seconds_[kBulk]->quantile(0.50);
  snapshot.bulk_p99_seconds = lane_seconds_[kBulk]->quantile(0.99);
  return snapshot;
}

}  // namespace klinq::serve
