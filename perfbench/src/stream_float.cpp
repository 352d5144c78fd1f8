// stream-float: open loop. Requests arrive evenly spaced at a fixed rate,
// mostly 1-16 shots with a tail to 512, on the float engine
// with coalescing and lane packing on. A generator thread submits at each
// due time; the main thread waits tickets in order (which flushes their
// coalescing batches) and checks every result. Completion is the moment
// the server's on_complete doorbell rings; latency runs from the send,
// and the generator's lateness against the due time is reported beside it.
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "klinq/common/rng.hpp"
#include "klinq/common/thread_pool.hpp"
#include "layers.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace klinq;

namespace {

/// Offered load and its latency limit, fixed once for a 4-CPU host.
constexpr double kRequestsPerSecond = 4000.0;
constexpr double kP99LimitSeconds = 2e-3;
constexpr std::size_t kCoalesceShots = 16;
constexpr std::size_t kLanePackShots = 16;

/// Request sizes: every size 1..16 (two row variants each) and a tail.
constexpr std::size_t kSmallSizes = 16;
constexpr std::size_t kSmallVariants = 2;
constexpr std::array<std::size_t, 10> kTailSizes = {24,  32,  48,  64,  96,
                                                    128, 192, 256, 384, 512};
constexpr double kSmallShare = 0.88;
constexpr std::size_t kBlocksPerQubit =
    kSmallSizes * kSmallVariants + kTailSizes.size();

std::vector<std::size_t> request_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t s = 1; s <= kSmallSizes; ++s) {
    for (std::size_t v = 0; v < kSmallVariants; ++v) sizes.push_back(s);
  }
  sizes.insert(sizes.end(), kTailSizes.begin(), kTailSizes.end());
  return sizes;
}

struct arrival {
  double due = 0.0;  // seconds from the phase start
  std::uint32_t block = 0;
};

/// Evenly spaced arrivals over [0, seconds) at the fixed rate; the seed
/// draws each request: uniform qubit, log-uniform small size with
/// probability kSmallShare, otherwise a uniform tail size.
std::vector<arrival> make_schedule(std::uint64_t seed, double seconds) {
  xoshiro256 rng(seed);
  std::vector<arrival> out;
  for (double t = 0.5 / kRequestsPerSecond; t < seconds;
       t += 1.0 / kRequestsPerSecond) {
    const std::size_t q = rng.uniform_index(kQubits);
    std::size_t index = 0;
    if (rng.uniform() < kSmallShare) {
      const auto size = static_cast<std::size_t>(
          std::lround(std::pow(2.0, 4.0 * rng.uniform())));
      index = (size - 1) * kSmallVariants + rng.uniform_index(kSmallVariants);
    } else {
      index = kSmallSizes * kSmallVariants +
              rng.uniform_index(kTailSizes.size());
    }
    out.push_back({t, static_cast<std::uint32_t>(q * kBlocksPerQubit + index)});
  }
  return out;
}

/// on_complete doorbell target: completion time per ticket id.
struct doorbell {
  explicit doorbell(std::size_t capacity) : at(capacity) {}
  void ring(serve::ticket t) {
    if (t.id < at.size()) {
      at[t.id].store(now_seconds(), std::memory_order_release);
    }
  }
  /// Blocks (spinning) until the ticket's doorbell has rung; the doorbell
  /// may ring just after wait() returned.
  double await(serve::ticket t) const {
    for (;;) {
      const double v = at[t.id].load(std::memory_order_acquire);
      if (v != 0.0) return v;
      std::this_thread::yield();
    }
  }
  std::vector<std::atomic<double>> at;
};

struct open_loop {
  serve::readout_server& server;
  const std::vector<request_block>& blocks;
  const doorbell& bell;

  phase_result run(const std::vector<arrival>& schedule, double seconds,
                   tally& t, obs::trace_ring* ring) {
    struct sent {
      serve::ticket ticket;
      std::size_t index = 0;
      std::uint64_t trace_id = 0;
      std::uint64_t root = 0;
    };
    phase_result out;
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<sent> queue;
    bool generator_done = false;
    std::vector<double> sent_at(schedule.size(), 0.0);

    const double start = now_seconds() + 1e-3;
    const double end = start + seconds;
    // trace_clock_us() of a now_seconds() instant.
    const double clock_offset_us =
        static_cast<double>(obs::trace_clock_us()) - now_seconds() * 1e6;
    const auto to_us = [&](double s) {
      return static_cast<std::uint64_t>(s * 1e6 + clock_offset_us);
    };
    const double cpu0 = process_cpu_seconds();
    std::thread generator([&] {
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        if (ring != nullptr &&
            ring->recorded() > kTraceStopFill * kTraceCapacity) {
          break;
        }
        const double due = start + schedule[i].due;
        sleep_until(due);
        sent s{{}, i};
        serve::readout_request request{
            blocks[schedule[i].block].qubit, &blocks[schedule[i].block].traces,
            serve::engine_kind::float_student};
        if (ring != nullptr) {
          s.trace_id = ring->next_trace_id();
          s.root = ring->next_span_id();
          request.trace_id = s.trace_id;
          request.trace_parent = s.root;
        }
        const double t0 = now_seconds();
        s.ticket = server.submit(request);
        const double t1 = now_seconds();
        sent_at[i] = t0;
        out.submit_seconds.push_back(t1 - t0);
        out.lag.push_back(t0 - due);
        if (ring != nullptr) {
          record_span(*ring, s.trace_id, ring->next_span_id(), s.root,
                      to_us(due), to_us(t0), "bench.lag");
          record_span(*ring, s.trace_id, ring->next_span_id(), s.root,
                      to_us(t0), to_us(t1), "bench.submit");
        }
        {
          const std::lock_guard lock(mutex);
          queue.push_back(s);
        }
        ready.notify_one();
      }
      {
        const std::lock_guard lock(mutex);
        generator_done = true;
      }
      ready.notify_one();
    });

    serve::readout_result result;
    for (;;) {
      sent s;
      {
        std::unique_lock lock(mutex);
        ready.wait(lock, [&] { return !queue.empty() || generator_done; });
        if (queue.empty()) break;
        s = queue.front();
        queue.pop_front();
      }
      const request_block& block = blocks[schedule[s.index].block];
      const double wait_start = now_seconds();
      ++out.attempted;
      bool ok = false;
      try {
        server.wait(s.ticket, result);
        ok = result.status == serve::request_status::ok &&
             t.check(block, result);
      } catch (const std::exception&) {
        ok = false;
      }
      const double wait_end = now_seconds();
      const double done = bell.await(s.ticket);
      const double due = start + schedule[s.index].due;
      if (ring != nullptr) {
        record_span(*ring, s.trace_id, ring->next_span_id(), s.root,
                    to_us(wait_start), to_us(wait_end), "bench.wait");
        record_span(*ring, s.trace_id, s.root, 0, to_us(due), to_us(done),
                    "bench.request");
      }
      // Timed from the send: the host's multi-millisecond vCPU stalls hit
      // the generator thread too, and timing from the due time lets them
      // decide p99. The generator's lateness is out.lag (per request, in
      // the same order), so the due-time latency is latency + lag. A failed
      // request counts as missing any latency limit.
      out.latencies.push_back(ok ? done - sent_at[s.index] : 1e9);
      out.latency_at.push_back(schedule[s.index].due);
      if (!ok) {
        ++out.failed;
        continue;
      }
      ++out.requests_total;
      out.shots_total += block.traces.size();
      if (done <= end) {
        ++out.requests;
        out.shots += block.traces.size();
      }
    }
    generator.join();
    out.cpu_seconds = process_cpu_seconds() - cpu0;
    // shots_per_s counts completions inside the window over the window.
    out.wall_seconds = seconds;
    out.offered_per_second = static_cast<double>(out.attempted) / seconds;
    return out;
  }
};

}  // namespace

void run_stream_float(const options& opt, const scale& sizes, report& rep) {
  print_context(rep, opt,
                "open loop, evenly spaced arrivals, 1 generator thread + 1 "
                "waiting thread, float engine, static binding, coalescing and "
                "lane packing on");
  const double warm_seconds = opt.smoke ? 0.2 : 1.0;
  const double measured_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::vector<arrival> warm_schedule =
      make_schedule(opt.seed * 3 + 1, warm_seconds);
  const std::vector<arrival> measured_schedule =
      make_schedule(opt.seed * 3 + 2, measured_seconds);
  const std::vector<arrival> traced_schedule =
      make_schedule(opt.seed * 3 + 3, opt.trace ? opt.seconds / 2 : 0.0);
  doorbell bell(warm_schedule.size() + measured_schedule.size() +
                traced_schedule.size() + 16);

  obs::trace_ring ring(kTraceCapacity);
  std::unique_ptr<serve::readout_server> server;
  setup_timing timing;
  std::unique_ptr<deployment> dep = run_setups(
      sizes, opt.seed, /*with_registry=*/false, timing,
      [&] { server.reset(); },
      [&](deployment& d) {
        server = std::make_unique<serve::readout_server>(
            d.engines(),
            serve::server_config{
                .max_inflight = 4096,
                .coalesce_shots = kCoalesceShots,
                .lane_pack_shots = kLanePackShots,
                .on_complete = [&bell](serve::ticket t,
                                       serve::request_status) { bell.ring(t); },
                .traces = &ring});
      });

  std::vector<const hw::fixed_discriminator<fx::q16_16>*> served_hw;
  for (const qubit_models& q : dep->qubits) served_hw.push_back(&q.hardware);
  const std::vector<reference> refs = build_references(*dep, served_hw);
  std::vector<request_block> blocks;
  const std::vector<std::size_t> block_sizes = request_sizes();
  for (std::size_t q = 0; q < kQubits; ++q) {
    for (std::size_t b = 0; b < block_sizes.size(); ++b) {
      blocks.push_back(make_block(
          *dep, refs, q,
          draw_rows(*dep, q, block_sizes[b], opt.seed * 104729 + q * 997 + b)));
    }
  }
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const arrival& a : measured_schedule) {  // fields only, not padding
    h = fnv1a(&a.due, sizeof(a.due), h);
    h = fnv1a(&a.block, sizeof(a.block), h);
  }
  rep.context("request_sequence_hash", hex64(hash_blocks(blocks, h)));
  rep.context("open_loop_rate",
              std::to_string(static_cast<int>(kRequestsPerSecond)) +
                  " requests/s evenly spaced, " +
                  std::to_string(measured_schedule.size()) +
                  " requests in the measured phase");
  rep.context("latency_limit",
              "p99 " +
                  std::to_string(static_cast<int>(kP99LimitSeconds * 1e6)) +
                  " us");

  isolated_results isolated;
  net_probe probe;
  if (opt.trace) {
    isolated = add_isolated_layers(rep, *dep);
    probe = run_net_probe(*dep, kNetProbeRequests);
  }

  open_loop loop{*server, blocks, bell};
  tally warm_tally, measured_tally, traced_tally;
  account(rep, loop.run(warm_schedule, warm_seconds, warm_tally, nullptr),
          warm_tally);
  const auto steal0 = cpu_steal_ticks();
  const phase_result measured =
      loop.run(measured_schedule, measured_seconds, measured_tally, nullptr);
  print_steal(rep, steal0, cpu_steal_ticks());
  account(rep, measured, measured_tally);
  add_end_to_end(rep, measured, measured_tally, timing);
  std::vector<double> from_due = measured.latencies;
  for (std::size_t i = 0; i < from_due.size(); ++i) {
    from_due[i] += measured.lag[i];
  }
  print_slo(rep, "all requests, timed from the due time", from_due,
            kP99LimitSeconds);
  if (!opt.trace) return;

  const obs::metrics_snapshot before = server->metrics().snapshot();
  ring.clear();
  ring.set_armed(true);
  const phase_result traced =
      loop.run(traced_schedule, opt.seconds / 2, traced_tally, &ring);
  ring.set_armed(false);
  const obs::metrics_snapshot after = server->metrics().snapshot();
  account(rep, traced, traced_tally);

  add_setup_layers(rep, timing);
  add_serve_layers(rep, after, before, traced,
                   measured.shots / measured.wall_seconds,
                   isolated.float_block_ns_per_shot,
                   global_thread_pool().worker_count());
  add_load_layers(rep, measured);
  add_in_process_net_layers(rep, measured, probe);

  std::vector<std::size_t> distinct = block_sizes;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  const request_cost_fn cost =
      make_request_cost(*dep, serve::engine_kind::float_student, distinct);
  double isolated_ns = 0.0;
  for (std::size_t i = 0; i < traced.attempted; ++i) {
    isolated_ns += cost(blocks[traced_schedule[i].block].traces.size());
  }
  trace_inputs in;
  in.ring = &ring;
  in.probe = &probe;
  in.root = "bench.request";
  in.latency_layers = {"bench.lag", "serve.hold", "serve.queue", "serve.exec"};
  in.untraced_latency_p50 = quantile(measured.latencies, 0.5);
  in.traced_latency_p50 = quantile(traced.latencies, 0.5);
  in.isolated_exec_ns = isolated_ns;
  in.served_exec_seconds =
      histogram_delta(after, before, "klinq_serve_shard_exec_seconds").sum;
  if (!opt.out_dir.empty()) {
    in.chrome_trace_path = opt.out_dir + "/trace-stream-float.json";
  }
  add_trace_layers(rep, in);
}

}  // namespace perfbench
