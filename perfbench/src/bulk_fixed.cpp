// bulk-fixed: closed loop. One thread keeps two 1024-shot requests per
// qubit outstanding on the fixed Q16.16 engine, served through a
// model_registry provider as a deployment with recalibration would be.
#include <deque>

#include "klinq/common/rng.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/registry/model_registry.hpp"
#include "layers.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace klinq;

namespace {

constexpr std::size_t kBulkShots = 1024;
constexpr std::size_t kBlocksPerQubit = 2;
constexpr std::size_t kOutstandingPerQubit = 2;
constexpr std::size_t kScheduleLength = std::size_t{1} << 16;

struct closed_loop {
  serve::readout_server& server;
  const std::vector<request_block>& blocks;
  /// Seeded block choice per request (cycled).
  const std::vector<std::uint8_t>& choice;
  std::size_t next = 0;

  phase_result run(double seconds, tally& t, obs::trace_ring* ring) {
    struct inflight {
      serve::ticket ticket;
      std::size_t block = 0;
      double submitted = 0.0;
      std::uint64_t trace_id = 0;
      std::uint64_t root = 0;
      std::uint64_t start_us = 0;
    };
    phase_result out;
    std::deque<inflight> window;
    // `freed` is when the previous request of this slot was collected: the
    // closed loop's send lateness is the gap to the next submit.
    const auto submit = [&](std::size_t qubit, double freed) {
      inflight f;
      f.block = qubit * kBlocksPerQubit + choice[next++ % choice.size()];
      serve::readout_request request{qubit, &blocks[f.block].traces,
                                     serve::engine_kind::fixed_q16};
      if (ring != nullptr) {
        f.trace_id = ring->next_trace_id();
        f.root = ring->next_span_id();
        request.trace_id = f.trace_id;
        request.trace_parent = f.root;
        f.start_us = obs::trace_clock_us();
      }
      f.submitted = now_seconds();
      if (freed > 0.0) out.lag.push_back(f.submitted - freed);
      f.ticket = server.submit(request);
      const double done = now_seconds();
      out.submit_seconds.push_back(done - f.submitted);
      if (ring != nullptr) {
        record_span(*ring, f.trace_id, ring->next_span_id(), f.root,
                    f.start_us, obs::trace_clock_us(), "bench.submit");
      }
      window.push_back(f);
    };

    serve::readout_result result;
    const double cpu0 = process_cpu_seconds();
    const double start = now_seconds();
    const double end = start + seconds;
    bool window_open = true;
    // 1-second sub-windows: shots and CPU between consecutive boundaries.
    double window_start = start;
    double window_cpu = cpu0;
    std::uint64_t window_shots = 0;
    for (std::size_t q = 0; q < kQubits; ++q) {
      for (std::size_t k = 0; k < kOutstandingPerQubit; ++k) submit(q, 0.0);
    }
    while (!window.empty()) {
      const inflight f = window.front();
      window.pop_front();
      const std::uint64_t wait_us = ring ? obs::trace_clock_us() : 0;
      ++out.attempted;
      bool ok = false;
      try {
        server.wait(f.ticket, result);
        ok = result.status == serve::request_status::ok &&
             t.check(blocks[f.block], result);
      } catch (const std::exception&) {
        ok = false;
      }
      const double done = now_seconds();
      if (ring != nullptr) {
        const std::uint64_t end_us = obs::trace_clock_us();
        record_span(*ring, f.trace_id, ring->next_span_id(), f.root, wait_us,
                    end_us, "bench.wait");
        record_span(*ring, f.trace_id, f.root, 0, f.start_us, end_us,
                    "bench.request");
      }
      if (!ok) ++out.failed;
      const std::size_t shots = blocks[f.block].traces.size();
      if (ok) {
        ++out.requests_total;
        out.shots_total += shots;
      }
      if (ok && done <= end) {
        ++out.requests;
        out.shots += shots;
        out.latencies.push_back(done - f.submitted);
        out.latency_at.push_back(f.submitted - start);
      }
      if (window_open && done - window_start >= 1.0 && done <= end) {
        const double cpu = process_cpu_seconds();
        const auto shots_in = static_cast<double>(out.shots - window_shots);
        out.window_shots_per_s.push_back(shots_in / (done - window_start));
        out.window_cpu_us_per_shot.push_back((cpu - window_cpu) * 1e6 /
                                             std::max(1.0, shots_in));
        window_start = done;
        window_cpu = cpu;
        window_shots = out.shots;
      }
      const bool ring_full =
          ring != nullptr &&
          ring->recorded() > kTraceStopFill * kTraceCapacity;
      if (window_open && (done >= end || ring_full)) {
        window_open = false;
        out.wall_seconds = done - start;
        out.cpu_seconds = process_cpu_seconds() - cpu0;
      }
      if (window_open) submit(blocks[f.block].qubit, done);
    }
    out.offered_per_second =
        static_cast<double>(out.requests) / out.wall_seconds;
    return out;
  }
};

}  // namespace

void run_bulk_fixed(const options& opt, const scale& sizes, report& rep) {
  print_context(rep, opt,
                "closed loop, 1 thread, 2 x 1024-shot requests outstanding per "
                "qubit, fixed Q16.16 engine, model_registry provider");
  obs::trace_ring ring(kTraceCapacity);
  std::unique_ptr<serve::readout_server> server;
  setup_timing timing;
  std::unique_ptr<deployment> dep = run_setups(
      sizes, opt.seed, /*with_registry=*/true, timing, [&] { server.reset(); },
      [&](deployment& d) {
        server = std::make_unique<serve::readout_server>(
            *d.registry, serve::server_config{.max_inflight = 16,
                                              .traces = &ring});
      });

  std::vector<const hw::fixed_discriminator<fx::q16_16>*> served_hw;
  std::vector<registry::snapshot_ptr> snapshots;
  for (std::size_t q = 0; q < kQubits; ++q) {
    snapshots.push_back(dep->registry->active(q));
    served_hw.push_back(&snapshots.back()->hardware());
  }
  const std::vector<reference> refs = build_references(*dep, served_hw);
  std::vector<request_block> blocks;
  for (std::size_t q = 0; q < kQubits; ++q) {
    for (std::size_t b = 0; b < kBlocksPerQubit; ++b) {
      blocks.push_back(make_block(
          *dep, refs, q,
          draw_rows(*dep, q, kBulkShots, opt.seed * 7919 + q * 31 + b)));
    }
  }
  std::vector<std::uint8_t> choice(kScheduleLength);
  xoshiro256 rng(opt.seed ^ 0xb01cf1edull);
  for (auto& c : choice) {
    c = static_cast<std::uint8_t>(rng.uniform_index(kBlocksPerQubit));
  }
  rep.context("request_sequence_hash",
              hex64(hash_blocks(blocks, fnv1a(choice.data(), choice.size()))));
  rep.context("open_loop_rate", "none (closed loop)");
  rep.context("latency_limit", "none (closed loop)");

  isolated_results isolated;
  net_probe probe;
  if (opt.trace) {
    isolated = add_isolated_layers(rep, *dep);
    probe = run_net_probe(*dep, kNetProbeRequests);
  }

  closed_loop loop{*server, blocks, choice};
  tally warm_tally, measured_tally, traced_tally;
  const phase_result warm =
      loop.run(opt.smoke ? 0.2 : 1.0, warm_tally, nullptr);
  account(rep, warm, warm_tally);
  const double measured_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  const auto steal0 = cpu_steal_ticks();
  const phase_result measured =
      loop.run(measured_seconds, measured_tally, nullptr);
  print_steal(rep, steal0, cpu_steal_ticks());
  account(rep, measured, measured_tally);
  add_end_to_end(rep, measured, measured_tally, timing);
  if (!opt.trace) return;

  const obs::metrics_snapshot before = server->metrics().snapshot();
  ring.clear();
  ring.set_armed(true);
  const phase_result traced = loop.run(opt.seconds / 2, traced_tally, &ring);
  ring.set_armed(false);
  const obs::metrics_snapshot after = server->metrics().snapshot();
  account(rep, traced, traced_tally);

  const double shots_per_second = measured.shots / measured.wall_seconds;
  add_setup_layers(rep, timing);
  add_serve_layers(rep, after, before, traced, shots_per_second,
                   isolated.fixed_block_ns_per_shot,
                   global_thread_pool().worker_count());
  add_load_layers(rep, measured);
  add_in_process_net_layers(rep, measured, probe);

  const request_cost_fn cost =
      make_request_cost(*dep, serve::engine_kind::fixed_q16, {kBulkShots});
  trace_inputs in;
  in.ring = &ring;
  in.probe = &probe;
  in.root = "bench.request";
  in.latency_layers = {"serve.hold", "serve.queue", "serve.exec"};
  in.untraced_latency_p50 = quantile(measured.latencies, 0.5);
  in.traced_latency_p50 = quantile(traced.latencies, 0.5);
  in.isolated_exec_ns =
      static_cast<double>(traced.requests_total) * cost(kBulkShots);
  in.served_exec_seconds =
      histogram_delta(after, before, "klinq_serve_shard_exec_seconds").sum;
  if (!opt.out_dir.empty()) {
    in.chrome_trace_path = opt.out_dir + "/trace-bulk-fixed.json";
  }
  add_trace_layers(rep, in);
}

}  // namespace perfbench
