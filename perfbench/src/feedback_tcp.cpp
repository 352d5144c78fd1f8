// feedback-tcp: loopback TCP through an in-process tcp_front_end. One
// feedback client runs a closed loop of single-shot, feedback-lane,
// fixed-engine requests round-robin over the qubits (a controller waiting
// for each mid-circuit decision); one bulk client offers 256-shot bulk
// requests at a fixed rate (evenly spaced; the seed picks the blocks). Latency
// metrics cover the feedback requests; every response of both clients is
// decoded and checked against the serial reference.
#include <thread>
#include <unordered_map>

#include "klinq/common/rng.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/net/client.hpp"
#include "klinq/net/frame.hpp"
#include "klinq/net/tcp_front_end.hpp"
#include "layers.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace klinq;

namespace {

/// Bulk offered load (about half of bulk-fixed capacity on a 4-CPU host)
/// and the feedback latency limit.
constexpr double kBulkRequestsPerSecond = 250.0;
constexpr std::size_t kBulkShots = 256;
constexpr double kFeedbackP99LimitSeconds = 1e-3;
constexpr std::size_t kBulkBlocksPerQubit = 4;
constexpr std::size_t kFeedbackShotsPerQubit = 256;

net::request_info info_for(const request_block& block) {
  net::request_info info;
  info.qubit = static_cast<std::uint32_t>(block.qubit);
  info.engine = serve::engine_kind::fixed_q16;
  info.samples_per_quadrature =
      static_cast<std::uint32_t>(block.traces.samples_per_quadrature());
  info.shots = static_cast<std::uint32_t>(block.traces.size());
  return info;
}

/// Decodes and checks one reply frame; false for busy/error/mismatch.
bool check_reply(const net::client_frame& frame, const request_block& block,
                 tally& t) {
  if (frame.header.type != net::frame_type::response) return false;
  const net::response_view view = net::decode_response(frame.payload);
  return view.status == serve::request_status::ok &&
         t.check_fixed(block, view.registers, view.states);
}

struct bulk_arrival {
  double due = 0.0;
  std::uint32_t block = 0;
};

std::vector<bulk_arrival> make_bulk_schedule(std::uint64_t seed,
                                             double seconds) {
  xoshiro256 rng(seed);
  std::vector<bulk_arrival> out;
  for (double t = 0.5 / kBulkRequestsPerSecond; t < seconds;
       t += 1.0 / kBulkRequestsPerSecond) {
    out.push_back({t, static_cast<std::uint32_t>(
                          rng.uniform_index(kQubits * kBulkBlocksPerQubit))});
  }
  return out;
}

struct bulk_outcome {
  std::uint64_t attempted = 0, failed = 0, shots = 0, shots_total = 0;
  std::vector<double> latencies;
  std::vector<double> lag;
};

/// Open-loop bulk sender: sends each request at its due time and reads
/// replies in between.
bulk_outcome run_bulk(net::client& cli,
                      const std::vector<request_block>& blocks,
                      const std::vector<bulk_arrival>& schedule, double start,
                      double end, tally& t) {
  bulk_outcome out;
  std::unordered_map<std::uint64_t, std::size_t> pending;  // id → arrival
  std::size_t next = 0;
  const auto handle = [&](const net::client_frame& frame) {
    const auto it = pending.find(frame.header.request_id);
    if (it == pending.end()) return;
    const bulk_arrival& a = schedule[it->second];
    pending.erase(it);
    const double done = now_seconds();
    const bool ok = check_reply(frame, blocks[a.block], t);
    out.latencies.push_back(ok ? done - (start + a.due) : 1e9);
    if (!ok) {
      ++out.failed;
      return;
    }
    out.shots_total += kBulkShots;
    if (done <= end) out.shots += kBulkShots;
  };
  while (next < schedule.size() || !pending.empty()) {
    const double now = now_seconds();
    if (next < schedule.size() && start + schedule[next].due <= now) {
      const request_block& block = blocks[schedule[next].block];
      out.lag.push_back(now - (start + schedule[next].due));
      pending[cli.send_request(info_for(block), block.traces)] = next;
      ++out.attempted;
      ++next;
      continue;
    }
    const double timeout = next < schedule.size()
                               ? start + schedule[next].due - now
                               : 5.0;
    const std::optional<net::client_frame> frame = cli.read_frame(timeout);
    if (frame) {
      handle(*frame);
    } else if (next >= schedule.size()) {
      break;  // the rest never answered: counted failed below
    }
  }
  out.failed += pending.size();
  return out;
}

struct feedback_loop {
  const std::vector<request_block>& singles;  // [qubit * shots + i]
  std::size_t next = 0;

  phase_result run(net::client& cli, double start, double end, tally& t,
                   const obs::trace_ring* ring) {
    phase_result out;
    while (now_seconds() < end) {
      if (ring != nullptr &&
          ring->recorded() > kTraceStopFill * kTraceCapacity) {
        break;
      }
      const std::size_t qubit = next % kQubits;
      const std::size_t shot = (next / kQubits) % kFeedbackShotsPerQubit;
      ++next;
      const request_block& block =
          singles[qubit * kFeedbackShotsPerQubit + shot];
      const double sent = now_seconds();
      const std::uint64_t id = cli.send_request(info_for(block), block.traces,
                                                serve::lane_class::feedback);
      const std::optional<net::client_frame> frame = cli.read_reply(id, 5.0);
      const double done = now_seconds();
      ++out.attempted;
      const bool ok = frame && check_reply(*frame, block, t);
      out.latencies.push_back(ok ? done - sent : 1e9);
      out.latency_at.push_back(sent - start);
      if (!ok) {
        ++out.failed;
        continue;
      }
      ++out.requests;
      ++out.requests_total;
      ++out.shots;
      ++out.shots_total;
    }
    out.wall_seconds = now_seconds() - start;
    return out;
  }
};

}  // namespace

void run_feedback_tcp(const options& opt, const scale& sizes, report& rep) {
  print_context(rep, opt,
                "loopback TCP: 1 closed-loop feedback client (1-shot, "
                "feedback lane) + 1 open-loop bulk client (256-shot, evenly "
                "spaced), fixed engine, static binding, 2 threads, 2 "
                "connections");
  const double warm_seconds = opt.smoke ? 0.2 : 1.0;
  const double measured_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;

  obs::trace_ring ring(kTraceCapacity);
  std::unique_ptr<serve::readout_server> server;
  std::unique_ptr<net::tcp_front_end> front_end;
  setup_timing timing;
  std::unique_ptr<deployment> dep = run_setups(
      sizes, opt.seed, /*with_registry=*/false, timing,
      [&] {
        front_end.reset();
        server.reset();
      },
      [&](deployment& d) {
        server = std::make_unique<serve::readout_server>(
            d.engines(),
            serve::server_config{.max_inflight = 256, .traces = &ring});
        net::front_end_config fe;
        fe.max_inflight = 128;
        fe.feedback_reserve = 16;
        fe.max_inflight_per_connection = 96;
        fe.max_inflight_bytes_per_connection = std::size_t{256} << 20;
        fe.poll_interval_seconds = 0.01;
        fe.traces = &ring;
        front_end = std::make_unique<net::tcp_front_end>(*server, fe);
      });

  std::vector<const hw::fixed_discriminator<fx::q16_16>*> served_hw;
  for (const qubit_models& q : dep->qubits) served_hw.push_back(&q.hardware);
  const std::vector<reference> refs = build_references(*dep, served_hw);
  std::vector<request_block> bulk_blocks, singles;
  for (std::size_t q = 0; q < kQubits; ++q) {
    for (std::size_t b = 0; b < kBulkBlocksPerQubit; ++b) {
      bulk_blocks.push_back(make_block(
          *dep, refs, q,
          draw_rows(*dep, q, kBulkShots, opt.seed * 15485863 + q * 131 + b)));
    }
    const std::vector<std::size_t> rows =
        draw_rows(*dep, q, kFeedbackShotsPerQubit, opt.seed * 32452843 + q);
    for (const std::size_t r : rows) {
      singles.push_back(make_block(*dep, refs, q, {r}));
    }
  }
  const std::vector<bulk_arrival> warm_schedule =
      make_bulk_schedule(opt.seed * 3 + 11, warm_seconds);
  const std::vector<bulk_arrival> measured_schedule =
      make_bulk_schedule(opt.seed * 3 + 12, measured_seconds);
  const std::vector<bulk_arrival> traced_schedule =
      make_bulk_schedule(opt.seed * 3 + 13, opt.seconds / 2);
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const bulk_arrival& a : measured_schedule) {  // fields, not padding
    h = fnv1a(&a.due, sizeof(a.due), h);
    h = fnv1a(&a.block, sizeof(a.block), h);
  }
  h = hash_blocks(bulk_blocks, h);
  rep.context("request_sequence_hash", hex64(hash_blocks(singles, h)));
  rep.context("open_loop_rate",
              std::to_string(static_cast<int>(kBulkRequestsPerSecond)) +
                  " bulk requests/s x 256 shots, evenly spaced, " +
                  std::to_string(measured_schedule.size()) +
                  " in the measured phase");
  rep.context("latency_limit",
              "feedback p99 " +
                  std::to_string(
                      static_cast<int>(kFeedbackP99LimitSeconds * 1e6)) +
                  " us");

  isolated_results isolated;
  std::vector<double> submit_seconds;
  if (opt.trace) {
    isolated = add_isolated_layers(rep, *dep);
    submit_seconds = isolated_submit_seconds(*dep, kNetProbeRequests);
  }

  net::client feedback_client("127.0.0.1", front_end->port());
  net::client bulk_client("127.0.0.1", front_end->port());
  feedback_loop loop{singles};
  // One phase: the bulk sender on its own thread, the feedback loop here.
  const auto run_phase = [&](const std::vector<bulk_arrival>& schedule,
                             double seconds, tally& t, bulk_outcome& bulk,
                             const obs::trace_ring* ring) {
    const double start = now_seconds() + 1e-3;
    const double end = start + seconds;
    const double cpu0 = process_cpu_seconds();
    tally bulk_tally;
    std::thread sender([&] {
      bulk = run_bulk(bulk_client, bulk_blocks, schedule, start, end,
                      bulk_tally);
    });
    sleep_until(start);
    phase_result out = loop.run(feedback_client, start, end, t, ring);
    sender.join();
    out.cpu_seconds = process_cpu_seconds() - cpu0;
    for (std::size_t q = 0; q < kQubits; ++q) {
      t.shots[q] += bulk_tally.shots[q];
      t.correct[q] += bulk_tally.correct[q];
      t.agree[q] += bulk_tally.agree[q];
    }
    t.mismatched_requests += bulk_tally.mismatched_requests;
    out.attempted += bulk.attempted;
    out.failed += bulk.failed;
    out.shots += bulk.shots;
    out.shots_total += bulk.shots_total;
    out.lag = bulk.lag;
    out.offered_per_second = static_cast<double>(bulk.attempted) / seconds;
    // shots_per_s counts completions inside the window over the window.
    out.wall_seconds = seconds;
    return out;
  };

  tally warm_tally, measured_tally, traced_tally;
  bulk_outcome warm_bulk, measured_bulk, traced_bulk;
  account(rep,
          run_phase(warm_schedule, warm_seconds, warm_tally, warm_bulk,
                    nullptr),
          warm_tally);
  const net::front_end_stats fe_before = front_end->stats();
  const auto steal0 = cpu_steal_ticks();
  const phase_result measured =
      run_phase(measured_schedule, measured_seconds, measured_tally,
                measured_bulk, nullptr);
  const net::front_end_stats fe_after = front_end->stats();
  print_steal(rep, steal0, cpu_steal_ticks());
  account(rep, measured, measured_tally);
  add_end_to_end(rep, measured, measured_tally, timing);
  print_slo(rep, "feedback requests", measured.latencies,
            kFeedbackP99LimitSeconds);

  if (opt.trace) {
    const obs::metrics_snapshot before = server->metrics().snapshot();
    ring.clear();
    ring.set_armed(true);
    feedback_client.enable_tracing(&ring, 1.0);
    phase_result traced =
        run_phase(traced_schedule, opt.seconds / 2, traced_tally, traced_bulk,
                  &ring);
    // The front end makes the submit calls here; serve.submit_us_* are
    // the isolated timings taken before the load.
    traced.submit_seconds = std::move(submit_seconds);
    ring.set_armed(false);
    const obs::metrics_snapshot after = server->metrics().snapshot();
    account(rep, traced, traced_tally);

    add_setup_layers(rep, timing);
    add_serve_layers(rep, after, before, traced,
                     measured.shots / measured.wall_seconds,
                     isolated.fixed_block_ns_per_shot,
                     global_thread_pool().worker_count());
    add_load_layers(rep, measured);
    // Front-end counters over the untraced measured phase.
    const auto delta = [](std::uint64_t after, std::uint64_t before) {
      return static_cast<double>(after - before);
    };
    const double admitted =
        delta(fe_after.requests_admitted, fe_before.requests_admitted);
    const double busy =
        delta(fe_after.busy_rejections, fe_before.busy_rejections);
    const double bytes =
        delta(fe_after.bytes_received, fe_before.bytes_received) +
        delta(fe_after.bytes_sent, fe_before.bytes_sent);
    rep.add("net.busy_ratio", busy / std::max(1.0, admitted + busy), "ratio",
            static_cast<std::uint64_t>(admitted + busy));
    rep.add("net.bytes_per_request", bytes / std::max(1.0, admitted), "bytes",
            static_cast<std::uint64_t>(admitted));
    rep.add("net.bulk_rtt_p99_us",
            quantile(measured_bulk.latencies, 0.99) * 1e6, "us",
            measured_bulk.latencies.size());

    const request_cost_fn cost = make_request_cost(
        *dep, serve::engine_kind::fixed_q16, {1, kBulkShots});
    trace_inputs in;
    in.ring = &ring;
    in.root = "client.rtt";
    in.latency_layers = {"net.read",    "net.decode", "net.admit",
                         "serve.hold",  "serve.queue", "serve.exec",
                         "net.write"};
    in.root_self_is_wire = true;
    in.untraced_latency_p50 = quantile(measured.latencies, 0.5);
    in.traced_latency_p50 = quantile(traced.latencies, 0.5);
    in.isolated_exec_ns =
        static_cast<double>(traced.requests_total) * cost(1) +
        static_cast<double>(traced_bulk.shots_total / kBulkShots) *
            cost(kBulkShots);
    in.served_exec_seconds =
        histogram_delta(after, before, "klinq_serve_shard_exec_seconds").sum;
    if (!opt.out_dir.empty()) {
      in.chrome_trace_path = opt.out_dir + "/trace-feedback-tcp.json";
    }
    add_trace_layers(rep, in);
  }
  feedback_client.send_goodbye();
  bulk_client.send_goodbye();
  front_end->shutdown();
}

}  // namespace perfbench
