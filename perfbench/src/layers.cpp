#include "layers.hpp"

#include <atomic>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "klinq/common/error.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/dsp/batch_extractor.hpp"
#include "klinq/net/client.hpp"
#include "klinq/net/frame.hpp"
#include "klinq/net/tcp_front_end.hpp"
#include "klinq/registry/model_registry.hpp"
#include "klinq/registry/snapshot.hpp"

namespace perfbench {

using namespace klinq;
using fx::q16_16;

namespace {

constexpr std::size_t kTile = 64;
constexpr std::size_t kBlockRows = 1024;

volatile double g_sink = 0.0;

/// Median over 5 repetitions of the per-call time of `f`, each repetition
/// doubling its call count until it runs for at least 2 ms.
template <class F>
double ns_per_call(F&& f) {
  f();
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    std::size_t n = 1;
    for (;;) {
      const double t0 = now_seconds();
      for (std::size_t i = 0; i < n; ++i) f();
      const double dt = now_seconds() - t0;
      if (dt >= 2e-3 || n >= (std::size_t{1} << 22)) {
        reps.push_back(dt / static_cast<double>(n) * 1e9);
        break;
      }
      n *= 2;
    }
  }
  return median(reps);
}

/// Mean over qubits of a per-qubit cost.
template <class F>
double mean_over_qubits(const deployment& dep, F&& per_qubit) {
  double sum = 0.0;
  for (std::size_t q = 0; q < dep.qubits.size(); ++q) sum += per_qubit(q);
  return sum / static_cast<double>(dep.qubits.size());
}

/// Floats in one [I|Q] trace of qubit q.
double trace_width(const deployment& dep, std::size_t q) {
  return static_cast<double>(dep.qubits[q].data.test.feature_width());
}

std::size_t rows_available(const deployment& dep, std::size_t q,
                           std::size_t want) {
  return std::min(want, dep.qubits[q].data.test.size());
}

/// Network multiply-accumulates from the layer weight shapes.
std::size_t network_macs(const hw::fixed_discriminator<q16_16>& hw) {
  std::size_t macs = 0;
  for (std::size_t l = 0; l < hw.net().layer_count(); ++l) {
    macs += hw.net().layer_weights(l).size();
  }
  return macs;
}

void add_hw_layers(report& rep, const deployment& dep,
                   isolated_results& out) {
  hw::discriminator_scratch<q16_16> scratch;
  aligned_vector<std::int32_t> raw;
  std::vector<aligned_vector<std::int32_t>> raws(kTile);
  aligned_vector<std::int32_t> plane;
  aligned_vector<std::int32_t> logits(kTile);
  hw::quantized_scratch<q16_16> net_scratch;

  const double quantize = mean_over_qubits(dep, [&](std::size_t q) {
    const data::trace_dataset& test = dep.qubits[q].data.test;
    const std::size_t rows = rows_available(dep, q, kTile);
    raw.resize(test.feature_width());
    return ns_per_call([&] {
             for (std::size_t s = 0; s < rows; ++s) {
               hw::fixed_frontend<q16_16>::quantize_trace_raw(test.trace(s),
                                                              raw);
             }
             g_sink = raw[0];
           }) /
           static_cast<double>(rows);
  });
  const double extract = mean_over_qubits(dep, [&](std::size_t q) {
    const data::trace_dataset& test = dep.qubits[q].data.test;
    const hw::fixed_discriminator<q16_16>& hw = dep.qubits[q].hardware;
    const std::size_t rows = rows_available(dep, q, kTile);
    for (std::size_t s = 0; s < rows; ++s) {
      raws[s].resize(test.feature_width());
      hw::fixed_frontend<q16_16>::quantize_trace_raw(test.trace(s), raws[s]);
    }
    plane.assign(hw.frontend().output_width() * kTile, 0);
    return ns_per_call([&] {
             for (std::size_t s = 0; s < rows; ++s) {
               hw.frontend().extract_raw(raws[s], test.samples_per_quadrature(),
                                         plane.data() + s, kTile);
             }
             g_sink = plane[0];
           }) /
           static_cast<double>(rows);
  });
  // The plane left by the extract loop feeds the forward measurements of
  // the last qubit only, so rebuild it per qubit.
  const auto fill_plane = [&](std::size_t q, std::size_t rows) {
    const data::trace_dataset& test = dep.qubits[q].data.test;
    const hw::fixed_discriminator<q16_16>& hw = dep.qubits[q].hardware;
    plane.assign(hw.frontend().output_width() * kTile, 0);
    raw.resize(test.feature_width());
    for (std::size_t s = 0; s < rows; ++s) {
      hw::fixed_frontend<q16_16>::quantize_trace_raw(test.trace(s), raw);
      hw.frontend().extract_raw(raw, test.samples_per_quadrature(),
                                plane.data() + s, kTile);
    }
  };
  const double forward_tile = mean_over_qubits(dep, [&](std::size_t q) {
    const std::size_t rows = rows_available(dep, q, kTile);
    fill_plane(q, rows);
    const hw::fixed_discriminator<q16_16>& hw = dep.qubits[q].hardware;
    return ns_per_call([&] {
             hw.net().forward_logits_plane(plane.data(), rows, logits.data(),
                                           net_scratch);
             g_sink = logits[0];
           }) /
           static_cast<double>(rows);
  });
  const double forward_single = mean_over_qubits(dep, [&](std::size_t q) {
    const data::trace_dataset& test = dep.qubits[q].data.test;
    const hw::fixed_discriminator<q16_16>& hw = dep.qubits[q].hardware;
    aligned_vector<std::int32_t> row(hw.frontend().output_width());
    raw.resize(test.feature_width());
    hw::fixed_frontend<q16_16>::quantize_trace_raw(test.trace(0), raw);
    hw.frontend().extract_raw(raw, test.samples_per_quadrature(), row.data(),
                              1);
    return ns_per_call([&] {
      g_sink = hw.net().forward_logit_raw(row.data(), net_scratch);
    });
  });
  std::vector<q16_16> registers(kBlockRows);
  const double block = mean_over_qubits(dep, [&](std::size_t q) {
    const data::trace_dataset& test = dep.qubits[q].data.test;
    const std::size_t rows = rows_available(dep, q, kBlockRows);
    return ns_per_call([&] {
             dep.qubits[q].hardware.logits_block(
                 test, 0, rows, std::span(registers).first(rows), scratch);
             g_sink = static_cast<double>(registers[0].raw());
           }) /
           static_cast<double>(rows);
  });
  const double single = mean_over_qubits(dep, [&](std::size_t q) {
    const data::trace_dataset& test = dep.qubits[q].data.test;
    return ns_per_call([&] {
      g_sink = static_cast<double>(
          dep.qubits[q]
              .hardware.logit(test.trace(0), test.samples_per_quadrature(),
                              scratch)
              .raw());
    });
  });
  out.fixed_block_ns_per_shot = block;

  // Shapes: network MACs plus the 2N-wide matched filter; bytes are the
  // float trace read, the int32 trace written and read back, the feature
  // plane written and read, and the weights amortized over a 64-lane tile.
  const double macs = mean_over_qubits(dep, [&](std::size_t q) {
    const hw::fixed_discriminator<q16_16>& hw = dep.qubits[q].hardware;
    const double width = trace_width(dep, q);
    return static_cast<double>(network_macs(hw)) +
           (hw.frontend().uses_matched_filter() ? width : 0.0);
  });
  const double bytes = mean_over_qubits(dep, [&](std::size_t q) {
    const hw::fixed_discriminator<q16_16>& hw = dep.qubits[q].hardware;
    const double width = trace_width(dep, q);
    return 4.0 * width + 8.0 * width +
           8.0 * static_cast<double>(hw.frontend().output_width()) +
           4.0 * static_cast<double>(hw.net().parameter_count()) / kTile;
  });
  rep.add("hw.quantize_ns_per_shot", quantize, "ns", 5);
  rep.add("hw.extract_ns_per_shot", extract, "ns", 5);
  rep.add("hw.forward_tile_ns_per_shot", forward_tile, "ns", 5);
  rep.add("hw.forward_single_ns", forward_single, "ns", 5);
  rep.add("hw.block_ns_per_shot", block, "ns", 5);
  rep.add("hw.single_shot_ns", single, "ns", 5);
  rep.add("hw.macs_per_shot", macs, "count", dep.qubits.size());
  rep.add("hw.bytes_per_shot", bytes, "bytes", dep.qubits.size());
}

void add_float_layers(report& rep, const deployment& dep,
                      isolated_results& out) {
  kd::student_scratch scratch;
  nn::inference_scratch net_scratch;
  std::vector<float> plane;
  std::vector<float> logits(kBlockRows);

  const double extract_tile = mean_over_qubits(dep, [&](std::size_t q) {
    const data::trace_dataset& test = dep.qubits[q].data.test;
    const dsp::batch_extractor extractor(dep.qubits[q].student.pipeline());
    const std::size_t rows = rows_available(dep, q, kTile);
    plane.assign(dep.qubits[q].student.pipeline().output_width() * kTile, 0.f);
    return ns_per_call([&] {
             extractor.extract_tile(test, 0, rows, plane.data(), kTile);
             g_sink = plane[0];
           }) /
           static_cast<double>(rows);
  });
  const double forward_plane = mean_over_qubits(dep, [&](std::size_t q) {
    const data::trace_dataset& test = dep.qubits[q].data.test;
    const dsp::batch_extractor extractor(dep.qubits[q].student.pipeline());
    const std::size_t rows = rows_available(dep, q, kTile);
    plane.assign(dep.qubits[q].student.pipeline().output_width() * kTile, 0.f);
    extractor.extract_tile(test, 0, rows, plane.data(), kTile);
    return ns_per_call([&] {
             dep.qubits[q].student.net().predict_logits_plane(
                 plane.data(), rows, kTile, logits.data(), net_scratch);
             g_sink = logits[0];
           }) /
           static_cast<double>(rows);
  });
  const double block = mean_over_qubits(dep, [&](std::size_t q) {
    const data::trace_dataset& test = dep.qubits[q].data.test;
    const std::size_t rows = rows_available(dep, q, kBlockRows);
    return ns_per_call([&] {
             dep.qubits[q].student.predict_block(
                 test, 0, rows, std::span(logits).first(rows), scratch);
             g_sink = logits[0];
           }) /
           static_cast<double>(rows);
  });
  // 64 lanes drawn from 64 distinct one-shot datasets, as the coalescer's
  // lane packer sees distinct requests.
  const double lanes = mean_over_qubits(dep, [&](std::size_t q) {
    const data::trace_dataset& test = dep.qubits[q].data.test;
    std::vector<data::trace_dataset> singles;
    for (std::size_t s = 0; s < kTile; ++s) {
      const std::vector<std::size_t> row{s % test.size()};
      singles.push_back(test.subset(row));
    }
    std::vector<const data::trace_dataset*> sets;
    for (const auto& d : singles) sets.push_back(&d);
    const std::vector<std::size_t> rows(kTile, 0);
    return ns_per_call([&] {
             dep.qubits[q].student.predict_lanes(
                 sets.data(), rows.data(), kTile,
                 std::span(logits).first(kTile), scratch);
             g_sink = logits[0];
           }) /
           static_cast<double>(kTile);
  });
  out.float_block_ns_per_shot = block;

  const double macs = mean_over_qubits(dep, [&](std::size_t q) {
    const double width = trace_width(dep, q);
    return static_cast<double>(network_macs(dep.qubits[q].hardware)) + width;
  });
  const double bytes = mean_over_qubits(dep, [&](std::size_t q) {
    const double width = trace_width(dep, q);
    return 4.0 * width +
           8.0 * static_cast<double>(
                     dep.qubits[q].student.pipeline().output_width()) +
           4.0 * static_cast<double>(dep.qubits[q].student.parameter_count()) /
               kTile;
  });
  rep.add("dsp.extract_tile_ns_per_shot", extract_tile, "ns", 5);
  rep.add("nn.forward_plane_ns_per_shot", forward_plane, "ns", 5);
  rep.add("kd.block_ns_per_shot", block, "ns", 5);
  rep.add("kd.lanes_ns_per_shot", lanes, "ns", 5);
  // Two flops per MAC (network + matched filter) plus the averaging adds.
  rep.add("nn.flops_per_shot", 2.0 * macs + trace_width(dep, 0), "count",
          dep.qubits.size());
  rep.add("nn.bytes_per_shot", bytes, "bytes", dep.qubits.size());
}

void add_registry_and_pool(report& rep, const deployment& dep) {
  std::unique_ptr<registry::model_registry> own;
  const registry::model_registry* reg = dep.registry.get();
  if (reg == nullptr) {
    own = std::make_unique<registry::model_registry>(dep.qubits.size());
    for (std::size_t q = 0; q < dep.qubits.size(); ++q) {
      own->publish(q, registry::model_snapshot(dep.qubits[q].student));
    }
    reg = own.get();
  }
  std::size_t q = 0;
  const double acquire = ns_per_call([&] {
    const serve::engine_lease lease = reg->acquire(q);
    g_sink = static_cast<double>(lease.version);
    q = (q + 1) % dep.qubits.size();
  });
  rep.add("registry.acquire_ns", acquire, "ns", 5);

  // Empty-task submit → start on an idle pool; a workerless pool runs the
  // task inline, which reads as ~0.
  std::vector<double> wake;
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    std::atomic<double> started{0.0};
    const double t0 = now_seconds();
    global_thread_pool().submit([&started] {
      started.store(now_seconds(), std::memory_order_release);
    });
    double s = 0.0;
    while ((s = started.load(std::memory_order_acquire)) == 0.0) {
      std::this_thread::yield();
    }
    wake.push_back(s - t0);
  }
  rep.add("pool.workers",
          static_cast<double>(global_thread_pool().worker_count()), "count",
          1);
  rep.add("pool.wake_us_p50", quantile(wake, 0.5) * 1e6, "us", wake.size());
}

void add_net_codec(report& rep, const deployment& dep) {
  const data::trace_dataset& test = dep.qubits[0].data.test;
  for (const std::size_t shots : {std::size_t{1}, std::size_t{256}}) {
    std::vector<std::size_t> rows(std::min(shots, test.size()));
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    // Tiny test splits (smoke sizes) repeat rows to reach 256 shots.
    while (rows.size() < shots) rows.push_back(rows.size() % test.size());
    const data::trace_dataset block = test.subset(rows);
    net::request_info info;
    info.qubit = 0;
    info.samples_per_quadrature =
        static_cast<std::uint32_t>(block.samples_per_quadrature());
    info.shots = static_cast<std::uint32_t>(block.size());
    std::vector<std::uint8_t> frame;
    const double encode_request = ns_per_call([&] {
      frame = net::encode_request(1, info, serve::lane_class::bulk, block);
      g_sink = frame[0];
    });
    data::trace_dataset decoded;
    const std::span<const std::uint8_t> payload(
        frame.data() + net::kHeaderSize, frame.size() - net::kHeaderSize);
    const double decode_request = ns_per_call([&] {
      g_sink = net::decode_request(payload, decoded).shots;
    });
    serve::readout_result result;
    result.engine = serve::engine_kind::fixed_q16;
    result.states.assign(block.size(), 1);
    result.registers.resize(block.size());
    dep.qubits[0].hardware.logits(block, result.registers);
    std::vector<std::uint8_t> response;
    const double encode_response = ns_per_call([&] {
      response = net::encode_response(1, result);
      g_sink = response[0];
    });
    const std::span<const std::uint8_t> body(
        response.data() + net::kHeaderSize, response.size() - net::kHeaderSize);
    const double decode_response = ns_per_call([&] {
      g_sink = net::decode_response(body).shots;
    });
    const std::string suffix = "_ns." + std::to_string(shots) + "shot";
    rep.add("net.encode_request" + suffix, encode_request, "ns", 5);
    rep.add("net.decode_request" + suffix, decode_request, "ns", 5);
    rep.add("net.encode_response" + suffix, encode_response, "ns", 5);
    rep.add("net.decode_response" + suffix, decode_response, "ns", 5);
  }
}

}  // namespace

isolated_results add_isolated_layers(report& rep, const deployment& dep) {
  isolated_results out;
  add_hw_layers(rep, dep, out);
  add_float_layers(rep, dep, out);
  add_registry_and_pool(rep, dep);
  add_net_codec(rep, dep);
  return out;
}

namespace {

/// One single-shot dataset per (qubit, row) for the probes.
std::vector<data::trace_dataset> single_shots(const deployment& dep,
                                              std::size_t per_qubit) {
  std::vector<data::trace_dataset> out;
  for (const qubit_models& q : dep.qubits) {
    for (std::size_t r = 0; r < per_qubit; ++r) {
      const std::vector<std::size_t> row{r % q.data.test.size()};
      out.push_back(q.data.test.subset(row));
    }
  }
  return out;
}

}  // namespace

net_probe run_net_probe(const deployment& dep, std::size_t requests) {
  constexpr std::size_t kPerQubit = 16;
  const std::vector<data::trace_dataset> singles = single_shots(dep, kPerQubit);
  obs::trace_ring ring(8 * requests + 64);
  ring.set_armed(true);
  serve::readout_server server(dep.engines(), {.traces = &ring});
  net::front_end_config config;
  config.traces = &ring;
  net::tcp_front_end front_end(server, config);
  net::client cli("127.0.0.1", front_end.port());
  cli.enable_tracing(&ring, 1.0);
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t q = i % dep.qubits.size();
    const data::trace_dataset& block =
        singles[q * kPerQubit + (i / dep.qubits.size()) % kPerQubit];
    net::request_info info;
    info.qubit = static_cast<std::uint32_t>(q);
    info.samples_per_quadrature =
        static_cast<std::uint32_t>(block.samples_per_quadrature());
    info.shots = 1;
    const std::uint64_t id =
        cli.send_request(info, block, serve::lane_class::feedback);
    KLINQ_REQUIRE(cli.read_reply(id, 5.0).has_value(),
                  "net probe: the front end closed the connection");
  }
  cli.send_goodbye();
  front_end.shutdown();
  ring.set_armed(false);
  const net::front_end_stats stats = front_end.stats();
  net_probe out;
  out.spans = ring.spans();
  out.requests = stats.requests_admitted + stats.busy_rejections;
  const auto requests_seen =
      static_cast<double>(std::max<std::uint64_t>(1, out.requests));
  out.busy_ratio = static_cast<double>(stats.busy_rejections) / requests_seen;
  out.bytes_per_request =
      static_cast<double>(stats.bytes_received + stats.bytes_sent) /
      static_cast<double>(std::max<std::uint64_t>(1, stats.requests_admitted));
  return out;
}

std::vector<double> isolated_submit_seconds(const deployment& dep,
                                            std::size_t requests) {
  constexpr std::size_t kPerQubit = 16;
  const std::vector<data::trace_dataset> singles = single_shots(dep, kPerQubit);
  serve::readout_server server(dep.engines());
  serve::readout_result result;
  std::vector<double> out;
  for (std::size_t i = 0; i < requests; ++i) {
    const std::size_t q = i % dep.qubits.size();
    const serve::readout_request request{
        .qubit = q,
        .traces = &singles[q * kPerQubit + (i / dep.qubits.size()) % kPerQubit],
        .engine = serve::engine_kind::fixed_q16,
        .lane = serve::lane_class::feedback};
    const double t0 = now_seconds();
    const serve::ticket t = server.submit(request);
    out.push_back(now_seconds() - t0);
    server.wait(t, result);
  }
  return out;
}

request_cost_fn make_request_cost(const deployment& dep,
                                  serve::engine_kind engine,
                                  const std::vector<std::size_t>& sizes) {
  auto costs = std::make_shared<std::map<std::size_t, double>>();
  hw::discriminator_scratch<q16_16> fixed_scratch;
  kd::student_scratch float_scratch;
  std::vector<q16_16> registers;
  std::vector<float> logits;
  for (const std::size_t shots : sizes) {
    (*costs)[shots] = mean_over_qubits(dep, [&](std::size_t q) {
      const data::trace_dataset& test = dep.qubits[q].data.test;
      const std::size_t rows = std::min(shots, test.size());
      registers.resize(rows);
      logits.resize(rows);
      const double ns = ns_per_call([&] {
        if (engine == serve::engine_kind::fixed_q16) {
          dep.qubits[q].hardware.logits_block(test, 0, rows, registers,
                                              fixed_scratch);
        } else {
          dep.qubits[q].student.predict_block(test, 0, rows, logits,
                                              float_scratch);
        }
      });
      // Smoke-size splits may hold fewer rows than a request; scale up.
      return ns * static_cast<double>(shots) / static_cast<double>(rows);
    });
  }
  return [costs](std::size_t shots) {
    const auto it = costs->find(shots);
    return it == costs->end() ? 0.0 : it->second;
  };
}

}  // namespace perfbench
