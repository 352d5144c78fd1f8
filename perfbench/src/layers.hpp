// Isolated layer measurements: each layer's public entry point called
// directly on the workload's own inputs, single-threaded, before the load
// phase. Operation and byte counts are computed from tensor shapes.
#pragma once

#include <cstddef>
#include <vector>

#include "klinq/serve/request.hpp"
#include "setup.hpp"
#include "workload.hpp"

namespace perfbench {

struct isolated_results {
  /// Serial block cost per shot of each engine (1024-row blocks).
  double fixed_block_ns_per_shot = 0.0;
  double float_block_ns_per_shot = 0.0;
};

/// Adds the hw.*, dsp.*, nn.*, kd.*, registry.*, pool.workers,
/// pool.wake_us_p50 and isolated net.* codec metrics. registry.acquire_ns
/// uses the deployment's registry, or a scratch one built from its students.
isolated_results add_isolated_layers(report& rep, const deployment& dep);

/// Loopback TCP probe of the net layer (see net_probe): `requests` single-
/// shot feedback-lane fixed requests through a temporary server and front
/// end on the deployment's engines, round-robin over the qubits.
net_probe run_net_probe(const deployment& dep, std::size_t requests);

/// Bench-timed readout_server::submit of `requests` single-shot feedback-
/// lane fixed requests on a temporary server, each waited before the next
/// (the TCP workload's front end owns its server's submit calls).
std::vector<double> isolated_submit_seconds(const deployment& dep,
                                            std::size_t requests);

/// Isolated serial cost model of one request: the median time of
/// logits_block / predict_block over `shots` rows, averaged over qubits,
/// measured once for each size in `sizes`.
request_cost_fn make_request_cost(const deployment& dep,
                                  klinq::serve::engine_kind engine,
                                  const std::vector<std::size_t>& sizes);

}  // namespace perfbench
