// Google-benchmark throughput benches for the fixed-point MAC kernels.
//
// Measures mac_row / mac_tile / quantize_block / frontend_tile per dispatch
// tier (int128 reference, scalar64, AVX2/AVX-512 where the host has them) and
// per format (Q8.8, Q16.16), in MACs/sec (row/tile) and samples/sec
// (quantize, front end). Shapes match the real datapath: 201-wide rows
// (FNN-B's first layer), 64-shot tiles, 1000-sample traces, and front-end
// tiles of 1, 8 and 64 shots with 15 (FNN-A) or 100 (FNN-B) AVG groups.
// The reference rows quantify exactly what the int64 post-scaler buys over
// the int128 round-shift. Plain rows draw weights and taps up to 2^(T-3)
// raw, so every product takes the clamped post-scaler; the *InRange rows
// draw them inside (-1, 1), as trained students have them, so the kernels
// run without the per-product clamp (fx::kernels::products_in_range).
//
// Machine-readable snapshot:
//   bench_fixed_kernels --benchmark_out=BENCH_fixed.json
//                       --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_gbench.hpp"
#include "klinq/common/rng.hpp"
#include "klinq/fixed/fixed.hpp"
#include "klinq/fixed/fixed_kernels.hpp"

namespace {

using namespace klinq;
namespace kernels = fx::kernels;
using fx::fixed_accumulator;
using fx::q16_16;
using fx::q8_8;

template <class Fixed>
std::vector<std::int32_t> random_raws(std::size_t n, std::uint64_t seed) {
  xoshiro256 rng(seed);
  std::vector<std::int32_t> raws(n);
  for (auto& raw : raws) {
    raw = static_cast<std::int32_t>(
        rng.uniform(static_cast<double>(Fixed::raw_min) / 4,
                    static_cast<double>(Fixed::raw_max) / 4));
  }
  return raws;
}

/// Registers inside (-1, 1): they pass products_in_range.
template <class Fixed>
std::vector<std::int32_t> in_range_raws(std::size_t n, std::uint64_t seed) {
  xoshiro256 rng(seed);
  const double limit =
      static_cast<double>((std::int64_t{1} << Fixed::frac_bits) - 1);
  std::vector<std::int32_t> raws(n);
  for (auto& raw : raws) {
    raw = static_cast<std::int32_t>(rng.uniform(-limit, limit));
  }
  return raws;
}

/// The weights (or taps) of a bench row: in range or full range.
template <class Fixed, bool InRange>
std::vector<std::int32_t> bench_weights(std::size_t n, std::uint64_t seed) {
  return InRange ? in_range_raws<Fixed>(n, seed) : random_raws<Fixed>(n, seed);
}

// --- mac_row: one 201-wide neuron row --------------------------------------

template <class Fixed>
void BM_MacRowReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto weights = random_raws<Fixed>(n, 1);
  const auto inputs = random_raws<Fixed>(n, 2);
  for (auto _ : state) {
    fixed_accumulator<Fixed> acc;
    for (std::size_t i = 0; i < n; ++i) {
      acc.add(Fixed::from_raw(weights[i]) * Fixed::from_raw(inputs[i]));
    }
    benchmark::DoNotOptimize(acc.result());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

template <class Fixed, bool InRange>
void BM_MacRowKernel(benchmark::State& state,
                     const kernels::kernel_table* tier) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto weights = bench_weights<Fixed, InRange>(n, 1);
  const auto inputs = random_raws<Fixed>(n, 2);
  const auto spec = kernels::spec_of<Fixed>();
  const bool in_range = kernels::products_in_range(weights.data(), n, spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tier->mac_row(weights.data(), inputs.data(), n, 0, in_range, spec));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

// --- mac_tile: one layer over a 64-shot tile -------------------------------

template <class Fixed, bool InRange>
void BM_MacTileKernel(benchmark::State& state,
                      const kernels::kernel_table* tier) {
  constexpr std::size_t stride = kernels::max_tile_lanes;
  const auto out_dim = static_cast<std::size_t>(state.range(0));
  const auto in_dim = static_cast<std::size_t>(state.range(1));
  const auto weights = bench_weights<Fixed, InRange>(out_dim * in_dim, 3);
  const auto bias = random_raws<Fixed>(out_dim, 4);
  const auto plane = random_raws<Fixed>(in_dim * stride, 5);
  std::vector<std::int32_t> out(out_dim * stride);
  const auto spec = kernels::spec_of<Fixed>();
  std::vector<std::uint8_t> rows_in_range(out_dim);
  for (std::size_t o = 0; o < out_dim; ++o) {
    rows_in_range[o] = kernels::products_in_range(
        weights.data() + o * in_dim, in_dim, spec);
  }
  for (auto _ : state) {
    tier->mac_tile(weights.data(), bias.data(), rows_in_range.data(), out_dim,
                   in_dim, plane.data(), stride, stride, true, out.data(),
                   spec);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out_dim * in_dim *
                                                    stride));
}

// --- quantize_block: one 1000-sample trace ---------------------------------

template <class Fixed>
void BM_QuantizeBlockReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  xoshiro256 rng(6);
  std::vector<float> trace(n);
  for (auto& v : trace) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  std::vector<std::int32_t> out(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::int32_t>(Fixed::from_double(trace[i]).raw());
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

template <class Fixed>
void BM_QuantizeBlockKernel(benchmark::State& state,
                            const kernels::kernel_table* tier) {
  const auto n = static_cast<std::size_t>(state.range(0));
  xoshiro256 rng(6);
  std::vector<float> trace(n);
  for (auto& v : trace) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  std::vector<std::int32_t> out(n);
  const auto spec = kernels::spec_of<Fixed>();
  for (auto _ : state) {
    tier->quantize_block(trace.data(), n, out.data(), spec);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

// --- frontend_tile: quantize → AVG ∥ MF → NORM over a shot tile ---------

/// Front end over N = 500 complex samples with `groups` AVG groups per
/// quadrature and an MF envelope; NORM exponents mix both shift signs, as
/// fitted front ends do.
template <class Fixed, bool InRange>
void BM_FrontendTileKernel(benchmark::State& state,
                           const kernels::kernel_table* tier) {
  constexpr std::size_t n = 500;
  const auto groups = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  const std::size_t width = 2 * groups + 1;
  xoshiro256 rng(7);
  std::vector<std::vector<float>> traces(lanes, std::vector<float>(2 * n));
  std::vector<const float*> pointers;
  for (auto& trace : traces) {
    for (auto& v : trace) v = static_cast<float>(rng.uniform(-2.0, 2.0));
    pointers.push_back(trace.data());
  }
  std::vector<std::size_t> group_end(groups);
  std::vector<std::int32_t> reciprocal(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    group_end[g] = (g + 1) * n / groups;
    const std::size_t length = group_end[g] - g * n / groups;
    reciprocal[g] = static_cast<std::int32_t>(
        Fixed::from_double(1.0 / static_cast<double>(length)).raw());
  }
  const auto envelope = bench_weights<Fixed, InRange>(2 * n, 8);
  const auto x_min = random_raws<Fixed>(width, 9);
  std::vector<int> shift(width);
  for (std::size_t c = 0; c < width; ++c) {
    shift[c] = static_cast<int>(c % 7) - 4;
  }
  const kernels::frontend_spec frontend{.samples = n,
                                        .groups = groups,
                                        .group_end = group_end.data(),
                                        .reciprocal = reciprocal.data(),
                                        .envelope = envelope.data(),
                                        .taps_in_range =
                                            kernels::products_in_range(
                                                envelope.data(),
                                                envelope.size(),
                                                kernels::spec_of<Fixed>()),
                                        .x_min = x_min.data(),
                                        .shift = shift.data()};
  constexpr std::size_t stride = kernels::max_tile_lanes;
  std::vector<std::int32_t> plane(width * stride);
  const auto spec = kernels::spec_of<Fixed>();
  for (auto _ : state) {
    tier->frontend_tile(pointers.data(), lanes, frontend, plane.data(), stride,
                        spec);
    benchmark::DoNotOptimize(plane.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes * 2 * n));
}

/// One format's rows: the int128 references, then per tier the MAC,
/// quantize and front-end rows (BM_<kernel>_<tier>_<tag>). A tier this
/// build or CPU cannot run gets no rows, so --benchmark_filter selects
/// among the rest as given.
template <class Fixed>
void register_format(const std::string& tag) {
  const auto row = [&](const char* kernel, const char* tier) {
    return "BM_" + std::string(kernel) + "_" + tier + "_" + tag;
  };
  benchmark::RegisterBenchmark(row("MacRow", "int128ref").c_str(),
                               BM_MacRowReference<Fixed>)
      ->Arg(201);
  benchmark::RegisterBenchmark(row("QuantizeBlock", "ref").c_str(),
                               BM_QuantizeBlockReference<Fixed>)
      ->Arg(1000);
  for (const simd_tier tier :
       {simd_tier::scalar64, simd_tier::avx2, simd_tier::avx512}) {
    const kernels::kernel_table* table = kernels::kernels_for(tier);
    if (table == nullptr) continue;
    const char* name = simd_tier_name(tier);
    benchmark::RegisterBenchmark(row("MacRow", name).c_str(),
                                 BM_MacRowKernel<Fixed, false>, table)
        ->Arg(201);
    benchmark::RegisterBenchmark(row("MacRowInRange", name).c_str(),
                                 BM_MacRowKernel<Fixed, true>, table)
        ->Arg(201);
    benchmark::RegisterBenchmark(row("MacTile", name).c_str(),
                                 BM_MacTileKernel<Fixed, false>, table)
        ->Args({16, 201});
    benchmark::RegisterBenchmark(row("MacTileInRange", name).c_str(),
                                 BM_MacTileKernel<Fixed, true>, table)
        ->Args({16, 201});
    benchmark::RegisterBenchmark(row("QuantizeBlock", name).c_str(),
                                 BM_QuantizeBlockKernel<Fixed>, table)
        ->Arg(1000);
    benchmark::RegisterBenchmark(row("FrontendTile", name).c_str(),
                                 BM_FrontendTileKernel<Fixed, false>, table)
        ->ArgNames({"groups", "lanes"})
        ->ArgsProduct({{15, 100}, {1, 8, 64}});
    benchmark::RegisterBenchmark(row("FrontendTileInRange", name).c_str(),
                                 BM_FrontendTileKernel<Fixed, true>, table)
        ->ArgNames({"groups", "lanes"})
        ->ArgsProduct({{15, 100}, {1, 8, 64}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  klinq::bench::add_klinq_context();
  for (const simd_tier tier : {simd_tier::avx2, simd_tier::avx512}) {
    benchmark::AddCustomContext(
        std::string("klinq_") + simd_tier_name(tier) + "_available",
        kernels::kernels_for(tier) != nullptr ? "true" : "false");
  }
  register_format<q16_16>("q16.16");
  register_format<q8_8>("q8.8");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
