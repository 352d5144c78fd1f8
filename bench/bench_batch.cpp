// Google-benchmark throughput benches for the batched inference engine.
//
// Measures shots/sec of the dataset-scale evaluation paths at batch sizes
// {1, 32, 256, 4096}, float and Q16.16, plus the GEMM microkernel they stand
// on. Batch 1 is the old per-shot serial path (the batched APIs fall back to
// it below their parallel thresholds), so the items_per_second trajectory
// directly shows what blocking + the scratch arena + the thread pool buy.
//
// Machine-readable snapshots:
//   bench_batch --benchmark_out=BENCH_batch.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "bench_gbench.hpp"

#include "klinq/common/rng.hpp"
#include "klinq/fixed/fixed.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/kd/distiller.hpp"
#include "klinq/linalg/gemm.hpp"
#include "klinq/nn/kernels.hpp"
#include "klinq/qsim/dataset_builder.hpp"

namespace {

using namespace klinq;
using fx::q16_16;

// Shared fixture: one easy qubit, a distilled FNN-A student, its Q16.16
// twin, and 4096 test shots so the largest batch is a real block.
struct fixture {
  qsim::qubit_dataset data;
  kd::student_model student;
  hw::fixed_discriminator<q16_16> hw_student;

  fixture() {
    qsim::dataset_spec spec;
    spec.device = qsim::single_qubit_test_preset();
    spec.shots_per_permutation_train = 300;
    spec.shots_per_permutation_test = 2048;
    spec.seed = 5;
    data = qsim::build_qubit_dataset(spec, 0);
    kd::student_config config;
    config.groups_per_quadrature = 15;
    config.epochs = 8;
    student = kd::distill_student(data.train, {}, config);
    hw_student = hw::fixed_discriminator<q16_16>(student);
  }
};

fixture& shared_fixture() {
  static fixture f;
  return f;
}

data::trace_dataset first_rows(const data::trace_dataset& ds,
                               std::size_t count) {
  std::vector<std::size_t> rows(count);
  std::iota(rows.begin(), rows.end(), 0);
  return ds.subset(rows);
}

/// Float student path: trace → features → FNN logit, one block per iteration.
void BM_StudentFloatBatch(benchmark::State& state) {
  auto& f = shared_fixture();
  const auto batch = static_cast<std::size_t>(state.range(0));
  const data::trace_dataset block = first_rows(f.data.test, batch);
  kd::student_scratch scratch;
  std::vector<float> logits(batch);
  for (auto _ : state) {
    f.student.predict_batch(block, logits, scratch);
    benchmark::DoNotOptimize(logits.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_StudentFloatBatch)
    ->Arg(1)
    ->Arg(32)
    ->Arg(256)
    ->Arg(4096)
    ->UseRealTime();

/// Fixed-point (Q16.16) path: quantize → AVG/NORM/MF → blocked FC datapath.
void BM_StudentFixedBatch(benchmark::State& state) {
  auto& f = shared_fixture();
  const auto batch = static_cast<std::size_t>(state.range(0));
  const data::trace_dataset block = first_rows(f.data.test, batch);
  std::vector<q16_16> registers(batch);
  for (auto _ : state) {
    f.hw_student.logits(block, registers);
    benchmark::DoNotOptimize(registers.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_StudentFixedBatch)
    ->Arg(1)
    ->Arg(32)
    ->Arg(256)
    ->Arg(4096)
    ->UseRealTime();

/// The true single-shot float API (logit(): fused extraction + per-neuron
/// dot), the serve float engine's per-shot latency floor.
void BM_StudentSingleShotLogit(benchmark::State& state) {
  auto& f = shared_fixture();
  const auto trace = f.data.test.trace(0);
  const std::size_t n = f.data.test.samples_per_quadrature();
  for (auto _ : state) {
    const float logit = f.student.logit(trace, n);
    benchmark::DoNotOptimize(logit);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StudentSingleShotLogit)->UseRealTime();

/// The la:: scalar reference GEMM on the student's first (widest) layer:
/// (batch × 31) · (16 × 31)ᵀ — kept as the baseline the dispatched kernels
/// are compared against.
void BM_GemmNtStudentLayer(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  xoshiro256 rng(17);
  la::matrix_f a(batch, 31);
  la::matrix_f b(16, 31);
  for (auto& v : a.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : b.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  la::matrix_f c(batch, 16);
  for (auto _ : state) {
    la::gemm_nt(a, b, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_GemmNtStudentLayer)->Arg(32)->Arg(256)->Arg(4096)->UseRealTime();

/// The dispatched float kernel (nn::kernels::gemm_nt_bias_act, AVX2 FMA
/// where available) on the same first-layer shape, bias + ReLU fused — the
/// microkernel the inference engine actually runs.
void BM_NnKernelsGemmNtStudentLayer(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  xoshiro256 rng(17);
  la::matrix_f a(batch, 31);
  la::matrix_f b(16, 31);
  for (auto& v : a.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : b.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> bias(16, 0.1f);
  la::matrix_f c(batch, 16);
  for (auto _ : state) {
    nn::kernels::gemm_nt_bias_act(a, b, c, bias, nn::activation::relu);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_NnKernelsGemmNtStudentLayer)
    ->Arg(32)
    ->Arg(256)
    ->Arg(4096)
    ->UseRealTime();

/// fc_plane per dispatch tier on the student's first layer over one full
/// 64-lane shot tile — the lane-parallel kernel the serve engines (and the
/// cross-request lane packer) run per layer. Unlike the gemm rows above,
/// the lane dimension is the vector axis, so the avx512 rows show the
/// 16-lane tier's headroom directly.
void BM_FcPlaneStudentLayer(benchmark::State& state,
                            const nn::kernels::kernel_table* tier) {
  constexpr std::size_t stride = nn::kernels::max_tile_lanes;
  const auto lanes = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t in_dim = 31;
  constexpr std::size_t out_dim = 16;
  xoshiro256 rng(17);
  std::vector<float> weights(out_dim * in_dim);
  std::vector<float> bias(out_dim, 0.1f);
  std::vector<float> in_plane(in_dim * stride, 0.0f);
  std::vector<float> out_plane(out_dim * stride);
  for (auto& v : weights) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (std::size_t i = 0; i < in_dim; ++i) {
    for (std::size_t s = 0; s < lanes; ++s) {
      in_plane[i * stride + s] =
          static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  for (auto _ : state) {
    tier->fc_plane(weights.data(), bias.data(), out_dim, in_dim,
                   in_plane.data(), lanes, stride, true, out_plane.data());
    benchmark::DoNotOptimize(out_plane.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes));
}

/// extract_tile per dispatch tier: the float front end (AVG ∥ MF → NORM)
/// over N = 500 complex samples with `groups` AVG groups per quadrature
/// (15: FNN-A, 33/34-sample groups; 100: FNN-B, 5-sample groups that live
/// entirely in the shot-per-lane tail path) into a feature plane. Mirrors
/// the fixed BM_FrontendTile rows in bench_fixed_kernels, so items/s compare
/// across datapaths.
void BM_ExtractTileFloat(benchmark::State& state,
                         const nn::kernels::kernel_table* tier) {
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
  std::vector<float> envelope(2 * n);
  for (auto& v : envelope) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> offset(width);
  std::vector<float> scale(width);
  for (std::size_t c = 0; c < width; ++c) {
    offset[c] = static_cast<float>(rng.uniform(-1.0, 1.0));
    scale[c] = std::ldexp(1.0f, static_cast<int>(c % 7) - 4);
  }
  const nn::kernels::extract_spec spec{.groups = groups,
                                       .envelope = envelope.data(),
                                       .offset = offset.data(),
                                       .scale = scale.data()};
  constexpr std::size_t stride = nn::kernels::max_tile_lanes;
  std::vector<float> plane(width * stride);
  for (auto _ : state) {
    tier->extract_tile(pointers.data(), lanes, n, spec, plane.data(), stride);
    benchmark::DoNotOptimize(plane.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes * 2 * n));
}

/// Registers BM_FcPlane_<tier>_studentL1 and BM_ExtractTileFloat_<tier>
/// rows for every tier with a kernel table. A tier this build or CPU cannot
/// run gets no rows, so --benchmark_filter selects among the rest as given.
void register_tier_rows() {
  for (const simd_tier tier :
       {simd_tier::scalar64, simd_tier::avx2, simd_tier::avx512}) {
    const nn::kernels::kernel_table* table = nn::kernels::kernels_for(tier);
    if (table == nullptr) continue;
    const std::string name =
        tier == simd_tier::scalar64 ? "scalar" : simd_tier_name(tier);
    benchmark::RegisterBenchmark(("BM_FcPlane_" + name + "_studentL1").c_str(),
                                 BM_FcPlaneStudentLayer, table)
        ->Arg(64)
        ->UseRealTime();
    benchmark::RegisterBenchmark(("BM_ExtractTileFloat_" + name).c_str(),
                                 BM_ExtractTileFloat, table)
        ->ArgNames({"groups", "lanes"})
        ->ArgsProduct({{15, 100}, {1, 8, 64}});
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  klinq::bench::add_klinq_context();
  register_tier_rows();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
