// Google-benchmark microbenchmarks: fixed-point primitives, the student
// inference path (float and Q16.16), matched-filter application, front-end
// extraction, and trace generation. These quantify the software model's
// throughput — the FPGA latency story lives in bench_table3.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_gbench.hpp"

#include "klinq/common/rng.hpp"
#include "klinq/fixed/fixed.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/kd/distiller.hpp"
#include "klinq/qsim/dataset_builder.hpp"

namespace {

using namespace klinq;
using fx::q16_16;

// Shared fixture: one easy qubit, a distilled FNN-A student and test traces.
struct fixture {
  qsim::qubit_dataset data;
  kd::student_model student;
  hw::fixed_discriminator<q16_16> hw_student;

  fixture() {
    qsim::dataset_spec spec;
    spec.device = qsim::single_qubit_test_preset();
    spec.shots_per_permutation_train = 300;
    spec.shots_per_permutation_test = 50;
    spec.seed = 5;
    data = qsim::build_qubit_dataset(spec, 0);
    kd::student_config config;
    config.groups_per_quadrature = 15;
    config.epochs = 10;
    student = kd::distill_student(data.train, {}, config);
    hw_student = hw::fixed_discriminator<q16_16>(student);
  }
};

fixture& shared_fixture() {
  static fixture f;
  return f;
}

void BM_FixedMultiply(benchmark::State& state) {
  xoshiro256 rng(1);
  const auto a = q16_16::from_double(rng.uniform(-100, 100));
  auto b = q16_16::from_double(rng.uniform(-100, 100));
  for (auto _ : state) {
    b = a * b + a;
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_FixedMultiply);

void BM_FixedShiftNormalize(benchmark::State& state) {
  auto x = q16_16::from_double(123.456);
  const auto x_min = q16_16::from_double(-5.0);
  for (auto _ : state) {
    x = (x - x_min).shifted_right(3);
    benchmark::DoNotOptimize(x);
    x = x + q16_16::from_double(100.0);
  }
}
BENCHMARK(BM_FixedShiftNormalize);

void BM_MatchedFilterApply(benchmark::State& state) {
  auto& f = shared_fixture();
  const auto& mf = f.student.pipeline().filter();
  std::size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mf.apply(f.data.test.trace(row)));
    row = (row + 1) % f.data.test.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MatchedFilterApply);

/// One trace through feature_pipeline::extract (the single-shot kernel,
/// grouped_mean_dot) with `groups` AVG groups per quadrature: 15 is the
/// FNN-A front end, 100 the FNN-B one whose 5-sample groups never fill a
/// vector. The G = 100 pipeline is refitted on the fixture's training set.
void BM_FrontendExtractFloat(benchmark::State& state) {
  auto& f = shared_fixture();
  dsp::feature_pipeline_config config = f.student.pipeline().config();
  config.groups_per_quadrature = static_cast<std::size_t>(state.range(0));
  const dsp::feature_pipeline pipeline =
      dsp::feature_pipeline::fit(f.data.train, config);
  std::vector<float> features(pipeline.output_width());
  std::size_t row = 0;
  const std::size_t n = f.data.test.samples_per_quadrature();
  for (auto _ : state) {
    pipeline.extract(f.data.test.trace(row), n, features);
    benchmark::DoNotOptimize(features.data());
    row = (row + 1) % f.data.test.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrontendExtractFloat)->ArgName("groups")->Arg(15)->Arg(100);

void BM_StudentInferenceFloat(benchmark::State& state) {
  auto& f = shared_fixture();
  std::size_t row = 0;
  const std::size_t n = f.data.test.samples_per_quadrature();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.student.logit(f.data.test.trace(row), n));
    row = (row + 1) % f.data.test.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StudentInferenceFloat);

void BM_StudentInferenceFixed(benchmark::State& state) {
  auto& f = shared_fixture();
  std::size_t row = 0;
  const std::size_t n = f.data.test.samples_per_quadrature();
  // Scratch reused across shots so the bench measures the datapath, not
  // per-shot allocation.
  hw::discriminator_scratch<q16_16> scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.hw_student.predict_state(f.data.test.trace(row), n, scratch));
    row = (row + 1) % f.data.test.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StudentInferenceFixed);

void BM_QuantizedNetworkForward(benchmark::State& state) {
  auto& f = shared_fixture();
  // Pre-extract features once; measure only the FC datapath.
  const auto quantized = hw::fixed_frontend<q16_16>::quantize_trace(
      f.data.test.trace(0));
  std::vector<q16_16> features(f.hw_student.frontend().output_width());
  f.hw_student.frontend().extract(
      quantized, f.data.test.samples_per_quadrature(), features);
  hw::quantized_scratch<q16_16> scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.hw_student.net().forward_logit(features, scratch));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QuantizedNetworkForward);

void BM_TraceGeneration5Q(benchmark::State& state) {
  const qsim::readout_simulator sim(qsim::lienhard5q_preset());
  xoshiro256 rng(3);
  std::uint32_t perm = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate_shot(perm, rng));
    perm = (perm + 1) & 31u;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration5Q);

}  // namespace

KLINQ_BENCHMARK_MAIN();
