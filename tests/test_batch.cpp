// Batched-vs-single-shot parity for the zero-allocation inference engine.
//
// The contract under test since the float kernels grew an AVX2 FMA tier
// (klinq/nn/kernels.hpp):
//   * the fixed-point (Q16.16) batched paths remain BIT-EXACT against their
//     single-shot APIs (integer arithmetic is order-independent);
//   * the batched float paths are bitwise invariant to batch size, tile
//     position and worker count WITHIN the active float tier (the plane
//     kernels are lane-invariant), so batched-vs-batched comparisons stay
//     exact;
//   * student_model::logit() is a one-lane run of that same datapath, so a
//     float single shot is bitwise equal to the batched paths too;
//   * only nn::network::predict_logit keeps dot order: the batched network
//     logits match it to rounding tolerance (KLINQ_DETERMINISTIC pins the
//     scalar tier but does not remove this order difference).
#include <cmath>
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "klinq/common/rng.hpp"
#include "klinq/core/qubit_discriminator.hpp"
#include "klinq/dsp/batch_extractor.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/kd/distiller.hpp"
#include "klinq/linalg/gemm.hpp"
#include "klinq/nn/kernels.hpp"
#include "klinq/nn/network.hpp"
#include "klinq/qsim/dataset_builder.hpp"

namespace {

using namespace klinq;
using fx::q16_16;

la::matrix_f random_matrix(std::size_t rows, std::size_t cols,
                           xoshiro256& rng) {
  la::matrix_f m(rows, cols);
  for (auto& v : m.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

// Shared fixture: one quick student + hardware twin on a small dataset big
// enough to cross the thread-pool and GEMM parallel thresholds.
struct engine_fixture {
  qsim::qubit_dataset data;
  kd::student_model student;
  hw::fixed_discriminator<q16_16> hw_student;

  engine_fixture() {
    qsim::dataset_spec spec;
    spec.device = qsim::single_qubit_test_preset();
    spec.shots_per_permutation_train = 150;
    spec.shots_per_permutation_test = 64;
    spec.seed = 11;
    data = qsim::build_qubit_dataset(spec, 0);
    kd::student_config config;
    config.groups_per_quadrature = 15;
    config.epochs = 5;
    student = kd::distill_student(data.train, {}, config);
    hw_student = hw::fixed_discriminator<q16_16>(student);
  }
};

engine_fixture& fixture() {
  static engine_fixture f;
  return f;
}

data::trace_dataset first_rows(const data::trace_dataset& ds,
                               std::size_t count) {
  std::vector<std::size_t> rows(count);
  std::iota(rows.begin(), rows.end(), 0);
  return ds.subset(rows);
}

/// Rounding tolerance for batched (plane-order) vs single-shot (dot-order)
/// float logits: both reductions agree to a few ULPs of the accumulated
/// magnitude; 1e-4 relative with a small absolute floor is generous.
void expect_logit_close(float batched, float single, const char* what,
                        std::size_t row) {
  const float tol = 1e-5f + 1e-4f * std::fabs(single);
  EXPECT_NEAR(batched, single, tol) << what << " row " << row;
}

// --- linalg: GEMM and GEMV must share one reduction order ------------------

TEST(BatchParity, GemmNtBitIdenticalToGemv) {
  xoshiro256 rng(42);
  // Shapes hit the 2×4 main tile, odd row/column edges, and k tails.
  const struct { std::size_t m, n, k; } shapes[] = {
      {1, 1, 1}, {2, 4, 8}, {5, 7, 13}, {9, 16, 31}, {64, 8, 31}};
  for (const auto& s : shapes) {
    const la::matrix_f a = random_matrix(s.m, s.k, rng);
    const la::matrix_f b = random_matrix(s.n, s.k, rng);
    std::vector<float> bias(s.n);
    for (auto& v : bias) v = static_cast<float>(rng.uniform(-0.5, 0.5));
    la::matrix_f c(s.m, s.n);
    la::gemm_nt(a, b, c, bias);
    std::vector<float> y(s.n);
    for (std::size_t i = 0; i < s.m; ++i) {
      la::gemv(b, a.row(i), y, bias);
      for (std::size_t j = 0; j < s.n; ++j) {
        ASSERT_EQ(c(i, j), y[j]) << "shape " << s.m << "x" << s.n << "x" << s.k
                                 << " at (" << i << "," << j << ")";
      }
    }
  }
}

// --- nn: batched predict_logits vs single-shot predict_logit ---------------

TEST(BatchParity, NetworkBatchedLogitsMatchSingleShotWithinTolerance) {
  xoshiro256 rng(7);
  nn::network net = nn::make_mlp(31, {16, 8});
  net.initialize(nn::weight_init::he_normal, rng);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}}) {
    const la::matrix_f input = random_matrix(batch, 31, rng);
    nn::inference_scratch scratch;
    std::vector<float> batched(batch);
    net.predict_logits(input, batched, scratch);
    for (std::size_t r = 0; r < batch; ++r) {
      expect_logit_close(batched[r], net.predict_logit(input.row(r)),
                         "network", r);
    }
  }
}

// Lane invariance: a row's batched logit must not depend on the batch it
// rides in — prefixes of a larger batch reproduce the smaller batch bitwise.
TEST(BatchParity, NetworkBatchedLogitsInvariantToBatchSize) {
  xoshiro256 rng(23);
  nn::network net = nn::make_mlp(31, {16, 8});
  net.initialize(nn::weight_init::he_normal, rng);
  const la::matrix_f big = random_matrix(130, 31, rng);  // 2 tiles + ragged
  nn::inference_scratch scratch;
  std::vector<float> full(big.rows());
  net.predict_logits(big, full, scratch);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}, std::size_t{64},
                                  std::size_t{65}}) {
    la::matrix_f prefix(batch, 31);
    std::copy(big.data(), big.data() + batch * 31, prefix.data());
    std::vector<float> part(batch);
    net.predict_logits(prefix, part, scratch);
    for (std::size_t r = 0; r < batch; ++r) {
      ASSERT_EQ(part[r], full[r]) << "batch " << batch << " row " << r;
    }
  }
}

TEST(BatchParity, NetworkScratchReuseAcrossBatchSizesIsStable) {
  xoshiro256 rng(19);
  nn::network net = nn::make_mlp(31, {16, 8});
  net.initialize(nn::weight_init::he_normal, rng);
  const la::matrix_f big = random_matrix(64, 31, rng);
  nn::inference_scratch scratch;
  std::vector<float> first(64);
  net.predict_logits(big, first, scratch);
  // Shrink, grow, and repeat through the same arena — results must not drift.
  const la::matrix_f small = random_matrix(3, 31, rng);
  std::vector<float> tmp(3);
  net.predict_logits(small, tmp, scratch);
  std::vector<float> again(64);
  net.predict_logits(big, again, scratch);
  EXPECT_EQ(first, again);
}

// --- dsp: parallel batch extraction vs serial extract ----------------------

TEST(BatchParity, BatchExtractorMatchesSerialExtract) {
  auto& f = fixture();
  const auto& pipeline = f.student.pipeline();
  const auto& ds = f.data.test;
  la::matrix_f batched;
  dsp::batch_extractor(pipeline).extract(ds, batched);
  ASSERT_EQ(batched.rows(), ds.size());
  std::vector<float> row(pipeline.output_width());
  for (std::size_t r = 0; r < ds.size(); ++r) {
    pipeline.extract(ds.trace(r), ds.samples_per_quadrature(), row);
    for (std::size_t c = 0; c < row.size(); ++c) {
      ASSERT_EQ(batched(r, c), row[c]) << "row " << r << " col " << c;
    }
  }
}

// Tile producer: same per-shot values as extract_block, feature-major
// layout, zero-filled pad lanes.
TEST(BatchParity, ExtractTileMatchesExtractBlockExactly) {
  auto& f = fixture();
  const auto& pipeline = f.student.pipeline();
  const auto& ds = f.data.test;
  const std::size_t width = pipeline.output_width();
  constexpr std::size_t kStride = nn::kernels::max_tile_lanes;
  const dsp::batch_extractor extractor(pipeline);
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{5},
                                  std::size_t{8}, std::size_t{64}}) {
    std::vector<float> plane(width * kStride, -9.0f);
    extractor.extract_tile(ds, 3, lanes, plane.data(), kStride);
    la::matrix_f rows(lanes, width);
    extractor.extract_block(ds, 3, 3 + lanes, rows);
    for (std::size_t s = 0; s < lanes; ++s) {
      for (std::size_t i = 0; i < width; ++i) {
        ASSERT_EQ(plane[i * kStride + s], rows(s, i))
            << "lanes " << lanes << " shot " << s << " feature " << i;
      }
    }
    for (std::size_t s = lanes; s < nn::kernels::padded_lanes(lanes); ++s) {
      for (std::size_t i = 0; i < width; ++i) {
        ASSERT_EQ(plane[i * kStride + s], 0.0f) << "pad lane " << s;
      }
    }
  }
}

// --- dsp: the tile kernel vs per-shot extraction, per tier and shape -------

/// Two-class traces (class 0 around +0.4, class 1 around -0.4) on a slow
/// ramp, so group means, MF taps and NORM factors all differ by position.
data::trace_dataset ramp_traces(std::size_t count, std::size_t n,
                                std::uint64_t seed) {
  data::trace_dataset ds(count, n);
  ds.resize_traces(count);
  xoshiro256 rng(seed);
  std::vector<float> trace(2 * n);
  for (std::size_t r = 0; r < count; ++r) {
    const bool excited = r % 2 == 1;
    for (std::size_t i = 0; i < 2 * n; ++i) {
      const double ramp = static_cast<double>(i) / static_cast<double>(2 * n);
      trace[i] = static_cast<float>((excited ? -0.4 : 0.4) * ramp +
                                    rng.normal(0.0, 0.3));
    }
    ds.set_trace(r, trace, excited);
  }
  return ds;
}

std::uint32_t float_bits(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// feature_pipeline::extract with `GroupedMeanDot` standing in for the
/// dispatched kernel: the per-shot oracle of one tier's extract_tile.
template <auto GroupedMeanDot>
void extract_on_tier(const dsp::feature_pipeline& pipeline, const float* trace,
                     std::size_t n, std::span<float> out) {
  const std::size_t groups = pipeline.config().groups_per_quadrature;
  const bool use_mf = pipeline.config().use_matched_filter;
  float mf = 0.0f;
  for (std::size_t quadrature = 0; quadrature < 2; ++quadrature) {
    mf += GroupedMeanDot(
        trace + quadrature * n,
        use_mf ? pipeline.filter().envelope().data() + quadrature * n
               : nullptr,
        n, groups, out.data() + quadrature * groups);
  }
  if (use_mf) out[2 * groups] = mf;
  pipeline.normalizer().apply(out);
}

using extract_tile_fn = void (*)(const float* const*, std::size_t,
                                 std::size_t, const nn::kernels::extract_spec&,
                                 float*, std::size_t) noexcept;
using extract_oracle_fn = void (*)(const dsp::feature_pipeline&, const float*,
                                   std::size_t, std::span<float>);

/// Runs `tile` over `lanes` traces and checks the plane bit for bit: shot
/// lanes against `oracle`, pad lanes +0, lanes past the padding untouched.
void expect_tile_matches(const dsp::feature_pipeline& pipeline,
                         const std::vector<std::vector<float>>& traces,
                         std::size_t n, std::size_t lanes,
                         const std::function<void(const float* const*,
                                                  float*, std::size_t)>& tile,
                         extract_oracle_fn oracle, const std::string& where) {
  constexpr std::size_t kStride = nn::kernels::max_tile_lanes + 8;
  constexpr float kUntouched = -7.25f;
  const std::size_t width = pipeline.output_width();
  std::vector<const float*> pointers(lanes);
  for (std::size_t s = 0; s < lanes; ++s) pointers[s] = traces[s].data();
  std::vector<float> plane(width * kStride, kUntouched);
  tile(pointers.data(), plane.data(), kStride);
  std::vector<float> row(width);
  for (std::size_t s = 0; s < lanes; ++s) {
    oracle(pipeline, traces[s].data(), n, row);
    for (std::size_t c = 0; c < width; ++c) {
      ASSERT_EQ(float_bits(plane[c * kStride + s]), float_bits(row[c]))
          << where << " lanes " << lanes << " shot " << s << " feature " << c
          << ": " << plane[c * kStride + s] << " vs " << row[c];
    }
  }
  const std::size_t padded = nn::kernels::padded_lanes(lanes);
  for (std::size_t c = 0; c < width; ++c) {
    for (std::size_t s = lanes; s < padded; ++s) {
      ASSERT_EQ(float_bits(plane[c * kStride + s]), float_bits(0.0f))
          << where << " lanes " << lanes << " pad lane " << s;
    }
    for (std::size_t s = padded; s < kStride; ++s) {
      ASSERT_EQ(plane[c * kStride + s], kUntouched)
          << where << " lanes " << lanes << " wrote stride lane " << s;
    }
  }
}

// Every BatchParity fixture above has G = 15; this covers the FNN-B shape
// (G = 100, all samples in group tails), group lengths on both sides of the
// 8/16/32-sample vector chunks, MF off, z-score NORM, ragged tiles, lanes
// taken from two datasets at a row offset, and each lane's trace in its own
// exactly sized allocation (so an over-read of a trace end is a sanitizer
// error, not a neighbour's samples).
TEST(TileExtractParity, EveryTierMatchesPerShotExtractBitwise) {
  struct tier {
    const char* name;
    bool available;
    extract_tile_fn tile;
    extract_oracle_fn oracle;
  };
  const tier tiers[] = {
      {"scalar", true, nn::kernels::scalar::extract_tile,
       extract_on_tier<nn::kernels::scalar::grouped_mean_dot>},
      {"avx2", nn::kernels::avx2_available(), nn::kernels::avx2::extract_tile,
       extract_on_tier<nn::kernels::avx2::grouped_mean_dot>},
      {"avx512", nn::kernels::avx512_available(),
       nn::kernels::avx512::extract_tile,
       extract_on_tier<nn::kernels::avx512::grouped_mean_dot>},
  };
  struct shape {
    std::size_t n;
    std::size_t groups;
  };
  // Group lengths 33/34, 5, 7/8, 142/143, 1, 25 and 50: all-tail groups,
  // 8- and 16-sample chunks with and without tails, 32 + 16 chains.
  const shape shapes[] = {{500, 15}, {500, 100}, {37, 5},  {1000, 7},
                          {64, 64},  {1000, 40}, {300, 6}};
  const dsp::feature_pipeline_config configs[] = {
      {.use_matched_filter = true, .normalization = dsp::norm_mode::pow2_shift},
      {.use_matched_filter = false,
       .normalization = dsp::norm_mode::pow2_shift},
      {.use_matched_filter = true, .normalization = dsp::norm_mode::zscore},
  };
  const std::size_t lane_counts[] = {1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 33, 63,
                                     64};
  constexpr std::size_t kRowOffset = 5;
  for (const shape& sh : shapes) {
    const data::trace_dataset train = ramp_traces(24, sh.n, 100 + sh.n);
    const data::trace_dataset first = ramp_traces(40, sh.n, 200 + sh.n);
    const data::trace_dataset second = ramp_traces(40, sh.n, 300 + sh.n);
    // Lane s alternates between the two datasets from row kRowOffset on.
    std::vector<std::vector<float>> traces;
    for (std::size_t s = 0; s < nn::kernels::max_tile_lanes; ++s) {
      const auto& source = s % 2 == 0 ? first : second;
      const auto trace = source.trace(kRowOffset + s / 2);
      traces.emplace_back(trace.begin(), trace.end());
    }
    for (dsp::feature_pipeline_config config : configs) {
      config.groups_per_quadrature = sh.groups;
      const auto pipeline = dsp::feature_pipeline::fit(train, config);
      const auto spec = pipeline.tile_spec();
      const std::string where =
          "n " + std::to_string(sh.n) + " G " + std::to_string(sh.groups) +
          (config.use_matched_filter ? " mf" : " no-mf") +
          (config.normalization == dsp::norm_mode::zscore ? " zscore"
                                                          : " pow2");
      for (const tier& t : tiers) {
        if (!t.available) continue;
        for (const std::size_t lanes : lane_counts) {
          expect_tile_matches(
              pipeline, traces, sh.n, lanes,
              [&](const float* const* pointers, float* plane,
                  std::size_t stride) {
                t.tile(pointers, lanes, sh.n, spec, plane, stride);
              },
              t.oracle, where + " " + t.name);
        }
      }
      // The deployed path: batch_extractor on the dispatched tier against
      // feature_pipeline::extract itself.
      const dsp::batch_extractor extractor(pipeline);
      for (const std::size_t lanes : lane_counts) {
        expect_tile_matches(
            pipeline, traces, sh.n, lanes,
            [&](const float* const* pointers, float* plane,
                std::size_t stride) {
              extractor.extract_tile(pointers, lanes, sh.n, plane, stride);
            },
            [](const dsp::feature_pipeline& p, const float* trace,
               std::size_t n, std::span<float> out) {
              p.extract(std::span<const float>(trace, 2 * n), n, out);
            },
            where + " dispatched");
      }
    }
  }
}

// --- kd: student predict_batch vs per-trace logit --------------------------

// logit() is a one-lane run of the batched datapath: bitwise equal.
TEST(BatchParity, StudentPredictBatchMatchesSingleShotBitwise) {
  auto& f = fixture();
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}}) {
    const data::trace_dataset subset = first_rows(f.data.test, batch);
    const std::vector<float> batched = f.student.predict_batch(subset);
    for (std::size_t r = 0; r < batch; ++r) {
      ASSERT_EQ(batched[r], f.student.logit(subset.trace(r),
                                            subset.samples_per_quadrature()))
          << "batch " << batch << " row " << r;
    }
  }
}

TEST(BatchParity, StudentPredictBatchUnderThreadPool) {
  auto& f = fixture();
  // Full test set: larger than every serial-fallback threshold, so the
  // parallel fused extract→FC chunks are exercised. The pooled result must
  // be bitwise identical to a serial predict_block over the same rows
  // (chunking invariance) and to the single-shot path.
  const auto& ds = f.data.test;
  ASSERT_GE(ds.size(), 64u);
  const std::vector<float> batched = f.student.predict_batch(ds);
  kd::student_scratch scratch;
  std::vector<float> serial(ds.size());
  f.student.predict_block(ds, 0, ds.size(), serial, scratch);
  for (std::size_t r = 0; r < ds.size(); ++r) {
    ASSERT_EQ(batched[r], serial[r]) << "row " << r;
    ASSERT_EQ(batched[r],
              f.student.logit(ds.trace(r), ds.samples_per_quadrature()))
        << "single-shot row " << r;
  }
}

// Fused (extract_tile → plane kernels) vs unfused (materialized feature
// matrix → predict_logits): bitwise equal within a tier, by construction.
TEST(BatchParity, FusedAndUnfusedFloatPathsBitIdentical) {
  auto& f = fixture();
  const auto& ds = f.data.test;
  const std::vector<float> fused = f.student.predict_batch(ds);
  la::matrix_f features;
  dsp::batch_extractor(f.student.pipeline()).extract(ds, features);
  nn::inference_scratch scratch;
  std::vector<float> unfused(ds.size());
  f.student.net().predict_logits(features, unfused, scratch);
  for (std::size_t r = 0; r < ds.size(); ++r) {
    ASSERT_EQ(fused[r], unfused[r]) << "row " << r;
  }
}

// --- hw: blocked fixed-point engine vs single-shot registers ---------------

TEST(BatchParity, FixedBatchedLogitsBitExact) {
  auto& f = fixture();
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}}) {
    const data::trace_dataset subset = first_rows(f.data.test, batch);
    std::vector<q16_16> batched(batch);
    f.hw_student.logits(subset, batched);
    for (std::size_t r = 0; r < batch; ++r) {
      const q16_16 single = f.hw_student.logit(
          subset.trace(r), subset.samples_per_quadrature());
      ASSERT_EQ(batched[r].raw(), single.raw())
          << "batch " << batch << " row " << r;
    }
  }
}

TEST(BatchParity, FixedBatchedLogitsUnderThreadPool) {
  auto& f = fixture();
  const auto& ds = f.data.test;
  std::vector<q16_16> batched(ds.size());
  f.hw_student.logits(ds, batched);
  for (std::size_t r = 0; r < ds.size(); ++r) {
    const q16_16 single =
        f.hw_student.logit(ds.trace(r), ds.samples_per_quadrature());
    ASSERT_EQ(batched[r].raw(), single.raw()) << "row " << r;
  }
}

TEST(BatchParity, QuantizedNetworkScratchReuseBitExact) {
  auto& f = fixture();
  const auto& net = f.hw_student.net();
  const auto quantized =
      hw::fixed_frontend<q16_16>::quantize_trace(f.data.test.trace(0));
  std::vector<q16_16> features(f.hw_student.frontend().output_width());
  f.hw_student.frontend().extract(
      quantized, f.data.test.samples_per_quadrature(), features);
  hw::quantized_scratch<q16_16> scratch;
  const q16_16 first = net.forward_logit(features, scratch);
  // Reused (dirty) scratch must give the same register as a fresh one.
  const q16_16 second = net.forward_logit(features, scratch);
  EXPECT_EQ(first.raw(), second.raw());
  EXPECT_EQ(first.raw(), net.forward_logit(features).raw());
}

// --- core: batched measurement matches the public decision API -------------

TEST(BatchParity, MeasureBatchMatchesMeasure) {
  auto& f = fixture();
  const core::qubit_discriminator disc(f.student);
  const auto& ds = f.data.test;
  std::vector<std::uint8_t> decisions(ds.size());
  disc.measure_batch(ds, decisions);
  for (std::size_t r = 0; r < ds.size(); ++r) {
    const bool single = disc.measure(ds.trace(r), ds.samples_per_quadrature());
    EXPECT_EQ(decisions[r] != 0, single) << "row " << r;
  }
}

// --- nn: identity layers no longer materialize a pre-activation copy -------

TEST(BatchParity, IdentityLayerWritesDirectlyToPost) {
  xoshiro256 rng(3);
  nn::dense_layer layer(8, 4, nn::activation::identity);
  layer.initialize(nn::weight_init::he_normal, rng);
  const la::matrix_f input = random_matrix(5, 8, rng);
  la::matrix_f pre;
  la::matrix_f post;
  layer.forward(input, pre, post);
  EXPECT_TRUE(pre.empty());  // identity: GEMM goes straight into post
  ASSERT_EQ(post.rows(), 5u);
  ASSERT_EQ(post.cols(), 4u);
  std::vector<float> y(4);
  for (std::size_t r = 0; r < 5; ++r) {
    la::gemv(layer.weights(), input.row(r), y, layer.bias());
    for (std::size_t c = 0; c < 4; ++c) {
      // gemv reduces in dot order, the batched forward in kernel order:
      // rounding tolerance, not bit equality.
      expect_logit_close(post(r, c), y[c], "identity-layer", r);
    }
  }
}

}  // namespace
