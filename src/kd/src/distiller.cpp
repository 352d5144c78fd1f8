#include "klinq/kd/distiller.hpp"

#include <algorithm>
#include <istream>
#include <memory>
#include <ostream>

#include "klinq/common/error.hpp"
#include "klinq/common/log.hpp"
#include "klinq/common/stopwatch.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/dsp/batch_extractor.hpp"
#include "klinq/nn/kernels.hpp"
#include "klinq/nn/serialize.hpp"
#include "klinq/nn/trainer.hpp"

namespace klinq::kd {

student_model::student_model(dsp::feature_pipeline pipeline, nn::network net)
    : pipeline_(std::move(pipeline)), net_(std::move(net)) {
  KLINQ_REQUIRE(pipeline_.output_width() == net_.input_dim(),
                "student_model: pipeline width != network input");
}

float student_model::logit(std::span<const float> trace,
                           std::size_t samples_per_quadrature) const {
  thread_local std::vector<float> features;
  features.assign(pipeline_.output_width(), 0.0f);
  pipeline_.extract(trace, samples_per_quadrature, features);
  return net_.predict_logit(features);
}

bool student_model::predict_state(std::span<const float> trace,
                                  std::size_t samples_per_quadrature) const {
  return logit(trace, samples_per_quadrature) >= 0.0f;
}

void student_model::predict_batch(const data::trace_dataset& dataset,
                                  std::span<float> logits_out,
                                  student_scratch& scratch) const {
  KLINQ_REQUIRE(logits_out.size() == dataset.size(),
                "student_model::predict_batch: one logit per trace required");
  if (dataset.empty()) return;
  constexpr std::size_t kTile = nn::kernels::max_tile_lanes;
  const std::size_t tiles = (dataset.size() + kTile - 1) / kTile;
  if (tiles < 4) {
    predict_block(dataset, 0, dataset.size(), logits_out, scratch);
    return;
  }
  // Tile-aligned chunks across the pool with a persistent per-thread
  // scratch arena (warm after the first dispatch — no steady-state
  // allocation). Each chunk runs the fused extract→FC→logits pipeline
  // serially; results are chunking-invariant.
  parallel_for_chunked(0, tiles, [&](std::size_t tile_begin,
                                     std::size_t tile_end) {
    thread_local student_scratch local;
    const std::size_t begin = tile_begin * kTile;
    const std::size_t end = std::min(tile_end * kTile, dataset.size());
    predict_block(dataset, begin, end,
                  logits_out.subspan(begin, end - begin), local);
  });
}

std::vector<float> student_model::predict_batch(
    const data::trace_dataset& dataset) const {
  student_scratch scratch;
  std::vector<float> logits(dataset.size());
  predict_batch(dataset, logits, scratch);
  return logits;
}

void student_model::predict_block(const data::trace_dataset& dataset,
                                  std::size_t row_begin, std::size_t row_end,
                                  std::span<float> logits_out,
                                  student_scratch& scratch) const {
  KLINQ_REQUIRE(row_begin <= row_end && row_end <= dataset.size(),
                "student_model::predict_block: row range out of bounds");
  const std::size_t count = row_end - row_begin;
  KLINQ_REQUIRE(logits_out.size() == count,
                "student_model::predict_block: one logit per row required");
  constexpr std::size_t kTile = nn::kernels::max_tile_lanes;
  const float* traces[kTile];
  for (std::size_t offset = 0; offset < count; offset += kTile) {
    const std::size_t lanes = std::min(kTile, count - offset);
    for (std::size_t s = 0; s < lanes; ++s) {
      traces[s] = dataset.trace(row_begin + offset + s).data();
    }
    run_tile(traces, lanes, dataset.samples_per_quadrature(),
             logits_out.data() + offset, scratch);
  }
}

void student_model::predict_lanes(const data::trace_dataset* const* datasets,
                                  const std::size_t* rows, std::size_t lanes,
                                  std::span<float> logits_out,
                                  student_scratch& scratch) const {
  constexpr std::size_t kTile = nn::kernels::max_tile_lanes;
  KLINQ_REQUIRE(lanes > 0 && lanes <= kTile,
                "student_model::predict_lanes: lane count exceeds the tile");
  KLINQ_REQUIRE(logits_out.size() == lanes,
                "student_model::predict_lanes: one logit per lane required");
  const std::size_t n = datasets[0]->samples_per_quadrature();
  const float* traces[kTile];
  for (std::size_t s = 0; s < lanes; ++s) {
    KLINQ_REQUIRE(datasets[s]->samples_per_quadrature() == n,
                  "student_model::predict_lanes: lanes of one tile must share "
                  "the trace duration");
    traces[s] = datasets[s]->trace(rows[s]).data();
  }
  run_tile(traces, lanes, n, logits_out.data(), scratch);
}

void student_model::run_tile(const float* const* traces, std::size_t lanes,
                             std::size_t n, float* out,
                             student_scratch& scratch) const {
  // Fused pipeline: the tile is extracted feature-major straight into the
  // first-layer panel and pushed through the plane kernels — the feature
  // matrix never exists, and the tile stays cache-resident from extraction
  // through the logit head.
  constexpr std::size_t kTile = nn::kernels::max_tile_lanes;
  scratch.net.panel.resize(pipeline_.output_width() * kTile);
  dsp::batch_extractor(pipeline_).extract_tile(traces, lanes, n,
                                               scratch.net.panel.data(), kTile);
  net_.predict_logits_plane(scratch.net.panel.data(), lanes, kTile, out,
                            scratch.net);
}

double student_model::accuracy(const data::trace_dataset& dataset) const {
  if (dataset.empty()) return 0.0;
  const std::vector<float> logits = predict_batch(dataset);
  std::size_t correct = 0;
  for (std::size_t r = 0; r < logits.size(); ++r) {
    correct += ((logits[r] >= 0.0f) == dataset.label_state(r)) ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(logits.size());
}

void student_model::save(std::ostream& out) const {
  pipeline_.save(out);
  nn::save_network(net_, out);
}

student_model student_model::load(std::istream& in) {
  dsp::feature_pipeline pipeline = dsp::feature_pipeline::load(in);
  nn::network net = nn::load_network(in);
  return student_model(std::move(pipeline), std::move(net));
}

student_model distill_student(const data::trace_dataset& train,
                              std::span<const float> teacher_logits,
                              const student_config& config) {
  KLINQ_REQUIRE(train.size() > 1, "distill_student: empty training set");
  KLINQ_REQUIRE(teacher_logits.empty() || teacher_logits.size() == train.size(),
                "distill_student: teacher logit count != train size");
  stopwatch timer;

  auto pipeline = dsp::feature_pipeline::fit(
      train, {.groups_per_quadrature = config.groups_per_quadrature,
              .use_matched_filter = config.use_matched_filter,
              .normalization = config.normalization});
  const la::matrix_f features = pipeline.extract_all(train);

  nn::network net = nn::make_mlp(pipeline.output_width(), config.hidden);
  if (config.warm_start != nullptr) {
    KLINQ_REQUIRE(config.warm_start->input_dim() == net.input_dim() &&
                      config.warm_start->layer_count() == net.layer_count(),
                  "distill_student: warm-start network topology mismatch");
    for (std::size_t l = 0; l < net.layer_count(); ++l) {
      KLINQ_REQUIRE(
          config.warm_start->layer(l).out_dim() == net.layer(l).out_dim(),
          "distill_student: warm-start network topology mismatch");
    }
    net = *config.warm_start;
  } else {
    xoshiro256 rng(config.seed);
    net.initialize(nn::weight_init::he_normal, rng);
  }

  // Loss selection: composite distillation when soft labels are available,
  // plain BCE otherwise (ablation path; equivalent to alpha = 1).
  std::unique_ptr<nn::loss_fn> loss;
  if (teacher_logits.empty()) {
    loss = std::make_unique<nn::bce_with_logits_loss>(train.labels());
  } else {
    loss = std::make_unique<nn::distillation_loss>(
        train.labels(), teacher_logits, config.distillation);
  }

  const auto result = nn::train_network(
      net, features, *loss,
      {.epochs = config.epochs,
       .batch_size = config.batch_size,
       .learning_rate = config.learning_rate,
       .weight_decay = config.weight_decay,
       .lr_decay = config.lr_decay,
       .seed = config.seed});
  log_info("student ", net.topology_string(), " distilled: ",
           result.epochs_run, " epochs, final loss ", result.final_loss(),
           ", ", timer.seconds(), " s");
  return student_model(std::move(pipeline), std::move(net));
}

double compression_rate(std::size_t teacher_params,
                        std::size_t student_params) {
  KLINQ_REQUIRE(teacher_params > 0, "compression_rate: empty teacher");
  return 1.0 - static_cast<double>(student_params) /
                   static_cast<double>(teacher_params);
}

}  // namespace klinq::kd
