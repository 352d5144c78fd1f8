// Deployment set-up shared by every workload: generate the paper's 5-qubit
// device data from the seed, train a teacher and distill one student per
// qubit, quantize each to the Q16.16 hardware model, and (optionally)
// publish the students into a model registry.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "klinq/fixed/fixed.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/kd/distiller.hpp"
#include "klinq/qsim/dataset_builder.hpp"
#include "klinq/registry/model_registry.hpp"
#include "klinq/serve/request.hpp"

namespace perfbench {

/// Problem sizes. The full sizes are what the benchmark reports; the smoke
/// sizes only prove that every metric is produced.
struct scale {
  std::size_t train_per_permutation = 16;
  std::size_t test_per_permutation = 64;
  std::vector<std::size_t> teacher_hidden = {64, 32};
  std::size_t teacher_epochs = 3;
  std::size_t student_epochs = 12;
  /// Complete set-ups per run; setup_s is their median.
  std::size_t setup_repetitions = 3;

  static scale full() { return {}; }
  static scale smoke() {
    return {.train_per_permutation = 4,
            .test_per_permutation = 8,
            .teacher_hidden = {16},
            .teacher_epochs = 1,
            .student_epochs = 2,
            .setup_repetitions = 2};
  }
};

struct qubit_models {
  klinq::qsim::qubit_dataset data;
  klinq::kd::student_model student;
  klinq::hw::fixed_discriminator<klinq::fx::q16_16> hardware;
};

struct deployment {
  std::vector<qubit_models> qubits;
  /// Set when built with a registry: every student published as version 1.
  std::unique_ptr<klinq::registry::model_registry> registry;
  double qsim_seconds = 0.0;
  double distill_seconds = 0.0;
  double quantize_seconds = 0.0;

  /// Static (construction-time) engine binding over the owned models.
  std::vector<klinq::serve::qubit_engine> engines() const;
};

/// Builds the whole deployment. The models are trained on a fixed-seed
/// split; the test split the workloads serve is a pure function of `seed`.
std::unique_ptr<deployment> build_deployment(const scale& sizes,
                                             std::uint64_t seed,
                                             bool with_registry);

/// Serial reference outputs over one qubit's test split: the raw Q16.16
/// registers of fixed_discriminator::logits and the float logits of
/// student_model::predict_batch.
struct reference {
  std::vector<std::int32_t> registers;
  std::vector<float> logits;
};

/// References for every qubit, computed from the engines that serve
/// (`hardware[q]` may be a registry snapshot's twin of qubits[q]).
std::vector<reference> build_references(
    const deployment& dep,
    const std::vector<const klinq::hw::fixed_discriminator<klinq::fx::q16_16>*>&
        hardware);

}  // namespace perfbench
