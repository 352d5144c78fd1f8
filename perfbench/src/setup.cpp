#include "setup.hpp"

#include "harness.hpp"
#include "klinq/core/presets.hpp"
#include "klinq/kd/teacher.hpp"
#include "klinq/qsim/device_params.hpp"
#include "klinq/registry/snapshot.hpp"

namespace perfbench {

using namespace klinq;

namespace {
constexpr std::uint64_t kTrainingSeed = 42;
}  // namespace

std::vector<serve::qubit_engine> deployment::engines() const {
  std::vector<serve::qubit_engine> out;
  for (const qubit_models& q : qubits) out.push_back({&q.student, &q.hardware});
  return out;
}

std::unique_ptr<deployment> build_deployment(const scale& sizes,
                                             std::uint64_t seed,
                                             bool with_registry) {
  auto dep = std::make_unique<deployment>();
  // The deployment under test is one fixed model set: its training split
  // comes from a constant seed. The served traces (the test split) are a
  // pure function of the run's seed.
  qsim::dataset_spec train_spec;
  train_spec.device = qsim::lienhard5q_preset();
  train_spec.shots_per_permutation_train = sizes.train_per_permutation;
  train_spec.shots_per_permutation_test = 1;
  train_spec.seed = kTrainingSeed;
  qsim::dataset_spec serve_spec = train_spec;
  serve_spec.shots_per_permutation_train = 1;
  serve_spec.shots_per_permutation_test = sizes.test_per_permutation;
  serve_spec.seed = 0x6b6c696e71ull ^ (seed * 0x9E3779B97F4A7C15ull);
  const std::size_t n_qubits = train_spec.device.qubit_count();

  double t = now_seconds();
  dep->qubits.resize(n_qubits);
  for (std::size_t q = 0; q < n_qubits; ++q) {
    dep->qubits[q].data.train = qsim::build_qubit_dataset(train_spec, q).train;
    dep->qubits[q].data.test = qsim::build_qubit_dataset(serve_spec, q).test;
  }
  dep->qsim_seconds = now_seconds() - t;

  // A deliberately small teacher: the benchmark measures the distillation
  // pipeline's cost and the served fidelity, not the paper-scale teacher.
  t = now_seconds();
  for (std::size_t q = 0; q < n_qubits; ++q) {
    const data::trace_dataset& train = dep->qubits[q].data.train;
    kd::teacher_config teacher_config;
    teacher_config.hidden = sizes.teacher_hidden;
    teacher_config.epochs = sizes.teacher_epochs;
    teacher_config.seed = kTrainingSeed + q;
    const kd::teacher_model teacher = kd::train_teacher(train, teacher_config);
    const std::vector<float> soft = teacher.logits_for(train);
    kd::student_config config =
        core::student_config_for(core::arch_for_qubit(q), 7 + q);
    config.epochs = sizes.student_epochs;
    dep->qubits[q].student = kd::distill_student(train, soft, config);
  }
  dep->distill_seconds = now_seconds() - t;

  t = now_seconds();
  for (qubit_models& q : dep->qubits) {
    q.hardware = hw::fixed_discriminator<fx::q16_16>(q.student);
  }
  if (with_registry) {
    dep->registry = std::make_unique<registry::model_registry>(n_qubits);
    for (std::size_t q = 0; q < n_qubits; ++q) {
      registry::calibration_info info;
      info.source = "perfbench";
      dep->registry->publish(
          q, registry::model_snapshot(dep->qubits[q].student, info));
    }
  }
  dep->quantize_seconds = now_seconds() - t;
  return dep;
}

std::vector<reference> build_references(
    const deployment& dep,
    const std::vector<const hw::fixed_discriminator<fx::q16_16>*>& hardware) {
  std::vector<reference> refs(dep.qubits.size());
  for (std::size_t q = 0; q < dep.qubits.size(); ++q) {
    const data::trace_dataset& test = dep.qubits[q].data.test;
    std::vector<fx::q16_16> registers(test.size());
    hardware[q]->logits(test, registers);
    refs[q].registers.resize(test.size());
    for (std::size_t r = 0; r < test.size(); ++r) {
      refs[q].registers[r] = static_cast<std::int32_t>(registers[r].raw());
    }
    refs[q].logits = dep.qubits[q].student.predict_batch(test);
  }
  return refs;
}

}  // namespace perfbench
