// klinq::registry — versioned per-qubit model store, drift monitoring and
// background recalibration.
//
// Contracts under test:
//   * snapshots round-trip through the versioned on-disk format and reject
//     corruption (quantized parameter hash);
//   * the registry's publish/activate/rollback/pin lifecycle, retention,
//     and persistence;
//   * hot-swap under load: concurrent submitters while versions are
//     published and rolled back — every result is internally consistent
//     with exactly the version it reports, and unswapped qubits stay
//     bit-identical to a single-version run;
//   * the closed loop: qsim-injected IQ drift is flagged by the monitor,
//     recalibrated in the background, swapped in under live traffic, and
//     assignment fidelity recovers to the pre-drift baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "klinq/common/error.hpp"
#include "klinq/data/dataset_io.hpp"
#include "klinq/kd/distiller.hpp"
#include "klinq/qsim/dataset_builder.hpp"
#include "klinq/registry/drift_monitor.hpp"
#include "klinq/registry/model_registry.hpp"
#include "klinq/registry/recalibrator.hpp"
#include "klinq/registry/snapshot.hpp"
#include "klinq/serve/readout_server.hpp"

namespace {

using namespace klinq;
using fx::q16_16;

kd::student_model train_student(const data::trace_dataset& train,
                                std::uint64_t seed, std::size_t epochs = 15) {
  kd::student_config config;
  config.groups_per_quadrature = 15;
  config.epochs = epochs;
  config.seed = seed;
  return kd::distill_student(train, {}, config);
}

std::vector<q16_16> expected_registers(const registry::model_snapshot& snap,
                                       const data::trace_dataset& test) {
  std::vector<q16_16> registers(test.size());
  snap.hardware().logits(test, registers);
  return registers;
}

// Two qubits; qubit 0 additionally has an alternate model (trained with a
// different seed on the same data) so hot-swap tests can tell versions
// apart bit-for-bit.
struct registry_fixture {
  qsim::qubit_dataset data0;
  qsim::qubit_dataset data1;
  kd::student_model student0_a;
  kd::student_model student0_b;
  kd::student_model student1;

  registry_fixture() {
    qsim::dataset_spec spec;
    spec.device = qsim::single_qubit_test_preset();
    spec.shots_per_permutation_train = 150;
    spec.shots_per_permutation_test = 150;
    spec.seed = 21;
    data0 = qsim::build_qubit_dataset(spec, 0);
    spec.seed = 22;
    data1 = qsim::build_qubit_dataset(spec, 0);
    student0_a = train_student(data0.train, 7);
    student0_b = train_student(data0.train, 99);
    student1 = train_student(data1.train, 8);
  }
};

registry_fixture& fixture() {
  static registry_fixture f;
  return f;
}

/// Registry with qubit 0 on version 1 (= student0_a) and qubit 1 on
/// version 1 (= student1).
std::unique_ptr<registry::model_registry> make_two_qubit_registry() {
  auto& f = fixture();
  auto reg = std::make_unique<registry::model_registry>(2);
  reg->publish(0, registry::model_snapshot(f.student0_a, {.source =
                                                              "initial"}));
  reg->publish(1, registry::model_snapshot(f.student1, {.source =
                                                            "initial"}));
  return reg;
}

// --- snapshot (de)serialization --------------------------------------------

TEST(Snapshot, RoundTripsBitIdentically) {
  auto& f = fixture();
  registry::calibration_info info;
  info.source = "initial";
  info.created_unix_seconds = registry::unix_now();
  info.calibration_shots = f.data0.train.size();
  info.train_accuracy = 0.97;
  const registry::model_snapshot original(f.student0_a, info);

  std::stringstream stream;
  original.save(stream);
  const registry::model_snapshot loaded =
      registry::model_snapshot::load(stream);

  EXPECT_EQ(loaded.info().source, "initial");
  EXPECT_EQ(loaded.info().calibration_shots, f.data0.train.size());
  EXPECT_DOUBLE_EQ(loaded.info().train_accuracy, 0.97);
  EXPECT_EQ(loaded.quantized_hash(), original.quantized_hash());

  // The quantized datapath of the reloaded snapshot is bit-identical.
  const auto expected = expected_registers(original, f.data0.test);
  const auto actual = expected_registers(loaded, f.data0.test);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(actual[r].raw(), expected[r].raw()) << "row " << r;
  }
}

TEST(Snapshot, LoadRejectsCorruption) {
  auto& f = fixture();
  const registry::model_snapshot original(f.student0_a);
  std::stringstream stream;
  original.save(stream);
  std::string bytes = stream.str();

  {  // bad magic
    std::string broken = bytes;
    broken[0] = 'X';
    std::stringstream in(broken);
    EXPECT_THROW(registry::model_snapshot::load(in), io_error);
  }
  {  // truncation inside the student payload
    std::stringstream in(bytes.substr(0, bytes.size() - 16));
    EXPECT_THROW(registry::model_snapshot::load(in), io_error);
  }
  {  // a flipped network weight no longer reproduces the recorded hash
    std::string broken = bytes;
    broken[broken.size() - 5] ^= 0x40;
    std::stringstream in(broken);
    EXPECT_THROW(registry::model_snapshot::load(in), io_error);
  }
}

// --- registry lifecycle -----------------------------------------------------

TEST(ModelRegistry, PublishAssignsVersionsAndActivates) {
  auto& f = fixture();
  registry::model_registry reg(1);
  EXPECT_EQ(reg.active_version(0), 0u);
  EXPECT_THROW(reg.acquire(0), invalid_argument_error);  // nothing published

  const std::uint64_t v1 =
      reg.publish(0, registry::model_snapshot(f.student0_a));
  const std::uint64_t v2 =
      reg.publish(0, registry::model_snapshot(f.student0_b));
  EXPECT_EQ(v1, 1u);
  EXPECT_EQ(v2, 2u);
  EXPECT_EQ(reg.active_version(0), 2u);
  EXPECT_EQ(reg.at(0, 1)->info().version, 1u);

  const serve::engine_lease lease = reg.acquire(0);
  EXPECT_EQ(lease.version, 2u);
  ASSERT_NE(lease.engine.student, nullptr);
  ASSERT_NE(lease.engine.hardware, nullptr);
  EXPECT_TRUE(lease.hold != nullptr);

  const auto records = reg.list(0);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].version, 1u);
  EXPECT_FALSE(records[0].active);
  EXPECT_EQ(records[1].version, 2u);
  EXPECT_TRUE(records[1].active);

  const registry::registry_stats stats = reg.stats();
  EXPECT_EQ(stats.published, 2u);
  EXPECT_EQ(stats.acquires, 1u);
}

TEST(ModelRegistry, RollbackReturnsToThePreviousVersion) {
  auto& f = fixture();
  registry::model_registry reg(1);
  reg.publish(0, registry::model_snapshot(f.student0_a));
  reg.publish(0, registry::model_snapshot(f.student0_b));
  EXPECT_EQ(reg.rollback(0), 1u);
  EXPECT_EQ(reg.active_version(0), 1u);
  // Nothing older than version 1 remains.
  EXPECT_THROW(reg.rollback(0), invalid_argument_error);
  EXPECT_EQ(reg.stats().rollbacks, 1u);
}

TEST(ModelRegistry, PinFreezesAgainstAutoActivation) {
  auto& f = fixture();
  registry::model_registry reg(1);
  reg.publish(0, registry::model_snapshot(f.student0_a));
  reg.pin(0, 1);
  EXPECT_TRUE(reg.pinned(0));
  const std::uint64_t v2 =
      reg.publish(0, registry::model_snapshot(f.student0_b));
  EXPECT_EQ(reg.active_version(0), 1u);  // pinned: v2 waits in the history
  reg.unpin(0);
  EXPECT_EQ(reg.active_version(0), 1u);  // unpin alone does not swap
  reg.activate(0, v2);
  EXPECT_EQ(reg.active_version(0), 2u);
}

TEST(ModelRegistry, RetentionRetiresOldestNonActive) {
  auto& f = fixture();
  registry::model_registry reg(1, {.keep_versions = 2});
  reg.publish(0, registry::model_snapshot(f.student0_a));
  reg.publish(0, registry::model_snapshot(f.student0_b));
  reg.publish(0, registry::model_snapshot(f.student0_a));
  EXPECT_THROW(reg.at(0, 1), invalid_argument_error);  // retired
  EXPECT_EQ(reg.list(0).size(), 2u);
  EXPECT_EQ(reg.active_version(0), 3u);

  // The active version survives retention even when oldest: pin service to
  // v2, then publish twice more — v2 must still be retained.
  reg.pin(0, 2);
  reg.publish(0, registry::model_snapshot(f.student0_b));
  reg.publish(0, registry::model_snapshot(f.student0_b));
  EXPECT_EQ(reg.active_version(0), 2u);
  EXPECT_NO_THROW(reg.at(0, 2));
}

TEST(ModelRegistry, LeaseKeepsRetiredSnapshotAlive) {
  auto& f = fixture();
  registry::model_registry reg(1, {.keep_versions = 1});
  reg.publish(0, registry::model_snapshot(f.student0_a));
  const serve::engine_lease lease = reg.acquire(0);  // pins version 1
  reg.publish(0, registry::model_snapshot(f.student0_b));
  EXPECT_THROW(reg.at(0, 1), invalid_argument_error);  // retired from list
  // ... but the leased engines still serve (RCU grace period = the lease).
  const auto& test = f.data0.test;
  const q16_16 reg_logit = lease.engine.hardware->logit(
      test.trace(0), test.samples_per_quadrature());
  const registry::model_snapshot reference(f.student0_a);
  const q16_16 expected = reference.hardware().logit(
      test.trace(0), test.samples_per_quadrature());
  EXPECT_EQ(reg_logit.raw(), expected.raw());
}

TEST(ModelRegistry, PersistenceRoundTripsStateAndBits) {
  auto& f = fixture();
  const std::string dir = "./test_registry_store";
  std::filesystem::remove_all(dir);
  {
    registry::model_registry reg(2, {.keep_versions = 3});
    reg.publish(0, registry::model_snapshot(f.student0_a));
    reg.publish(0, registry::model_snapshot(f.student0_b));
    reg.publish(1, registry::model_snapshot(f.student1));
    reg.rollback(0);   // active: q0 → v1
    reg.pin(0, 1);
    reg.save_directory(dir);
  }
  // Versioned filenames are the documented contract.
  EXPECT_TRUE(std::filesystem::exists(
      dir + "/" + data::versioned_snapshot_filename(0, 1)));
  EXPECT_TRUE(std::filesystem::exists(
      dir + "/" + data::versioned_snapshot_filename(0, 2)));
  EXPECT_TRUE(std::filesystem::exists(
      dir + "/" + data::versioned_snapshot_filename(1, 1)));

  const auto reg = registry::model_registry::load_directory(dir);
  std::filesystem::remove_all(dir);
  ASSERT_EQ(reg->qubit_count(), 2u);
  EXPECT_EQ(reg->active_version(0), 1u);
  EXPECT_TRUE(reg->pinned(0));
  EXPECT_EQ(reg->active_version(1), 1u);
  EXPECT_FALSE(reg->pinned(1));
  EXPECT_EQ(reg->list(0).size(), 2u);

  // Version numbering continues where it left off.
  EXPECT_EQ(reg->publish(0, registry::model_snapshot(f.student0_a)), 3u);

  // Reloaded active snapshot is bit-identical to the original student.
  const auto expected =
      expected_registers(registry::model_snapshot(f.student0_a), f.data0.test);
  const auto actual = expected_registers(*reg->at(0, 1), f.data0.test);
  for (std::size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(actual[r].raw(), expected[r].raw()) << "row " << r;
  }
}

// Each layer row's clamp proof (fx::kernels::products_in_range) is derived
// from the quantized weights, so a snapshot reloaded from disk must carry
// the same flags, and serve the same registers, as the one saved; on a
// trained student every flag must equal the proof over its row.
TEST(Snapshot, ReloadFromDiskKeepsRowProofs) {
  auto& f = fixture();
  const std::string dir = "./test_registry_row_proofs";
  std::filesystem::remove_all(dir);
  const registry::model_snapshot original(f.student0_a);
  {
    registry::model_registry reg(1);
    reg.publish(0, registry::model_snapshot(f.student0_a));
    reg.save_directory(dir);
  }
  const auto reg = registry::model_registry::load_directory(dir);
  std::filesystem::remove_all(dir);
  const auto& saved = original.hardware().net();
  const auto& loaded = reg->at(0, 1)->hardware().net();
  ASSERT_EQ(loaded.layer_count(), saved.layer_count());
  const auto spec = fx::kernels::spec_of<q16_16>();
  for (std::size_t l = 0; l < saved.layer_count(); ++l) {
    const auto saved_flags = saved.layer_rows_in_range(l);
    const auto loaded_flags = loaded.layer_rows_in_range(l);
    EXPECT_TRUE(std::equal(saved_flags.begin(), saved_flags.end(),
                           loaded_flags.begin(), loaded_flags.end()))
        << "layer " << l;
    const auto& weights = saved.layer_weights(l);
    const std::size_t in_dim = weights.size() / saved_flags.size();
    for (std::size_t o = 0; o < saved_flags.size(); ++o) {
      std::vector<std::int32_t> row;
      for (std::size_t i = 0; i < in_dim; ++i) {
        row.push_back(static_cast<std::int32_t>(weights[o * in_dim + i].raw()));
      }
      EXPECT_EQ(saved_flags[o] != 0,
                fx::kernels::products_in_range(row.data(), in_dim, spec))
          << "layer " << l << " row " << o;
    }
  }
  const auto expected = expected_registers(original, f.data0.test);
  const auto actual = expected_registers(*reg->at(0, 1), f.data0.test);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(actual[r].raw(), expected[r].raw()) << "row " << r;
  }
}

// Saving into a reused directory must not resurrect retired versions on
// the next load: stale snapshot files are dropped, foreign files survive.
TEST(ModelRegistry, ResaveDropsRetiredSnapshotFiles) {
  auto& f = fixture();
  const std::string dir = "./test_registry_resave";
  std::filesystem::remove_all(dir);
  registry::model_registry reg(1, {.keep_versions = 2});
  reg.publish(0, registry::model_snapshot(f.student0_a));
  reg.publish(0, registry::model_snapshot(f.student0_b));
  reg.save_directory(dir);
  {
    std::ofstream foreign(dir + "/notes.txt");
    foreign << "not a snapshot\n";
  }
  reg.publish(0, registry::model_snapshot(f.student0_a));  // retires v1
  reg.save_directory(dir);
  EXPECT_FALSE(std::filesystem::exists(
      dir + "/" + data::versioned_snapshot_filename(0, 1)));
  EXPECT_TRUE(std::filesystem::exists(dir + "/notes.txt"));
  const auto loaded = registry::model_registry::load_directory(dir);
  std::filesystem::remove_all(dir);
  EXPECT_EQ(loaded->list(0).size(), 2u);
  EXPECT_THROW(loaded->at(0, 1), invalid_argument_error);
  EXPECT_EQ(loaded->active_version(0), 3u);
}

TEST(VersionedFilenames, FormatAndParseRoundTrip) {
  EXPECT_EQ(data::versioned_snapshot_filename(3, 17), "qubit3_v17.snap");
  std::size_t qubit = 0;
  std::uint64_t version = 0;
  EXPECT_TRUE(data::parse_versioned_snapshot_filename("qubit3_v17.snap",
                                                      qubit, version));
  EXPECT_EQ(qubit, 3u);
  EXPECT_EQ(version, 17u);
  EXPECT_FALSE(data::parse_versioned_snapshot_filename("qubit3_v17.snp",
                                                       qubit, version));
  EXPECT_FALSE(data::parse_versioned_snapshot_filename("qubit_v17.snap",
                                                       qubit, version));
  EXPECT_FALSE(data::parse_versioned_snapshot_filename("qubit3v17.snap",
                                                       qubit, version));
  EXPECT_FALSE(data::parse_versioned_snapshot_filename("registry.manifest",
                                                       qubit, version));
  EXPECT_FALSE(data::parse_versioned_snapshot_filename("qubit3_v17.snap.bak",
                                                       qubit, version));
}

// --- serving through the registry -------------------------------------------

TEST(RegistryServe, ResultsMatchDirectEvaluationAndCarryVersions) {
  auto& f = fixture();
  const auto reg = make_two_qubit_registry();
  serve::readout_server server(*reg, {.shard_shots = 64});
  const serve::ticket t0 =
      server.submit({0, &f.data0.test, serve::engine_kind::fixed_q16});
  const serve::ticket t1 =
      server.submit({1, &f.data1.test, serve::engine_kind::fixed_q16});
  const serve::readout_result r0 = server.wait(t0);
  const serve::readout_result r1 = server.wait(t1);
  EXPECT_EQ(r0.model_version, 1u);
  EXPECT_EQ(r1.model_version, 1u);
  const auto expected0 =
      expected_registers(registry::model_snapshot(f.student0_a), f.data0.test);
  const auto expected1 =
      expected_registers(registry::model_snapshot(f.student1), f.data1.test);
  for (std::size_t r = 0; r < expected0.size(); ++r) {
    ASSERT_EQ(r0.registers[r].raw(), expected0[r].raw()) << "row " << r;
  }
  for (std::size_t r = 0; r < expected1.size(); ++r) {
    ASSERT_EQ(r1.registers[r].raw(), expected1[r].raw()) << "row " << r;
  }
  EXPECT_GE(reg->stats().acquires, 2u);
}

// Hot-swap under load: version churn on qubit 0 while concurrent submitters
// stream both qubits. Every qubit-0 result must be bit-identical to exactly
// the version it reports (per-request pinning — no torn reads), and qubit 1
// must stay bit-identical to a single-version run throughout.
TEST(RegistryServe, HotSwapUnderLoadIsAtomicPerRequest) {
  auto& f = fixture();
  const auto reg = make_two_qubit_registry();
  const std::uint64_t v2 =
      reg->publish(0, registry::model_snapshot(f.student0_b));
  ASSERT_EQ(v2, 2u);

  const auto expected0_v1 =
      expected_registers(registry::model_snapshot(f.student0_a), f.data0.test);
  const auto expected0_v2 =
      expected_registers(registry::model_snapshot(f.student0_b), f.data0.test);
  const auto expected1 =
      expected_registers(registry::model_snapshot(f.student1), f.data1.test);

  serve::readout_server server(*reg, {.shard_shots = 64, .max_inflight = 8});

  std::atomic<bool> stop_churn{false};
  std::thread publisher([&] {
    // Alternate the active version; activate() is the same code path a
    // publish-triggered swap takes.
    std::uint64_t version = 1;
    while (!stop_churn.load(std::memory_order_acquire)) {
      reg->activate(0, version);
      version = version == 1 ? 2 : 1;
      std::this_thread::yield();
    }
  });

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRequestsPerThread = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (std::size_t thread_index = 0; thread_index < kThreads;
       ++thread_index) {
    submitters.emplace_back([&, thread_index] {
      serve::readout_result result;
      for (std::size_t i = 0; i < kRequestsPerThread; ++i) {
        const std::size_t qubit = (thread_index + i) % 2;
        const auto& dataset = qubit == 0 ? f.data0.test : f.data1.test;
        const serve::ticket t =
            server.submit({qubit, &dataset, serve::engine_kind::fixed_q16});
        server.wait(t, result);
        const std::vector<q16_16>* expected = nullptr;
        if (qubit == 1) {
          if (result.model_version != 1) ++failures;
          expected = &expected1;
        } else if (result.model_version == 1) {
          expected = &expected0_v1;
        } else if (result.model_version == 2) {
          expected = &expected0_v2;
        } else {
          ++failures;
          continue;
        }
        for (std::size_t r = 0; r < expected->size(); ++r) {
          if (result.registers[r].raw() != (*expected)[r].raw()) ++failures;
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  stop_churn.store(true, std::memory_order_release);
  publisher.join();
  EXPECT_EQ(failures.load(), 0);
  // The churn was visible to the server's registry-aware telemetry on a
  // multi-submit run (not guaranteed on a 1-version-observed schedule, so
  // only sanity-check the counter is consistent).
  EXPECT_LE(server.stats().version_switches,
            server.stats().requests_submitted);
}

// --- drift monitor ----------------------------------------------------------

TEST(DriftMonitor, FlagsBalanceShiftAndMarginCollapse) {
  registry::drift_thresholds thresholds;
  thresholds.min_window_shots = 100;
  registry::drift_monitor monitor(2, thresholds);

  // Baseline: balanced decisions with healthy ±2 margins.
  std::vector<std::uint8_t> states(400);
  std::vector<float> margins(400);
  for (std::size_t r = 0; r < states.size(); ++r) {
    states[r] = r % 2;
    margins[r] = states[r] ? 2.0f : -2.0f;
  }
  monitor.rebaseline(0, states, margins);
  monitor.rebaseline(1, states, margins);

  // Healthy window on qubit 1: no flags.
  monitor.observe(1, states, margins);
  EXPECT_FALSE(monitor.status(1).drifted);

  // Qubit 0's window: class balance swings to 90% ones and margins shrink
  // to a tenth — all three proxies fire.
  for (std::size_t r = 0; r < states.size(); ++r) {
    states[r] = r % 10 == 0 ? 0 : 1;
    margins[r] = states[r] ? 0.2f : -0.2f;
  }
  monitor.observe(0, states, margins);
  const registry::drift_status status = monitor.status(0);
  EXPECT_EQ(status.window_shots, 400u);
  EXPECT_NEAR(status.class_balance, 0.9, 1e-9);
  EXPECT_TRUE(status.balance_drifted);
  EXPECT_TRUE(status.margin_collapsed);
  EXPECT_TRUE(status.confidence_collapsed);
  EXPECT_TRUE(status.drifted);
  const auto drifted = monitor.drifted_qubits();
  ASSERT_EQ(drifted.size(), 1u);
  EXPECT_EQ(drifted[0], 0u);

  // reset_window clears the verdict (min_window_shots guard).
  monitor.reset_window(0);
  EXPECT_FALSE(monitor.status(0).drifted);
}

TEST(DriftMonitor, BelowMinWindowNeverFlags) {
  registry::drift_thresholds thresholds;
  thresholds.min_window_shots = 1000;
  registry::drift_monitor monitor(1, thresholds);
  std::vector<std::uint8_t> states(100, 1);
  std::vector<float> margins(100, 0.01f);
  monitor.rebaseline(0, std::vector<std::uint8_t>(100, 0),
                     std::vector<float>(100, -3.0f));
  monitor.observe(0, states, margins);
  EXPECT_FALSE(monitor.status(0).drifted);  // only 100 of 1000 shots seen
}

TEST(DriftMonitor, FoldsServingTrafficThroughTheShardCallback) {
  auto& f = fixture();
  const auto reg = make_two_qubit_registry();
  registry::drift_monitor monitor(2);
  serve::readout_server server(
      *reg, {.shard_shots = 64, .on_shard = monitor.callback()});
  const serve::ticket t =
      server.submit({0, &f.data0.test, serve::engine_kind::fixed_q16});
  server.wait(t);
  EXPECT_EQ(monitor.status(0).window_shots, f.data0.test.size());
  EXPECT_EQ(monitor.status(1).window_shots, 0u);
  // set_baseline promotes that traffic into the reference distribution.
  monitor.set_baseline(0);
  EXPECT_EQ(monitor.status(0).baseline_shots, f.data0.test.size());
  EXPECT_EQ(monitor.status(0).window_shots, 0u);
}

// --- recalibration ----------------------------------------------------------

TEST(Recalibrator, SynchronousRecalibrationPublishesAndRebaselines) {
  auto& f = fixture();
  const auto reg = make_two_qubit_registry();
  registry::drift_monitor monitor(2);
  registry::recalibration_config config;
  config.student.epochs = 4;
  registry::recalibrator recal(
      *reg, monitor, [&f](std::size_t) { return f.data0.train; }, config);

  const std::uint64_t version = recal.recalibrate(0);
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(reg->active_version(0), 2u);
  EXPECT_EQ(reg->at(0, 2)->info().source, "recalibration");
  EXPECT_EQ(reg->at(0, 2)->info().calibration_shots, f.data0.train.size());
  EXPECT_GT(reg->at(0, 2)->info().train_accuracy, 0.8);
  // The monitor was rebaselined on the fresh model's calibration margins.
  EXPECT_EQ(monitor.status(0).baseline_shots, f.data0.train.size());
  EXPECT_EQ(recal.stats().recalibrations, 1u);
}

TEST(Recalibrator, WarmStartReusesActiveTopology) {
  auto& f = fixture();
  const auto reg = make_two_qubit_registry();
  registry::drift_monitor monitor(2);
  registry::recalibration_config config;
  config.student.epochs = 2;
  config.warm_start = true;
  registry::recalibrator recal(
      *reg, monitor, [&f](std::size_t) { return f.data0.train; }, config);
  const std::uint64_t version = recal.recalibrate(0);
  // Warm-started retraining keeps the deployable topology.
  EXPECT_EQ(reg->at(0, version)->student().parameter_count(),
            f.student0_a.parameter_count());
}

TEST(Recalibrator, FailureIsCountedAndRethrown) {
  auto& f = fixture();
  const auto reg = make_two_qubit_registry();
  registry::drift_monitor monitor(2);
  registry::recalibrator recal(
      *reg, monitor, [](std::size_t) { return data::trace_dataset{}; });
  EXPECT_THROW(recal.recalibrate(0), invalid_argument_error);
  EXPECT_EQ(recal.stats().failures, 1u);
  EXPECT_EQ(reg->active_version(0), 1u);  // nothing published
  (void)f;
}

// --- the closed loop: drift → flag → background retrain → hot swap ----------

// Injects readout drift mid-stream: the IQ response means rotate about
// their midpoint and the operating point shifts, which misaligns the
// matched filter and the learned boundary — margins collapse. The drift
// monitor must flag it, the background recalibrator must retrain from
// drifted labeled shots and publish, live traffic must swap onto the new
// version without stopping, and assignment fidelity must recover to within
// 1% of the pre-drift baseline. An unswapped qubit stays bit-identical
// throughout.
TEST(ClosedLoop, DriftIsFlaggedRecalibratedAndSwappedUnderTraffic) {
  auto& f = fixture();

  // Drifted device: rotate the |0⟩/|1⟩ responses ~75° about their midpoint
  // and shift the operating point. Same separation and noise — the new
  // distribution is just as learnable, only different.
  qsim::dataset_spec drifted_spec;
  drifted_spec.device = qsim::single_qubit_test_preset();
  drifted_spec.shots_per_permutation_train = 150;
  drifted_spec.shots_per_permutation_test = 150;
  drifted_spec.seed = 21;  // same physical shot seeds as data0
  {
    qsim::qubit_params& qp = drifted_spec.device.qubits[0];
    const double mid_i = 0.5 * (qp.ground.i + qp.excited.i);
    const double mid_q = 0.5 * (qp.ground.q + qp.excited.q);
    const double di = qp.excited.i - mid_i;
    const double dq = qp.excited.q - mid_q;
    const double angle = 110.0 * 3.14159265358979323846 / 180.0;
    const double ri = di * std::cos(angle) - dq * std::sin(angle);
    const double rq = di * std::sin(angle) + dq * std::cos(angle);
    const double shift_i = 0.5;
    const double shift_q = -0.35;
    qp.excited = {mid_i + ri + shift_i, mid_q + rq + shift_q};
    qp.ground = {mid_i - ri + shift_i, mid_q - rq + shift_q};
  }
  const qsim::qubit_dataset drifted = qsim::build_qubit_dataset(drifted_spec, 0);

  // Pre-drift baseline fidelity of the deployed model on clean data.
  const registry::model_snapshot initial(f.student0_a);
  const double baseline_accuracy = initial.hardware().accuracy(f.data0.test);
  ASSERT_GT(baseline_accuracy, 0.85);
  // The drift genuinely hurts the stale model (otherwise this test would
  // pass vacuously).
  const double stale_accuracy = initial.hardware().accuracy(drifted.test);
  ASSERT_LT(stale_accuracy, baseline_accuracy - 0.05);

  auto reg = make_two_qubit_registry();
  registry::drift_thresholds thresholds;
  thresholds.min_window_shots = 128;
  registry::drift_monitor monitor(2, thresholds);
  serve::readout_server server(
      *reg, {.shard_shots = 64, .max_inflight = 16,
             .on_shard = monitor.callback()});

  // Phase 1: clean traffic establishes the baseline distribution.
  serve::readout_result result;
  server.wait(
      server.submit({0, &f.data0.test, serve::engine_kind::fixed_q16}),
      result);
  monitor.set_baseline(0);
  EXPECT_FALSE(monitor.status(0).drifted);

  // Unswapped-qubit reference: qubit 1 before any churn.
  const auto expected1 =
      expected_registers(registry::model_snapshot(f.student1), f.data1.test);

  // Background recalibration: drifted labeled calibration shots (exactly
  // what a calibration daemon would collect after the shift).
  registry::recalibration_config recal_config;
  recal_config.student.epochs = 6;
  recal_config.poll_interval_seconds = 0.005;
  registry::recalibrator recal(
      *reg, monitor,
      [&drifted](std::size_t qubit) {
        KLINQ_REQUIRE(qubit == 0, "only qubit 0 drifts in this scenario");
        return drifted.train;
      },
      recal_config);
  recal.start();
  EXPECT_TRUE(recal.running());

  // Phase 2: drifted traffic flows while a concurrent submitter keeps
  // hammering the unswapped qubit 1.
  std::atomic<bool> stop_q1{false};
  std::atomic<int> q1_failures{0};
  std::thread q1_traffic([&] {
    serve::readout_result r1;
    while (!stop_q1.load(std::memory_order_acquire)) {
      const serve::ticket t =
          server.submit({1, &f.data1.test, serve::engine_kind::fixed_q16});
      server.wait(t, r1);
      if (r1.model_version != 1) ++q1_failures;
      for (std::size_t r = 0; r < expected1.size(); ++r) {
        if (r1.registers[r].raw() != expected1[r].raw()) ++q1_failures;
      }
    }
  });

  // Stream drifted blocks until the loop closes: monitor flags, the
  // background worker retrains and publishes, new submits pick up v2.
  std::uint64_t served_version = 1;
  bool saw_drift_flag = false;
  for (int round = 0; round < 400 && served_version < 2; ++round) {
    const serve::ticket t =
        server.submit({0, &drifted.test, serve::engine_kind::fixed_q16});
    server.wait(t, result);
    served_version = result.model_version;
    saw_drift_flag = saw_drift_flag || monitor.status(0).drifted ||
                     reg->active_version(0) > 1;
  }
  stop_q1.store(true, std::memory_order_release);
  q1_traffic.join();
  recal.stop();

  EXPECT_TRUE(saw_drift_flag) << "drift monitor never flagged qubit 0";
  ASSERT_EQ(served_version, 2u)
      << "recalibrated version never reached live traffic";
  EXPECT_GE(recal.stats().recalibrations, 1u);
  EXPECT_EQ(reg->at(0, 2)->info().source, "recalibration");
  EXPECT_EQ(q1_failures.load(), 0) << "unswapped qubit was disturbed";

  // Post-swap fidelity on drifted data recovers to the pre-drift baseline.
  const double recovered_accuracy =
      reg->at(0, 2)->hardware().accuracy(drifted.test);
  EXPECT_GE(recovered_accuracy, baseline_accuracy - 0.01)
      << "recovered " << recovered_accuracy << " vs baseline "
      << baseline_accuracy;

  // And the monitor no longer sees drift after fresh traffic on the new
  // model.
  monitor.reset_window(0);
  const serve::ticket t =
      server.submit({0, &drifted.test, serve::engine_kind::fixed_q16});
  server.wait(t, result);
  EXPECT_FALSE(monitor.status(0).drifted);
}

}  // namespace
