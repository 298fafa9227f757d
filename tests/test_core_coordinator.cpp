#include "core/coordinator.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/error.hpp"
#include "core/round_logic.hpp"
#include "nn/serialize.hpp"

namespace hadfl::core {
namespace {

TEST(LivenessMonitor, ReflectsFaultInjector) {
  sim::Cluster cluster(sim::devices_from_ratio({1, 1, 1}), 1.0);
  cluster.faults().schedule(sim::FaultEvent{1, 5.0, 10.0});
  LivenessMonitor monitor(cluster);
  EXPECT_EQ(monitor.available(), (std::vector<sim::DeviceId>{0, 1, 2}));
  cluster.advance(1, 6.0);  // device 1 now inside its fault window
  EXPECT_FALSE(monitor.is_available(1));
  EXPECT_EQ(monitor.available(), (std::vector<sim::DeviceId>{0, 2}));
  cluster.advance(1, 6.0);  // recovered
  EXPECT_TRUE(monitor.is_available(1));
}

TEST(RuntimeSupervisor, FallbackBeforeObservations) {
  RuntimeSupervisor sup(3, 0.5);
  const std::vector<double> fallback{10, 20, 30};
  EXPECT_EQ(sup.predict(fallback), fallback);
  EXPECT_EQ(sup.rounds_observed(), 0u);
}

TEST(RuntimeSupervisor, PredictsPerDevice) {
  RuntimeSupervisor sup(2, 0.5);
  for (int j = 1; j <= 30; ++j) {
    sup.observe_round({12.0 * j, 4.0 * j});
  }
  const std::vector<double> pred = sup.predict({0, 0});
  EXPECT_NEAR(pred[0], 12.0 * 31, 1.0);
  EXPECT_NEAR(pred[1], 4.0 * 31, 0.5);
  EXPECT_EQ(sup.rounds_observed(), 30u);
  EXPECT_GT(sup.predictor(0).trend(), sup.predictor(1).trend());
}

// Round-0 regression for both prediction modes: with no observed rounds
// (empty DES state, empty version history) every mode must return the
// Eq. 6 warm-up fallback rather than fail or emit stale values.
TEST(RuntimeSupervisor, RoundZeroFallsBackInEveryPredictorMode) {
  RuntimeSupervisor sup(2, 0.5);
  const std::vector<double> fallback{7.0, 9.0};
  const std::vector<double> no_history;
  EXPECT_EQ(predict_versions(PredictorMode::kDes, sup, fallback, no_history),
            fallback);
  EXPECT_EQ(predict_versions(PredictorMode::kLastValue, sup, fallback,
                             no_history),
            fallback);
  EXPECT_EQ(
      predict_versions(PredictorMode::kStatic, sup, fallback, no_history),
      fallback);
  // After one round both adaptive modes leave the fallback behind.
  sup.observe_round({1.0, 2.0});
  const std::vector<double> history{1.0, 2.0};
  EXPECT_EQ(
      predict_versions(PredictorMode::kLastValue, sup, fallback, history),
      history);
  EXPECT_NE(predict_versions(PredictorMode::kDes, sup, fallback, history),
            fallback);
}

TEST(RuntimeSupervisor, Validation) {
  EXPECT_THROW(RuntimeSupervisor(0, 0.5), InvalidArgument);
  RuntimeSupervisor sup(2, 0.5);
  EXPECT_THROW(sup.observe_round({1.0}), InvalidArgument);
  EXPECT_THROW(sup.predict({1.0}), InvalidArgument);
  EXPECT_THROW(sup.predictor(5), InvalidArgument);
}

TEST(ModelManager, KeepsLatestState) {
  ModelManager mgr("", 0);
  EXPECT_FALSE(mgr.has_model());
  mgr.update({1.0f, 2.0f}, 1);
  EXPECT_TRUE(mgr.has_model());
  EXPECT_EQ(mgr.latest(), (std::vector<float>{1.0f, 2.0f}));
  mgr.update({3.0f, 4.0f}, 2);
  EXPECT_EQ(mgr.latest(), (std::vector<float>{3.0f, 4.0f}));
  EXPECT_EQ(mgr.backups_written(), 0u);  // disabled
  EXPECT_FALSE(mgr.last_backup_path().has_value());
}

TEST(ModelManager, WritesPeriodicBackups) {
  const std::string dir = ::testing::TempDir() + "/hadfl_mgr_test";
  std::filesystem::create_directories(dir);
  ModelManager mgr(dir, /*backup_every_rounds=*/2);
  mgr.update({1.0f}, 1);
  EXPECT_EQ(mgr.backups_written(), 0u);
  mgr.update({2.0f}, 2);
  EXPECT_EQ(mgr.backups_written(), 1u);
  mgr.update({3.0f}, 3);
  EXPECT_EQ(mgr.backups_written(), 1u);
  mgr.update({4.0f}, 4);
  EXPECT_EQ(mgr.backups_written(), 2u);

  ASSERT_TRUE(mgr.last_backup_path().has_value());
  const std::vector<float> restored =
      nn::load_state(*mgr.last_backup_path());
  EXPECT_EQ(restored, (std::vector<float>{4.0f}));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hadfl::core
