/// \file test_health.cpp
/// The run-health watchdog in isolation (src/telemetry/health): action
/// parsing, each latched detector driven by crafted thermo samples, the
/// warn-vs-abort contract, the stall watchdog thread with a short timeout,
/// the thermo-tail ring, and both bundle writers.

#include "telemetry/health.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace wsmd::telemetry {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

HealthSample sample(long step, double pe, double ke, double temperature,
                    double target_K = 0.0, bool has_target = false) {
  return {{step, pe, ke, pe + ke, temperature}, target_K, has_target};
}

TEST(HealthAction, ParseAndName) {
  HealthAction a = HealthAction::kOff;
  EXPECT_TRUE(parse_health_action("off", &a));
  EXPECT_EQ(a, HealthAction::kOff);
  EXPECT_TRUE(parse_health_action("warn", &a));
  EXPECT_EQ(a, HealthAction::kWarn);
  EXPECT_TRUE(parse_health_action("abort", &a));
  EXPECT_EQ(a, HealthAction::kAbort);
  EXPECT_FALSE(parse_health_action("on", &a));
  EXPECT_FALSE(parse_health_action("", &a));
  EXPECT_FALSE(parse_health_action("Abort", &a));
  EXPECT_STREQ(health_action_name(HealthAction::kOff), "off");
  EXPECT_STREQ(health_action_name(HealthAction::kWarn), "warn");
  EXPECT_STREQ(health_action_name(HealthAction::kAbort), "abort");
}

TEST(HealthConfig, EnabledAndAbortPredicates) {
  HealthConfig cfg;  // default: nan warns, everything else off
  EXPECT_TRUE(cfg.any_enabled());
  EXPECT_FALSE(cfg.any_abort());
  cfg.nan = HealthAction::kOff;
  EXPECT_FALSE(cfg.any_enabled());
  cfg.stall = HealthAction::kAbort;
  EXPECT_TRUE(cfg.any_enabled());
  EXPECT_TRUE(cfg.any_abort());
}

TEST(HealthMonitor, NanDetectorWarnsOnceAndLatches) {
  HealthConfig cfg;  // nan = warn by default
  std::vector<HealthEvent> warns;
  HealthMonitor mon(cfg, [&](const HealthEvent& e) { warns.push_back(e); });
  mon.begin_stage(false, true, 300.0);
  EXPECT_FALSE(mon.check(sample(1, -3.0, 1.0, 290.0)).has_value());
  EXPECT_TRUE(warns.empty());
  // Each non-finite field trips it; the latch means exactly one event.
  EXPECT_FALSE(mon.check(sample(2, kNaN, 1.0, 290.0)).has_value());
  EXPECT_FALSE(mon.check(sample(3, -3.0, kInf, 290.0)).has_value());
  EXPECT_FALSE(mon.check(sample(4, -3.0, 1.0, kNaN)).has_value());
  ASSERT_EQ(warns.size(), 1u);
  EXPECT_EQ(warns[0].detector, "nan");
  EXPECT_EQ(warns[0].step, 2);
  EXPECT_EQ(warns[0].action, HealthAction::kWarn);
  EXPECT_NE(warns[0].message.find("non-finite"), std::string::npos);
  EXPECT_EQ(mon.events().size(), 1u);
}

TEST(HealthMonitor, NanDetectorAbortReturnsTheFatalEvent) {
  HealthConfig cfg;
  cfg.nan = HealthAction::kAbort;
  std::vector<HealthEvent> warns;
  HealthMonitor mon(cfg, [&](const HealthEvent& e) { warns.push_back(e); });
  mon.begin_stage(true, false, 0.0);
  const auto fatal = mon.check(sample(7, kNaN, kNaN, kNaN));
  ASSERT_TRUE(fatal.has_value());
  EXPECT_EQ(fatal->detector, "nan");
  EXPECT_EQ(fatal->step, 7);
  EXPECT_EQ(fatal->action, HealthAction::kAbort);
  // Aborts return; they must not also fire the warn sink.
  EXPECT_TRUE(warns.empty());
}

TEST(HealthMonitor, DriftDetectorOnlyDuringConservingStages) {
  HealthConfig cfg;
  cfg.energy_drift = HealthAction::kWarn;
  cfg.energy_band = 0.05;
  std::vector<HealthEvent> warns;
  HealthMonitor mon(cfg, [&](const HealthEvent& e) { warns.push_back(e); });

  // Thermostatted stage: drift is meaningless (energy is injected), so a
  // wild excursion must not trip anything.
  mon.begin_stage(/*conserves_energy=*/false, true, 300.0);
  EXPECT_FALSE(mon.check(sample(1, -10.0, 1.0, 300.0)).has_value());
  EXPECT_FALSE(mon.check(sample(2, -20.0, 5.0, 300.0)).has_value());
  EXPECT_TRUE(warns.empty());

  // Conserving stage: baseline = first sample (E0 = -9), band 5%.
  mon.begin_stage(/*conserves_energy=*/true, false, 0.0);
  EXPECT_FALSE(mon.check(sample(3, -10.0, 1.0, 280.0)).has_value());
  EXPECT_FALSE(mon.check(sample(4, -10.2, 1.3, 281.0)).has_value());  // 1.1%
  EXPECT_FALSE(mon.check(sample(5, -10.0, 2.0, 282.0)).has_value());  // 11%
  ASSERT_EQ(warns.size(), 1u);
  EXPECT_EQ(warns[0].detector, "energy_drift");
  EXPECT_EQ(warns[0].step, 5);
  EXPECT_NEAR(warns[0].value, 1.0 / 9.0, 1e-12);
  EXPECT_EQ(warns[0].limit, 0.05);
  // Latched: staying outside the band emits nothing further.
  EXPECT_FALSE(mon.check(sample(6, -10.0, 3.0, 283.0)).has_value());
  EXPECT_EQ(warns.size(), 1u);
}

TEST(HealthMonitor, DriftBaselineRearmsPerStage) {
  HealthConfig cfg;
  cfg.nan = HealthAction::kOff;
  cfg.energy_drift = HealthAction::kAbort;
  cfg.energy_band = 0.10;
  HealthMonitor mon(cfg, nullptr);
  mon.begin_stage(true, false, 0.0);
  EXPECT_FALSE(mon.check(sample(1, -8.0, 0.5, 100.0)).has_value());
  // New stage: the old E0 = -7.5 is forgotten; -4.0 becomes the baseline.
  mon.begin_stage(true, false, 0.0);
  EXPECT_FALSE(mon.check(sample(2, -5.0, 1.0, 100.0)).has_value());
  const auto fatal = mon.check(sample(3, -5.0, 2.0, 100.0));  // 25% of 4
  ASSERT_TRUE(fatal.has_value());
  EXPECT_EQ(fatal->detector, "energy_drift");
}

TEST(HealthMonitor, TemperatureDetectorNeedsTargetAndBand) {
  HealthConfig cfg;
  cfg.temperature = HealthAction::kWarn;
  cfg.temperature_band_K = 50.0;
  std::vector<HealthEvent> warns;
  HealthMonitor mon(cfg, [&](const HealthEvent& e) { warns.push_back(e); });

  // Free stage (no thermostat target): runaway T is not this detector's
  // business there.
  mon.begin_stage(true, false, 0.0);
  EXPECT_FALSE(mon.check(sample(1, -3.0, 9.0, 900.0)).has_value());
  EXPECT_TRUE(warns.empty());

  mon.begin_stage(false, true, 300.0);
  EXPECT_FALSE(
      mon.check(sample(2, -3.0, 1.0, 340.0, 300.0, true)).has_value());
  EXPECT_FALSE(
      mon.check(sample(3, -3.0, 1.0, 380.0, 300.0, true)).has_value());
  ASSERT_EQ(warns.size(), 1u);
  EXPECT_EQ(warns[0].detector, "temperature");
  EXPECT_EQ(warns[0].value, 380.0);
  EXPECT_EQ(warns[0].limit, 50.0);
}

TEST(HealthMonitor, NonFiniteRowsSkipMagnitudeDetectors) {
  // A NaN total must not also trip drift/temperature with garbage math —
  // the nan detector owns non-finite rows.
  HealthConfig cfg;
  cfg.nan = HealthAction::kWarn;
  cfg.energy_drift = HealthAction::kAbort;
  cfg.energy_band = 1e-6;
  cfg.temperature = HealthAction::kAbort;
  cfg.temperature_band_K = 1e-6;
  std::vector<HealthEvent> warns;
  HealthMonitor mon(cfg, [&](const HealthEvent& e) { warns.push_back(e); });
  mon.begin_stage(true, true, 300.0);
  EXPECT_FALSE(mon.check(sample(1, -3.0, 1.0, 300.0, 300.0, true)).has_value());
  const auto fatal = mon.check(sample(2, kNaN, 1.0, kNaN, 300.0, true));
  EXPECT_FALSE(fatal.has_value());
  ASSERT_EQ(warns.size(), 1u);
  EXPECT_EQ(warns[0].detector, "nan");
}

TEST(HealthMonitor, StallWatchdogWarnsOnTheWatchdogThread) {
  HealthConfig cfg;
  cfg.nan = HealthAction::kOff;
  cfg.stall = HealthAction::kWarn;
  cfg.stall_timeout_s = 0.05;
  std::atomic<int> warned{0};
  std::atomic<bool> is_watchdog_thread{false};
  const auto main_id = std::this_thread::get_id();
  HealthMonitor mon(cfg, [&](const HealthEvent& e) {
    EXPECT_EQ(e.detector, "stall");
    is_watchdog_thread.store(std::this_thread::get_id() != main_id);
    warned.fetch_add(1);
  });
  mon.begin_stage(true, false, 0.0);
  // Do not heartbeat; the watchdog must fire within a few polls.
  for (int i = 0; i < 200 && warned.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  mon.stop();
  EXPECT_EQ(warned.load(), 1) << "stall latches: exactly one event";
  EXPECT_TRUE(is_watchdog_thread.load());
  ASSERT_EQ(mon.events().size(), 1u);
  EXPECT_GE(mon.events()[0].value, cfg.stall_timeout_s);
}

TEST(HealthMonitor, StallAbortGoesToTheInstalledHandler) {
  HealthConfig cfg;
  cfg.nan = HealthAction::kOff;
  cfg.stall = HealthAction::kAbort;
  cfg.stall_timeout_s = 0.05;
  std::atomic<int> warn_calls{0};
  std::atomic<int> handler_calls{0};
  HealthMonitor mon(cfg,
                    [&](const HealthEvent&) { warn_calls.fetch_add(1); });
  mon.set_stall_handler([&](const HealthEvent& e) {
    EXPECT_EQ(e.action, HealthAction::kAbort);
    handler_calls.fetch_add(1);
  });
  mon.begin_stage(true, false, 0.0);
  for (int i = 0; i < 200 && handler_calls.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  mon.stop();
  EXPECT_EQ(handler_calls.load(), 1);
  EXPECT_EQ(warn_calls.load(), 0) << "aborts bypass the warn sink";
}

TEST(HealthMonitor, HeartbeatsKeepTheWatchdogQuiet) {
  HealthConfig cfg;
  cfg.nan = HealthAction::kOff;
  cfg.stall = HealthAction::kWarn;
  cfg.stall_timeout_s = 0.2;
  std::atomic<int> warned{0};
  HealthMonitor mon(cfg, [&](const HealthEvent&) { warned.fetch_add(1); });
  mon.begin_stage(true, false, 0.0);
  for (int i = 0; i < 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    mon.step_completed();
  }
  mon.stop();
  EXPECT_EQ(warned.load(), 0);
}

TEST(HealthMonitor, ThermoTailRingKeepsTheLastK) {
  HealthConfig cfg;
  cfg.thermo_tail = 4;
  HealthMonitor mon(cfg, nullptr);
  for (long s = 1; s <= 10; ++s) {
    mon.record(sample(s, -1.0 * static_cast<double>(s), 0.5, 100.0));
  }
  const auto tail = mon.tail();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().thermo.step, 7);
  EXPECT_EQ(tail.back().thermo.step, 10);
}

TEST(HealthWriters, ThermoTailCsvPrintsNonFiniteRowsVerbatim) {
  const std::string path = ::testing::TempDir() + "wsmd_health_tail.csv";
  std::vector<HealthSample> rows{sample(5, -3.25, 1.5, 290.0),
                                 sample(6, kNaN, kInf, 291.0)};
  write_thermo_tail_csv(path, rows);
  const std::string text = slurp(path);
  EXPECT_NE(text.find("step,pe_eV,ke_eV,total_eV,temperature_K\n"),
            std::string::npos);
  EXPECT_NE(text.find("5,-3.25,1.5,-1.75,290\n"), std::string::npos);
  EXPECT_NE(text.find("6,nan,inf"), std::string::npos)
      << "the blow-up rows are the payload: " << text;
}

TEST(HealthWriters, HealthJsonVerdictsAndArtifacts) {
  const std::string path = ::testing::TempDir() + "wsmd_health.json";
  HealthEvent warn;
  warn.detector = "temperature";
  warn.message = "T out of band";
  warn.step = 9;
  warn.value = 380.0;
  warn.limit = 50.0;
  warn.action = HealthAction::kWarn;
  HealthEvent fatal = warn;
  fatal.detector = "nan";
  fatal.action = HealthAction::kAbort;
  HealthArtifacts art;
  art.dir = "run.health";
  art.checkpoint = "run.health/checkpoint.ckpt";
  art.thermo_tail = "run.health/thermo_tail.csv";

  write_health_json(path, "run", "reference", {warn, fatal}, &fatal, art);
  std::string text = slurp(path);
  EXPECT_NE(text.find("\"schema\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"verdict\": \"abort\""), std::string::npos);
  EXPECT_NE(text.find("\"detector\": \"nan\""), std::string::npos);
  EXPECT_NE(text.find("\"detector\": \"temperature\""), std::string::npos);
  EXPECT_NE(text.find("\"dir\": \"run.health\""), std::string::npos);
  // Empty artifact members are recorded as "" (not omitted).
  EXPECT_NE(text.find("\"trace\": \"\""), std::string::npos);

  write_health_json(path, "run", "reference", {warn}, nullptr, art);
  text = slurp(path);
  EXPECT_NE(text.find("\"verdict\": \"warn\""), std::string::npos);
  EXPECT_NE(text.find("\"fatal\": null"), std::string::npos);

  write_health_json(path, "run", "reference", {}, nullptr, art);
  text = slurp(path);
  EXPECT_NE(text.find("\"verdict\": \"ok\""), std::string::npos);
  EXPECT_NE(text.find("\"events\": []"), std::string::npos);
}

}  // namespace
}  // namespace wsmd::telemetry
