// End-to-end benign behaviour of the temperature-control scenario on all
// three platforms (the Fig. 2 workload): identical control behaviour is
// itself a claim of the paper's comparison.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "core/experiment.hpp"

namespace core = mkbas::core;
namespace sim = mkbas::sim;

using core::Platform;

class BenignScenario : public ::testing::TestWithParam<Platform> {};

TEST_P(BenignScenario, ReachesAndHoldsSetpoint) {
  const auto run = core::run_benign(GetParam());
  ASSERT_FALSE(run.history.empty());
  // At t=9min (before the setpoint step) the room must sit near 22C.
  const mkbas::devices::PlantSample* at9 = nullptr;
  for (const auto& s : run.history) {
    if (s.time >= sim::minutes(9)) {
      at9 = &s;
      break;
    }
  }
  ASSERT_NE(at9, nullptr);
  EXPECT_NEAR(at9->true_temp_c, 22.0, 1.0);
}

TEST_P(BenignScenario, SetpointStepViaHttpTakesEffect) {
  const auto run = core::run_benign(GetParam());
  // The POST must be answered 200 ...
  bool post_ok = false;
  for (const auto& ex : run.http) {
    if (ex.request.method == "POST") {
      EXPECT_EQ(ex.response.status, 200);
      post_ok = ex.answered >= 0;
    }
  }
  EXPECT_TRUE(post_ok);
  // ... and the room must track the new 25C setpoint before the heater
  // failure at t=30min.
  const mkbas::devices::PlantSample* at29 = nullptr;
  for (const auto& s : run.history) {
    if (s.time >= sim::minutes(29)) {
      at29 = &s;
      break;
    }
  }
  ASSERT_NE(at29, nullptr);
  EXPECT_NEAR(at29->true_temp_c, 25.0, 1.0);
}

TEST_P(BenignScenario, HeaterFailureTriggersAlarmWithinTimeout) {
  const auto run = core::run_benign(GetParam());
  // Heater fails at t=30min; as the room drifts out of the band the alarm
  // must fire, and it must clear again after the repair at t=45min.
  sim::Time alarm_on_at = -1;
  for (const auto& s : run.history) {
    if (s.time > sim::minutes(30) && s.alarm_on) {
      alarm_on_at = s.time;
      break;
    }
  }
  ASSERT_GT(alarm_on_at, 0) << "alarm never fired after heater failure";
  EXPECT_LT(alarm_on_at, sim::minutes(45));
  EXPECT_FALSE(run.history.back().alarm_on) << "alarm did not clear";
  // The checker agrees the alarm property held throughout.
  EXPECT_FALSE(run.safety.alarm_violation);
  EXPECT_FALSE(run.safety.spurious_alarm);
  EXPECT_TRUE(run.safety.control_alive);
}

TEST_P(BenignScenario, StatusEndpointServesTelemetry) {
  const auto run = core::run_benign(GetParam());
  int answered = 0;
  for (const auto& ex : run.http) {
    if (ex.request.path == "/status" && ex.answered >= 0) {
      ++answered;
      EXPECT_EQ(ex.response.status, 200);
      EXPECT_NE(ex.response.body.find("temp="), std::string::npos);
      EXPECT_NE(ex.response.body.find("setpoint="), std::string::npos);
    }
  }
  EXPECT_GE(answered, 20);  // polled every 2min over 60min
}

TEST_P(BenignScenario, HeaterDutyCyclesRatherThanSticking) {
  const auto run = core::run_benign(GetParam());
  // Between minute 15 and 30 the plant regulates around 25C; the
  // bang-bang law must produce several on/off transitions. A platform
  // whose IPC stalled would show a stuck actuator instead.
  std::size_t transitions = 0;
  bool last = run.history.front().heater_on;
  for (const auto& s : run.history) {
    if (s.time < sim::minutes(15) || s.time > sim::minutes(30)) continue;
    if (s.heater_on != last) ++transitions;
    last = s.heater_on;
  }
  EXPECT_GE(transitions, 2u);
}

INSTANTIATE_TEST_SUITE_P(AllPlatforms, BenignScenario,
                         ::testing::Values(Platform::kMinix, Platform::kSel4,
                                           Platform::kLinux),
                         [](const auto& info) {
                           switch (info.param) {
                             case Platform::kMinix:
                               return "Minix";
                             case Platform::kSel4:
                               return "Sel4";
                             case Platform::kLinux:
                               return "Linux";
                           }
                           return "Unknown";
                         });

TEST(BenignScenario, Sel4TimerPairTicksAlongside) {
  // The paper's two extra timer driver processes (§IV.B) run beside the
  // control loop over the seL4Notification connector without perturbing
  // it.
  mkbas::sim::Machine m;
  mkbas::bas::Sel4Scenario sc(m);
  m.run_until(sim::minutes(5));
  EXPECT_NEAR(static_cast<double>(sc.timer_ticks()), 300.0, 5.0);
  EXPECT_NEAR(sc.plant()->room.temperature_c(), 22.0, 1.5);
}

TEST(BenignScenario, PlatformsProduceComparableControlQuality) {
  const auto minix = core::run_benign(Platform::kMinix);
  const auto sel4 = core::run_benign(Platform::kSel4);
  const auto linux = core::run_benign(Platform::kLinux);
  // Same plant, same law, same workload: final temperatures agree.
  EXPECT_NEAR(minix.history.back().true_temp_c,
              sel4.history.back().true_temp_c, 0.8);
  EXPECT_NEAR(minix.history.back().true_temp_c,
              linux.history.back().true_temp_c, 0.8);
}

TEST(BenignScenario, LinuxSeparateAccountsAlsoWorksBenignly) {
  core::RunOptions opts;
  opts.scenario.linux_separate_accounts = true;
  const auto run = core::run_benign(Platform::kLinux, opts);
  EXPECT_TRUE(run.safety.control_alive);
  EXPECT_FALSE(run.safety.alarm_violation);
}

TEST(BenignScenario, MinixFsLogRecordsEnvironment) {
  // §IV.A: the control loop ends each iteration by writing environment
  // information to a log file — here via the user-mode FS server.
  mkbas::sim::Machine m;
  mkbas::bas::ScenarioConfig cfg;
  cfg.enable_fs_log = true;
  mkbas::bas::MinixScenario sc(m, cfg);
  m.run_until(sim::minutes(5));
  ASSERT_NE(sc.fs(), nullptr);
  const std::string* log = sc.fs()->contents("/var/log/tempctl.log");
  ASSERT_NE(log, nullptr);
  EXPECT_NE(log->find("temp="), std::string::npos);
  EXPECT_NE(log->find("sp=22.0"), std::string::npos);
  // Roughly one line per 1 Hz control cycle over five minutes.
  const auto lines = std::count(log->begin(), log->end(), '\n');
  EXPECT_GT(lines, 250);
  // Control quality is unaffected by the extra IPC.
  EXPECT_NEAR(sc.plant()->room.temperature_c(), 22.0, 1.0);
}

TEST(BenignScenario, MinixWithQuotasWorksBenignly) {
  core::RunOptions opts;
  opts.scenario.enable_quotas = true;
  const auto run = core::run_benign(Platform::kMinix, opts);
  EXPECT_TRUE(run.safety.control_alive);
  EXPECT_FALSE(run.safety.alarm_violation);
}

TEST(BenignScenario, NanSetpointLeavesTheSetpointUnchangedOnEveryBinding) {
  // "value=nan" parses as a number; every binding must hand it to the
  // controller, which must refuse it: the setpoint stays 22.0 in /status
  // and the refusal is traced.
  const std::pair<Platform, const char*> bindings[] = {
      {Platform::kMinix, "temp"},
      {Platform::kSel4, "temp"},
      {Platform::kLinux, "temp"},
      {Platform::kLinux, "uds"}};
  for (const auto& [platform, variant] : bindings) {
    mkbas::sim::Machine m;
    auto sc = mkbas::bas::make_scenario(m, platform, variant);
    m.at(sim::sec(60), [&] {
      sc->http().submit(m.now(), {"POST", "/setpoint", "value=nan"});
    });
    m.at(sim::sec(90), [&] {
      sc->http().submit(m.now(), {"GET", "/status", ""});
    });
    m.run_until(sim::minutes(2));
    const auto& ex = sc->http().exchanges();
    ASSERT_EQ(ex.size(), 2u) << variant;
    EXPECT_EQ(ex[1].response.status, 200) << variant;
    EXPECT_NE(ex[1].response.body.find("setpoint=22.0"), std::string::npos)
        << mkbas::bas::to_string(platform) << "/" << variant << ": "
        << ex[1].response.body;
    bool rejected = false;
    for (const auto& e : m.trace().events()) {
      rejected |= e.what() == "ctl.setpoint_rejected";
    }
    EXPECT_TRUE(rejected) << mkbas::bas::to_string(platform) << "/" << variant;
  }
}
