#include "bas/control_law.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sim/rng.hpp"

namespace bas = mkbas::bas;
namespace sim = mkbas::sim;

using bas::ControlConfig;
using bas::TempControlLogic;

TEST(ControlLaw, HeaterTurnsOnBelowBand) {
  TempControlLogic logic;
  const auto d = logic.on_sample(20.0, 0);  // sp 22, hyst 0.5
  EXPECT_TRUE(d.heater_on);
}

TEST(ControlLaw, HeaterTurnsOffAboveBand) {
  TempControlLogic logic;
  logic.on_sample(20.0, 0);
  const auto d = logic.on_sample(23.0, sim::sec(1));
  EXPECT_FALSE(d.heater_on);
}

TEST(ControlLaw, HysteresisHoldsStateInsideBand) {
  TempControlLogic logic;
  logic.on_sample(20.0, 0);  // heater on
  EXPECT_TRUE(logic.on_sample(22.2, sim::sec(1)).heater_on);  // hold
  logic.on_sample(23.0, sim::sec(2));  // off
  EXPECT_FALSE(logic.on_sample(21.8, sim::sec(3)).heater_on);  // hold
}

TEST(ControlLaw, AlarmTriggersAfterTimeout) {
  ControlConfig cfg;
  cfg.alarm_timeout = sim::minutes(5);
  TempControlLogic logic(cfg);
  // Temperature stuck far below the band.
  for (int s = 0; s <= 4 * 60; ++s) {
    EXPECT_FALSE(logic.on_sample(15.0, sim::sec(s)).alarm_on)
        << "alarm fired early at " << s << "s";
  }
  bool fired = false;
  for (int s = 4 * 60; s <= 6 * 60; ++s) {
    if (logic.on_sample(15.0, sim::sec(s)).alarm_on) {
      fired = true;
      EXPECT_GE(s, 5 * 60);
      break;
    }
  }
  EXPECT_TRUE(fired);
}

TEST(ControlLaw, AlarmClearsOnReentry) {
  ControlConfig cfg;
  cfg.alarm_timeout = sim::minutes(5);
  TempControlLogic logic(cfg);
  for (int s = 0; s <= 6 * 60; ++s) logic.on_sample(15.0, sim::sec(s));
  EXPECT_TRUE(logic.alarm_on());
  const auto d = logic.on_sample(22.0, sim::sec(7 * 60));
  EXPECT_FALSE(d.alarm_on);
}

TEST(ControlLaw, OutOfBandBlipDoesNotAlarm) {
  TempControlLogic logic;
  for (int min = 0; min < 20; ++min) {
    // 1 minute out of band, then back in: the timer must reset.
    logic.on_sample(15.0, sim::minutes(2 * min));
    EXPECT_FALSE(logic.on_sample(22.0, sim::minutes(2 * min + 1)).alarm_on);
  }
}

TEST(ControlLaw, SetpointWithinRangeAccepted) {
  TempControlLogic logic;
  EXPECT_TRUE(logic.try_set_setpoint(25.0, 0));
  EXPECT_DOUBLE_EQ(logic.setpoint(), 25.0);
}

TEST(ControlLaw, SetpointOutsideRangeRejected) {
  TempControlLogic logic;  // allowed range 15..30
  EXPECT_FALSE(logic.try_set_setpoint(45.0, 0));
  EXPECT_FALSE(logic.try_set_setpoint(5.0, 0));
  EXPECT_DOUBLE_EQ(logic.setpoint(), 22.0);  // unchanged
}

TEST(ControlLaw, NonFiniteSetpointRejected) {
  // NaN fails both range comparisons; it must still be refused, or the
  // heater never switches on again (every "t < NaN" is false).
  TempControlLogic logic;
  EXPECT_FALSE(logic.try_set_setpoint(std::nan(""), 0));
  EXPECT_FALSE(logic.try_set_setpoint(
      std::numeric_limits<double>::infinity(), 0));
  EXPECT_FALSE(logic.try_set_setpoint(
      -std::numeric_limits<double>::infinity(), 0));
  EXPECT_DOUBLE_EQ(logic.setpoint(), 22.0);
  EXPECT_TRUE(logic.on_sample(5.0, sim::sec(1)).heater_on);
}

TEST(ControlLaw, SetpointChangeRestartsAlarmTimer) {
  ControlConfig cfg;
  cfg.alarm_timeout = sim::minutes(5);
  TempControlLogic logic(cfg);
  // 4 minutes out of band...
  for (int s = 0; s <= 4 * 60; ++s) logic.on_sample(15.0, sim::sec(s));
  // ...then the operator moves the setpoint: the settle timer restarts,
  // so the alarm must NOT fire at the 5-minute mark of the old episode.
  ASSERT_TRUE(logic.try_set_setpoint(16.0, sim::sec(4 * 60)));
  EXPECT_FALSE(logic.on_sample(15.0, sim::sec(5 * 60 + 30)).alarm_on);
}

TEST(ControlLaw, EnvReflectsState) {
  TempControlLogic logic;
  logic.on_sample(20.0, 0);
  const auto env = logic.env();
  EXPECT_DOUBLE_EQ(env.last_temp_c, 20.0);
  EXPECT_DOUBLE_EQ(env.setpoint_c, 22.0);
  EXPECT_TRUE(env.heater_on);
  EXPECT_FALSE(env.alarm_on);
}

// Property sweep: for any temperature sequence, alarm_on implies the last
// `alarm_timeout` of samples were out of band.
class ControlLawProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ControlLawProperty, AlarmImpliesSustainedOutOfBand) {
  mkbas::sim::Rng rng(GetParam());
  ControlConfig cfg;
  cfg.alarm_timeout = sim::minutes(5);
  TempControlLogic logic(cfg);
  std::vector<std::pair<sim::Time, double>> samples;
  double t = 18.0;
  for (int s = 0; s < 3600; ++s) {
    t += (rng.next_double() - 0.48) * 0.3;  // slow random walk, drifts up
    const sim::Time now = sim::sec(s);
    const auto d = logic.on_sample(t, now);
    samples.push_back({now, t});
    if (d.alarm_on) {
      // Every sample in the last alarm_timeout must be out of band.
      for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
        if (now - it->first > cfg.alarm_timeout) break;
        EXPECT_GT(std::abs(it->second - logic.setpoint()),
                  cfg.alarm_tolerance_c)
            << "alarm on but sample at " << it->first << " was in band";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlLawProperty,
                         ::testing::Values(1u, 7u, 42u, 1337u, 9999u));
