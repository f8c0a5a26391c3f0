#pragma once

#include <cmath>

#include "sim/time.hpp"

namespace mkbas::bas {

/// Tunables of the temperature control process (§II).
struct ControlConfig {
  double initial_setpoint_c = 22.0;
  double setpoint_min_c = 15.0;  // "within a predefined range"
  double setpoint_max_c = 30.0;
  double hysteresis_c = 0.5;
  double alarm_tolerance_c = 1.5;
  sim::Duration alarm_timeout = sim::minutes(5);  // "e.g., 5 minutes"
};

/// Snapshot of the controller's view of the environment, returned to the
/// web interface on env queries and written to the log.
struct EnvInfo {
  double last_temp_c = 0.0;
  double setpoint_c = 0.0;
  bool heater_on = false;
  bool alarm_on = false;
};

/// The control logic of the temperature control process, kept pure (no
/// IPC, no devices) so the identical law runs on MINIX 3, seL4/CAmkES and
/// Linux — mirroring the paper's "intuitive implementation [that is]
/// functionally correct".
///
/// Law: bang-bang with hysteresis around the setpoint; the alarm latches
/// on when the temperature has been outside the tolerance band
/// continuously for `alarm_timeout` (the controller "fails to achieve the
/// desired temperature within a certain time interval") and clears when
/// the band is re-entered.
class TempControlLogic {
 public:
  explicit TempControlLogic(ControlConfig cfg = {})
      : cfg_(cfg), setpoint_(cfg.initial_setpoint_c) {}

  struct Decision {
    bool heater_on = false;
    bool alarm_on = false;
  };

  /// Feed one sensor sample; returns the actuator commands to issue.
  Decision on_sample(double temp_c, sim::Time now) {
    last_temp_ = temp_c;
    // Bang-bang with hysteresis.
    if (temp_c < setpoint_ - cfg_.hysteresis_c) {
      heater_on_ = true;
    } else if (temp_c > setpoint_ + cfg_.hysteresis_c) {
      heater_on_ = false;
    }
    // Alarm timer.
    const bool in_band =
        temp_c >= setpoint_ - cfg_.alarm_tolerance_c &&
        temp_c <= setpoint_ + cfg_.alarm_tolerance_c;
    if (in_band) {
      out_of_band_since_ = sim::kTimeNever;
      alarm_on_ = false;
    } else {
      if (out_of_band_since_ == sim::kTimeNever) out_of_band_since_ = now;
      if (now - out_of_band_since_ >= cfg_.alarm_timeout) alarm_on_ = true;
    }
    return {heater_on_, alarm_on_};
  }

  /// Admin setpoint update; rejected outside the predefined range (and
  /// when not a number at all: NaN fails both range comparisons).
  bool try_set_setpoint(double sp_c, sim::Time now) {
    if (!std::isfinite(sp_c) || sp_c < cfg_.setpoint_min_c ||
        sp_c > cfg_.setpoint_max_c) {
      return false;
    }
    setpoint_ = sp_c;
    // A new target restarts the settle timer rather than alarming
    // immediately for the transition period.
    out_of_band_since_ = now;
    return true;
  }

  double setpoint() const { return setpoint_; }
  bool heater_on() const { return heater_on_; }
  bool alarm_on() const { return alarm_on_; }
  EnvInfo env() const { return {last_temp_, setpoint_, heater_on_, alarm_on_}; }
  const ControlConfig& config() const { return cfg_; }

 private:
  ControlConfig cfg_;
  double setpoint_;
  double last_temp_ = 0.0;
  bool heater_on_ = false;
  bool alarm_on_ = false;
  sim::Time out_of_band_since_ = sim::kTimeNever;  // kTimeNever: in band
};

}  // namespace mkbas::bas
