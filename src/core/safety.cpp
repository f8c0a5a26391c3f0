#include "core/safety.hpp"

#include <algorithm>
#include <sstream>

namespace mkbas::core {

namespace {

/// Piecewise-constant setpoint reconstructed from the trace: the initial
/// value at t=0, then one step per accepted "ctl.setpoint" event. Steps
/// stay in emit order, which is time order (the controller stamps each
/// with its machine's clock), so one binary search finds any sample's.
class SetpointTimeline {
 public:
  struct Step {
    sim::Time when = 0;
    double value = 0.0;
  };

  SetpointTimeline(const sim::TraceLog& trace, double initial) {
    steps_.push_back({0, initial});
    // Compare interned ids, not strings: this runs over every trace event.
    const auto tag = sim::TagRegistry::instance().intern("ctl.setpoint");
    for (const auto& ev : trace.events()) {
      if (ev.tag == tag) steps_.push_back({ev.time, ev.value});
    }
  }
  /// The step in effect at t: the last one at or before t (the initial
  /// step if t precedes them all). Its value is the setpoint at t, its
  /// time that of the latest change at or before t.
  const Step& at(sim::Time t) const {
    const auto after = std::upper_bound(
        steps_.begin(), steps_.end(), t,
        [](sim::Time x, const Step& s) { return x < s.when; });
    return after == steps_.begin() ? steps_.front() : *(after - 1);
  }

 private:
  std::vector<Step> steps_;
};

}  // namespace

SafetyReport check_safety(const std::vector<devices::PlantSample>& history,
                          const sim::TraceLog& trace,
                          const bas::ControlConfig& cfg, sim::Time run_end,
                          sim::Duration sensor_period) {
  SafetyReport report;
  if (history.empty()) return report;

  // --- control liveness: a sample was emitted close to the end ---
  sim::Time last_sample = -1;
  const auto sample_tag = sim::TagRegistry::instance().intern("ctl.sample");
  for (const auto& ev : trace.events()) {
    if (ev.tag == sample_tag) last_sample = ev.time;
  }
  report.control_alive =
      last_sample >= 0 && (run_end - last_sample) <= 5 * sensor_period;

  const SetpointTimeline setpoints(trace, cfg.initial_setpoint_c);

  // Detection margins: generous enough that sensor noise and command
  // latency can never trip them, tight enough that real attacks do.
  const double kExcursionMargin = 1.0;           // beyond the alarm band
  const sim::Duration kExcursionHold = sim::minutes(3);
  const sim::Duration kAlarmSlack = sim::minutes(1);
  const sim::Duration kSpuriousHold = sim::minutes(2);
  const sim::Duration kSettleAllowance = sim::minutes(8);  // after change

  report.min_temp_c = history.front().true_temp_c;
  report.max_temp_c = history.front().true_temp_c;

  // The alarm check requires being out of band *by a margin*: the
  // controller decides on measured (noisy, quantised) temperature, so at
  // the exact band edge true and measured classifications legitimately
  // disagree.
  const double kAlarmMargin = 0.3;

  sim::Time out_since = -1;       // continuous out-of-band (accounting)
  sim::Time out_hard_since = -1;  // out-of-band by margin (alarm check)
  sim::Time far_out_since = -1;   // continuous far-out-of-band
  sim::Time in_band_alarm_since = -1;  // alarm on while in band
  sim::Time prev_t = history.front().time;

  for (const auto& s : history) {
    report.min_temp_c = std::min(report.min_temp_c, s.true_temp_c);
    report.max_temp_c = std::max(report.max_temp_c, s.true_temp_c);
    const SetpointTimeline::Step& step = setpoints.at(s.time);
    const double dev = std::abs(s.true_temp_c - step.value);
    const bool out = dev > cfg.alarm_tolerance_c;
    const bool far_out = dev > cfg.alarm_tolerance_c + kExcursionMargin;
    const sim::Time since_change = s.time - step.when;
    // Settling exemption covers both boot (change at t=0) and operator
    // setpoint steps: the plant legitimately spends time out of band
    // while slewing to a new target.
    const bool settling = since_change < kSettleAllowance;

    if (out) {
      if (out_since < 0) out_since = s.time;
      report.out_of_band_total += s.time - prev_t;
    } else {
      out_since = -1;
    }
    // Alarm property: continuously out of band (by margin) past
    // timeout + slack means the alarm must be on.
    if (dev > cfg.alarm_tolerance_c + kAlarmMargin) {
      if (out_hard_since < 0) out_hard_since = s.time;
      if (!settling &&
          s.time - out_hard_since > cfg.alarm_timeout + kAlarmSlack &&
          !s.alarm_on) {
        report.alarm_violation = true;
      }
    } else {
      out_hard_since = -1;
    }

    if (far_out && !settling) {
      if (far_out_since < 0) far_out_since = s.time;
      if (s.time - far_out_since > kExcursionHold) {
        report.temp_excursion = true;
      }
    } else {
      far_out_since = -1;
    }

    // Spurious alarm: alarm on while comfortably inside the band.
    const bool comfortably_in = dev < cfg.alarm_tolerance_c - 0.3;
    if (s.alarm_on && comfortably_in) {
      if (in_band_alarm_since < 0) in_band_alarm_since = s.time;
      if (s.time - in_band_alarm_since > kSpuriousHold) {
        report.spurious_alarm = true;
      }
    } else {
      in_band_alarm_since = -1;
    }
    prev_t = s.time;
  }
  return report;
}

std::string SafetyReport::summary() const {
  std::ostringstream os;
  os << (physically_compromised() ? "COMPROMISED" : "safe") << " [";
  os << (control_alive ? "ctl-alive" : "CTL-DEAD");
  if (temp_excursion) os << ", TEMP-EXCURSION";
  if (alarm_violation) os << ", ALARM-SILENCED";
  if (spurious_alarm) os << ", SPURIOUS-ALARM";
  char buf[64];
  std::snprintf(buf, sizeof buf, ", temp %.1f..%.1fC", min_temp_c,
                max_temp_c);
  os << buf << "]";
  return os.str();
}

}  // namespace mkbas::core
