#include "core/safety.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>

namespace core = mkbas::core;
namespace sim = mkbas::sim;
namespace bas = mkbas::bas;

using mkbas::devices::PlantSample;

namespace {

/// Build a synthetic history with 1s resolution.
std::vector<PlantSample> make_history(
    sim::Time end, const std::function<double(sim::Time)>& temp,
    const std::function<bool(sim::Time)>& alarm) {
  std::vector<PlantSample> h;
  for (sim::Time t = 0; t <= end; t += sim::sec(1)) {
    h.push_back({t, temp(t), 10.0, false, alarm(t)});
  }
  return h;
}

/// Trace with live control samples up to `until`.
sim::TraceLog make_live_trace(sim::Time until) {
  sim::TraceLog log;
  for (sim::Time t = 0; t <= until; t += sim::sec(1)) {
    log.emit(t, 1, sim::TraceKind::kControl, "ctl.sample", "", 22.0);
  }
  return log;
}

/// The judge with the setpoint timeline it had before the binary search:
/// the setpoint at a sample and the time of the last change before it
/// are each found by scanning every step. Kept as the oracle the
/// property cases compare check_safety against.
class ScanTimeline {
 public:
  ScanTimeline(const sim::TraceLog& trace, double initial) {
    steps_.push_back({0, initial});
    const auto tag = sim::TagRegistry::instance().intern("ctl.setpoint");
    for (const auto& ev : trace.events()) {
      if (ev.tag == tag) steps_.push_back({ev.time, ev.value});
    }
  }
  double at(sim::Time t) const {
    double sp = steps_.front().second;
    for (const auto& [when, value] : steps_) {
      if (when > t) break;
      sp = value;
    }
    return sp;
  }
  sim::Time last_change_before(sim::Time t) const {
    sim::Time r = 0;
    for (const auto& [when, value] : steps_) {
      if (when > t) break;
      r = when;
    }
    return r;
  }

 private:
  std::vector<std::pair<sim::Time, double>> steps_;
};

core::SafetyReport scan_check_safety(const std::vector<PlantSample>& history,
                                     const sim::TraceLog& trace,
                                     const bas::ControlConfig& cfg,
                                     sim::Time run_end,
                                     sim::Duration sensor_period = sim::sec(1)) {
  core::SafetyReport report;
  if (history.empty()) return report;
  sim::Time last_sample = -1;
  const auto sample_tag = sim::TagRegistry::instance().intern("ctl.sample");
  for (const auto& ev : trace.events()) {
    if (ev.tag == sample_tag) last_sample = ev.time;
  }
  report.control_alive =
      last_sample >= 0 && (run_end - last_sample) <= 5 * sensor_period;
  const ScanTimeline setpoints(trace, cfg.initial_setpoint_c);
  const double kExcursionMargin = 1.0;
  const sim::Duration kExcursionHold = sim::minutes(3);
  const sim::Duration kAlarmSlack = sim::minutes(1);
  const sim::Duration kSpuriousHold = sim::minutes(2);
  const sim::Duration kSettleAllowance = sim::minutes(8);
  report.min_temp_c = history.front().true_temp_c;
  report.max_temp_c = history.front().true_temp_c;
  const double kAlarmMargin = 0.3;
  sim::Time out_since = -1;
  sim::Time out_hard_since = -1;
  sim::Time far_out_since = -1;
  sim::Time in_band_alarm_since = -1;
  sim::Time prev_t = history.front().time;
  for (const auto& s : history) {
    report.min_temp_c = std::min(report.min_temp_c, s.true_temp_c);
    report.max_temp_c = std::max(report.max_temp_c, s.true_temp_c);
    const double sp = setpoints.at(s.time);
    const double dev = std::abs(s.true_temp_c - sp);
    const bool out = dev > cfg.alarm_tolerance_c;
    const bool far_out = dev > cfg.alarm_tolerance_c + kExcursionMargin;
    const sim::Time since_change =
        s.time - setpoints.last_change_before(s.time);
    const bool settling = since_change < kSettleAllowance;
    if (out) {
      if (out_since < 0) out_since = s.time;
      report.out_of_band_total += s.time - prev_t;
    } else {
      out_since = -1;
    }
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

/// Every SafetyReport field, compared exactly.
void expect_same_report(const core::SafetyReport& got,
                        const core::SafetyReport& want,
                        const std::string& what) {
  EXPECT_EQ(got.control_alive, want.control_alive) << what;
  EXPECT_EQ(got.temp_excursion, want.temp_excursion) << what;
  EXPECT_EQ(got.alarm_violation, want.alarm_violation) << what;
  EXPECT_EQ(got.spurious_alarm, want.spurious_alarm) << what;
  EXPECT_EQ(got.min_temp_c, want.min_temp_c) << what;
  EXPECT_EQ(got.max_temp_c, want.max_temp_c) << what;
  EXPECT_EQ(got.out_of_band_total, want.out_of_band_total) << what;
}

}  // namespace

TEST(Safety, NominalRunIsSafe) {
  const sim::Time end = sim::minutes(30);
  auto history = make_history(
      end, [](sim::Time) { return 22.0; }, [](sim::Time) { return false; });
  const auto trace = make_live_trace(end);
  const auto r = core::check_safety(history, trace, {}, end);
  EXPECT_TRUE(r.control_alive);
  EXPECT_FALSE(r.physically_compromised());
}

TEST(Safety, DeadControllerIsFlagged) {
  const sim::Time end = sim::minutes(30);
  auto history = make_history(
      end, [](sim::Time) { return 22.0; }, [](sim::Time) { return false; });
  const auto trace = make_live_trace(sim::minutes(10));  // died at 10min
  const auto r = core::check_safety(history, trace, {}, end);
  EXPECT_FALSE(r.control_alive);
  EXPECT_TRUE(r.physically_compromised());
}

TEST(Safety, StartupTransientIsExempt) {
  // Rising from 18 to 22 over the first minutes: out of band but settling.
  const sim::Time end = sim::minutes(30);
  auto history = make_history(
      end,
      [](sim::Time t) {
        const double mins = static_cast<double>(t) / 60e6;
        return std::min(22.0, 18.0 + mins * 1.0);
      },
      [](sim::Time) { return false; });
  const auto trace = make_live_trace(end);
  const auto r = core::check_safety(history, trace, {}, end);
  EXPECT_FALSE(r.temp_excursion);
  EXPECT_FALSE(r.alarm_violation);
}

TEST(Safety, SustainedExcursionIsFlagged) {
  const sim::Time end = sim::minutes(40);
  // In band until 20min, then stuck at 28C with the alarm correctly on.
  auto history = make_history(
      end,
      [](sim::Time t) { return t < sim::minutes(20) ? 22.0 : 28.0; },
      [](sim::Time t) { return t > sim::minutes(26); });
  const auto trace = make_live_trace(end);
  const auto r = core::check_safety(history, trace, {}, end);
  EXPECT_TRUE(r.temp_excursion);
  EXPECT_FALSE(r.alarm_violation);  // alarm behaved
}

TEST(Safety, SilencedAlarmIsViolation) {
  const sim::Time end = sim::minutes(40);
  auto history = make_history(
      end,
      [](sim::Time t) { return t < sim::minutes(20) ? 22.0 : 28.0; },
      [](sim::Time) { return false; });  // alarm never fires
  const auto trace = make_live_trace(end);
  const auto r = core::check_safety(history, trace, {}, end);
  EXPECT_TRUE(r.alarm_violation);
  EXPECT_TRUE(r.physically_compromised());
}

TEST(Safety, BorderlineTemperatureDoesNotTripAlarmCheck) {
  // Hovering just past the tolerance edge (within the measurement
  // margin): no alarm violation even though the alarm stays off.
  const sim::Time end = sim::minutes(40);
  auto history = make_history(
      end, [](sim::Time) { return 22.0 - 1.6; },  // tol 1.5, margin 0.3
      [](sim::Time) { return false; });
  const auto trace = make_live_trace(end);
  const auto r = core::check_safety(history, trace, {}, end);
  EXPECT_FALSE(r.alarm_violation);
}

TEST(Safety, SpuriousAlarmIsFlagged) {
  const sim::Time end = sim::minutes(30);
  auto history = make_history(
      end, [](sim::Time) { return 22.0; },
      [](sim::Time t) { return t > sim::minutes(10); });  // alarm in band
  const auto trace = make_live_trace(end);
  const auto r = core::check_safety(history, trace, {}, end);
  EXPECT_TRUE(r.spurious_alarm);
}

TEST(Safety, SetpointChangeGetsSettleAllowance) {
  const sim::Time end = sim::minutes(40);
  // Setpoint steps to 28 at t=20min; plant slews at 1C/min.
  auto history = make_history(
      end,
      [](sim::Time t) {
        if (t < sim::minutes(20)) return 22.0;
        const double mins = static_cast<double>(t - sim::minutes(20)) / 60e6;
        return std::min(28.0, 22.0 + mins);
      },
      [](sim::Time) { return false; });
  auto trace = make_live_trace(end);
  trace.emit(sim::minutes(20), 1, sim::TraceKind::kControl, "ctl.setpoint",
             "", 28.0);
  const auto r = core::check_safety(history, trace, {}, end);
  EXPECT_FALSE(r.temp_excursion);
  EXPECT_FALSE(r.alarm_violation);
}

TEST(Safety, OutOfBandTotalAccumulates) {
  const sim::Time end = sim::minutes(20);
  auto history = make_history(
      end,
      [](sim::Time t) {
        return (t >= sim::minutes(5) && t < sim::minutes(10)) ? 28.0 : 22.0;
      },
      [](sim::Time) { return false; });
  const auto trace = make_live_trace(end);
  const auto r = core::check_safety(history, trace, {}, end);
  EXPECT_NEAR(static_cast<double>(r.out_of_band_total),
              static_cast<double>(sim::minutes(5)),
              static_cast<double>(sim::sec(5)));
}

TEST(Safety, SummaryMentionsFindings) {
  core::SafetyReport r;
  r.control_alive = false;
  r.temp_excursion = true;
  const std::string s = r.summary();
  EXPECT_NE(s.find("COMPROMISED"), std::string::npos);
  EXPECT_NE(s.find("CTL-DEAD"), std::string::npos);
  EXPECT_NE(s.find("TEMP-EXCURSION"), std::string::npos);
}

TEST(Safety, BinarySearchMatchesTheScanOnRandomRuns) {
  // Seeded random runs: histories with jittered and repeated sample
  // times, piecewise temperatures and alarm runs; 0-40 setpoint steps,
  // some on a sample's exact time, some sharing a timestamp, some after
  // the last sample. Steps are time-ordered, as every machine emits them.
  std::mt19937_64 rng(20171);
  const auto below = [&rng](std::uint64_t n) {
    return static_cast<std::int64_t>(rng() % n);
  };
  const auto uniform = [&rng](double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  int compromised = 0;
  int excursions = 0;
  int violations = 0;
  int spurious = 0;
  int dead = 0;
  const int kCases = 300;
  for (int c = 0; c < kCases; ++c) {
    bas::ControlConfig cfg;
    cfg.initial_setpoint_c = uniform(18.0, 26.0);
    cfg.alarm_tolerance_c = uniform(0.5, 2.5);
    cfg.alarm_timeout = sim::minutes(1 + below(6));

    std::vector<PlantSample> history;
    const std::int64_t n = c % 25 == 0 ? below(3) : 60 + below(2400);
    sim::Time t = below(3) * sim::sec(1);
    double temp = uniform(16.0, 28.0);
    double target = temp;
    bool alarm = false;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t gap = below(20);
      t += gap == 0 ? 0 : gap == 1 ? sim::sec(4) : sim::sec(1);
      if (below(300) == 0) target = uniform(15.0, 30.0);
      temp += (target - temp) * 0.02 + uniform(-0.05, 0.05);
      if (below(200) == 0) alarm = !alarm;
      history.push_back({t, temp, 10.0, false, alarm});
    }
    const sim::Time last = history.empty() ? 0 : history.back().time;

    std::vector<std::pair<sim::Time, double>> steps;
    const std::int64_t m = c % 10 == 0 ? 0 : below(41);
    for (std::int64_t i = 0; i < m; ++i) {
      sim::Time when = below(static_cast<std::uint64_t>(last) +
                             sim::minutes(10) + 1);
      const std::int64_t pick = below(4);
      if (pick == 0 && !history.empty()) {
        when = history[static_cast<std::size_t>(
                           below(history.size()))].time;
      } else if (pick == 1 && !steps.empty()) {
        when = steps[static_cast<std::size_t>(below(steps.size()))].first;
      }
      steps.emplace_back(when, uniform(15.0, 30.0));
    }
    std::stable_sort(steps.begin(), steps.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });

    sim::TraceLog trace;
    const sim::Time alive_until =
        below(4) == 0 ? below(static_cast<std::uint64_t>(last) + 1) : last;
    for (sim::Time s = 0; s <= alive_until; s += sim::sec(1)) {
      trace.emit(s, 1, sim::TraceKind::kControl, "ctl.sample", "", 22.0);
    }
    for (const auto& [when, value] : steps) {
      trace.emit(when, 1, sim::TraceKind::kControl, "ctl.setpoint", "", value);
      if (below(5) == 0) {
        trace.emit(when, 1, sim::TraceKind::kControl, "ctl.setpoint_rejected",
                   "", value + 50.0);
      }
    }
    const sim::Time run_end = last + below(10) * sim::sec(1);

    const auto got = core::check_safety(history, trace, cfg, run_end);
    const auto want = scan_check_safety(history, trace, cfg, run_end);
    expect_same_report(got, want, "case " + std::to_string(c));
    compromised += got.physically_compromised();
    excursions += got.temp_excursion;
    violations += got.alarm_violation;
    spurious += got.spurious_alarm;
    dead += !got.control_alive;
  }
  // The generator reaches every verdict both ways.
  for (const int seen : {compromised, excursions, violations, spurious, dead}) {
    EXPECT_GT(seen, 0);
    EXPECT_LT(seen, kCases);
  }
}

TEST(Safety, BinarySearchMatchesTheScanUnderASetpointFlood) {
  // What kIpcFlood sends: a legal setpoint every millisecond for two
  // minutes, here from minute 10 of a 30-minute run, with the plant
  // drifting out of band during and after the flood.
  const sim::Time end = sim::minutes(30);
  auto history = make_history(
      end,
      [](sim::Time t) {
        const double mins = static_cast<double>(t) / 60e6;
        return mins < 9.0 ? 22.0 : 22.0 + std::min(6.0, (mins - 9.0) * 0.5);
      },
      [](sim::Time t) { return t > sim::minutes(25); });
  auto trace = make_live_trace(end);
  const sim::Time flood_start = sim::minutes(10);
  for (int i = 0; i < 120000; ++i) {
    trace.emit(flood_start + i * sim::msec(1), 1, sim::TraceKind::kControl,
               "ctl.setpoint", "", i % 2 == 0 ? 22.0 : 22.5);
  }
  const auto got = core::check_safety(history, trace, {}, end);
  expect_same_report(got, scan_check_safety(history, trace, {}, end),
                     "flood");
  EXPECT_TRUE(got.temp_excursion);
}
