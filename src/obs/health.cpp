#include "obs/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json.hpp"

namespace mkbas::obs {

const char* to_string(HealthEventKind k) {
  switch (k) {
    case HealthEventKind::kEwma:
      return "ewma";
    case HealthEventKind::kCusumHigh:
      return "cusum_high";
    case HealthEventKind::kCusumLow:
      return "cusum_low";
    case HealthEventKind::kSurge:
      return "surge";
  }
  return "?";
}

// ---- HealthSignal ----

void HealthSignal::observe(sim::Time t, double v) {
  if (mon_ != nullptr && mon_->enabled()) mon_->observe_value(*cell_, t, v);
}

void HealthSignal::count(sim::Time t, std::uint64_t n) {
  if (mon_ != nullptr && mon_->enabled()) mon_->count_events(*cell_, t, n);
}

// ---- HealthMonitor ----

void HealthMonitor::wire(SeriesStore* series, AuditJournal* audit,
                         const SpanStore* spans) {
  series_ = series;
  audit_ = audit;
  spans_ = spans;
}

HealthSignal HealthMonitor::signal(const std::string& name,
                                   const DetectorConfig& cfg) {
  const auto key = std::make_pair(machine_, name);
  auto it = cells_.find(key);
  if (it == cells_.end()) {
    cell_storage_.emplace_back();
    HealthSignal::Cell& cell = cell_storage_.back();
    cell.name = sim::TagRegistry::instance().intern(name);
    cell.machine = machine_;
    cell.cfg = cfg;
    if (series_ != nullptr) {
      // In rate mode one closed rate window is one series window.
      cell.series = series_->series(
          name, cfg.rate ? cfg.rate_window : kDefaultSeriesWidth);
    }
    it = cells_.emplace(key, &cell).first;
    machines_.insert(machine_);
  }
  return HealthSignal(it->second, this);
}

void HealthMonitor::observe_value(HealthSignal::Cell& c, sim::Time t,
                                  double v) {
  c.series.record(t, v);
  detect(c, t, v);
}

void HealthMonitor::count_events(HealthSignal::Cell& c, sim::Time t,
                                 std::uint64_t n) {
  const std::int64_t idx = t / c.cfg.rate_window;
  if (c.cur_win < 0) {
    c.cur_win = idx;
  } else if (idx != c.cur_win) {
    close_rate_window(c, idx);
  }
  c.cur_count += static_cast<double>(n);
}

void HealthMonitor::close_rate_window(HealthSignal::Cell& c,
                                      std::int64_t up_to) {
  if (c.cur_win < 0 || up_to <= c.cur_win) return;
  const sim::Duration w = c.cfg.rate_window;
  c.series.record(c.cur_win * w, c.cur_count);
  detect(c, (c.cur_win + 1) * w, c.cur_count);
  // Feed a few zero windows so the detectors see the silence after a
  // burst — capped, so a long idle gap does not replay thousands of
  // empty windows (still deterministic: the cap depends only on the
  // gap, which is virtual time).
  const std::int64_t gap = up_to - c.cur_win - 1;
  const std::int64_t fed = std::min<std::int64_t>(gap, 4);
  for (std::int64_t g = 0; g < fed; ++g) {
    const std::int64_t win = c.cur_win + 1 + g;
    c.series.record(win * w, 0.0);
    detect(c, (win + 1) * w, 0.0);
  }
  c.cur_win = up_to;
  c.cur_count = 0.0;
}

void HealthMonitor::flush(sim::Time t) {
  if (!enabled_) return;
  for (auto& [key, cell] : cells_) {
    if (cell->cfg.rate) close_rate_window(*cell, t / cell->cfg.rate_window);
  }
}

void HealthMonitor::detect(HealthSignal::Cell& c, sim::Time t, double x) {
  const DetectorConfig& cfg = c.cfg;
  bool fired = false;
  if (cfg.rate && cfg.surge > 0.0 && x > cfg.surge) {
    emit(c, t, HealthEventKind::kSurge, x, c.mean, cfg.surge);
    fired = true;
  }
  if (c.n >= cfg.warmup) {
    const double sd = std::max(std::sqrt(c.var), cfg.min_sd);
    const double band = cfg.ewma_k * sd;
    if (std::abs(x - c.mean) > band) {
      emit(c, t, HealthEventKind::kEwma, x, c.mean, band);
      fired = true;
    }
    const double z = (x - c.mean) / sd;
    c.s_hi = std::max(0.0, c.s_hi + z - cfg.cusum_k);
    if (c.s_hi > cfg.cusum_h) {
      emit(c, t, HealthEventKind::kCusumHigh, x, c.mean, cfg.cusum_h);
      c.s_hi = 0.0;
      fired = true;
    }
    if (!cfg.rate) {  // a quiet rate signal is healthy, not anomalous
      c.s_lo = std::max(0.0, c.s_lo - z - cfg.cusum_k);
      if (c.s_lo > cfg.cusum_h) {
        emit(c, t, HealthEventKind::kCusumLow, x, c.mean, cfg.cusum_h);
        c.s_lo = 0.0;
        fired = true;
      }
    }
  }
  if (!fired) {
    // Baseline freezes while a signal is alarming, so a sustained
    // attack cannot teach the detector that the anomaly is normal.
    const double d = x - c.mean;
    c.mean += cfg.ewma_alpha * d;
    c.var = (1.0 - cfg.ewma_alpha) * (c.var + cfg.ewma_alpha * d * d);
    ++c.n;
  }
}

void HealthMonitor::emit(const HealthSignal::Cell& c, sim::Time t,
                         HealthEventKind kind, double value, double baseline,
                         double threshold) {
  HealthEvent e;
  e.time = t;
  e.machine = c.machine;
  e.signal = c.name;
  e.kind = kind;
  e.value = value;
  e.baseline = baseline;
  e.threshold = threshold;
  machines_.insert(c.machine);
  if (events_.size() < kMaxEvents) {
    events_.push_back(e);
  } else {
    ++suppressed_;
  }
  if (audit_ != nullptr && spans_ != nullptr) {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%s %s value=%.6g baseline=%.6g threshold=%.6g",
                  sim::TagRegistry::instance().name(c.name).c_str(),
                  to_string(kind), value, baseline, threshold);
    audit_->record(t, c.machine, -1, "health.anomaly", buf, *spans_,
                   spans_->current(-1));
  }
  if (on_event_) on_event_(e);
}

namespace {

double penalty_of(HealthEventKind k) {
  switch (k) {
    case HealthEventKind::kSurge:
      return 25.0;
    case HealthEventKind::kCusumHigh:
    case HealthEventKind::kCusumLow:
      return 15.0;
    case HealthEventKind::kEwma:
      return 5.0;
  }
  return 5.0;
}

}  // namespace

double HealthMonitor::score(int machine) const {
  double penalty = 0.0;
  for (const HealthEvent& e : events_) {
    if (e.machine == machine) penalty += penalty_of(e.kind);
  }
  return std::max(0.0, 100.0 - penalty);
}

void HealthMonitor::merge_from(const HealthMonitor& other) {
  if (&other == this) return;
  // Detector cells stay per-machine (they are live state, not an
  // artifact); the merged monitor aggregates events and scores only.
  for (const HealthEvent& e : other.events_) {
    if (events_.size() < kMaxEvents) {
      events_.push_back(e);
    } else {
      ++suppressed_;
    }
    machines_.insert(e.machine);
  }
  suppressed_ += other.suppressed_;
  machines_.insert(other.machines_.begin(), other.machines_.end());
}

namespace {

void append_events(JsonWriter& w, const std::vector<HealthEvent>& events,
                   std::size_t begin) {
  w.put('[');
  for (std::size_t i = begin; i < events.size(); ++i) {
    const HealthEvent& e = events[i];
    if (i > begin) w.put(',');
    w.raw("{\"baseline\":").num(e.baseline).raw(",\"kind\":\"")
        .raw(to_string(e.kind)).raw("\",\"machine\":").num(e.machine)
        .raw(",\"signal\":").tag(e.signal).raw(",\"threshold\":")
        .num(e.threshold).raw(",\"time\":").num(e.time)
        .raw(",\"value\":").num(e.value).put('}');
  }
  w.put(']');
}

void append_scores(JsonWriter& w, const HealthMonitor& mon,
                   const std::set<int>& machines) {
  std::map<std::string, double> scores;
  for (int m : machines) {
    scores.emplace("m" + std::to_string(m), mon.score(m));
  }
  w.put('{');
  bool first = true;
  for (const auto& [name, s] : scores) {
    if (!first) w.put(',');
    first = false;
    w.put('"').raw(name).raw("\":").num(s);
  }
  w.put('}');
}

}  // namespace

std::string HealthMonitor::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.take();
}

void HealthMonitor::write_json(JsonWriter& w) const {
  w.raw("{\"events\":");
  append_events(w, events_, 0);
  w.raw(",\"schema_version\":").num(kSchemaVersion).raw(",\"scores\":");
  append_scores(w, *this, machines_);
  w.raw(",\"suppressed\":").num(suppressed_).put('}');
}

std::string HealthMonitor::recent_json(std::size_t max_events) const {
  JsonWriter w;
  const std::size_t begin =
      events_.size() > max_events ? events_.size() - max_events : 0;
  w.raw("{\"events\":");
  append_events(w, events_, begin);
  w.raw(",\"scores\":");
  append_scores(w, *this, machines_);
  w.put('}');
  return w.take();
}

// ---- FlightRecorder ----

void FlightRecorder::wire(const SeriesStore* series, const SpanStore* spans,
                          const HealthMonitor* health) {
  series_ = series;
  spans_ = spans;
  health_ = health;
}

void FlightRecorder::trigger(sim::Time t, const std::string& reason,
                             const std::string& detail) {
  ++triggers_;
  if (!enabled_) return;
  auto it = last_by_reason_.find(reason);
  if (it != last_by_reason_.end() && t - it->second < kCooldown) {
    ++suppressed_;
    return;
  }
  last_by_reason_[reason] = t;
  if (snapshots_.size() >= kMaxSnapshots) {
    ++suppressed_;
    return;
  }

  JsonWriter w;
  w.raw("{\"detail\":").str(detail).raw(",\"health\":")
      .raw(health_ != nullptr ? health_->recent_json(kRecentEvents) : "{}")
      .raw(",\"machine\":").num(spans_ != nullptr ? spans_->machine() : 0)
      .raw(",\"reason\":").str(reason).raw(",\"series\":")
      .raw(series_ != nullptr ? series_->recent_json(kRecentWindows) : "{}")
      .raw(",\"spans\":[");
  if (spans_ != nullptr) {
    const SpanLog& log = spans_->spans();
    const std::size_t begin =
        log.size() > kRecentSpans ? log.size() - kRecentSpans : 0;
    for (std::size_t i = begin; i < log.size(); ++i) {
      const Span& s = log[i];
      if (i > begin) w.put(',');
      w.raw("{\"end\":").num(s.end).raw(",\"machine\":").num(s.machine)
          .raw(",\"name\":").tag(s.name).raw(",\"pid\":").num(s.pid)
          .raw(",\"span\":\"").hex(s.span_id).raw("\",\"start\":")
          .num(s.start).put('}');
    }
  }
  w.raw("],\"time\":").num(t).put('}');
  snapshots_.push_back(Snapshot{t, w.take()});
}

void FlightRecorder::merge_from(const FlightRecorder& other) {
  if (&other == this) return;
  for (const Snapshot& s : other.snapshots_) {
    if (snapshots_.size() < kMaxSnapshots) {
      snapshots_.push_back(s);
    } else {
      ++suppressed_;
    }
  }
  triggers_ += other.triggers_;
  suppressed_ += other.suppressed_;
}

std::string FlightRecorder::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.take();
}

void FlightRecorder::write_json(JsonWriter& w) const {
  w.raw("{\"schema_version\":").num(kSchemaVersion).raw(",\"snapshots\":[");
  for (std::size_t i = 0; i < snapshots_.size(); ++i) {
    if (i > 0) w.put(',');
    w.raw(snapshots_[i].json);
  }
  w.raw("],\"suppressed\":").num(suppressed_).raw(",\"triggers\":")
      .num(triggers_).put('}');
}

}  // namespace mkbas::obs
