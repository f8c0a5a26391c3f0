#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/series.hpp"
#include "obs/span.hpp"
#include "sim/time.hpp"

namespace mkbas::obs {

/// Online anomaly detection over the windowed series engine: every
/// HealthSignal runs an EWMA band detector (|x - mean| > k sigma after a
/// warmup) and a standardized CUSUM (slack k, decision threshold h) on
/// its observations, entirely in virtual time. Signals come in two
/// modes:
///
///  * value signals observe a measurement per call (control-loop jitter,
///    e2e latency, COV delivery latency);
///  * rate signals count events (ACM/cap denials, inbox overflows,
///    fault injections); counts are folded into fixed windows and the
///    detectors run on the per-window totals when a window closes. Rate
///    signals additionally support a `surge` threshold that fires
///    without warmup — a security denial storm must alarm on the first
///    closed window, not after the detector has learned a baseline.
///
/// Every firing emits a structured HealthEvent into the monitor (bounded
/// list), the machine's AuditJournal (kind "health.anomaly", with the
/// causal chain active at detection time) and the on_event observer the
/// machine wires to the flight recorder. Detector state is a pure
/// function of the observation history, so events are byte-identically
/// replayable and campaign merges reduce in cell order.

struct DetectorConfig {
  double ewma_alpha = 0.25;  // EW mean/variance update weight
  double ewma_k = 6.0;       // band half-width, in sigmas
  double cusum_k = 0.5;      // CUSUM slack, in sigmas
  double cusum_h = 10.0;     // CUSUM decision threshold, in sigmas
  std::uint64_t warmup = 8;  // samples before EWMA/CUSUM arm
  double min_sd = 1e-6;      // variance floor (exactly periodic inputs)

  bool rate = false;                         // rate mode (count())
  sim::Duration rate_window = sim::sec(5);   // rate fold width
  double surge = 0.0;  // rate mode: window count > surge fires
                       // immediately, no warmup (0 = off)
};

enum class HealthEventKind : std::uint8_t {
  kEwma,       // outside the EWMA band
  kCusumHigh,  // sustained upward drift
  kCusumLow,   // sustained downward drift (value signals only)
  kSurge,      // rate signal exceeded its absolute surge threshold
};

const char* to_string(HealthEventKind k);

/// One detector firing. `signal` is interned via sim::TagRegistry.
struct HealthEvent {
  sim::Time time = 0;
  int machine = 0;
  std::uint32_t signal = 0;
  HealthEventKind kind = HealthEventKind::kEwma;
  double value = 0.0;      // the observation that fired
  double baseline = 0.0;   // EWMA mean (or surge threshold) at firing
  double threshold = 0.0;  // band / decision threshold that was crossed
};

class HealthMonitor;

/// Cheap handle (resolved once, like Counter/Series). Default-constructed
/// handles are inert.
class HealthSignal {
 public:
  HealthSignal() = default;
  /// Value mode: one measurement.
  void observe(sim::Time t, double v);
  /// Rate mode: count `n` events at time t.
  void count(sim::Time t, std::uint64_t n = 1);

 private:
  friend class HealthMonitor;
  struct Cell;
  HealthSignal(Cell* cell, HealthMonitor* mon) : cell_(cell), mon_(mon) {}
  Cell* cell_ = nullptr;
  HealthMonitor* mon_ = nullptr;
};

struct HealthSignal::Cell {
  std::uint32_t name = 0;  // interned
  int machine = 0;
  DetectorConfig cfg;
  Series series;  // observations (value) / per-window counts (rate)
  // EWMA state
  double mean = 0.0;
  double var = 0.0;
  std::uint64_t n = 0;
  // CUSUM accumulators (standardized)
  double s_hi = 0.0;
  double s_lo = 0.0;
  // rate-mode fold
  std::int64_t cur_win = -1;
  double cur_count = 0.0;
};

/// Per-machine health: owns the signals, scores machines from the events
/// they raised. One per sim::Machine; campaign/fabric reductions merge
/// monitors in cell/node order.
class HealthMonitor {
 public:
  /// Events kept verbatim; later firings only bump suppressed(). Big
  /// enough for any interesting run, small enough that a misbehaving
  /// detector cannot turn the monitor into the unbounded log this layer
  /// exists to avoid.
  static constexpr std::size_t kMaxEvents = 256;

  HealthMonitor() = default;
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Wire the sinks (done by sim::Machine): per-signal windowed series
  /// land in `series`, events are journaled into `audit` with the chain
  /// resolved against `spans`. Any pointer may be null (that sink is
  /// skipped).
  void wire(SeriesStore* series, AuditJournal* audit,
            const SpanStore* spans);

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_machine(int id) { machine_ = id; }
  int machine() const { return machine_; }

  /// Observer invoked synchronously on every event (the machine wires
  /// the flight recorder here).
  void set_on_event(std::function<void(const HealthEvent&)> fn) {
    on_event_ = std::move(fn);
  }

  /// Get-or-create by name. The signal's series uses the rate window as
  /// its series window in rate mode, so one closed rate window is one
  /// series window.
  HealthSignal signal(const std::string& name,
                      const DetectorConfig& cfg = {});

  /// Close every open rate window up to (excluding) the one containing
  /// `t`. Run before exporting so trailing activity is detected
  /// deterministically; idempotent for a fixed t.
  void flush(sim::Time t);

  const std::vector<HealthEvent>& events() const { return events_; }
  std::uint64_t suppressed() const { return suppressed_; }

  /// 0..100: 100 minus a per-event penalty (surge 25, CUSUM 15, EWMA 5),
  /// floored at 0. A machine with no events scores 100.
  double score(int machine) const;

  void merge_from(const HealthMonitor& other);

  /// {"events":[{"baseline":..,"kind":..,"machine":..,"signal":..,
  ///  "threshold":..,"time":..,"value":..},...],"schema_version":N,
  ///  "scores":{"m<id>":..},"suppressed":N} — keys sorted at every
  /// level, events in emission (merge) order.
  std::string to_json() const;
  /// The same bytes into `w`'s sink.
  void write_json(JsonWriter& w) const;
  /// Bare {"events":[last `max_events`],"scores":{...}} block for the
  /// flight recorder.
  std::string recent_json(std::size_t max_events) const;

 private:
  friend class HealthSignal;

  void observe_value(HealthSignal::Cell& c, sim::Time t, double v);
  void count_events(HealthSignal::Cell& c, sim::Time t, std::uint64_t n);
  /// Run the detectors on one observation (a value, or a closed rate
  /// window's count).
  void detect(HealthSignal::Cell& c, sim::Time t, double x);
  void close_rate_window(HealthSignal::Cell& c, std::int64_t up_to);
  void emit(const HealthSignal::Cell& c, sim::Time t, HealthEventKind kind,
            double value, double baseline, double threshold);

  bool enabled_ = true;
  int machine_ = 0;
  SeriesStore* series_ = nullptr;
  AuditJournal* audit_ = nullptr;
  const SpanStore* spans_ = nullptr;
  std::function<void(const HealthEvent&)> on_event_;
  std::deque<HealthSignal::Cell> cell_storage_;
  std::map<std::pair<int, std::string>, HealthSignal::Cell*> cells_;
  std::vector<HealthEvent> events_;
  std::uint64_t suppressed_ = 0;
  std::set<int> machines_;  // every machine that ever owned a signal
};

/// Always-on bounded flight recorder: when something interesting happens
/// (a detector fires, a security denial is journaled, a fault injection
/// lands) it renders a small self-contained JSON snapshot of the moment
/// — the newest series windows, the last closed spans, recent health
/// events and scores — instead of relying on a full-run dump. Snapshots
/// are rate-limited per reason (virtual-time cooldown) and capped in
/// number; every trigger is counted either way.
class FlightRecorder {
 public:
  static constexpr std::size_t kMaxSnapshots = 8;
  static constexpr std::size_t kRecentWindows = 4;
  static constexpr std::size_t kRecentSpans = 24;
  static constexpr std::size_t kRecentEvents = 4;
  static constexpr sim::Duration kCooldown = sim::sec(10);

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void wire(const SeriesStore* series, const SpanStore* spans,
            const HealthMonitor* health);

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Snapshot now (subject to cooldown and the snapshot cap).
  void trigger(sim::Time t, const std::string& reason,
               const std::string& detail);

  std::uint64_t triggers() const { return triggers_; }
  std::uint64_t suppressed() const { return suppressed_; }
  std::size_t size() const { return snapshots_.size(); }

  void merge_from(const FlightRecorder& other);

  /// {"schema_version":N,"snapshots":[{"detail":..,"health":{...},
  ///  "machine":..,"reason":..,"series":{...},"spans":[...],"time":..},
  ///  ...],"suppressed":N,"triggers":N} — snapshot bodies are rendered
  /// at trigger time from virtual-time state only, so the export is
  /// replayable byte-for-byte.
  std::string to_json() const;
  /// The same bytes into `w`'s sink.
  void write_json(JsonWriter& w) const;

 private:
  struct Snapshot {
    sim::Time time = 0;
    std::string json;  // rendered at trigger time
  };

  bool enabled_ = true;
  const SeriesStore* series_ = nullptr;
  const SpanStore* spans_ = nullptr;
  const HealthMonitor* health_ = nullptr;
  std::vector<Snapshot> snapshots_;
  std::map<std::string, sim::Time> last_by_reason_;
  std::uint64_t triggers_ = 0;
  std::uint64_t suppressed_ = 0;
};

}  // namespace mkbas::obs
