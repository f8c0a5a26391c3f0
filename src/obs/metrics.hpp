#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"  // JsonWriter, kSchemaVersion

namespace mkbas::obs {

/// First-class instrumentation for the simulated machine and the kernel
/// personalities running on it.
///
/// Design goals, in order:
///  1. Cheap on the hot path. Handles are resolved from names ONCE (at
///     kernel construction time); every increment afterwards is a pointer
///     dereference plus an add. No strings, no hashing, no locks.
///  2. Uniform naming across personalities: `<personality>.<subsystem>.<name>`
///     (e.g. `minix.ipc.latency`, `sel4.acm.denied`, `sim.context_switches`).
///  3. Machine-readable export: `MetricsRegistry::to_json()` emits one
///     deterministic (name-sorted) JSON object suitable for BENCH_*.json
///     trajectories and for diffing across runs.
///
/// Concurrency: the simulator hands out a single execution baton, so at most
/// one simulated process (or the driver) runs at any instant. Registration
/// takes a mutex anyway (it is cold); recording does not.

/// Monotonically increasing event count.
class Counter {
 public:
  Counter();  // unregistered: records into a shared dummy cell, always off
  void inc(std::uint64_t n = 1) {
    if (*enabled_) *cell_ += n;
  }
  std::uint64_t value() const { return *cell_; }

 private:
  friend class MetricsRegistry;
  Counter(std::uint64_t* cell, const bool* enabled)
      : cell_(cell), enabled_(enabled) {}
  std::uint64_t* cell_;
  const bool* enabled_;
};

/// Last-written value (queue depths, temperatures, water levels).
class Gauge {
 public:
  Gauge();
  void set(double v) {
    if (*enabled_) *cell_ = v;
  }
  void add(double d) {
    if (*enabled_) *cell_ += d;
  }
  double value() const { return *cell_; }

 private:
  friend class MetricsRegistry;
  Gauge(double* cell, const bool* enabled) : cell_(cell), enabled_(enabled) {}
  double* cell_;
  const bool* enabled_;
};

/// Bucketed distribution. Bucket `i` counts samples `v` with
/// `bounds[i-1] < v <= bounds[i]` (first bucket: `v <= bounds[0]`);
/// samples above the last bound land in a separate overflow cell, so the
/// configured range is never silently stretched. Count/sum/min/max are
/// tracked exactly regardless of bucketing.
class Histogram {
 public:
  struct Cell {
    std::shared_ptr<const std::vector<double>> bounds;
    std::vector<std::uint64_t> counts;  // one per bound
    std::uint64_t count = 0;
    std::uint64_t overflow = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  Histogram();
  void record(double v);
  std::uint64_t count() const { return cell_->count; }
  std::uint64_t overflow() const { return cell_->overflow; }
  double sum() const { return cell_->sum; }
  /// Count in bucket `i` (v <= bounds()[i], above the previous bound).
  std::uint64_t bucket_count(std::size_t i) const { return cell_->counts[i]; }
  const std::vector<double>& bounds() const { return *cell_->bounds; }

 private:
  friend class MetricsRegistry;
  Histogram(Cell* cell, const bool* enabled)
      : cell_(cell), enabled_(enabled) {}
  Cell* cell_;
  const bool* enabled_;
};

/// Owns every metric cell; hands out cheap handles. Get-or-create by name,
/// so two subsystems asking for the same counter share one cell. Cells live
/// in deques: registering new metrics never invalidates existing handles.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);

  /// Explicit bucket upper bounds (must be strictly increasing).
  Histogram histogram(const std::string& name, std::vector<double> bounds);

  /// HDR-style log-linear buckets: each power-of-two octave between 1 and
  /// `max` is split into `sub_buckets` linear buckets, giving a bounded
  /// relative error over many orders of magnitude with a handful of
  /// buckets per octave. Suits virtual-time latencies (microseconds).
  Histogram log_histogram(const std::string& name, int sub_buckets,
                          double max);

  /// Master switch: disabled handles are no-ops (used by the overhead
  /// benchmarks to price the instrumentation itself).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Fold `other`'s metrics into this registry: counters add, gauges take
  /// `other`'s value (last-merged-wins), histograms add counts/sum/overflow
  /// and widen min/max. Metrics absent here are created. Merging the same
  /// registries in the same order always yields the same state (and thus
  /// byte-identical to_json()), which is what lets a parallel campaign
  /// reduce per-cell registries in deterministic cell order. Histograms
  /// with the same name must have identical bounds (throws otherwise).
  void merge_from(const MetricsRegistry& other);

  /// One JSON object, keys sorted at every level (metric names and the
  /// fields inside each histogram object alike):
  /// {"counters":{...},"gauges":{...},"histograms":{"n":{
  ///  "buckets":[{"count":..,"le":..},...],"count":..,"max":..,
  ///  "min":..,"overflow":..,"sum":..}},"schema_version":N}
  /// Zero-count histogram buckets are elided.
  std::string to_json() const;
  /// The same bytes into `w`'s sink.
  void write_json(JsonWriter& w) const;

  /// Log-linear bound generation, exposed for tests.
  static std::vector<double> log_bounds(int sub_buckets, double max);

 private:
  /// obs/prometheus.cpp: text-exposition rendering walks the cell maps
  /// under mu_ without widening the public surface.
  friend std::string prometheus_render(const MetricsRegistry&);

  mutable std::mutex mu_;
  bool enabled_ = true;
  std::deque<std::uint64_t> counter_cells_;
  std::deque<double> gauge_cells_;
  std::deque<Histogram::Cell> histogram_cells_;
  std::map<std::string, std::uint64_t*> counters_;
  std::map<std::string, double*> gauges_;
  std::map<std::string, Histogram::Cell*> histograms_;
};

}  // namespace mkbas::obs
