#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "sim/time.hpp"

namespace mkbas::obs {

/// Windowed time-series engine: the continuous-telemetry counterpart of
/// MetricsRegistry's whole-run aggregates.
///
/// Every series chops virtual time into fixed-width windows and keeps a
/// bounded ring of the most recent ones. Each window holds count / sum /
/// min / max plus a small log2 bucket sketch from which quantiles (p95)
/// are read at export time. Like every artifact in this repo the state
/// is a pure function of the simulation history: windows are indexed by
/// virtual time (window i covers [i*width, (i+1)*width)), never by wall
/// clock, so a replay reproduces the store byte-for-byte and a parallel
/// campaign can merge per-cell stores in cell order.
///
/// Hot-path contract (mirrors Counter/Histogram/SpanStore): handles are
/// resolved once; record() into the live window is index math plus a few
/// adds, and the ring is preallocated at registration, so the steady
/// state allocates nothing. bench_obs prices the whole stack (series +
/// detectors) against a disabled run and CI gates the overhead at 5%.

inline constexpr sim::Duration kDefaultSeriesWidth = sim::sec(30);
inline constexpr std::size_t kDefaultSeriesWindows = 64;

/// One closed or live window of a series.
struct SeriesWindow {
  /// log2 sketch: bucket b counts samples v with 2^(b-1) < v <= 2^b
  /// (bucket 0: v <= 1). 40 octaves cover 1us..~550 virtual years.
  static constexpr std::size_t kBuckets = 40;

  std::int64_t index = -1;  // window start = index * width; -1 = empty
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::array<std::uint32_t, kBuckets> buckets{};

  void reset(std::int64_t idx);
  void add(double v);
  /// Upper bound of the smallest bucket prefix holding >= q of the
  /// samples (0 for an empty window), clamped to the exact max — the
  /// exported p~quantile.
  double quantile(double q) const;
};

class SeriesStore;

/// Cheap recording handle, resolved once (like Counter). A default-
/// constructed handle records into a shared dummy cell that is always
/// disabled.
class Series {
 public:
  struct Cell;

  Series();
  void record(sim::Time t, double v);
  /// Total samples ever recorded (including ones whose windows the ring
  /// has since evicted).
  std::uint64_t samples() const;

 private:
  friend class SeriesStore;
  Series(Cell* cell, const bool* enabled) : cell_(cell), enabled_(enabled) {}
  Cell* cell_;
  const bool* enabled_;
};

/// Ring of windows for one series.
struct Series::Cell {
  sim::Duration width = kDefaultSeriesWidth;
  std::vector<SeriesWindow> ring;  // preallocated, size == capacity
  std::size_t head = 0;            // slot of the oldest live window
  std::size_t live = 0;            // live windows in the ring
  std::int64_t newest = -1;        // newest live window index, -1 none
  std::uint64_t samples = 0;
  std::uint64_t evicted_windows = 0;
  std::uint64_t evicted_samples = 0;
  std::uint64_t late_dropped = 0;

  SeriesWindow& slot(std::size_t i) { return ring[(head + i) % ring.size()]; }
  const SeriesWindow& slot(std::size_t i) const {
    return ring[(head + i) % ring.size()];
  }
  std::int64_t oldest() const {
    return newest - static_cast<std::int64_t>(live) + 1;
  }
  void record(sim::Time t, double v);
  /// Make window `idx` the newest live window, evicting from the front
  /// as needed (no-op when idx <= newest).
  void advance_to(std::int64_t idx);
};

/// Owns every series ring; one per sim::Machine (merged stores hold the
/// series of many machines, keyed by (machine, name)).
///
/// Eviction accounting, checked by tests and bench_obs:
///   total_samples() == live window counts + evicted_samples() +
///   late_dropped()
/// — a window the ring evicts gives up its samples to evicted_samples, a
/// sample older than the whole ring is late_dropped, nothing vanishes
/// silently.
class SeriesStore {
 public:
  SeriesStore() = default;
  SeriesStore(const SeriesStore&) = delete;
  SeriesStore& operator=(const SeriesStore&) = delete;

  /// Get-or-create by name; width/windows are fixed by the first caller
  /// (later callers share the existing ring regardless of arguments).
  Series series(const std::string& name,
                sim::Duration width = kDefaultSeriesWidth,
                std::size_t windows = kDefaultSeriesWindows);

  /// Master switch (overhead A/B benchmark). Disabled stores record
  /// nothing.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Fabric node index; stamped on series registered from now on, so a
  /// merged store keeps per-zone series apart. Set before the scenario
  /// registers anything (same contract as SpanStore::set_machine).
  void set_machine(int id) { machine_ = id; }
  int machine() const { return machine_; }

  std::size_t size() const { return cells_.size(); }
  std::uint64_t evicted_windows() const;
  std::uint64_t evicted_samples() const;
  std::uint64_t late_dropped() const;
  std::uint64_t total_samples() const;
  /// Sum of sample counts across all live windows.
  std::uint64_t live_samples() const;

  /// Fold `other`'s series into this store, aligning windows by index:
  /// same-index windows combine, newer windows advance the ring (with
  /// normal eviction accounting), windows older than the ring are
  /// counted evicted. Same stores merged in the same order yield the
  /// same state — the campaign's cell-order reduction.
  void merge_from(const SeriesStore& other);

  /// {"schema_version":N,"series":{"<name>@m<machine>":{
  ///  "evicted_samples":..,"evicted_windows":..,"late_dropped":..,
  ///  "samples":..,"width_us":..,"windows":[{"count":..,"max":..,
  ///  "min":..,"p95":..,"start":..,"sum":..},...]}}} — keys sorted at
  /// every level; empty windows in the ring are elided from the export
  /// but still occupy ring slots.
  std::string to_json() const;
  /// The same bytes into `w`'s sink.
  void write_json(JsonWriter& w) const;

  /// Bare {"<name>@m<machine>":{...}} object holding only the newest
  /// `max_windows` windows of every series — the flight recorder's
  /// bounded "recent telemetry" block.
  std::string recent_json(std::size_t max_windows) const;

 private:
  friend class Series;

  void append_series_map(JsonWriter& w, std::size_t max_windows) const;

  bool enabled_ = true;
  int machine_ = 0;
  std::deque<Series::Cell> cell_storage_;  // stable addresses for handles
  /// Keyed (machine, name); map order is the deterministic merge order,
  /// export keys "<name>@m<machine>" are re-sorted lexically at export.
  std::map<std::pair<int, std::string>, Series::Cell*> cells_;
};

}  // namespace mkbas::obs
