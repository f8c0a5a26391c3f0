#include "obs/series.hpp"

#include <cmath>

#include "obs/json.hpp"

namespace mkbas::obs {

namespace {

bool g_dummy_enabled = false;

Series::Cell& dummy_cell() {
  static Series::Cell cell = [] {
    Series::Cell c;
    c.ring.resize(1);
    return c;
  }();
  return cell;
}

// log2 bucket of a sample: 0 for v <= 1, else ceil(log2(v)), clamped to
// the top bucket (which therefore holds all overflow).
std::size_t bucket_of(double v) {
  if (!(v > 1.0)) return 0;  // also catches NaN
  int e = std::ilogb(v);
  if (std::ldexp(1.0, e) < v) ++e;
  if (e < 0) return 0;
  return std::min<std::size_t>(static_cast<std::size_t>(e),
                               SeriesWindow::kBuckets - 1);
}

}  // namespace

// ---- SeriesWindow ----

void SeriesWindow::reset(std::int64_t idx) {
  index = idx;
  count = 0;
  sum = 0.0;
  min = std::numeric_limits<double>::infinity();
  max = -std::numeric_limits<double>::infinity();
  buckets.fill(0);
}

void SeriesWindow::add(double v) {
  ++count;
  sum += v;
  if (v < min) min = v;
  if (v > max) max = v;
  ++buckets[bucket_of(v)];
}

double SeriesWindow::quantile(double q) const {
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cum += buckets[b];
    if (static_cast<double>(cum) >= target) {
      // Bucket upper bound, clamped to the exact max so a one-sample
      // window reports its sample, not the next power of two.
      return std::min(std::ldexp(1.0, static_cast<int>(b)), max);
    }
  }
  return max;
}

// ---- Series ----

Series::Series() : cell_(&dummy_cell()), enabled_(&g_dummy_enabled) {}

void Series::record(sim::Time t, double v) {
  if (*enabled_) cell_->record(t, v);
}

std::uint64_t Series::samples() const { return cell_->samples; }

// ---- Series::Cell ----

void Series::Cell::record(sim::Time t, double v) {
  ++samples;
  const std::int64_t idx = t / width;
  if (idx == newest) {  // hot path: samples land in the live window
    slot(live - 1).add(v);
    return;
  }
  if (idx > newest) {
    advance_to(idx);
    slot(live - 1).add(v);
    return;
  }
  // Older window: still in the ring (merge or out-of-order feed), or
  // gone for good.
  if (idx >= oldest()) {
    slot(static_cast<std::size_t>(idx - oldest())).add(v);
  } else {
    ++late_dropped;
  }
}

void Series::Cell::advance_to(std::int64_t idx) {
  if (idx <= newest) return;
  const std::size_t cap = ring.size();
  if (newest < 0 ||
      idx - newest >= static_cast<std::int64_t>(cap)) {
    // Fresh start, or a gap wider than the whole ring: everything live
    // is evicted in one step.
    for (std::size_t i = 0; i < live; ++i) {
      ++evicted_windows;
      evicted_samples += slot(i).count;
    }
    head = 0;
    live = 1;
    ring[0].reset(idx);
    newest = idx;
    return;
  }
  // Step forward one window at a time, materialising intermediate empty
  // windows so downstream rate math sees gaps as zeros, not absence.
  while (newest < idx) {
    if (live == cap) {
      ++evicted_windows;
      evicted_samples += ring[head].count;
      ring[head].reset(newest + 1);
      head = (head + 1) % cap;
    } else {
      ++live;
      slot(live - 1).reset(newest + 1);
    }
    ++newest;
  }
}

// ---- SeriesStore ----

Series SeriesStore::series(const std::string& name, sim::Duration width,
                           std::size_t windows) {
  const auto key = std::make_pair(machine_, name);
  auto it = cells_.find(key);
  if (it == cells_.end()) {
    cell_storage_.emplace_back();
    Series::Cell& cell = cell_storage_.back();
    cell.width = width > 0 ? width : kDefaultSeriesWidth;
    cell.ring.resize(windows > 0 ? windows : 1);
    it = cells_.emplace(key, &cell).first;
  }
  return Series(it->second, &enabled_);
}

std::uint64_t SeriesStore::evicted_windows() const {
  std::uint64_t n = 0;
  for (const auto& [key, cell] : cells_) n += cell->evicted_windows;
  return n;
}

std::uint64_t SeriesStore::evicted_samples() const {
  std::uint64_t n = 0;
  for (const auto& [key, cell] : cells_) n += cell->evicted_samples;
  return n;
}

std::uint64_t SeriesStore::late_dropped() const {
  std::uint64_t n = 0;
  for (const auto& [key, cell] : cells_) n += cell->late_dropped;
  return n;
}

std::uint64_t SeriesStore::total_samples() const {
  std::uint64_t n = 0;
  for (const auto& [key, cell] : cells_) n += cell->samples;
  return n;
}

std::uint64_t SeriesStore::live_samples() const {
  std::uint64_t n = 0;
  for (const auto& [key, cell] : cells_) {
    for (std::size_t i = 0; i < cell->live; ++i) n += cell->slot(i).count;
  }
  return n;
}

void SeriesStore::merge_from(const SeriesStore& other) {
  if (&other == this) return;
  for (const auto& [key, ocell] : other.cells_) {
    auto it = cells_.find(key);
    if (it == cells_.end()) {
      cell_storage_.emplace_back();
      Series::Cell& fresh = cell_storage_.back();
      fresh.width = ocell->width;
      fresh.ring.resize(ocell->ring.size());
      it = cells_.emplace(key, &fresh).first;
    }
    Series::Cell& dst = *it->second;
    for (std::size_t i = 0; i < ocell->live; ++i) {
      const SeriesWindow& w = ocell->slot(i);
      if (w.index > dst.newest) dst.advance_to(w.index);
      if (w.index < dst.oldest()) {
        // Window predates everything this ring still holds.
        ++dst.evicted_windows;
        dst.evicted_samples += w.count;
        continue;
      }
      SeriesWindow& d =
          dst.slot(static_cast<std::size_t>(w.index - dst.oldest()));
      d.count += w.count;
      d.sum += w.sum;
      if (w.min < d.min) d.min = w.min;
      if (w.max > d.max) d.max = w.max;
      for (std::size_t b = 0; b < SeriesWindow::kBuckets; ++b) {
        d.buckets[b] += w.buckets[b];
      }
    }
    dst.samples += ocell->samples;
    dst.evicted_windows += ocell->evicted_windows;
    dst.evicted_samples += ocell->evicted_samples;
    dst.late_dropped += ocell->late_dropped;
  }
}

void SeriesStore::append_series_map(JsonWriter& w,
                                    std::size_t max_windows) const {
  // Re-key lexically so the JSON keeps "keys sorted at every level".
  std::map<std::string, const Series::Cell*> by_name;
  for (const auto& [key, cell] : cells_) {
    by_name.emplace(key.second + "@m" + std::to_string(key.first), cell);
  }
  w.put('{');
  bool first = true;
  for (const auto& [name, cell] : by_name) {
    if (!first) w.put(',');
    first = false;
    w.str(name).raw(":{\"evicted_samples\":").num(cell->evicted_samples)
        .raw(",\"evicted_windows\":").num(cell->evicted_windows)
        .raw(",\"late_dropped\":").num(cell->late_dropped)
        .raw(",\"samples\":").num(cell->samples)
        .raw(",\"width_us\":").num(cell->width).raw(",\"windows\":[");
    std::size_t begin = 0;
    if (max_windows > 0 && cell->live > max_windows) {
      begin = cell->live - max_windows;
    }
    bool wfirst = true;
    for (std::size_t i = begin; i < cell->live; ++i) {
      const SeriesWindow& win = cell->slot(i);
      if (win.count == 0) continue;  // elide empty windows
      if (!wfirst) w.put(',');
      wfirst = false;
      w.raw("{\"count\":").num(win.count).raw(",\"max\":").num(win.max)
          .raw(",\"min\":").num(win.min)
          .raw(",\"p95\":").num(win.quantile(0.95))
          .raw(",\"start\":").num(win.index * cell->width)
          .raw(",\"sum\":").num(win.sum).put('}');
    }
    w.raw("]}");
  }
  w.put('}');
}

std::string SeriesStore::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.take();
}

void SeriesStore::write_json(JsonWriter& w) const {
  w.raw("{\"schema_version\":").num(kSchemaVersion).raw(",\"series\":");
  append_series_map(w, 0);
  w.put('}');
}

std::string SeriesStore::recent_json(std::size_t max_windows) const {
  JsonWriter w;
  append_series_map(w, max_windows == 0 ? 1 : max_windows);
  return w.take();
}

}  // namespace mkbas::obs
