#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mkbas::obs {

namespace {

// Default-constructed handles write here: always-off, never exported.
bool g_dummy_enabled = false;
std::uint64_t g_dummy_counter = 0;
double g_dummy_gauge = 0.0;

Histogram::Cell& dummy_histogram_cell() {
  static Histogram::Cell cell = [] {
    Histogram::Cell c;
    c.bounds = std::make_shared<const std::vector<double>>(
        std::vector<double>{1.0});
    c.counts.assign(1, 0);
    return c;
  }();
  return cell;
}

}  // namespace

Counter::Counter() : cell_(&g_dummy_counter), enabled_(&g_dummy_enabled) {}
Gauge::Gauge() : cell_(&g_dummy_gauge), enabled_(&g_dummy_enabled) {}
Histogram::Histogram()
    : cell_(&dummy_histogram_cell()), enabled_(&g_dummy_enabled) {}

void Histogram::record(double v) {
  if (!*enabled_) return;
  Cell& c = *cell_;
  ++c.count;
  c.sum += v;
  if (v < c.min) c.min = v;
  if (v > c.max) c.max = v;
  const auto& b = *c.bounds;
  auto it = std::lower_bound(b.begin(), b.end(), v);
  if (it == b.end()) {
    ++c.overflow;
  } else {
    ++c.counts[static_cast<std::size_t>(it - b.begin())];
  }
}

Counter MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counter_cells_.push_back(0);
    it = counters_.emplace(name, &counter_cells_.back()).first;
  }
  return Counter(it->second, &enabled_);
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauge_cells_.push_back(0.0);
    it = gauges_.emplace(name, &gauge_cells_.back()).first;
  }
  return Gauge(it->second, &enabled_);
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     std::vector<double> bounds) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    Histogram::Cell cell;
    if (bounds.empty()) bounds.push_back(1.0);
    cell.counts.assign(bounds.size(), 0);
    cell.bounds =
        std::make_shared<const std::vector<double>>(std::move(bounds));
    histogram_cells_.push_back(std::move(cell));
    it = histograms_.emplace(name, &histogram_cells_.back()).first;
  }
  return Histogram(it->second, &enabled_);
}

std::vector<double> MetricsRegistry::log_bounds(int sub_buckets, double max) {
  if (sub_buckets < 1) sub_buckets = 1;
  if (max < 2.0) max = 2.0;
  std::vector<double> bounds;
  bounds.push_back(1.0);
  for (double lo = 1.0; lo < max; lo *= 2.0) {
    for (int i = 1; i <= sub_buckets; ++i) {
      double b = lo + lo * static_cast<double>(i) /
                          static_cast<double>(sub_buckets);
      if (b <= bounds.back()) continue;
      bounds.push_back(b);
      if (b >= max) return bounds;
    }
  }
  return bounds;
}

Histogram MetricsRegistry::log_histogram(const std::string& name,
                                         int sub_buckets, double max) {
  return histogram(name, log_bounds(sub_buckets, max));
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  if (&other == this) return;
  std::scoped_lock lk(mu_, other.mu_);
  for (const auto& [name, cell] : other.counters_) {
    auto it = counters_.find(name);
    if (it == counters_.end()) {
      counter_cells_.push_back(0);
      it = counters_.emplace(name, &counter_cells_.back()).first;
    }
    *it->second += *cell;
  }
  for (const auto& [name, cell] : other.gauges_) {
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
      gauge_cells_.push_back(0.0);
      it = gauges_.emplace(name, &gauge_cells_.back()).first;
    }
    *it->second = *cell;  // a gauge is "last written": merge order decides
  }
  for (const auto& [name, cell] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      Histogram::Cell fresh;
      fresh.bounds = cell->bounds;  // share the immutable bounds vector
      fresh.counts.assign(cell->counts.size(), 0);
      histogram_cells_.push_back(std::move(fresh));
      it = histograms_.emplace(name, &histogram_cells_.back()).first;
    }
    Histogram::Cell& dst = *it->second;
    if (*dst.bounds != *cell->bounds) {
      throw std::invalid_argument("merge_from: histogram '" + name +
                                  "' has mismatched bounds");
    }
    for (std::size_t i = 0; i < dst.counts.size(); ++i) {
      dst.counts[i] += cell->counts[i];
    }
    dst.count += cell->count;
    dst.overflow += cell->overflow;
    dst.sum += cell->sum;
    if (cell->min < dst.min) dst.min = cell->min;
    if (cell->max > dst.max) dst.max = cell->max;
  }
}

std::string MetricsRegistry::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.take();
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  std::lock_guard<std::mutex> lk(mu_);
  w.raw("{\"counters\":{");
  bool first = true;
  for (const auto& [name, cell] : counters_) {
    if (!first) w.put(',');
    first = false;
    w.str(name).put(':').num(*cell);
  }
  w.raw("},\"gauges\":{");
  first = true;
  for (const auto& [name, cell] : gauges_) {
    if (!first) w.put(',');
    first = false;
    w.str(name).put(':').num(*cell);
  }
  w.raw("},\"histograms\":{");
  first = true;
  for (const auto& [name, cell] : histograms_) {
    if (!first) w.put(',');
    first = false;
    // Keys sorted at every level, so cmp-based determinism tests and
    // CI diffs stay stable.
    w.str(name).raw(":{\"buckets\":[");
    bool bfirst = true;
    const auto& bounds = *cell->bounds;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (cell->counts[i] == 0) continue;  // elide empty buckets
      if (!bfirst) w.put(',');
      bfirst = false;
      w.raw("{\"count\":").num(cell->counts[i]).raw(",\"le\":").num(bounds[i])
          .put('}');
    }
    w.raw("],\"count\":").num(cell->count);
    if (cell->count > 0) {
      w.raw(",\"max\":").num(cell->max).raw(",\"min\":").num(cell->min);
    } else {
      w.raw(",\"max\":0,\"min\":0");
    }
    w.raw(",\"overflow\":").num(cell->overflow).raw(",\"sum\":").num(cell->sum)
        .put('}');
  }
  w.raw("},\"schema_version\":").num(kSchemaVersion).put('}');
}

}  // namespace mkbas::obs
