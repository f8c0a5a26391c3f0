#include "obs/prometheus.hpp"

#include <mutex>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace mkbas::obs {

std::string prometheus_name(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 1);
  for (char c : raw) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty()) out += '_';
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

namespace {

void render_histogram(JsonWriter& w, const PromHistogram& h) {
  const std::string name = prometheus_name(h.name);
  w.raw("# TYPE ").raw(name).raw(" histogram\n");
  std::uint64_t prev = 0;
  const std::size_t n =
      h.bounds.size() < h.cumulative.size() ? h.bounds.size()
                                            : h.cumulative.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (h.cumulative[i] == prev) continue;  // elide empty buckets
    prev = h.cumulative[i];
    w.raw(name).raw("_bucket{le=\"").num(h.bounds[i]).raw("\"} ")
        .num(h.cumulative[i]).put('\n');
  }
  w.raw(name).raw("_bucket{le=\"+Inf\"} ").num(h.count).put('\n');
  w.raw(name).raw("_sum ").num(h.sum).put('\n');
  w.raw(name).raw("_count ").num(h.count).put('\n');
}

}  // namespace

std::string prometheus_render(const PromSnapshot& snap) {
  JsonWriter w;
  for (const auto& [raw, v] : snap.counters) {
    const std::string name = prometheus_name(raw) + "_total";
    w.raw("# TYPE ").raw(name).raw(" counter\n");
    w.raw(name).put(' ').num(v).put('\n');
  }
  for (const auto& [raw, v] : snap.gauges) {
    const std::string name = prometheus_name(raw);
    w.raw("# TYPE ").raw(name).raw(" gauge\n");
    w.raw(name).put(' ').num(v).put('\n');
  }
  for (const auto& h : snap.histograms) render_histogram(w, h);
  return w.take();
}

std::string prometheus_render(const MetricsRegistry& reg) {
  PromSnapshot snap;
  {
    std::lock_guard<std::mutex> lk(reg.mu_);
    snap.counters.reserve(reg.counters_.size());
    for (const auto& [name, cell] : reg.counters_) {
      snap.counters.emplace_back(name, *cell);
    }
    snap.gauges.reserve(reg.gauges_.size());
    for (const auto& [name, cell] : reg.gauges_) {
      snap.gauges.emplace_back(name, *cell);
    }
    snap.histograms.reserve(reg.histograms_.size());
    for (const auto& [name, cell] : reg.histograms_) {
      PromHistogram h;
      h.name = name;
      const auto& bounds = *cell->bounds;
      std::uint64_t cum = 0;
      for (std::size_t i = 0; i < bounds.size(); ++i) {
        if (cell->counts[i] == 0) continue;  // mirror to_json's elision
        cum += cell->counts[i];
        h.bounds.push_back(bounds[i]);
        h.cumulative.push_back(cum);
      }
      h.count = cell->count;
      h.sum = cell->sum;
      snap.histograms.push_back(std::move(h));
    }
  }
  return prometheus_render(snap);
}

}  // namespace mkbas::obs
