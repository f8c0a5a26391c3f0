// Prometheus text exposition: name sanitization, the counter/gauge/
// histogram mapping and empty-bucket elision.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"

namespace obs = mkbas::obs;

namespace {

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

/// Minimal exposition-format validator: every line is either a comment
/// or `name[{le="..."}] value` with a legal metric name. The CI smoke
/// job re-checks this with an independent python implementation.
bool valid_exposition(const std::string& text, std::string* why) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      *why = "missing trailing newline";
      return false;
    }
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    std::size_t i = 0;
    if (!(std::isalpha(static_cast<unsigned char>(line[0])) ||
          line[0] == '_' || line[0] == ':')) {
      *why = "bad name start: " + line;
      return false;
    }
    while (i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) ||
            line[i] == '_' || line[i] == ':')) {
      ++i;
    }
    if (i < line.size() && line[i] == '{') {
      const std::size_t close = line.find('}', i);
      if (close == std::string::npos) {
        *why = "unclosed label set: " + line;
        return false;
      }
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') {
      *why = "no sample value: " + line;
      return false;
    }
    if (i + 1 >= line.size()) {
      *why = "empty value: " + line;
      return false;
    }
  }
  return true;
}

}  // namespace

TEST(Prometheus, NameSanitization) {
  EXPECT_EQ(obs::prometheus_name("serve.http.latency_us"),
            "serve_http_latency_us");
  EXPECT_EQ(obs::prometheus_name("minix.ipc.latency"), "minix_ipc_latency");
  EXPECT_EQ(obs::prometheus_name("already_fine:name"), "already_fine:name");
  EXPECT_EQ(obs::prometheus_name("9starts.with.digit"),
            "_9starts_with_digit");
  EXPECT_EQ(obs::prometheus_name(""), "_");
  EXPECT_EQ(obs::prometheus_name("a-b c"), "a_b_c");
}

TEST(Prometheus, CountersAndGaugesRender) {
  obs::PromSnapshot snap;
  snap.counters.emplace_back("serve.requests", 42u);
  snap.gauges.emplace_back("serve.queue_depth", 3.0);
  const std::string out = obs::prometheus_render(snap);
  EXPECT_EQ(out,
            "# TYPE serve_requests_total counter\n"
            "serve_requests_total 42\n"
            "# TYPE serve_queue_depth gauge\n"
            "serve_queue_depth 3\n");
}

TEST(Prometheus, HistogramCumulativeBucketsAndInf) {
  obs::PromHistogram h;
  h.name = "lat.us";
  h.bounds = {1.0, 2.0, 4.0};
  h.cumulative = {5, 5, 9};  // bucket at le=2 is a plateau: elided
  h.count = 11;              // 2 overflow samples beyond the last bound
  h.sum = 30.0;
  obs::PromSnapshot snap;
  snap.histograms.push_back(h);
  const std::string out = obs::prometheus_render(snap);
  EXPECT_EQ(out,
            "# TYPE lat_us histogram\n"
            "lat_us_bucket{le=\"1\"} 5\n"
            "lat_us_bucket{le=\"4\"} 9\n"
            "lat_us_bucket{le=\"+Inf\"} 11\n"
            "lat_us_sum 30\n"
            "lat_us_count 11\n");
}

TEST(Prometheus, RegistryRenderIsValidExposition) {
  obs::MetricsRegistry reg;
  auto c = reg.counter("serve.requests");
  c.inc(7);
  auto g = reg.gauge("serve.queue_depth");
  g.set(2.0);
  auto h = reg.log_histogram("serve.http.latency_us.run", 2, 1e7);
  for (double v : {3.0, 57.0, 140.0, 9999.0, 5e8}) h.record(v);  // 1 overflow
  const std::string out = obs::prometheus_render(reg);
  std::string why;
  EXPECT_TRUE(valid_exposition(out, &why)) << why << "\n" << out;
  EXPECT_TRUE(contains(out, "serve_requests_total 7")) << out;
  EXPECT_TRUE(contains(out, "serve_queue_depth 2")) << out;
  EXPECT_TRUE(contains(out, "# TYPE serve_http_latency_us_run histogram"));
  // +Inf carries the overflow sample, so the configured range is honest.
  EXPECT_TRUE(contains(out, "serve_http_latency_us_run_bucket{le=\"+Inf\"} 5"))
      << out;
  EXPECT_TRUE(contains(out, "serve_http_latency_us_run_count 5")) << out;
}
