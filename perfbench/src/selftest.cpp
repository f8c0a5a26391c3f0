// Self-test of the benchmark's own logic: the percentile helper and its
// ten-samples-beyond rule, due-time latency under an injected stall,
// failure classification, and a tiny smoke run of every workload that
// must pass its output checks.
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "workloads.hpp"

namespace perfbench {

namespace {

int g_checks = 0;
int g_failed = 0;

void expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failed;
    std::printf("  FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Percentile p50 = percentile(v, 50);
  expect(near(p50.value, 50) && p50.beyond == 50 && p50.resolved(),
         "p50 of 1..100 is 50 with 50 beyond");
  const Percentile p90 = percentile(v, 90);
  expect(near(p90.value, 90) && p90.beyond == 10 && p90.resolved(),
         "p90 of 1..100 is 90 with exactly ten beyond (resolved)");
  const Percentile p99 = percentile(v, 99);
  expect(near(p99.value, 99) && p99.beyond == 1 && !p99.resolved(),
         "p99 of 100 samples is unresolved (one beyond)");
  v.clear();
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Percentile p99k = percentile(v, 99);
  expect(near(p99k.value, 990) && p99k.beyond == 10 && p99k.resolved(),
         "p99 of 1000 samples has ten beyond");
  // Shuffled input, failures as +inf: they sort last and miss any limit.
  std::vector<double> w = {5, 1, std::numeric_limits<double>::infinity(), 3,
                           2, 4};
  expect(near(percentile(w, 50).value, 3), "p50 ignores input order");
  expect(std::isinf(percentile(w, 100).value),
         "a failure (+inf) is the slowest sample");
  expect(percentile({}, 50).n == 0, "empty sample set");
  expect(near(median({4, 1, 3, 2}), 2.5), "median of an even set");
}

void test_due_time_stall() {
  // Virtual clock: sleeping jumps it forward, sending costs 100 us, and
  // event 3 stalls for 5 ms. Events are due every 1 ms.
  double clock = 0.0;
  OpenLoop loop([&] { return clock; },
                [&](double t) { clock = std::max(clock, t); });
  for (std::uint64_t i = 0; i < 10; ++i) {
    loop.schedule({1000.0 * static_cast<double>(i), 0, i});
  }
  std::vector<double> lat;
  while (!loop.empty()) {
    lat.push_back(loop.step([&](const OpenLoop::Event& e, double send) {
      clock = send + (e.index == 3 ? 5000.0 : 100.0);
      return clock;
    }));
  }
  // Event 3 is sent on time and takes 5 ms; events 4..8 wait behind it.
  const std::vector<double> want_lat = {100,  100,  100,  5000, 4100,
                                        3200, 2300, 1400, 500,  100};
  const std::vector<double> want_late = {0,    0,    0,    0,   4000,
                                         3100, 2200, 1300, 400, 0};
  bool lat_ok = lat.size() == want_lat.size();
  bool late_ok = loop.lateness_us().size() == want_late.size();
  for (std::size_t i = 0; lat_ok && i < lat.size(); ++i) {
    lat_ok = near(lat[i], want_lat[i]);
  }
  for (std::size_t i = 0; late_ok && i < want_late.size(); ++i) {
    late_ok = near(loop.lateness_us()[i], want_late[i]);
  }
  expect(lat_ok, "a stall is charged to every request queued behind it");
  expect(late_ok, "generator lateness records the backlog");
  const Percentile p = percentile(loop.lateness_us(), 99);
  expect(near(p.value, 4000), "lateness p99 is the stall's backlog");
}

void test_classification() {
  expect(classify_http(false, 0, "") == HttpOutcome::kTransportError,
         "transport error is a failure");
  expect(classify_http(true, 500, "{\"error\":\"x\"}") ==
             HttpOutcome::kBadStatus,
         "5xx is a failure");
  expect(classify_http(true, 404, "") == HttpOutcome::kBadStatus,
         "4xx is a failure");
  expect(classify_http(true, 200,
                       "{\"error\":\"boom\",\"key\":\"ab\","
                       "\"status\":\"failed\"}") == HttpOutcome::kCellFailed,
         "a failed cell is a failure");
  expect(classify_http(true, 200,
                       "{\"exit_code\":1,\"key\":\"ab\",\"status\":\"ready\"}") ==
             HttpOutcome::kOk,
         "exit_code 1 (Linux compromised / never recovers) is a verdict");
  expect(classify_http(true, 202, "{\"key\":\"ab\",\"status\":\"queued\"}") ==
             HttpOutcome::kOk,
         "202 queued is not a failure");
  RunResult r;
  r.fail_check("x");
  expect(!r.correct && r.failed == 1, "a failed output check fails the run");
}

void smoke(const std::string& workload) {
  Options opt;
  opt.workload = workload;
  opt.seed = 11;
  opt.seconds = 1.0;
  opt.tiny = true;
  SpanLog spans;
  spans.set_enabled(true);
  RunResult r;
  if (workload == "campaign") {
    r = run_campaign_workload(opt, spans);
  } else if (workload == "city") {
    r = run_city_workload(opt, spans);
  } else {
    r = run_serve_workload(opt, spans);
  }
  for (const auto& f : r.check_failures) {
    std::printf("  %s: %s\n", workload.c_str(), f.c_str());
  }
  expect(r.correct && r.failed == 0 && r.attempted > 0,
         workload + " smoke run passes its output checks");
  bool positive = r.metrics.size() == 4;
  for (const auto& [name, m] : r.metrics) positive = positive && m.value > 0;
  expect(positive, workload + " smoke run reports four positive metrics");
  expect(spans.size() > 0, workload + " smoke run records spans");
}

}  // namespace

int run_selftest() {
  std::printf("perfbench selftest\n");
  test_percentile();
  test_due_time_stall();
  test_classification();
  for (const char* w : {"campaign", "city", "serve-mix"}) smoke(w);
  std::printf("selftest: %d checks, %d failed\n", g_checks, g_failed);
  return g_failed;
}

}  // namespace perfbench
