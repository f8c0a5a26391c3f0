// The serve-plane observability surface (DESIGN.md §14): request span
// chains keyed by cell key and their telescoping invariant, the
// Prometheus scrape, the SSE event stream (anomaly surge before the
// execution verdict, exactly one execution for a coalesced key), the
// slow-request flight recorder, store eviction accounting, and the
// golden /status shape — all while the deterministic bundle stays
// byte-identical to a direct CLI dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <arpa/inet.h>
#include <cctype>
#include <cstdint>
#include <map>
#include <netinet/in.h>
#include <set>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "campaign/run_request.hpp"
#include "core/jsonv.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/events.hpp"
#include "serve/tracer.hpp"

namespace core = mkbas::core;
namespace obs = mkbas::obs;
namespace serve = mkbas::serve;

namespace {

core::ExperimentRequest fabric_request(const std::string& attack) {
  core::ExperimentRequest r;
  r.mode = core::RequestMode::kFabric;
  r.zones = 3;
  r.seed = 7;
  r.attack = attack;
  return r;
}

std::string fabric_body(const std::string& attack, int seed = 7) {
  return "{\"attack\":\"" + attack +
         "\",\"mode\":\"fabric\",\"seed\":" + std::to_string(seed) +
         ",\"zones\":3}";
}

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

serve::HttpRequest make_req(const std::string& method, const std::string& path,
                            const std::string& body = "",
                            const std::string& query = "") {
  serve::HttpRequest r;
  r.method = method;
  r.path = path;
  r.query = query;
  r.body = body;
  r.client = "obs-test";
  return r;
}

template <typename Fn>
std::string poll_until_ready(Fn&& fn, int attempts = 300) {
  std::string body;
  for (int i = 0; i < attempts; ++i) {
    body = fn();
    if (contains(body, "\"status\":\"ready\"") ||
        contains(body, "\"status\":\"failed\"")) {
      return body;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return body;
}

/// Same minimal exposition grammar check as tests/obs/test_prometheus
/// (CI re-validates with an independent python parser).
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
    while (i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) ||
            line[i] == '_' || line[i] == ':')) {
      ++i;
    }
    if (i == 0) {
      *why = "bad metric name: " + line;
      return false;
    }
    if (i < line.size() && line[i] == '{') {
      const std::size_t close = line.find('}', i);
      if (close == std::string::npos) {
        *why = "unclosed labels: " + line;
        return false;
      }
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ' || i + 1 >= line.size()) {
      *why = "no sample value: " + line;
      return false;
    }
  }
  return true;
}

/// One parsed SSE frame from a raw /events byte stream.
struct SseFrame {
  std::string type;
  std::string data;
};

std::vector<SseFrame> parse_sse(const std::string& bytes) {
  std::vector<SseFrame> out;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    std::size_t end = bytes.find("\n\n", pos);
    if (end == std::string::npos) break;
    SseFrame f;
    std::size_t lp = pos;
    while (lp < end) {
      std::size_t eol = bytes.find('\n', lp);
      if (eol == std::string::npos || eol > end) eol = end;
      const std::string line = bytes.substr(lp, eol - lp);
      if (line.rfind("event: ", 0) == 0) f.type = line.substr(7);
      if (line.rfind("data: ", 0) == 0) f.data = line.substr(6);
      lp = eol + 1;
    }
    if (!f.type.empty() || !f.data.empty()) out.push_back(f);
    pos = end + 2;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------
// EventHub: bounded fan-out with drop accounting, no daemon involved.

TEST(EventHub, DeliversFramesAndAccountsDrops) {
  serve::EventHub hub;
  std::vector<std::string> frames;
  bool accept = true;
  hub.set_sink([&](std::uint64_t, const std::string& frame, std::size_t) {
    if (accept) frames.push_back(frame);
    return accept;
  });

  hub.publish("request", "{\"noone\":true}");  // no subscribers: not counted
  EXPECT_EQ(hub.published(), 0u);

  hub.subscribe(1);
  EXPECT_EQ(hub.subscribers(), 1u);
  hub.publish("request", "{\"n\":1}");
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(contains(frames[0], "event: request\n"));
  EXPECT_TRUE(contains(frames[0], "\ndata: {\"n\":1}\n\n"));
  EXPECT_EQ(hub.delivered(), 1u);

  // A full buffer drops the frame; the subscriber hears how many it
  // lost as soon as a frame goes through again.
  accept = false;
  hub.publish("cell", "{\"n\":2}");
  hub.publish("cell", "{\"n\":3}");
  EXPECT_EQ(hub.dropped(), 2u);
  accept = true;
  hub.publish("cell", "{\"n\":4}");
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_TRUE(contains(frames[1], "event: dropped\n")) << frames[1];
  EXPECT_TRUE(contains(frames[1], "{\"dropped\":2}")) << frames[1];
  EXPECT_TRUE(contains(frames[2], "{\"n\":4}"));

  hub.unsubscribe(1);
  EXPECT_EQ(hub.subscribers(), 0u);
}

// ---------------------------------------------------------------------
// ServeTracer in isolation: span chains, flush lifecycle, forensics.

TEST(ServeTracer, RecordsTelescopingChainKeyedByCellKey) {
  serve::ServeTracer tr;
  tr.set_slow_us(1);  // high bar in µs of host time: nothing fires here
  serve::ServeTracer::RequestTimes t;
  t.ingress_us = 100;
  t.parsed_us = 110;
  t.lookup_start_us = 115;
  t.lookup_end_us = 130;
  t.serialize_start_us = 132;
  t.serialize_end_us = 140;
  const std::uint64_t key = 0xabcdef12u;
  const std::uint64_t token = tr.record_request("run", key, t, true);
  ASSERT_NE(token, 0u);
  EXPECT_EQ(tr.open_flushes(), 1u);
  tr.flush_done(token, 155);
  EXPECT_EQ(tr.open_flushes(), 0u);
  tr.flush_done(token, 200);  // double-fire is ignored

  tr.queue_enter(key, 160);
  tr.queue_exit(key, 180);
  tr.execute_begin(key, 181);
  EXPECT_EQ(tr.execute_end(key, 221, false), 40u);

  const obs::SpanStore snap = tr.snapshot();
  std::map<std::string, const obs::Span*> by_name;
  const obs::Span* root = nullptr;
  for (const auto& s : snap.spans()) {
    EXPECT_EQ(s.trace_id, key) << s.what();
    if (s.what() == "serve.req.run") {
      root = &s;
    } else {
      by_name[s.what()] = &s;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_span, 0u);
  EXPECT_EQ(root->start, 100);
  EXPECT_EQ(root->end, 155);  // held open until the flush observer fired
  for (const char* n : {"serve.parse", "serve.lookup", "serve.serialize",
                        "serve.flush"}) {
    ASSERT_TRUE(by_name.count(n)) << n;
    EXPECT_EQ(by_name[n]->parent_span, root->span_id) << n;
    EXPECT_GE(by_name[n]->start, root->start) << n;
    EXPECT_LE(by_name[n]->end, root->end) << n;
  }
  ASSERT_TRUE(by_name.count("serve.queue_wait"));
  ASSERT_TRUE(by_name.count("serve.execute"));
  EXPECT_EQ(by_name["serve.execute"]->end -
                by_name["serve.execute"]->start,
            40);
  EXPECT_EQ(tr.requests_recorded(), 1u);
}

TEST(ServeTracer, SlowThresholdZeroSnapshotsEveryFlush) {
  serve::ServeTracer tr;
  tr.set_slow_us(0);
  serve::ServeTracer::RequestTimes t;
  t.lookup_start_us = 10;
  t.lookup_end_us = 20;
  t.serialize_start_us = 21;
  t.serialize_end_us = 30;
  const std::uint64_t token = tr.record_request("status", 0, t, true);
  tr.flush_done(token, 45);
  EXPECT_EQ(tr.slow_triggers(), 1u);
  const std::string flight = tr.flight_json();
  EXPECT_TRUE(contains(flight, "\"reason\":\"serve.slow\"")) << flight;
  EXPECT_TRUE(contains(flight, "\\\"stage\\\":\\\"flush\\\"")) << flight;
  EXPECT_FALSE(contains(flight, "\"snapshots\":[]")) << flight;
}

TEST(ServeTracer, DisabledTracerRecordsNothing) {
  serve::ServeTracer tr;
  tr.set_enabled(false);
  serve::ServeTracer::RequestTimes t;
  t.lookup_start_us = 10;
  t.lookup_end_us = 20;
  EXPECT_EQ(tr.record_request("run", 9, t, true), 0u);
  tr.queue_enter(9, 30);
  EXPECT_EQ(tr.execute_end(9, 99, false), 0u);
  EXPECT_EQ(tr.snapshot().size(), 0u);
  EXPECT_EQ(tr.requests_recorded(), 0u);
  EXPECT_EQ(tr.slow_triggers(), 0u);
}

// ---------------------------------------------------------------------
// Daemon surface, in-process (no sockets).

TEST(DaemonObs, StatusGoldenKeyShape) {
  serve::DaemonOptions opts;
  serve::Daemon d(opts);
  const auto r = d.handle(make_req("GET", "/status"));
  ASSERT_EQ(r.status, 200);
  core::Json j;
  std::string err;
  ASSERT_TRUE(core::json_parse(r.body, &j, &err)) << err;
  ASSERT_TRUE(j.is_object());
  // The golden shape: clients key on these — additions must land here
  // AND bump the schema story deliberately.
  const std::vector<std::string> expect = {
      "batch",       "coalesced", "evictions",      "executions", "hits",
      "jobs",        "metrics",   "misses",         "queue_depth", "replays",
      "requests",    "schema_version", "steals",    "store_size"};
  std::vector<std::string> got;
  for (const auto& [k, v] : j.members) got.push_back(k);
  EXPECT_EQ(got, expect);
  const core::Json* sv = j.find("schema_version");
  ASSERT_NE(sv, nullptr);
  EXPECT_TRUE(sv->is_u64());
  // The embedded registry export carries its own schema_version.
  const core::Json* metrics = j.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(metrics->is_object());
  EXPECT_NE(metrics->find("schema_version"), nullptr);
}

TEST(DaemonObs, MetricsScrapeIsValidPrometheus) {
  serve::DaemonOptions opts;
  opts.port = 0;
  opts.jobs = 2;
  serve::Daemon d(opts);
  std::string err;
  ASSERT_TRUE(d.start(&err)) << err;
  poll_until_ready([&] {
    return d.handle(make_req("POST", "/run", fabric_body("spoof-write")))
        .body;
  });
  const auto m = d.handle(make_req("GET", "/metrics"));
  ASSERT_EQ(m.status, 200);
  EXPECT_EQ(m.content_type, "text/plain; version=0.0.4; charset=utf-8");
  std::string why;
  EXPECT_TRUE(valid_exposition(m.body, &why)) << why;
  for (const char* name :
       {"serve_requests_total", "serve_executions_total",
        "serve_store_misses_total", "serve_store_hits_total",
        "serve_queue_depth", "serve_store_size", "serve_events_published",
        "serve_trace_requests",
        "# TYPE serve_http_latency_us_run histogram",
        "# TYPE serve_queue_wait_us histogram",
        "# TYPE serve_exec_wall_us histogram",
        "serve_exec_wall_us_count 1"}) {
    EXPECT_TRUE(contains(m.body, name)) << name << "\n" << m.body;
  }
  d.shutdown();
}

TEST(DaemonObs, FlightRecorderCapturesSlowExecutions) {
  serve::DaemonOptions opts;
  opts.port = 0;
  opts.jobs = 1;
  opts.slow_ms = 0;  // everything is slow: forensics on each execution
  serve::Daemon d(opts);
  std::string err;
  ASSERT_TRUE(d.start(&err)) << err;
  poll_until_ready([&] {
    return d.handle(make_req("POST", "/run", fabric_body("spoof-write")))
        .body;
  });
  const auto f = d.handle(make_req("GET", "/flight"));
  ASSERT_EQ(f.status, 200);
  EXPECT_TRUE(contains(f.body, "\"reason\":\"serve.slow\"")) << f.body;
  EXPECT_FALSE(contains(f.body, "\"snapshots\":[]")) << f.body;
  const auto t = d.handle(make_req("GET", "/trace"));
  ASSERT_EQ(t.status, 200);
  EXPECT_TRUE(contains(t.body, "serve.req.run")) << t.body.substr(0, 400);
  EXPECT_TRUE(contains(t.body, "serve.execute"));
  d.shutdown();
}

TEST(DaemonObs, StoreCapEvictsOldestTerminalCell) {
  serve::DaemonOptions opts;
  opts.port = 0;
  opts.jobs = 1;
  opts.store_cap = 1;
  serve::Daemon d(opts);
  std::string err;
  ASSERT_TRUE(d.start(&err)) << err;
  poll_until_ready([&] {
    return d.handle(make_req("POST", "/run", fabric_body("spoof-write", 7)))
        .body;
  });
  poll_until_ready([&] {
    return d.handle(make_req("POST", "/run", fabric_body("spoof-write", 8)))
        .body;
  });
  EXPECT_EQ(d.store().size(), 1u);
  EXPECT_EQ(d.store().evictions(), 1u);

  auto a = fabric_request("spoof-write");
  auto b = fabric_request("spoof-write");
  b.seed = 8;
  EXPECT_EQ(d.handle(make_req("GET", "/result/" + a.cell_key_hex())).status,
            404);
  EXPECT_EQ(d.handle(make_req("GET", "/result/" + b.cell_key_hex())).status,
            200);
  EXPECT_TRUE(
      contains(d.handle(make_req("GET", "/status")).body, "\"evictions\":1"));
  d.shutdown();
}

TEST(DaemonObs, BundleBytesAreUnaffectedByTracing) {
  // Tracing and forensics at their most aggressive must not leak a
  // single host-time byte into the deterministic bundle.
  serve::DaemonOptions opts;
  opts.port = 0;
  opts.jobs = 2;
  opts.slow_ms = 0;
  serve::Daemon d(opts);
  std::string err;
  ASSERT_TRUE(d.start(&err)) << err;
  poll_until_ready([&] {
    return d.handle(make_req("POST", "/run", fabric_body("flood"))).body;
  });
  const auto direct = core::run_request(fabric_request("flood"),
                                        core::all_deterministic_artifacts());
  const std::string key = fabric_request("flood").cell_key_hex();
  for (const auto& [name, text] : direct.artifacts) {
    const auto r =
        d.handle(make_req("GET", "/result/" + key, "", "artifact=" + name));
    EXPECT_EQ(r.status, 200) << name;
    EXPECT_EQ(r.body, text) << name;
  }
  d.shutdown();
}

// ---------------------------------------------------------------------
// Over real sockets: the telescoping invariant and the SSE stream.

TEST(DaemonObsSocket, RequestSpansTelescope) {
  serve::DaemonOptions opts;
  opts.port = 0;
  opts.jobs = 2;
  serve::Daemon d(opts);
  std::string err;
  ASSERT_TRUE(d.start(&err)) << err;
  serve::HttpClient c(d.port(), "tracer");
  poll_until_ready([&] {
    serve::HttpResponse resp;
    std::string cerr;
    if (!c.post("/run", fabric_body("spoof-write"), &resp, &cerr)) return cerr;
    return resp.body;
  });
  const std::uint64_t key = fabric_request("spoof-write").cell_key();
  serve::HttpResponse rr;
  std::string cerr;
  ASSERT_TRUE(c.get("/result/" + fabric_request("spoof-write").cell_key_hex(),
                    &rr, &cerr))
      << cerr;

  // Wait for the last flush observer to close its root span.
  obs::SpanStore snap;
  std::vector<const obs::Span*> roots;
  for (int i = 0; i < 100; ++i) {
    snap = d.trace_snapshot();
    roots.clear();
    std::size_t open_result_roots = 0;
    for (const auto& s : snap.spans()) {
      if (s.trace_id != key) continue;
      if (s.parent_span == 0 && s.what().rfind("serve.req.", 0) == 0) {
        roots.push_back(&s);
        if (s.what() == "serve.req.result") ++open_result_roots;
      }
    }
    if (!roots.empty() && open_result_roots > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    roots.clear();
  }
  ASSERT_FALSE(roots.empty());

  // Per request: the stage children nest inside their root and their
  // durations telescope (sum <= root total, within rounding).
  for (const obs::Span* root : roots) {
    std::int64_t child_sum = 0;
    for (const auto& s : snap.spans()) {
      if (s.parent_span != root->span_id) continue;
      EXPECT_GE(s.start, root->start) << s.what();
      EXPECT_LE(s.end, root->end) << s.what();
      child_sum += s.end - s.start;
    }
    const std::int64_t total = root->end - root->start;
    EXPECT_LE(child_sum, total + total / 20 + 5) << root->what();
  }

  // Whole-trace envelope: queue wait + execution + serialization all
  // fit inside first-ingress .. last-flush (the acceptance bound: within
  // 5%). The cell key ties them into one trace across requests.
  std::int64_t lo = 0, hi = 0, qes = 0;
  bool any = false, saw_queue = false, saw_exec = false;
  for (const auto& s : snap.spans()) {
    if (s.trace_id != key) continue;
    if (!any || s.start < lo) lo = s.start;
    if (!any || s.end > hi) hi = s.end;
    any = true;
    if (s.what() == "serve.queue_wait") {
      saw_queue = true;
      qes += s.end - s.start;
    }
    if (s.what() == "serve.execute") {
      saw_exec = true;
      qes += s.end - s.start;
    }
    if (s.what() == "serve.serialize") qes += s.end - s.start;
  }
  ASSERT_TRUE(any);
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_exec);
  const std::int64_t envelope = hi - lo;
  EXPECT_LE(qes, envelope + envelope / 20 + 5);
  d.shutdown();
}

TEST(DaemonObsSocket, SseStreamsAnomalySurgeBeforeSingleExecution) {
  serve::DaemonOptions opts;
  opts.port = 0;
  opts.jobs = 2;
  serve::Daemon d(opts);
  std::string err;
  ASSERT_TRUE(d.start(&err)) << err;

  // Raw SSE subscriber (HttpClient expects Content-Length responses).
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(d.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  const std::string sub = "GET /events HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd, sub.data(), sub.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(sub.size()));
  std::string stream;
  char buf[8192];
  // Read until the head comment arrives: subscription is then active.
  while (!contains(stream, ": mkbas serve event stream")) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0) << "no SSE head";
    stream.append(buf, static_cast<std::size_t>(n));
  }

  // Four clients race one flood-fabric cell (anomaly-rich scenario).
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      serve::HttpClient c(d.port(), "racer-" + std::to_string(i));
      poll_until_ready([&] {
        serve::HttpResponse resp;
        std::string cerr;
        if (!c.post("/run", fabric_body("flood"), &resp, &cerr)) return cerr;
        return resp.body;
      });
    });
  }
  for (auto& t : clients) t.join();

  // The run finished; drain the stream until the ready transition shows.
  while (!contains(stream, "\"state\":\"ready\"") &&
         !contains(stream, "\"state\":\"failed\"")) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    stream.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::vector<SseFrame> frames = parse_sse(stream);
  int executions = 0, anomalies = 0;
  int first_anomaly = -1, first_execution = -1, queued_at = -1;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].type == "execution") {
      ++executions;
      if (first_execution < 0) first_execution = static_cast<int>(i);
    }
    if (frames[i].type == "health.anomaly") {
      ++anomalies;
      if (first_anomaly < 0) first_anomaly = static_cast<int>(i);
    }
    if (frames[i].type == "cell" && contains(frames[i].data, "queued") &&
        queued_at < 0) {
      queued_at = static_cast<int>(i);
    }
  }
  // Exactly one execution for the coalesced key; an anomaly surge is
  // visible BEFORE the execution verdict lands.
  EXPECT_EQ(executions, 1) << stream;
  EXPECT_GE(anomalies, 1) << stream;
  ASSERT_GE(first_execution, 0);
  ASSERT_GE(first_anomaly, 0);
  EXPECT_LT(first_anomaly, first_execution);
  EXPECT_GE(queued_at, 0);
  EXPECT_LT(queued_at, first_anomaly);
  const std::string key = fabric_request("flood").cell_key_hex();
  EXPECT_TRUE(contains(frames[static_cast<std::size_t>(first_execution)].data,
                       key));

  EXPECT_GE(d.events().published(), 4u);
  // The loop thread notices our hangup and unsubscribes the stream.
  for (int i = 0; i < 200 && d.events().subscribers() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(d.events().subscribers(), 0u);
  d.shutdown();
}
