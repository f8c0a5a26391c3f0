#include "serve/daemon.hpp"

#include <sched.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "campaign/run_request.hpp"
#include "core/hash.hpp"
#include "core/jsonv.hpp"
#include "obs/json.hpp"
#include "obs/prometheus.hpp"

namespace mkbas::serve {

namespace {

bool parse_key(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 16);
  return end != nullptr && *end == '\0';
}

HttpResponse json_response(int status, const std::string& body) {
  HttpResponse r;
  r.status = status;
  r.body = body;
  return r;
}

HttpResponse error_response(int status, const std::string& message) {
  return json_response(
      status, "{\"error\":\"" + obs::json_escape(message) + "\"}");
}

}  // namespace

Daemon::Daemon(const DaemonOptions& opts)
    : opts_(opts),
      pool_(opts.jobs),
      requests_(reg_.counter("serve.requests")),
      bad_requests_(reg_.counter("serve.bad_requests")),
      replays_(reg_.counter("serve.replays")),
      executions_ctr_(reg_.counter("serve.executions")),
      store_hits_(reg_.counter("serve.store.hits")),
      store_misses_(reg_.counter("serve.store.misses")),
      store_coalesced_(reg_.counter("serve.store.coalesced")),
      depth_gauge_(reg_.gauge("serve.queue_depth")),
      queue_wait_hist_(reg_.log_histogram("serve.queue_wait_us", 2, 1e8)),
      exec_wall_hist_(reg_.log_histogram("serve.exec_wall_us", 2, 1e9)) {
  if (opts_.batch < 1) opts_.batch = 1;
  if (opts_.slow_ms < 0) opts_.slow_ms = 0;
  tracer_.set_enabled(opts_.tracing);
  tracer_.set_slow_us(static_cast<std::uint64_t>(opts_.slow_ms) * 1000);
  store_.set_capacity(opts_.store_cap);
  hub_.set_sink([this](std::uint64_t sid, const std::string& frame,
                       std::size_t cap) {
    return http_.stream_write(sid, frame, cap);
  });
}

Daemon::~Daemon() { shutdown(); }

bool Daemon::start(std::string* err) {
  // Stream lifecycle: an accepted GET /events connection becomes an
  // EventHub subscriber for exactly as long as its socket lives. Flush
  // completions close the tracer's per-request flush span.
  http_.set_stream_hooks(
      [this](std::uint64_t sid, const HttpRequest& r) {
        if (r.path == "/events") hub_.subscribe(sid);
      },
      [this](std::uint64_t sid) { hub_.unsubscribe(sid); });
  http_.set_flush_observer([this](std::uint64_t token, std::uint64_t now_us) {
    if (token != 0) tracer_.flush_done(token, now_us);
  });
  executor_ = std::thread([this] { executor_loop(); });
  started_ = true;
  if (!http_.start(opts_.port, [this](const HttpRequest& r) { return handle(r); },
                   err)) {
    shutdown();
    return false;
  }
  return true;
}

void Daemon::wait() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return stop_requested_ || stopping_; });
  }
  shutdown();
}

void Daemon::shutdown() {
  http_.stop();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (started_ && executor_.joinable()) executor_.join();
  started_ = false;
}

std::uint64_t Daemon::executions() const { return executions_ctr_.value(); }

Daemon::RouteStats& Daemon::route_stats(const std::string& route) {
  auto it = route_stats_.find(route);
  if (it == route_stats_.end()) {
    RouteStats rs{
        reg_.log_histogram("serve.http.latency_us." + route, 2, 1e7),
        reg_.log_histogram("serve.http.resp_bytes." + route, 2, 16777216.0)};
    it = route_stats_.emplace(route, rs).first;
  }
  return it->second;
}

void Daemon::bump_client(const std::string& client) {
  // Per-client fairness accounting, bounded: at most 32 distinct client
  // counters; everyone past that shares "other" (the fairness queues
  // themselves stay exact — this caps only metric cardinality).
  std::string id = client.empty() ? "unknown" : client;
  if (client_counters_.size() >= 32 && client_counters_.count(id) == 0) {
    id = "other";
  }
  auto it = client_counters_.find(id);
  if (it == client_counters_.end()) {
    it = client_counters_
             .emplace(id, reg_.counter("serve.client." + id + ".requests"))
             .first;
  }
  it->second.inc();
}

void Daemon::enqueue(const std::string& client, std::uint64_t key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& q = queues_[client];
    if (q.empty()) rotation_.push_back(client);
    q.emplace_back(key, host_us());
    ++queue_depth_;
    depth_gauge_.set(static_cast<double>(queue_depth_));
  }
  cv_.notify_all();
}

void Daemon::publish_execution(std::uint64_t key, const ResultBundle* bundle,
                               bool failed, std::uint64_t wall_us) {
  if (!opts_.tracing || hub_.subscribers() == 0) return;
  const std::string key_hex = core::hex64(key);
  // Surface the executed cell's audit journal to live subscribers, in
  // journal order, BEFORE the execution verdict — a fabric flood's
  // health.anomaly surge is visible on /events while the run's verdict
  // (and the store completion) are still pending.
  if (bundle != nullptr) {
    const auto it = bundle->artifacts.find("audit");
    if (it != bundle->artifacts.end()) {
      core::Json doc;
      std::string err;
      if (core::json_parse(it->second, &doc, &err)) {
        const core::Json* entries = doc.find("entries");
        if (entries != nullptr &&
            entries->kind == core::Json::Kind::kArray) {
          for (const core::Json& e : entries->items) {
            if (!e.is_object()) continue;
            const core::Json* kind = e.find("kind");
            const core::Json* detail = e.find("detail");
            const core::Json* machine = e.find("machine");
            const core::Json* time = e.find("time");
            const std::string kind_s =
                kind != nullptr && kind->is_string() ? kind->text : "";
            std::string data = "{\"detail\":\"" +
                               obs::json_escape(detail != nullptr &&
                                                        detail->is_string()
                                                    ? detail->text
                                                    : "") +
                               "\",\"key\":\"" + key_hex + "\",\"kind\":\"" +
                               obs::json_escape(kind_s) + "\"";
            if (machine != nullptr && machine->is_number()) {
              data += ",\"machine\":" + machine->text;
            }
            if (time != nullptr && time->is_number()) {
              data += ",\"time\":" + time->text;
            }
            data += "}";
            hub_.publish(
                kind_s == "health.anomaly" ? "health.anomaly" : "audit",
                data);
          }
        }
      }
    }
  }
  hub_.publish("execution",
               "{\"key\":\"" + key_hex + "\",\"status\":\"" +
                   (failed ? "failed" : "ok") +
                   "\",\"wall_us\":" + std::to_string(wall_us) + "}");
}

namespace {

/// While alive, keeps the calling thread off `cpu` if it is running there
/// and another CPU is allowed; the thread's CPU mask is restored after.
/// A thread woken or started by the HTTP loop tends to land on the CPU
/// that went idle last, which under steady traffic is the loop's (and a
/// local client's); a cell left there is preempted by every request and
/// runs up to half again as long.
class KeepOffCpu {
 public:
  explicit KeepOffCpu(int cpu) {
    if (cpu < 0 || ::sched_getcpu() != cpu) return;
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t rest = saved_;
    CPU_CLR(cpu, &rest);
    moved_ = CPU_COUNT(&rest) > 0 &&
             ::sched_setaffinity(0, sizeof rest, &rest) == 0;
  }
  ~KeepOffCpu() {
    if (moved_) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  KeepOffCpu(const KeepOffCpu&) = delete;
  KeepOffCpu& operator=(const KeepOffCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool moved_ = false;
};

}  // namespace

void Daemon::executor_loop() {
  for (;;) {
    // One drain pass: walk the client rotation, taking the oldest cell
    // from each client in turn, until the batch is full or the queues
    // are dry. A client with more work re-enters the rotation at the
    // back, so interleaving is fair regardless of submission bursts.
    std::vector<std::uint64_t> keys;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || queue_depth_ > 0; });
      if (stopping_) return;
      const std::uint64_t now = host_us();
      while (static_cast<int>(keys.size()) < opts_.batch &&
             !rotation_.empty()) {
        const std::string client = rotation_.front();
        rotation_.pop_front();
        auto it = queues_.find(client);
        const auto [key, enq_us] = it->second.front();
        keys.push_back(key);
        queue_wait_hist_.record(
            static_cast<double>(now > enq_us ? now - enq_us : 0));
        it->second.pop_front();
        --queue_depth_;
        if (it->second.empty()) {
          queues_.erase(it);
        } else {
          rotation_.push_back(client);
        }
      }
      depth_gauge_.set(static_cast<double>(queue_depth_));
    }
    for (const std::uint64_t key : keys) {
      tracer_.queue_exit(key, host_us());
    }

    std::vector<core::ExperimentRequest> reqs(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      reqs[i] = store_.lookup(keys[i]).request;
    }
    std::vector<std::uint64_t> walls(keys.size(), 0);
    pool_.run(keys.size(), [&](std::size_t i) {
      const KeepOffCpu off(http_.loop_cpu());
      const std::uint64_t t0 = host_us();
      tracer_.execute_begin(keys[i], t0);
      ResultBundle bundle;
      std::string fail_msg;
      bool failed = false;
      try {
        auto resp =
            core::run_request(reqs[i], core::all_deterministic_artifacts());
        bundle.exit_code = resp.exit_code;
        bundle.artifacts = std::move(resp.artifacts);
      } catch (const std::exception& e) {
        failed = true;
        fail_msg = e.what();
      } catch (...) {
        failed = true;
        fail_msg = "unknown execution error";
      }
      const std::uint64_t t1 = host_us();
      walls[i] = t1 - t0;
      tracer_.execute_end(keys[i], t1, failed);
      // Events go out before the store flips terminal: a subscriber
      // watching /events sees the journal surge and the execution
      // verdict strictly before any /result poll can observe "ready".
      publish_execution(keys[i], failed ? nullptr : &bundle, failed,
                        walls[i]);
      if (failed) {
        store_.fail(keys[i], fail_msg);
      } else {
        store_.complete(keys[i], std::move(bundle));
      }
      if (opts_.tracing && hub_.subscribers() != 0) {
        hub_.publish("cell", "{\"key\":\"" + core::hex64(keys[i]) +
                                 "\",\"state\":\"" +
                                 (failed ? "failed" : "ready") + "\"}");
      }
    });
    {
      std::lock_guard<std::mutex> lock(mu_);
      executions_ctr_.inc(keys.size());
      for (const std::uint64_t w : walls) {
        exec_wall_hist_.record(static_cast<double>(w));
      }
    }
  }
}

HttpResponse Daemon::handle(const HttpRequest& req) {
  const std::uint64_t t0 = host_us();
  {
    std::lock_guard<std::mutex> lock(mu_);
    requests_.inc();
    bump_client(req.client);
  }
  ServeTracer::RequestTimes times;
  times.ingress_us = req.ingress_us;
  times.parsed_us = req.parsed_us;
  std::uint64_t cell_key = 0;
  std::string route = "other";
  HttpResponse resp;

  const std::string result_prefix = "/result/";
  const std::string replay_prefix = "/replay/";
  if (req.method == "POST" && req.path == "/run") {
    route = "run";
    resp = post_run(req, &times, &cell_key);
  } else if (req.method == "POST" && req.path == "/shutdown") {
    route = "shutdown";
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_requested_ = true;
    }
    cv_.notify_all();
    times.serialize_start_us = host_us();
    resp = json_response(200, "{\"status\":\"stopping\"}");
    times.serialize_end_us = host_us();
  } else if (req.method == "GET" && req.path == "/status") {
    route = "status";
    times.serialize_start_us = host_us();
    resp = get_status();
    times.serialize_end_us = host_us();
  } else if (req.method == "GET" && req.path == "/metrics") {
    route = "metrics";
    times.serialize_start_us = host_us();
    resp = get_metrics();
    times.serialize_end_us = host_us();
  } else if (req.method == "GET" && req.path == "/trace") {
    route = "trace";
    times.serialize_start_us = host_us();
    resp = json_response(200, tracer_.trace_json());
    times.serialize_end_us = host_us();
  } else if (req.method == "GET" && req.path == "/flight") {
    route = "flight";
    times.serialize_start_us = host_us();
    resp = json_response(200, tracer_.flight_json());
    times.serialize_end_us = host_us();
  } else if (req.method == "GET" && req.path == "/events") {
    route = "events";
    times.serialize_start_us = host_us();
    resp = get_events();
    times.serialize_end_us = host_us();
  } else if (req.method == "GET" &&
             req.path.compare(0, result_prefix.size(), result_prefix) == 0) {
    route = "result";
    std::uint64_t key;
    if (!parse_key(req.path.substr(result_prefix.size()), &key)) {
      resp = error_response(400, "malformed cell key");
    } else {
      cell_key = key;
      resp = get_result(key, req, &times);
    }
  } else if (req.method == "GET" &&
             req.path.compare(0, replay_prefix.size(), replay_prefix) == 0) {
    route = "replay";
    std::uint64_t key;
    if (!parse_key(req.path.substr(replay_prefix.size()), &key)) {
      resp = error_response(400, "malformed cell key");
    } else {
      cell_key = key;
      resp = get_replay(key, &times);
    }
  } else {
    resp = error_response(404, "no such endpoint: " + req.method + " " +
                                   req.path);
  }

  if (times.serialize_end_us == 0) times.serialize_end_us = host_us();
  // Streaming responses never "finish" flushing; everything else over a
  // real socket keeps its root span open until the flush observer fires.
  const bool over_socket = req.ingress_us != 0 && !resp.stream;
  if (opts_.tracing) {
    resp.trace_token =
        tracer_.record_request(route, cell_key, times, over_socket);
  }
  const std::uint64_t base = times.ingress_us != 0 ? times.ingress_us : t0;
  // Per-request events are rate-limited publisher-side: a cache-hit
  // storm at tens of thousands of requests per second must not become
  // an SSE firehose (it would only fill subscriber buffers and tax
  // the hot path — per-request accounting lives in /metrics and
  // /trace). Suppressed events are counted, exported as a metric, and
  // the next published request event carries the count.
  const bool wants_event = opts_.tracing && hub_.subscribers() != 0;
  std::uint64_t suppressed = 0;
  bool allow = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RouteStats& rs = route_stats(route);
    rs.latency.record(static_cast<double>(times.serialize_end_us - base));
    rs.size.record(static_cast<double>(resp.body.size()));
    if (wants_event) {
      const std::uint64_t now = times.serialize_end_us;
      if (now - req_event_window_us_ >= 1000000) {
        req_event_window_us_ = now;
        req_events_in_window_ = 0;
      }
      allow = req_events_in_window_ < kMaxRequestEventsPerSec;
      if (allow) {
        ++req_events_in_window_;
        suppressed = req_events_suppressed_;
        req_events_suppressed_ = 0;
      } else {
        ++req_events_suppressed_;
        ++req_events_suppressed_total_;
      }
    }
  }
  if (allow) {
    std::string ev;
    ev.reserve(120 + req.client.size() + req.method.size() +
               req.path.size());
    ev += "{\"client\":\"";
    ev += obs::json_escape(req.client);
    if (cell_key != 0) {
      ev += "\",\"key\":\"";
      ev += core::hex64(cell_key);
    }
    ev += "\",\"method\":\"";
    ev += obs::json_escape(req.method);
    ev += "\",\"path\":\"";
    ev += obs::json_escape(req.path);
    ev += "\",\"status\":";
    ev += std::to_string(resp.status);
    if (suppressed != 0) {
      ev += ",\"suppressed\":";
      ev += std::to_string(suppressed);
    }
    ev += '}';
    hub_.publish("request", ev);
  }
  return resp;
}

HttpResponse Daemon::post_run(const HttpRequest& req,
                              ServeTracer::RequestTimes* times,
                              std::uint64_t* cell_key) {
  core::ExperimentRequest parsed;
  std::string err;
  if (!core::parse_request_json(req.body, &parsed, &err)) {
    std::lock_guard<std::mutex> lock(mu_);
    bad_requests_.inc();
    return error_response(400, err);
  }
  const std::string key_hex = parsed.cell_key_hex();
  *cell_key = parsed.cell_key();
  times->lookup_start_us = host_us();
  const ResultStore::Submit s = store_.submit(parsed);
  switch (s) {
    case ResultStore::Submit::kHit: {
      const ResultStore::Entry e = store_.lookup(parsed.cell_key());
      times->lookup_end_us = host_us();
      {
        std::lock_guard<std::mutex> lock(mu_);
        store_hits_.inc();
      }
      times->serialize_start_us = times->lookup_end_us;
      HttpResponse r;
      if (e.state == ResultStore::State::kFailed) {
        r = json_response(200, "{\"error\":\"" + obs::json_escape(e.error) +
                                   "\",\"key\":\"" + key_hex +
                                   "\",\"status\":\"failed\"}");
      } else {
        r = json_response(
            200, "{\"exit_code\":" + std::to_string(e.bundle->exit_code) +
                     ",\"key\":\"" + key_hex + "\",\"status\":\"ready\"}");
      }
      times->serialize_end_us = host_us();
      return r;
    }
    case ResultStore::Submit::kCoalesced: {
      times->lookup_end_us = host_us();
      {
        std::lock_guard<std::mutex> lock(mu_);
        store_coalesced_.inc();
      }
      times->serialize_start_us = times->lookup_end_us;
      HttpResponse r = json_response(
          202, "{\"key\":\"" + key_hex + "\",\"status\":\"pending\"}");
      times->serialize_end_us = host_us();
      return r;
    }
    case ResultStore::Submit::kQueued: {
      times->lookup_end_us = host_us();
      {
        std::lock_guard<std::mutex> lock(mu_);
        store_misses_.inc();
      }
      if (opts_.tracing) {
        tracer_.queue_enter(parsed.cell_key(), host_us());
        if (hub_.subscribers() != 0) {
          hub_.publish("cell", "{\"key\":\"" + key_hex +
                                   "\",\"state\":\"queued\"}");
        }
      }
      enqueue(req.client, parsed.cell_key());
      times->serialize_start_us = host_us();
      HttpResponse r = json_response(
          202, "{\"key\":\"" + key_hex + "\",\"status\":\"queued\"}");
      times->serialize_end_us = host_us();
      return r;
    }
  }
  return error_response(500, "unreachable");
}

HttpResponse Daemon::get_result(std::uint64_t key, const HttpRequest& req,
                                ServeTracer::RequestTimes* times) {
  times->lookup_start_us = host_us();
  const ResultStore::Entry e = store_.lookup(key);
  times->lookup_end_us = host_us();
  times->serialize_start_us = times->lookup_end_us;
  HttpResponse r;
  switch (e.state) {
    case ResultStore::State::kUnknown:
      r = error_response(404, "unknown cell key: " + core::hex64(key));
      break;
    case ResultStore::State::kPending:
      r = json_response(202, "{\"key\":\"" + core::hex64(key) +
                                 "\",\"status\":\"pending\"}");
      break;
    case ResultStore::State::kFailed:
      r = error_response(500, e.error);
      break;
    case ResultStore::State::kReady: {
      std::string kind = req.query_param("artifact");
      if (kind.empty()) kind = "summary";
      const auto it = e.bundle->artifacts.find(kind);
      if (it == e.bundle->artifacts.end()) {
        std::string available;
        for (const auto& [name, text] : e.bundle->artifacts) {
          if (!available.empty()) available += ",";
          available += "\"" + name + "\"";
        }
        r = json_response(404, "{\"available\":[" + available +
                                   "],\"error\":\"artifact not produced by "
                                   "this mode: " +
                                   obs::json_escape(kind) + "\"}");
      } else {
        r = json_response(200, it->second);
      }
      break;
    }
  }
  times->serialize_end_us = host_us();
  return r;
}

HttpResponse Daemon::get_replay(std::uint64_t key,
                                ServeTracer::RequestTimes* times) {
  times->lookup_start_us = host_us();
  const ResultStore::Entry e = store_.lookup(key);
  times->lookup_end_us = host_us();
  if (e.state == ResultStore::State::kUnknown) {
    return error_response(404, "unknown cell key: " + core::hex64(key));
  }
  if (e.state == ResultStore::State::kPending) {
    return json_response(202, "{\"key\":\"" + core::hex64(key) +
                                  "\",\"status\":\"pending\"}");
  }
  if (e.state == ResultStore::State::kFailed) {
    return error_response(409, "cell failed; nothing to replay: " + e.error);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    replays_.inc();
  }
  // Re-materialize the whole bundle from the stored canonical request
  // and byte-compare artifact by artifact. Any divergence is a
  // determinism bug (or a corrupted cache) worth a loud verdict.
  core::ExperimentResponse redo;
  try {
    redo = core::run_request(e.request, core::all_deterministic_artifacts());
  } catch (const std::exception& ex) {
    return error_response(500, std::string("replay execution failed: ") +
                                   ex.what());
  }
  std::string mismatched;
  std::size_t compared = 0;
  for (const auto& [name, text] : e.bundle->artifacts) {
    ++compared;
    const auto it = redo.artifacts.find(name);
    if (it == redo.artifacts.end() || it->second != text) {
      if (!mismatched.empty()) mismatched += ",";
      mismatched += "\"" + name + "\"";
    }
  }
  const bool identical =
      mismatched.empty() && redo.artifacts.size() == compared;
  times->serialize_start_us = host_us();
  HttpResponse r = json_response(
      200, "{\"compared\":" + std::to_string(compared) +
               ",\"identical\":" + std::string(identical ? "true" : "false") +
               ",\"key\":\"" + core::hex64(key) + "\",\"mismatched\":[" +
               mismatched + "]}");
  times->serialize_end_us = host_us();
  return r;
}

HttpResponse Daemon::get_status() {
  std::size_t depth;
  std::string metrics_json;
  {
    std::lock_guard<std::mutex> lock(mu_);
    depth = queue_depth_;
    metrics_json = reg_.to_json();
  }
  std::string s =
      "{\"batch\":" + std::to_string(opts_.batch) +
      ",\"coalesced\":" + std::to_string(store_.coalesced()) +
      ",\"evictions\":" + std::to_string(store_.evictions()) +
      ",\"executions\":" + std::to_string(executions_ctr_.value()) +
      ",\"hits\":" + std::to_string(store_.hits()) +
      ",\"jobs\":" + std::to_string(pool_.workers()) +
      ",\"metrics\":" + metrics_json +
      ",\"misses\":" + std::to_string(store_.misses()) +
      ",\"queue_depth\":" + std::to_string(depth) +
      ",\"replays\":" + std::to_string(replays_.value()) +
      ",\"requests\":" + std::to_string(requests_.value()) +
      ",\"schema_version\":" + std::to_string(obs::kSchemaVersion) +
      ",\"steals\":" + std::to_string(pool_.steals()) +
      ",\"store_size\":" + std::to_string(store_.size()) + "}";
  return json_response(200, s);
}

HttpResponse Daemon::get_metrics() {
  // Sync the scrape-time snapshots (store, pool, hub, tracer state)
  // into the registry so one render covers everything. The gauge writes
  // happen under mu_ like every other metric update.
  {
    std::lock_guard<std::mutex> lock(mu_);
    depth_gauge_.set(static_cast<double>(queue_depth_));
    reg_.gauge("serve.store.size").set(static_cast<double>(store_.size()));
    reg_.gauge("serve.store.capacity")
        .set(static_cast<double>(store_.capacity()));
    reg_.gauge("serve.store.evictions")
        .set(static_cast<double>(store_.evictions()));
    reg_.gauge("serve.pool.steals").set(static_cast<double>(pool_.steals()));
    reg_.gauge("serve.events.subscribers")
        .set(static_cast<double>(hub_.subscribers()));
    reg_.gauge("serve.events.published")
        .set(static_cast<double>(hub_.published()));
    reg_.gauge("serve.events.delivered")
        .set(static_cast<double>(hub_.delivered()));
    reg_.gauge("serve.events.dropped")
        .set(static_cast<double>(hub_.dropped()));
    reg_.gauge("serve.events.req_suppressed")
        .set(static_cast<double>(req_events_suppressed_total_));
    reg_.gauge("serve.trace.requests")
        .set(static_cast<double>(tracer_.requests_recorded()));
    reg_.gauge("serve.trace.slow")
        .set(static_cast<double>(tracer_.slow_triggers()));
    reg_.gauge("serve.trace.rotations")
        .set(static_cast<double>(tracer_.rotations()));
  }
  HttpResponse r;
  r.status = 200;
  r.content_type = "text/plain; version=0.0.4; charset=utf-8";
  r.body = obs::prometheus_render(reg_);
  return r;
}

HttpResponse Daemon::get_events() {
  HttpResponse r;
  r.status = 200;
  r.content_type = "text/event-stream";
  r.stream = true;
  // SSE comment line: flushes the headers through buffering proxies and
  // gives curl -N something to print immediately.
  r.body = ": mkbas serve event stream\n\n";
  return r;
}

}  // namespace mkbas::serve
