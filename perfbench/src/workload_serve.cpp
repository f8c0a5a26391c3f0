// Workload `serve-mix`: an in-process serve::Daemon with deployed
// defaults (request tracing on, unbounded store) and jobs = 2, driven
// over loopback by one open-loop generator thread on three keep-alive
// connections.
//
//  * hit stream  — re-posts a small primed hot set at a fixed rate:
//    HTTP, request parse, store lookup.
//  * cold stream — distinct single-machine cells (benign, attack without
//    ipc-flood, fault; on minix, sel4 and linux) at a fixed rate, each
//    polled with GET /result/<key> until ready: parse, queue, pool
//    execution, artifact rendering, store insert.
//
// Hot keys share all their work and cold keys share none, so a gain for
// one path that costs the other shows up. Both rates are constants of
// the workload, never calibrated at run time, so parent and change see
// the same offered load. Every request is timed from its due time.
#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <sstream>

#include "campaign/run_request.hpp"
#include "core/hash.hpp"
#include "core/jsonv.hpp"
#include "core/request.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "sim/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = mkbas::core;
namespace serve = mkbas::serve;
namespace bas = mkbas::bas;

namespace {

constexpr double kHitRate = 2000.0;  // hits per second
constexpr double kColdRate = 8.0;    // cold cells per second
constexpr double kPollUs = 2000.0;   // GET /result poll interval
constexpr double kDrainS = 20.0;     // cold keys must be ready by then
constexpr int kJobs = 2;
constexpr int kHotKeys = 4;
constexpr int kWarmHits = 200;
constexpr int kVerifySample = 3;  // cold bundles byte-compared
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Summary-artifact hash of cold cell 0 on the default seed, measured at
/// the commit that introduced this benchmark.
constexpr const char* kWitnessCold0Summary = "0c3b221f5d9e0dcd";

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

/// A fixed rotation over kind x platform (and attack kind), so every seed
/// offers the same mix; the seed picks only the cells' simulation seeds.
core::ExperimentRequest cold_request(std::uint64_t seed, std::uint64_t j) {
  static const bas::Platform kPlatforms[] = {
      bas::Platform::kMinix, bas::Platform::kSel4, bas::Platform::kLinux};
  static const char* kAttacks[] = {"spoof-sensor", "spoof-actuator", "kill",
                                   "fork-bomb", "brute-force"};
  core::ExperimentRequest r;
  const std::uint64_t combo = j % 9;
  r.platform = kPlatforms[combo % 3];
  if (combo / 3 == 0) {
    r.mode = core::RequestMode::kBenign;
  } else if (combo / 3 == 1) {
    r.mode = core::RequestMode::kAttack;
    r.attack = kAttacks[(j / 9) % 5];
  } else {
    r.mode = core::RequestMode::kFault;
  }
  r.seed = mix(seed, j);
  return r;
}

namespace {

/// The hot set: one cell of each shape the daemon serves, including a
/// Linux fault cell whose exit_code 1 is a verdict, not a failure.
std::vector<core::ExperimentRequest> hot_requests(std::uint64_t seed) {
  std::vector<core::ExperimentRequest> hot(kHotKeys);
  hot[0].mode = core::RequestMode::kBenign;
  hot[0].platform = bas::Platform::kMinix;
  hot[1].mode = core::RequestMode::kAttack;
  hot[1].platform = bas::Platform::kSel4;
  hot[1].attack = "spoof-sensor";
  hot[2].mode = core::RequestMode::kFault;
  hot[2].platform = bas::Platform::kLinux;
  hot[3].mode = core::RequestMode::kFabric;
  hot[3].zones = 3;
  hot[3].attack = "spoof-write";
  for (int k = 0; k < kHotKeys; ++k) {
    hot[static_cast<std::size_t>(k)].seed = mix(seed, 1000000 + k);
  }
  return hot;
}

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

/// One histogram of a Prometheus text scrape.
struct PromHist {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
  double sum = 0.0;
  double count = 0.0;
};

PromHist prom_hist(const std::string& text, const std::string& name) {
  PromHist h;
  std::istringstream in(text);
  std::string line;
  const std::string bucket = name + "_bucket{le=\"";
  while (std::getline(in, line)) {
    if (line.rfind(bucket, 0) == 0) {
      const auto q = line.find('"', bucket.size());
      const auto sp = line.rfind(' ');
      if (q == std::string::npos || sp == std::string::npos) continue;
      const std::string le = line.substr(bucket.size(), q - bucket.size());
      h.buckets.emplace_back(le == "+Inf" ? kInf : std::stod(le),
                             std::stod(line.substr(sp + 1)));
    } else if (line.rfind(name + "_sum ", 0) == 0) {
      h.sum = std::stod(line.substr(name.size() + 5));
    } else if (line.rfind(name + "_count ", 0) == 0) {
      h.count = std::stod(line.substr(name.size() + 7));
    }
  }
  return h;
}

/// Upper bound of the first bucket holding quantile `q` (0 when empty).
double prom_quantile(const PromHist& h, double q) {
  if (h.count <= 0) return 0.0;
  for (const auto& [le, cum] : h.buckets) {
    if (cum >= q * h.count) return le;
  }
  return kInf;
}

std::uint64_t json_u64(const core::Json& root, const char* a,
                       const char* b = nullptr) {
  const core::Json* v = root.find(a);
  if (v != nullptr && b != nullptr) v = v->find(b);
  return v != nullptr && v->is_u64() ? v->as_u64() : 0;
}

/// Every HTTP exchange goes through here: counted, classified, spanned.
class Wire {
 public:
  Wire(RunResult* res, SpanLog* spans) : res_(res), spans_(spans) {}

  /// One round trip; false when the outcome is a failure.
  bool call(serve::HttpClient& c, const std::string& method,
            const std::string& target, const std::string& body,
            const std::string& lane, const std::string& id,
            serve::HttpResponse* out, double* done_us = nullptr) {
    ++res_->attempted;
    std::string err;
    const double t0 = now_us();
    const bool ok = c.request(method, target, body, out, &err);
    const double t1 = now_us();
    if (done_us != nullptr) *done_us = t1;
    spans_->add(method + " " + route(target), lane, t0, t1, id);
    const HttpOutcome o = classify_http(ok, out->status, out->body);
    if (o != HttpOutcome::kOk) {
      ++res_->failed;
      if (failures_logged_++ < 5) {
        res_->check_failures.push_back(
            method + " " + target + ": " + to_string(o) + " (" +
            std::to_string(out->status) + ") " + err);
      }
      return false;
    }
    return true;
  }

 private:
  static std::string route(const std::string& target) {
    const auto q = target.find('?');
    const std::string path = target.substr(0, q);
    const auto slash = path.find('/', 1);
    return slash == std::string::npos ? path : path.substr(0, slash);
  }
  RunResult* res_;
  SpanLog* spans_;
  int failures_logged_ = 0;
};

/// Start a daemon, prime the hot set and warm the hit path.
std::unique_ptr<serve::Daemon> start_daemon(
    const std::vector<std::string>& hot_bodies, Wire& wire, RunResult* res) {
  serve::DaemonOptions o;  // deployed defaults: tracing on, no store cap
  o.port = 0;
  o.jobs = kJobs;
  auto d = std::make_unique<serve::Daemon>(o);
  std::string err;
  if (!d->start(&err)) {
    res->fail_check("daemon start: " + err);
    return nullptr;
  }
  serve::HttpClient primer(d->port(), "primer");
  serve::HttpResponse resp;
  for (const auto& body : hot_bodies) {
    if (!wire.call(primer, "POST", "/run", body, "setup", "", &resp)) {
      return d;
    }
  }
  for (const auto& body : hot_bodies) {
    bool ready = false;
    for (int i = 0; i < 3000 && !ready; ++i) {
      if (!wire.call(primer, "POST", "/run", body, "setup", "", &resp)) break;
      ready = contains(resp.body, "\"status\":\"ready\"");
      if (!ready) sleep_until_us(now_us() + 2000.0);
    }
    if (!ready) res->fail_check("hot key never became ready");
  }
  serve::HttpClient warm(d->port(), "hot");
  for (int i = 0; i < kWarmHits; ++i) {
    wire.call(warm, "POST", "/run",
              hot_bodies[static_cast<std::size_t>(i) % hot_bodies.size()],
              "setup", "", &resp);
  }
  return d;
}

}  // namespace

RunResult run_serve_workload(const Options& opt, SpanLog& spans) {
  RunResult res;
  Wire wire(&res, &spans);

  const auto hot = hot_requests(opt.seed);
  std::vector<std::string> hot_bodies, hot_keys;
  for (const auto& r : hot) {
    hot_bodies.push_back(r.to_canonical_json());
    hot_keys.push_back(r.cell_key_hex());
  }
  const double seconds = opt.tiny ? 1.0 : opt.seconds;
  const auto n_hits = static_cast<std::uint64_t>(seconds * kHitRate);
  const auto n_cold = static_cast<std::uint64_t>(seconds * kColdRate);
  std::vector<core::ExperimentRequest> cold;
  std::vector<std::string> cold_bodies, cold_keys;
  std::set<std::string> distinct(hot_keys.begin(), hot_keys.end());
  for (std::uint64_t j = 0; j < n_cold; ++j) {
    cold.push_back(cold_request(opt.seed, j));
    cold_bodies.push_back(cold.back().to_canonical_json());
    cold_keys.push_back(cold.back().cell_key_hex());
    distinct.insert(cold_keys.back());
  }
  if (distinct.size() != hot_keys.size() + cold_keys.size()) {
    res.fail_check("generated cell keys collide");
  }

  // ---- set-up, repeated: daemon start + hot-set priming + warm hits ----
  std::vector<double> setup_s;
  std::unique_ptr<serve::Daemon> daemon;
  for (int round = 0; round < (opt.tiny ? 1 : kSetupRounds); ++round) {
    if (daemon) daemon->shutdown();
    daemon.reset();
    const double t0 = round == 0 && opt.t0_us > 0 ? opt.t0_us : now_us();
    ScopedSpan span(spans, "setup", "setup");
    daemon = start_daemon(hot_bodies, wire, &res);
    setup_s.push_back((now_us() - t0) / 1e6);
    if (!daemon) return res;
  }
  const int port = daemon->port();
  serve::HttpClient c_hot(port, "hot"), c_cold(port, "cold"),
      c_poll(port, "poll");
  serve::HttpResponse resp;
  wire.call(c_poll, "GET", "/metrics", "", "scrape", "", &resp);
  const double exec_us_before =
      prom_hist(resp.body, "serve_exec_wall_us").sum;

  // ---- the open loop ----
  enum Stream { kHit = 0, kCold = 1, kPoll = 2 };
  OpenLoop loop(now_us, sleep_until_us);
  const double start = now_us() + 1000.0;
  for (std::uint64_t i = 0; i < n_hits; ++i) {
    loop.schedule({start + static_cast<double>(i) * 1e6 / kHitRate, kHit, i});
  }
  for (std::uint64_t j = 0; j < n_cold; ++j) {
    // Offset by half a hit interval so the streams do not collide.
    loop.schedule({start + static_cast<double>(j) * 1e6 / kColdRate +
                       0.5e6 / kHitRate,
                   kCold, j});
  }
  const double drain_deadline = start + (seconds + kDrainS) * 1e6;
  std::vector<double> hit_us, ttr_ms(n_cold, kInf), accept_us;
  std::vector<double> cold_due(n_cold, 0.0);
  std::vector<bool> cold_done(n_cold, false);
  std::uint64_t polls = 0;
  hit_us.reserve(n_hits);

  const OpenLoop::Send send = [&](const OpenLoop::Event& e, double) {
    double done = 0.0;
    if (e.stream == kHit) {
      const std::size_t k = e.index % hot_bodies.size();
      const bool sent = wire.call(c_hot, "POST", "/run", hot_bodies[k],
                                  "hit", hot_keys[k], &resp, &done);
      const bool ready =
          sent && resp.status == 200 &&
          contains(resp.body, "\"status\":\"ready\"") &&
          contains(resp.body, "\"key\":\"" + hot_keys[k] + "\"");
      if (sent && !ready) {
        res.fail_check("hit on " + hot_keys[k] + " not answered 200 ready");
      }
      hit_us.push_back(ready ? done - e.due_us : kInf);
    } else if (e.stream == kCold) {
      const std::size_t j = e.index;
      cold_due[j] = e.due_us;
      if (wire.call(c_cold, "POST", "/run", cold_bodies[j], "cold",
                    cold_keys[j], &resp, &done)) {
        accept_us.push_back(done - e.due_us);
        loop.schedule({done + kPollUs, kPoll, j});
      } else {
        cold_done[j] = true;  // failed; its TTR stays +inf
      }
    } else {
      const std::size_t j = e.index;
      ++polls;
      if (!wire.call(c_poll, "GET", "/result/" + cold_keys[j], "", "poll",
                     cold_keys[j], &resp, &done)) {
        cold_done[j] = true;
      } else if (resp.status == 200) {
        cold_done[j] = true;
        ttr_ms[j] = (done - cold_due[j]) / 1e3;
        spans.add("cold time-to-result", "cold-ttr", cold_due[j], done,
                  cold_keys[j]);
      } else {
        loop.schedule({done + kPollUs, kPoll, j});
      }
    }
    return done;
  };
  while (!loop.empty() && loop.next_due() < drain_deadline) loop.step(send);
  for (std::uint64_t j = 0; j < n_cold; ++j) {
    if (!cold_done[j]) {
      res.fail_check("cold key " + cold_keys[j] +
                     " not ready by the drain deadline");
    }
  }

  // ---- after the window: counts, scrapes, byte-identity checks ----
  const std::uint64_t executions = daemon->executions();
  if (executions != hot_keys.size() + cold_keys.size()) {
    res.fail_check("executions " + std::to_string(executions) +
                   " != distinct keys " +
                   std::to_string(hot_keys.size() + cold_keys.size()));
  }
  wire.call(c_poll, "GET", "/metrics", "", "scrape", "", &resp);
  const PromHist qwait = prom_hist(resp.body, "serve_queue_wait_us");
  const PromHist exec = prom_hist(resp.body, "serve_exec_wall_us");
  const double exec_s = (exec.sum - exec_us_before) / 1e6;
  wire.call(c_poll, "GET", "/status", "", "scrape", "", &resp);
  core::Json status;
  std::string jerr;
  double store_hits = 0, store_misses = 0, store_coalesced = 0;
  if (core::json_parse(resp.body, &status, &jerr)) {
    store_hits = static_cast<double>(json_u64(status, "hits"));
    store_misses = static_cast<double>(json_u64(status, "misses"));
    store_coalesced = static_cast<double>(json_u64(status, "coalesced"));
  } else {
    res.fail_check("GET /status did not parse: " + jerr);
  }

  // Simulated work of the cold cells, from their own metrics artifacts.
  std::uint64_t kentries = 0;
  for (std::uint64_t j = 0; j < n_cold; ++j) {
    if (!wire.call(c_poll, "GET", "/result/" + cold_keys[j] +
                                      "?artifact=metrics",
                   "", "verify", cold_keys[j], &resp)) {
      continue;
    }
    core::Json m;
    if (core::json_parse(resp.body, &m, &jerr)) {
      kentries += json_u64(m, "counters", "sim.kernel_entries");
    }
  }
  if (n_cold > 0 && kentries == 0) res.fail_check("cold cells did no work");

  // A seeded sample of cold bundles must equal an in-process execution
  // byte for byte, and /replay must agree.
  std::vector<std::uint64_t> sample;
  mkbas::sim::Rng pick(mix(opt.seed, 77));
  if (n_cold > 0) sample.push_back(opt.seed == kDefaultSeed ? 0 : pick.next_below(n_cold));
  while (sample.size() < std::min<std::uint64_t>(kVerifySample, n_cold)) {
    const std::uint64_t j = pick.next_below(n_cold);
    if (std::find(sample.begin(), sample.end(), j) == sample.end()) {
      sample.push_back(j);
    }
  }
  for (const std::uint64_t j : sample) {
    core::ExperimentResponse direct;
    try {
      direct = core::run_request(cold[j], core::all_deterministic_artifacts());
    } catch (const std::exception& e) {
      res.fail_check(std::string("in-process run_request threw: ") + e.what());
      continue;
    }
    for (const auto& [name, bytes] : direct.artifacts) {
      if (wire.call(c_poll, "GET",
                    "/result/" + cold_keys[j] + "?artifact=" + name, "",
                    "verify", cold_keys[j], &resp) &&
          resp.body != bytes) {
        res.fail_check(cold_keys[j] + "/" + name +
                       ": served bytes differ from in-process run_request");
      }
    }
    if (wire.call(c_poll, "GET", "/replay/" + cold_keys[j], "", "verify",
                  cold_keys[j], &resp) &&
        !contains(resp.body, "\"identical\":true")) {
      res.fail_check(cold_keys[j] + ": /replay not identical");
    }
    if (j == 0 && opt.seed == kDefaultSeed && !opt.tiny) {
      const auto it = direct.artifacts.find("summary");
      const std::string h =
          it == direct.artifacts.end() ? "" : core::hex64(core::fnv1a(it->second));
      if (h != kWitnessCold0Summary) {
        res.fail_check("default-seed witness: cold cell 0 summary hash " + h +
                       " (want " + kWitnessCold0Summary + ")");
      }
    }
  }
  daemon->shutdown();

  // ---- metrics ----
  const Percentile hit50 = percentile(hit_us, 50), hit99 = percentile(hit_us, 99);
  const Percentile cold50 = percentile(ttr_ms, 50),
                   cold90 = percentile(ttr_ms, 90);
  const Percentile late99 = percentile(loop.lateness_us(), 99);
  const Percentile late100 = percentile(loop.lateness_us(), 100);
  res.note_percentile("hit p99", hit99);
  res.note_percentile("cold p90", cold90);
  res.note_percentile("generator lateness p99", late99);
  const double rate = exec_s > 0 ? static_cast<double>(kentries) / exec_s : 0.0;
  res.set_setup(setup_s);
  res.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  res.metrics["throughput_per_s"] = {rate, "1/s"};
  res.metrics["p50_ms"] = {cold50.value, "ms"};
  res.named["peak_rss_mb"] = res.metrics["peak_rss_mb"];
  res.named["hit_p50_us"] = {hit50.value, "us"};
  res.named["hit_p99_us"] = {hit99.value, "us"};
  res.named["cold_p50_ms"] = {cold50.value, "ms"};
  res.named["cold_p90_ms"] = {cold90.value, "ms"};
  res.named["executor_kentries_per_s"] = {rate / 1e3, "1/s"};
  res.cost = hit50.value;

  const double lookups = store_hits + store_misses + store_coalesced;
  const double nh = static_cast<double>(hit_us.size());
  const double nc = static_cast<double>(n_cold);
  res.layers = {
      {"serve.queue_wait_ms.p50", prom_quantile(qwait, 0.5) / 1e3, "ms",
       qwait.count, "cells queued", "cold_p90_ms", "serve-mix"},
      {"serve.queue_wait_ms.p90", prom_quantile(qwait, 0.9) / 1e3, "ms",
       qwait.count, "cells queued", "cold_p90_ms", "serve-mix"},
      {"serve.exec_ms.p50", prom_quantile(exec, 0.5) / 1e3, "ms", exec.count,
       "cells executed", "p50_ms (cold_p50_ms)", "serve-mix"},
      {"serve.exec_ms.p90", prom_quantile(exec, 0.9) / 1e3, "ms", exec.count,
       "cells executed", "cold_p90_ms", "serve-mix"},
      {"serve.accept_under_load_us.p50", percentile(accept_us, 50).value, "us",
       static_cast<double>(accept_us.size()), "cold POSTs",
       "p50_ms (cold_p50_ms)", "serve-mix"},
      {"serve.executor_utilization", kColdRate * exec_s / nc / kJobs, "frac",
       nc, "cold cells", "p50_ms (cold_p50_ms)", "serve-mix"},
      {"serve.polls_per_cold", nc > 0 ? static_cast<double>(polls) / nc : 0.0,
       "count", nc, "cold cells", "p50_ms (cold_p50_ms)", "serve-mix"},
      {"serve.store_hit_ratio", lookups > 0 ? store_hits / lookups : 0.0,
       "frac", lookups, "lookups", "hit_p50_us", "serve-mix"},
      {"serve.store.hits", store_hits, "count", 0, "", "-", "serve-mix"},
      {"serve.store.misses", store_misses, "count", 0, "", "-", "serve-mix"},
      {"serve.store.coalesced", store_coalesced, "count", 0, "", "-",
       "serve-mix"},
      {"serve.hit_p50_us", hit50.value, "us", nh, "hits", "hit_p50_us",
       "serve-mix"},
      {"serve.hit_p99_us", hit99.value, "us", nh, "hits", "hit_p99_us",
       "serve-mix"},
      {"bench.gen_late_p99_us", late99.value, "us",
       static_cast<double>(late99.n), "requests", "validity of serve-mix",
       "serve-mix"},
      {"bench.gen_late_max_us", late100.value, "us",
       static_cast<double>(late100.n), "requests", "validity of serve-mix",
       "serve-mix"},
      // Counts and time bases for the probes' share estimates.
      {"serve.hits", nh, "count", 0, "", "-", "serve-mix"},
      {"serve.posts", nh + nc, "count", 0, "", "-", "serve-mix"},
      {"serve.cold_cells", nc, "count", 0, "", "-", "serve-mix"},
      {"serve.window_s", seconds, "s", 0, "", "-", "serve-mix"},
      {"serve.exec_s", exec_s, "s", 0, "", "-", "serve-mix"},
  };
  return res;
}

}  // namespace perfbench
