// Workload `city`: run_fabric on the city-scale building — 10,000
// gateway-only zones in a tree with 25 floor head-ends, capture,
// net_trace, trace_spans and collect off, 10 virtual minutes. Closed
// loop, one thread.
//
// Fabric sync (lookahead, calendar queue, next_event_time), BACnet
// routing and secure-proxy checks do nearly all the work. No processes,
// kernels or obs recording run here, so this workload bypasses the
// layers `campaign` exercises, and `campaign` bypasses these.
#include "core/fabric_run.hpp"
#include "core/hash.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = mkbas::core;
namespace sim = mkbas::sim;

namespace {

/// Trace hash and delivered datagrams of the city on the default seed
/// (bench_net's city arm, seed 5).
constexpr const char* kWitnessTraceHash = "ccfe88e052ecc199";
constexpr std::uint64_t kWitnessDelivered = 206753;

core::FabricOptions city_options(std::uint64_t seed, bool tiny) {
  core::FabricOptions city;
  city.zones = tiny ? 200 : 10000;
  city.topology = mkbas::net::TopologySpec::Kind::kTree;
  city.floors = tiny ? 4 : 25;
  city.seed = seed;
  city.duration = sim::minutes(tiny ? 2 : 10);
  city.lite_zones = true;
  city.capture = false;
  city.net_trace = false;
  city.trace_spans = false;
  city.collect = false;
  return city;
}

void check_run(const core::FabricRunResult& r, RunResult* res) {
  if (r.causality_violations != 0) {
    res->fail_check("causality violations: " +
                    std::to_string(r.causality_violations));
  }
  const std::uint64_t accounted = r.delivered + r.drop_loss +
                                  r.drop_partition + r.drop_overflow +
                                  r.drop_unroutable + r.pending;
  if (r.posted != accounted) {
    res->fail_check("posted " + std::to_string(r.posted) +
                    " != delivered + drops + pending " +
                    std::to_string(accounted));
  }
  if (r.delivered == 0) res->fail_check("nothing delivered");
}

}  // namespace

RunResult run_city_workload(const Options& opt, SpanLog& spans) {
  RunResult res;
  const core::FabricOptions city = city_options(opt.seed, opt.tiny);

  // ---- set-up, repeated: a warm-up of the same city over two virtual
  // minutes builds and tears down all 10k nodes once ----
  std::vector<double> setup_s;
  for (int round = 0; round < (opt.tiny ? 1 : kSetupRounds); ++round) {
    const double t0 = round == 0 && opt.t0_us > 0 ? opt.t0_us : now_us();
    ScopedSpan span(spans, "setup", "main");
    core::FabricOptions warm = city;
    warm.seed = opt.seed + 1000;
    warm.duration = sim::minutes(2);
    const auto r = core::run_fabric(warm);
    if (r.delivered == 0) res.fail_check("warm-up city delivered nothing");
    setup_s.push_back((now_us() - t0) / 1e6);
  }

  // ---- timed loop ----
  std::vector<double> rates, run_ms;
  std::string first_hash;
  core::FabricRunResult first;
  int iterations = 0;
  const auto start = Clock::now();
  do {
    const std::string id = "run-" + std::to_string(iterations);
    ++res.attempted;
    try {
      const double t0 = now_us();
      core::FabricRunResult r;
      {
        ScopedSpan span(spans, "core::run_fabric", "main", id);
        r = core::run_fabric(city);
      }
      const double secs = (now_us() - t0) / 1e6;
      const std::string hash = core::hex64(r.trace_hash);
      check_run(r, &res);
      if (iterations == 0) {
        first_hash = hash;
        first = r;
        if (opt.seed == kDefaultSeed && !opt.tiny &&
            (hash != kWitnessTraceHash || r.delivered != kWitnessDelivered)) {
          res.fail_check("default-seed witness: trace hash " + hash +
                         ", delivered " + std::to_string(r.delivered) +
                         " (want " + kWitnessTraceHash + ", " +
                         std::to_string(kWitnessDelivered) + ")");
        }
      } else if (hash != first_hash) {
        res.fail_check(id + ": trace hash " + hash + " differs from run 0");
      }
      rates.push_back(static_cast<double>(r.delivered) / secs);
      run_ms.push_back(secs * 1e3);
    } catch (const std::exception& e) {
      res.fail_check(id + ": exception: " + e.what());
    }
    ++iterations;
  } while (!opt.tiny && seconds_between(start, Clock::now()) < opt.seconds);

  const Percentile p50 = percentile(run_ms, 50), p90 = percentile(run_ms, 90);
  res.note_percentile("run_fabric wall p90", p90);
  const double rate = median(rates);
  res.set_setup(setup_s);
  res.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  res.metrics["throughput_per_s"] = {rate, "1/s"};
  res.metrics["p50_ms"] = {p50.value, "ms"};
  res.named["city_datagrams_per_s"] = {rate, "1/s"};
  res.named["peak_rss_mb"] = res.metrics["peak_rss_mb"];
  res.named["run_fabric_p50_ms"] = {p50.value, "ms"};
  res.named["run_fabric_p90_ms"] = {p90.value, "ms"};
  res.cost = rate > 0 ? 1.0 / rate : 0.0;

  res.layers = {
      {"net.delivered", static_cast<double>(first.delivered), "count", 0, "",
       "-", "city"},
      {"net.posted", static_cast<double>(first.posted), "count", 0, "", "-",
       "city"},
      {"net.drop_overflow", static_cast<double>(first.drop_overflow), "count",
       0, "", "-", "city"},
      {"net.floor_covs", static_cast<double>(first.floor_covs), "count", 0,
       "", "-", "city"},
      {"net.nodes", static_cast<double>(first.nodes), "count", 0, "", "-",
       "city"},
  };
  return res;
}

}  // namespace perfbench
