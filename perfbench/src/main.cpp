// perfbench — the repo benchmark's measuring program. run.py builds it
// from the checkout's sources and runs it; see perfbench/README.md.
//
//   perfbench run --workload campaign|city|serve-mix --seed N
//                 --seconds S --trace 0|1 [--t0-us T] [--spans-out PATH]
//   perfbench selftest
//
// Untraced runs print the workload's end-to-end metrics; traced runs
// also time every layer's probe, record spans around each call into a
// layer and print the per-layer ledger. The last stdout line is always
// the result object {"correct","attempted","failed","metrics"}.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

RunResult run_workload(const Options& opt, SpanLog& spans) {
  if (opt.workload == "campaign") return run_campaign_workload(opt, spans);
  if (opt.workload == "city") return run_city_workload(opt, spans);
  return run_serve_workload(opt, spans);
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ",";
    out += "\"" + json_escape(name) + "\":{\"unit\":\"" +
           json_escape(metric.unit) + "\",\"value\":" +
           json_number(metric.value) + "}";
  }
  return out + "}";
}

std::string strings_json(const std::vector<std::string>& v) {
  std::string out = "[";
  for (const auto& s : v) {
    if (out.size() > 1) out += ",";
    out += "\"" + json_escape(s) + "\"";
  }
  return out + "]";
}

LayerRow* find_row(std::vector<LayerRow>& rows, const std::string& name) {
  for (auto& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

/// Estimated share of a workload's time spent in one probed call: ns per
/// call x the workload's own count of that call, over the time the calls
/// ran in. Shares overlap (a sendrec includes its fiber switches).
void estimate_shares(const std::string& workload, const RunResult& run,
                     std::vector<LayerRow>* rows) {
  auto value = [&](const std::string& name) {
    const LayerRow* r = find_row(*rows, name);
    return r != nullptr ? r->value : 0.0;
  };
  auto share = [&](const std::string& probe, const std::string& count,
                   double seconds) {
    LayerRow* p = find_row(*rows, probe);
    const LayerRow* c = find_row(*rows, count);
    if (p == nullptr || c == nullptr || seconds <= 0) return;
    const double scale = p->unit == "us" ? 1e3 : p->unit == "ms" ? 1e6 : 1.0;
    p->base = c->value;
    p->base_what = count;
    p->share_pct = p->value * scale * c->value / (seconds * 1e9) * 100.0;
  };
  if (workload == "campaign") {
    // Summed cell time: where every one of these calls runs.
    const double cell_s = value("campaign.cells_s");
    share("sim.fiber_switch_ns", "sim.context_switches", cell_s);
    share("minix.sendrec_ns", "minix.ipc.messages", cell_s);
    share("sel4.call_reply_ns", "sel4.ipc.messages", cell_s);
    share("linuxsim.mq_roundtrip_ns", "linux.ipc.messages", cell_s);
    share("obs.trace_emit_ns", "obs.trace_events", cell_s);
    share("obs.span_ns", "obs.spans_begun", cell_s);
    share("obs.cell_export_ms", "campaign.cells", cell_s);
  } else if (workload == "serve-mix") {
    const double window_s = value("serve.window_s");
    share("core.parse_request_us", "serve.posts", window_s);
    share("serve.hit_rtt_us", "serve.hits", window_s);
    share("serve.accept_us", "serve.cold_cells", window_s);
    share("obs.artifact_render_ms", "serve.cold_cells", value("serve.exec_s"));
  } else if (workload == "city") {
    const auto it = run.metrics.find("p50_ms");
    const double run_s = it != run.metrics.end() ? it->second.value / 1e3 : 0;
    share("net.post_deliver_ns", "net.delivered", run_s);
  }
}

void print_ledger(const std::vector<LayerRow>& rows) {
  std::printf("\nper-layer ledger (traced run)\n");
  std::printf("%-34s %14s %-6s %12s  %-22s %s\n", "metric", "value", "unit",
              "share", "target metric", "workload");
  for (const auto& r : rows) {
    char share[32] = "-";
    if (r.share_pct >= 0) std::snprintf(share, sizeof share, "%.2f%%", r.share_pct);
    std::printf("%-34s %14.4g %-6s %12s  %-22s %s", r.name.c_str(), r.value,
                r.unit.c_str(), share, r.target.c_str(), r.workload.c_str());
    if (r.base > 0) {
      std::printf("  [base %.6g %s]", r.base, r.base_what.c_str());
    }
    std::printf("\n");
  }
}

std::string ledger_json(const std::vector<LayerRow>& rows) {
  std::string out = "[";
  for (const auto& r : rows) {
    if (out.size() > 1) out += ",";
    out += "{\"base\":" + json_number(r.base) + ",\"base_what\":\"" +
           json_escape(r.base_what) + "\",\"name\":\"" + json_escape(r.name) +
           "\",\"share_pct\":" +
           (r.share_pct >= 0 ? json_number(r.share_pct) : "null") +
           ",\"target\":\"" + json_escape(r.target) + "\",\"unit\":\"" +
           json_escape(r.unit) + "\",\"value\":" + json_number(r.value) +
           ",\"workload\":\"" + json_escape(r.workload) + "\"}";
  }
  return out + "]";
}

int run_main(Options opt) {
  SpanLog spans;
  std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  RunResult res;
  std::map<std::string, Metric> out;
  if (!opt.trace) {
    res = run_workload(opt, spans);
    out = res.metrics;
  } else {
    // Half the time untraced, half traced: the difference in the
    // workload's primary value is the tracing overhead.
    Options half = opt;
    half.seconds = opt.seconds / 2;
    const RunResult plain = run_workload(half, spans);
    spans.set_enabled(true);
    half.t0_us = 0.0;
    res = run_workload(half, spans);
    res.correct = res.correct && plain.correct;
    res.attempted += plain.attempted;
    res.failed += plain.failed;
    res.check_failures.insert(res.check_failures.end(),
                              plain.check_failures.begin(),
                              plain.check_failures.end());
    const double overhead =
        plain.cost > 0 ? (res.cost - plain.cost) / plain.cost * 100.0 : 0.0;

    const std::vector<LayerRow> probes = run_probes(opt.seed, spans);
    std::vector<LayerRow> ledger = res.layers;
    ledger.insert(ledger.end(), probes.begin(), probes.end());
    ledger.push_back({"bench.trace_overhead_pct", overhead, "%", 0.0, "",
                      "-", opt.workload});
    estimate_shares(opt.workload, res, &ledger);
    print_ledger(ledger);
    std::printf("{\"ledger\":%s}\n", ledger_json(ledger).c_str());
    // The result carries the probes and the overhead: the rows every
    // workload's traced run produces.
    for (const auto& r : probes) out[r.name] = {r.value, r.unit};
    out["bench.trace_overhead_pct"] = {overhead, "%"};
    if (!opt.spans_out.empty()) {
      std::ofstream f(opt.spans_out);
      f << spans.to_json(host_json(opt.seed, opt.workload)) << "\n";
      if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.spans_out.c_str());
      } else {
        std::printf("spans: %zu written to %s\n", spans.size(),
                    opt.spans_out.c_str());
      }
    }
  }

  std::printf("\nend-to-end metrics (%s)\n", opt.trace ? "traced half" : "untraced");
  for (const auto& [name, m] : res.named) {
    std::printf("  %-26s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& n : res.notes) std::printf("  note: %s\n", n.c_str());
  for (const auto& f : res.check_failures) {
    std::printf("  FAILED: %s\n", f.c_str());
  }
  std::printf("{\"check_failures\":%s,\"host\":%s,\"named\":%s,\"notes\":%s}\n",
              strings_json(res.check_failures).c_str(),
              host_json(opt.seed, opt.workload).c_str(),
              metrics_json(res.named).c_str(), strings_json(res.notes).c_str());
  const bool correct = res.correct && res.failed == 0;
  std::printf("{\"attempted\":%llu,\"correct\":%s,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              static_cast<unsigned long long>(res.attempted),
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.failed),
              metrics_json(out).c_str());
  std::fflush(stdout);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload campaign|city|serve-mix "
               "--seed N --seconds S --trace 0|1 [--t0-us T] "
               "[--spans-out PATH]\n       perfbench selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc >= 2 && std::strcmp(argv[1], "selftest") == 0) {
    return run_selftest() == 0 ? 0 : 1;
  }
  if (argc < 2 || std::strcmp(argv[1], "run") != 0) return usage();
  Options opt;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (flag == "--trace") {
      opt.trace = std::atoi(v) != 0;
    } else if (flag == "--t0-us") {
      opt.t0_us = std::atof(v);
    } else if (flag == "--spans-out") {
      opt.spans_out = v;
    } else {
      return usage();
    }
  }
  if ((argc - 2) % 2 != 0 || opt.seconds <= 0 ||
      (opt.workload != "campaign" && opt.workload != "city" &&
       opt.workload != "serve-mix")) {
    return usage();
  }
  return run_main(opt);
}
