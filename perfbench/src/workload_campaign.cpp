// Workload `campaign`: the paper's experiments from spawn to merged
// artifacts. Closed loop, one thread driving: each iteration is one
// run_campaign(cells, jobs) followed by summary_json().
//
// Cells (seeded): the 31-cell T1 attack matrix, a Fig. 2 benign sweep of
// 8 seeds on each of MINIX, seL4 and Linux, and the reference fault
// campaign on all three. It exercises fibers, the three kernels' IPC and
// policy checks, obs recording/export/merge, physics, AADL compile at
// scenario construction and the pool. It never touches net or serve.
#include <algorithm>
#include <map>
#include <thread>

#include "campaign/campaign.hpp"
#include "core/hash.hpp"
#include "fault/fault.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = mkbas::core;
namespace sim = mkbas::sim;

namespace {

/// Pool width: fixed at four (capped by the host), so parent and change
/// run the same schedule.
int campaign_jobs() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(n, 1, 4);
}

/// Merged trace hash of the full cell list on the default seed, measured
/// at the commit that introduced this benchmark.
constexpr const char* kWitnessMergedTraceHash = "3d24f03d170311e7";

/// The T1 table of EXPERIMENTS.md, as primitive_succeeded per matrix
/// cell. tests/core/test_seed_sweep.cpp proves the column seed-invariant.
const std::map<std::string, bool>& expected_t1() {
  static const std::map<std::string, bool> table = {
      {"attack/spoof-sensor-data/linux/code-exec", true},
      {"attack/spoof-sensor-data/linux/root", true},
      {"attack/spoof-sensor-data/minix/code-exec", false},
      {"attack/spoof-sensor-data/minix/root", false},
      {"attack/spoof-sensor-data/sel4/code-exec", false},
      {"attack/spoof-actuator-cmd/linux/code-exec", true},
      {"attack/spoof-actuator-cmd/linux/root", true},
      {"attack/spoof-actuator-cmd/minix/code-exec", false},
      {"attack/spoof-actuator-cmd/minix/root", false},
      {"attack/spoof-actuator-cmd/sel4/code-exec", false},
      {"attack/kill-control-proc/linux/code-exec", true},
      {"attack/kill-control-proc/linux/root", true},
      {"attack/kill-control-proc/minix/code-exec", false},
      {"attack/kill-control-proc/minix/root", false},
      {"attack/kill-control-proc/sel4/code-exec", false},
      {"attack/fork-bomb/linux/code-exec", true},
      {"attack/fork-bomb/linux/root", true},
      {"attack/fork-bomb/minix/code-exec", true},
      {"attack/fork-bomb/minix/root", true},
      {"attack/fork-bomb/minix/code-exec+quota", false},
      {"attack/fork-bomb/sel4/code-exec", false},
      {"attack/cap-brute-force/linux/code-exec", true},
      {"attack/cap-brute-force/linux/root", true},
      {"attack/cap-brute-force/minix/code-exec", false},
      {"attack/cap-brute-force/minix/root", false},
      {"attack/cap-brute-force/sel4/code-exec", false},
      {"attack/ipc-flood/linux/code-exec", false},
      {"attack/ipc-flood/linux/root", false},
      {"attack/ipc-flood/minix/code-exec", false},
      {"attack/ipc-flood/minix/root", false},
      {"attack/ipc-flood/sel4/code-exec", false},
  };
  return table;
}

core::RunOptions fault_options(std::uint64_t seed) {
  // The reference fault campaign's windows, as `campaign fault` runs it.
  core::RunOptions opts;
  opts.settle = sim::minutes(1);
  opts.post = sim::minutes(6);
  opts.seed = seed;
  opts.scenario.room.initial_temp_c = opts.scenario.control.initial_setpoint_c;
  return opts;
}

std::vector<core::CampaignCell> campaign_cells(std::uint64_t seed,
                                               bool tiny) {
  core::RunOptions base;
  base.seed = seed;
  if (tiny) {
    // The seed-sweep test's short windows: primitive verdicts are
    // recorded incrementally, so they are decided well inside them.
    base.settle = sim::sec(10);
    base.post = sim::sec(30);
  }
  std::vector<core::CampaignCell> cells = core::attack_matrix_cells(base);
  const int sweep = tiny ? 1 : 8;
  for (const auto p : {core::Platform::kMinix, core::Platform::kSel4,
                       core::Platform::kLinux}) {
    auto more = core::seed_sweep_cells(p, {}, seed, sweep);
    cells.insert(cells.end(), std::make_move_iterator(more.begin()),
                 std::make_move_iterator(more.end()));
  }
  auto faults = core::fault_campaign_cells(
      mkbas::fault::reference_sensor_crash_plan(), fault_options(seed),
      sim::sec(70));
  cells.insert(cells.end(), std::make_move_iterator(faults.begin()),
               std::make_move_iterator(faults.end()));
  return cells;
}

/// Warm-up cells for set-up: one benign and one fault cell per platform,
/// so lazy process-wide state (tag interning, stack pools, allocator
/// arenas) is in place before the first timed iteration.
std::vector<core::CampaignCell> warmup_cells(std::uint64_t seed) {
  std::vector<core::CampaignCell> cells;
  for (const auto p : {core::Platform::kMinix, core::Platform::kSel4,
                       core::Platform::kLinux}) {
    auto more = core::seed_sweep_cells(p, {}, seed + 1000, 1);
    cells.insert(cells.end(), std::make_move_iterator(more.begin()),
                 std::make_move_iterator(more.end()));
  }
  auto faults = core::fault_campaign_cells(
      mkbas::fault::reference_sensor_crash_plan(), fault_options(seed + 1000),
      sim::sec(70));
  cells.insert(cells.end(), std::make_move_iterator(faults.begin()),
               std::make_move_iterator(faults.end()));
  return cells;
}

bool microkernel(core::Platform p) {
  return p == core::Platform::kMinix || p == core::Platform::kSel4;
}

/// Output checks that hold on every seed (verdicts, not values).
void check_rows(const core::CampaignResult& r, RunResult* res) {
  const auto& t1 = expected_t1();
  std::size_t matrix_rows = 0;
  for (const auto& c : r.cells) {
    if (c.kind == core::CellKind::kAttack) {
      ++matrix_rows;
      const auto it = t1.find(c.name);
      if (it == t1.end()) {
        res->fail_check(c.name + ": not a T1 cell");
      } else if (c.attack.outcome.primitive_succeeded != it->second) {
        res->fail_check(c.name + ": primitive_succeeded differs from T1");
      }
      if (microkernel(c.attack.platform) &&
          c.attack.safety.physically_compromised()) {
        res->fail_check(c.name + ": microkernel row physically compromised");
      }
    } else if (c.kind == core::CellKind::kFault) {
      if (microkernel(c.fault.platform) && !c.fault.loop_recovered) {
        res->fail_check(c.name + ": microkernel loop did not recover");
      }
    } else if (c.kind == core::CellKind::kBenign) {
      // Fig. 2 injects a heater failure, so a temperature excursion is
      // expected; the loop must survive and the alarm must behave.
      const auto& s = c.benign.safety;
      if (!s.control_alive || s.alarm_violation || s.spurious_alarm) {
        res->fail_check(c.name + ": benign run lost control or alarm");
      }
    }
  }
  if (matrix_rows != t1.size()) {
    res->fail_check("attack matrix has " + std::to_string(matrix_rows) +
                    " rows, T1 has " + std::to_string(t1.size()));
  }
}

}  // namespace

RunResult run_campaign_workload(const Options& opt, SpanLog& spans) {
  RunResult res;
  const int jobs = campaign_jobs();

  // ---- set-up, repeated; the first round starts at process start ----
  std::vector<double> setup_s;
  std::vector<core::CampaignCell> cells;
  for (int round = 0; round < (opt.tiny ? 1 : kSetupRounds); ++round) {
    const double t0 = round == 0 && opt.t0_us > 0 ? opt.t0_us : now_us();
    ScopedSpan span(spans, "setup", "main");
    cells = campaign_cells(opt.seed, opt.tiny);
    const auto warm = core::run_campaign(warmup_cells(opt.seed), jobs);
    if (warm.cells.size() != 6) res.fail_check("warm-up campaign lost cells");
    setup_s.push_back((now_us() - t0) / 1e6);
  }

  // ---- timed loop ----
  std::vector<double> rates, iteration_ms, cell_ms;
  std::string first_summary;
  std::uint64_t kentries = 0, switches = 0, trace_events = 0, spans_begun = 0;
  std::uint64_t minix_msgs = 0, sel4_msgs = 0, linux_msgs = 0;
  double cells_s = 0, reduce_s = 0, summary_s = 0, busy = 0, span_s = 0;
  std::uint64_t steals = 0, merged_bytes = 0;
  int iterations = 0;
  const auto start = Clock::now();
  do {
    const std::string id = "iteration-" + std::to_string(iterations);
    res.attempted += cells.size();
    try {
      const double t0 = now_us();
      core::CampaignResult r;
      {
        ScopedSpan span(spans, "core::run_campaign", "main", id);
        r = core::run_campaign(cells, jobs);
      }
      const double t1 = now_us();
      std::string summary;
      {
        ScopedSpan span(spans, "CampaignResult::summary_json", "main", id);
        summary = r.summary_json();
      }
      const double t2 = now_us();
      if (iterations == 0) {
        // Counts are simulated (deterministic): take them once, outside
        // the timed interval.
        mkbas::obs::MetricsRegistry merged;
        for (const auto& c : r.cells) {
          if (c.metrics) merged.merge_from(*c.metrics);
        }
        kentries = merged.counter("sim.kernel_entries").value();
        switches = merged.counter("sim.context_switches").value();
        minix_msgs = merged.histogram("minix.ipc.latency", {1.0}).count();
        sel4_msgs = merged.histogram("sel4.ipc.latency", {1.0}).count();
        linux_msgs = merged.histogram("linux.ipc.latency", {1.0}).count();
        for (const auto& c : r.cells) {
          trace_events += c.trace_events;
          if (c.spans) spans_begun += c.spans->total_begun();
        }
        check_rows(r, &res);
        first_summary = summary;
        if (opt.seed == kDefaultSeed && !opt.tiny &&
            mkbas::core::hex64(r.merged_trace_hash) !=
                kWitnessMergedTraceHash) {
          res.fail_check("merged trace hash " +
                         mkbas::core::hex64(r.merged_trace_hash) +
                         " differs from the default-seed witness " +
                         kWitnessMergedTraceHash);
        }
        if (kentries == 0) res.fail_check("no kernel entries merged");
      } else if (summary != first_summary) {
        res.fail_check(id + ": summary_json differs from iteration 0");
      }
      rates.push_back(static_cast<double>(kentries) / ((t2 - t0) / 1e6));
      iteration_ms.push_back((t2 - t0) / 1e3);

      // Per-layer split of this iteration, from the result's own profile.
      double last_end = 0;
      for (std::size_t i = 0; i < r.cells.size(); ++i) {
        cells_s += r.cells[i].wall_seconds;
        cell_ms.push_back(r.cells[i].wall_seconds * 1e3);
        if (i < r.cell_profiles.size()) {
          const auto& p = r.cell_profiles[i];
          last_end = std::max(last_end, p.end_seconds);
          spans.add(r.cells[i].name, "worker-" + std::to_string(p.worker),
                    t0 + p.start_seconds * 1e6, t0 + p.end_seconds * 1e6, id,
                    "core::run_campaign");
        }
      }
      spans.add("reduce", "main", t0 + last_end * 1e6, t1, id,
                "core::run_campaign");
      reduce_s += (t1 - t0) / 1e6 - last_end;
      summary_s += (t2 - t1) / 1e6;
      for (const auto& w : r.worker_profiles) busy += w.busy_seconds;
      span_s += last_end * r.jobs;
      steals += r.steals;
      merged_bytes += r.merged_metrics_json.size() + r.merged_spans_json.size() +
                      r.merged_audit_json.size() + r.merged_series_json.size() +
                      r.merged_health_json.size() + r.merged_flight_json.size() +
                      summary.size();
    } catch (const std::exception& e) {
      res.fail_check(id + ": exception: " + e.what());
    }
    ++iterations;
  } while (!opt.tiny && seconds_between(start, Clock::now()) < opt.seconds);

  const double n = iterations;
  const Percentile p50 = percentile(cell_ms, 50), p90 = percentile(cell_ms, 90);
  res.note_percentile("cell wall p90", p90);
  const double rate = median(rates);
  res.set_setup(setup_s);
  res.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  res.metrics["throughput_per_s"] = {rate, "1/s"};
  res.metrics["p50_ms"] = {median(iteration_ms), "ms"};
  res.named["campaign_kentries_per_s"] = {rate / 1e3, "1/s"};
  res.named["peak_rss_mb"] = res.metrics["peak_rss_mb"];
  res.named["campaign_wall_p50_ms"] = res.metrics["p50_ms"];
  res.named["cell_wall_p50_ms"] = {p50.value, "ms"};
  res.named["cell_wall_p90_ms"] = {p90.value, "ms"};
  res.cost = rate > 0 ? 1.0 / rate : 0.0;

  const std::string tp = "throughput_per_s (campaign_kentries_per_s)";
  res.layers = {
      {"sim.kernel_entries", static_cast<double>(kentries), "count", 0, "",
       "-", "campaign"},
      {"sim.context_switches", static_cast<double>(switches), "count", 0, "",
       "-", "campaign"},
      {"minix.ipc.messages", static_cast<double>(minix_msgs), "count", 0, "",
       "-", "campaign"},
      {"sel4.ipc.messages", static_cast<double>(sel4_msgs), "count", 0, "",
       "-", "campaign"},
      {"linux.ipc.messages", static_cast<double>(linux_msgs), "count", 0, "",
       "-", "campaign"},
      {"obs.trace_events", static_cast<double>(trace_events), "count", 0, "",
       "-", "campaign"},
      {"obs.spans_begun", static_cast<double>(spans_begun), "count", 0, "",
       "-", "campaign"},
      {"campaign.cells", static_cast<double>(cells.size()), "count", 0, "",
       "-", "campaign"},
      {"campaign.cells_s", cells_s / n, "s", n, "iterations", tp, "campaign"},
      {"campaign.reduce_s", reduce_s / n, "s", n, "iterations", tp,
       "campaign"},
      {"campaign.summary_s", summary_s / n, "s", n, "iterations", tp,
       "campaign"},
      {"campaign.pool_busy_frac", span_s > 0 ? busy / span_s : 0.0, "frac", n,
       "iterations", tp, "campaign"},
      {"campaign.steals", static_cast<double>(steals) / n, "count", n,
       "iterations", tp, "campaign"},
      {"campaign.merged_bytes", static_cast<double>(merged_bytes) / n,
       "bytes", n, "iterations", "peak_rss_mb", "campaign"},
  };
  return res;
}

}  // namespace perfbench
