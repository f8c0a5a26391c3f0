// F — fault-injection campaign: the reference sensor-crash plan (crash
// the temperature sensor driver at t=30s, then the web interface at
// t=40s) against all three platforms.
//
// Expected shape: MINIX's reincarnation server and the CAmkES
// restart-from-spec monitor bring the loop back within a bounded virtual
// MTTR, and the reincarnated web interface still holds its *restricted*
// ACM row (the post-restart spoof probe lands 0/N). The Linux baseline
// has nothing watching its processes: the loop stays down and the room
// drifts toward the outdoor temperature.
//
// The three platform runs are independent campaign cells; pass --jobs N
// to fan them across threads (results are identical for any jobs value).
//
// The last stdout line is a machine-readable JSON summary.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"

namespace core = mkbas::core;
namespace fault = mkbas::fault;
namespace sim = mkbas::sim;

namespace {

const char* json_key(core::Platform p) {
  switch (p) {
    case core::Platform::kMinix:
      return "minix";
    case core::Platform::kSel4:
      return "sel4";
    case core::Platform::kLinux:
      return "linux";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    }
  }
  std::printf("F: fault-injection campaign — reference sensor-crash plan\n");

  const fault::FaultPlan plan = fault::reference_sensor_crash_plan();
  std::printf("plan '%s' (seed %llu):\n%s\n", plan.name().c_str(),
              static_cast<unsigned long long>(plan.seed()),
              plan.describe().c_str());

  core::RunOptions opts;
  opts.settle = sim::minutes(1);
  opts.post = sim::minutes(6);
  opts.seed = 42;
  // Start the room at the setpoint so the post-fault excursion measures
  // the outage, not the initial warm-up.
  opts.scenario.room.initial_temp_c = opts.scenario.control.initial_setpoint_c;
  // Probe the reincarnated web interface (crashed at t=40s) well after
  // every restart policy has fired.
  const sim::Time probe_at = sim::sec(70);

  // Only the rows are read: no telemetry snapshots (mask 0).
  const auto campaign = core::run_campaign(
      core::fault_campaign_cells(plan, opts, probe_at), jobs, 0);
  const std::vector<core::FaultRunResult> rows = core::fault_rows(campaign);

  std::printf("%s\n", core::format_fault_table(rows).c_str());

  std::string json = "{\"bench\":\"bench_fault_recovery\",\"plan\":\"" +
                     plan.name() + "\",\"seed\":42";
  for (const auto& r : rows) {
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        ",\"%s\":{\"recovered\":%s,\"mttr_s\":%.3f,\"restarts\":%d,"
        "\"max_ctl_gap_s\":%.3f,\"excursion_c\":%.3f,\"faults\":%llu,"
        "\"spoof_succeeded\":%s,\"spoof_attempts\":%d}",
        json_key(r.platform), r.loop_recovered ? "true" : "false",
        r.mttr < 0 ? -1.0 : sim::to_seconds(r.mttr), r.restarts,
        sim::to_seconds(r.max_ctl_gap), r.max_excursion_after_fault_c,
        static_cast<unsigned long long>(r.faults_injected),
        r.web_spoof.primitive_succeeded ? "true" : "false",
        r.web_spoof.attempts);
    json += buf;
  }
  json += "}";
  std::printf("%s\n", json.c_str());
  return 0;
}
