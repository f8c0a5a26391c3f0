#pragma once

#include <functional>
#include <string>
#include <vector>

#include "attack/attacks.hpp"
#include "bas/scenario.hpp"
#include "core/safety.hpp"
#include "fault/fault.hpp"
#include "net/http.hpp"

namespace mkbas::core {

/// The three platforms of the paper's comparison. The enum itself lives
/// with the scenario registry; core re-exports it so existing callers
/// keep spelling core::Platform.
using Platform = bas::Platform;
using bas::to_string;

/// Parameters shared by benign and attack runs.
struct RunOptions {
  bas::ScenarioConfig scenario{};
  /// Which registered scenario variant to instantiate ("temp", "uds", ...).
  std::string scenario_variant = "temp";
  sim::Duration settle = sim::minutes(12);  // before the compromise
  sim::Duration post = sim::minutes(20);    // after the compromise
  std::uint64_t seed = 1;
  /// Called with the machine after the run finishes but before teardown —
  /// the hook through which callers snapshot the metrics registry or
  /// export the trace (the scenario and its kernel still exist here).
  std::function<void(sim::Machine&)> observe;
};

/// Result of one benign run (FIG2): ground-truth history plus the served
/// HTTP traffic and kernel statistics.
struct BenignRun {
  Platform platform = Platform::kMinix;
  std::vector<devices::PlantSample> history;
  std::vector<net::HttpExchange> http;
  SafetyReport safety;
  std::uint64_t context_switches = 0;
  std::uint64_t kernel_entries = 0;
};

/// The Fig. 2 workload: settle at the initial setpoint, an operator
/// setpoint step via HTTP at t=10min, a heater hardware failure at
/// t=30min (alarm must fire), repair at t=45min, end at t=60min.
BenignRun run_benign(Platform platform, const RunOptions& opts = {});

/// One row of the §IV.D attack-outcome matrix (bench T1).
struct AttackRow {
  Platform platform = Platform::kMinix;
  std::string platform_label;  // includes config variant
  attack::AttackKind kind = attack::AttackKind::kSpoofSensor;
  attack::Privilege privilege = attack::Privilege::kCodeExec;
  attack::AttackOutcome outcome;
  SafetyReport safety;
};

/// Run a single platform × attack × privilege experiment.
AttackRow run_attack(Platform platform, attack::AttackKind kind,
                     attack::Privilege priv, const RunOptions& opts = {});

/// Render rows as the aligned text table bench T1 prints.
std::string format_attack_table(const std::vector<AttackRow>& rows);

/// Result of one fault-injection campaign: a FaultPlan armed against one
/// platform, with recovery judged from the controller's own trace events
/// and the plant's ground-truth history.
struct FaultRunResult {
  Platform platform = Platform::kMinix;
  std::string platform_label;
  std::vector<devices::PlantSample> history;
  SafetyReport safety;
  /// Earliest injection in the plan; recovery is measured from here.
  sim::Time fault_time = 0;
  /// The control loop was emitting samples again at the end of the run.
  bool loop_recovered = false;
  /// Virtual time from the fault until the loop's longest post-fault
  /// outage ended (-1 when the loop never came back).
  sim::Duration mttr = -1;
  /// Longest gap between consecutive ctl.sample events after the fault.
  sim::Duration max_ctl_gap = 0;
  /// Reincarnation-server / restart-from-spec respawns (always 0 on Linux).
  int restarts = 0;
  std::uint64_t faults_injected = 0;
  /// Worst |true temperature - setpoint| after the fault (control-loop
  /// excursion; the physical cost of the outage).
  double max_excursion_after_fault_c = 0.0;
  /// Outcome of the optional post-fault sensor-spoof probe (attempted is
  /// false when no probe ran — e.g. the web interface stayed dead).
  attack::AttackOutcome web_spoof;
};

/// Run `plan` against one platform. MINIX boots the reincarnation server
/// and seL4/CAmkES the restart-from-spec monitor; the Linux baseline is
/// left as deployed (no recovery mechanism) for contrast. When
/// `spoof_probe_at` >= 0 the web interface is compromised at that time
/// with a code-exec sensor-spoof — if the web process was crashed and
/// reincarnated in between, the probe checks that the restarted process
/// still holds its original *restricted* ACM row (spoofs must stay 0/N).
FaultRunResult run_fault(Platform platform, const fault::FaultPlan& plan,
                         const RunOptions& opts = {},
                         sim::Time spoof_probe_at = -1);

/// Render campaign results as an aligned text table (bench F).
std::string format_fault_table(const std::vector<FaultRunResult>& rows);

}  // namespace mkbas::core
