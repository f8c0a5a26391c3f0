// Byte-level goldens for the scenario layer: every deterministic artifact
// of a fixed list of short-window cells, pinned by its FNV-1a hash. The
// cells cover each scenario variant on each platform that builds it —
// benign, attack and fault runs of the temperature scenario (including the
// quota, acl/root, fs-log and reincarnation configurations), the Unix
// domain socket variant in both namespaces and account models, and the
// BSL-3 suite with and without a compromised management console.
//
// A failing cell prints its recomputed row in source form, so an
// intentional change re-pins by pasting; an unintentional one shows
// exactly which artifact moved.
#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "attack/attacks.hpp"
#include "bas/bsl3_scenario.hpp"
#include "bas/scenario.hpp"
#include "campaign/run_request.hpp"
#include "core/experiment.hpp"
#include "core/hash.hpp"
#include "fault/fault.hpp"
#include "obs/prometheus.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"

namespace attack = mkbas::attack;
namespace bas = mkbas::bas;
namespace core = mkbas::core;
namespace fault = mkbas::fault;
namespace minix = mkbas::minix;
namespace net = mkbas::net;
namespace obs = mkbas::obs;
namespace sim = mkbas::sim;

using attack::AttackKind;
using attack::Privilege;
using bas::Platform;

namespace {

/// Artifact names in row order. "summary" is the cell's own digest of
/// what the run did: HTTP exchanges, plant history, verdicts, counters.
const char* const kArtifacts[] = {
    "summary", "trace",    "metrics", "metrics_prom", "spans",
    "audit",   "critical", "series",  "health",       "flight"};
constexpr std::size_t kNumArtifacts = sizeof kArtifacts / sizeof kArtifacts[0];

using Artifacts = std::map<std::string, std::string>;

constexpr std::uint64_t kSeed = 5;

void appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  *out += buf;
}

/// Every machine-level export, rendered the way the runner renders it.
void render_machine(sim::Machine& m, Artifacts* out) {
  m.health().flush(m.now());
  (*out)["metrics"] = m.metrics().to_json();
  (*out)["metrics_prom"] = obs::prometheus_render(m.metrics());
  (*out)["trace"] = obs::to_chrome_trace_json(m.trace());
  (*out)["spans"] = m.spans().to_json();
  (*out)["audit"] = m.audit().to_json();
  (*out)["critical"] =
      obs::critical_path_json(m.spans(), "sensor.sample", "act.apply");
  (*out)["series"] = m.series().to_json();
  (*out)["health"] = m.health().to_json();
  (*out)["flight"] = m.flight().to_json();
  appendf(&(*out)["summary"], "switches=%llu entries=%llu\n",
          static_cast<unsigned long long>(m.context_switches()),
          static_cast<unsigned long long>(m.kernel_entries()));
}

void digest_http(const std::vector<net::HttpExchange>& exchanges,
                 std::string* out) {
  for (const auto& ex : exchanges) {
    appendf(out, "http %lld %lld %s %s %s -> %d %s\n",
            static_cast<long long>(ex.submitted),
            static_cast<long long>(ex.answered), ex.request.method.c_str(),
            ex.request.path.c_str(), ex.request.body.c_str(),
            ex.response.status, ex.response.body.c_str());
  }
}

void digest_history(const std::vector<mkbas::devices::PlantSample>& history,
                    std::string* out) {
  std::string rows;
  for (const auto& s : history) {
    appendf(&rows, "%lld %.17g %d %d\n", static_cast<long long>(s.time),
            s.true_temp_c, s.heater_on ? 1 : 0, s.alarm_on ? 1 : 0);
  }
  appendf(out, "history %zu %s\n", history.size(),
          core::hex64(core::fnv1a(rows)).c_str());
}

void digest_outcome(const attack::AttackOutcome& o, std::string* out) {
  appendf(out, "outcome attempted=%d primitive=%d attempts=%d ok=%d %s\n",
          o.attempted ? 1 : 0, o.primitive_succeeded ? 1 : 0, o.attempts,
          o.successes, o.detail.c_str());
}

/// Operator traffic for a temperature cell: status polls, a setpoint
/// step, an out-of-range setpoint, a malformed body and an unknown path.
void schedule_temp_console(sim::Machine& m, net::HttpConsole& http) {
  m.every(sim::sec(20), sim::sec(30), [&m, &http] {
    http.submit(m.now(), {"GET", "/status", ""});
  });
  m.at(sim::sec(60), [&m, &http] {
    http.submit(m.now(), {"POST", "/setpoint", "value=25.0"});
  });
  m.at(sim::sec(95), [&m, &http] {
    http.submit(m.now(), {"POST", "/setpoint", "value=99"});
  });
  m.at(sim::sec(100), [&m, &http] {
    http.submit(m.now(), {"POST", "/setpoint", "value=abc"});
  });
  m.at(sim::sec(105), [&m, &http] {
    http.submit(m.now(), {"GET", "/nope", ""});
  });
}

/// A benign temperature cell built straight from the registry.
Artifacts temp_cell(Platform p, const char* variant,
                    const bas::ScenarioConfig& cfg) {
  Artifacts out;
  sim::Machine m(kSeed);
  auto sc = bas::make_scenario(m, p, variant, cfg);
  schedule_temp_console(m, sc->http());
  bas::Plant* plant = sc->plant();
  m.at(sim::sec(150), [plant] { plant->heater.fail(); });
  m.run_until(sim::minutes(4));
  std::string& s = out["summary"];
  digest_http(sc->http().exchanges(), &s);
  digest_history(plant->coupler->history(), &s);
  appendf(&s, "restarts=%d\n", sc->restarts());
  render_machine(m, &out);
  return out;
}

bas::ScenarioConfig config(void (*tweak)(bas::ScenarioConfig&)) {
  bas::ScenarioConfig cfg;
  if (tweak != nullptr) tweak(cfg);
  return cfg;
}

core::RunOptions short_options(Artifacts* out) {
  core::RunOptions opts;
  opts.seed = kSeed;
  opts.settle = sim::sec(30);
  opts.post = sim::minutes(10) + sim::sec(10);
  opts.observe = [out](sim::Machine& m) { render_machine(m, out); };
  return opts;
}

/// One attack cell through the experiment driver (the T1 code path).
Artifacts attack_cell(Platform p, AttackKind kind, Privilege priv,
                      void (*tweak)(core::RunOptions&) = nullptr) {
  Artifacts out;
  core::RunOptions opts = short_options(&out);
  if (tweak != nullptr) tweak(opts);
  const core::AttackRow row = core::run_attack(p, kind, priv, opts);
  std::string s;
  appendf(&s, "label=%s compromised=%d %s\n", row.platform_label.c_str(),
          row.safety.physically_compromised() ? 1 : 0,
          row.safety.summary().c_str());
  digest_outcome(row.outcome, &s);
  out["summary"] = s + out["summary"];
  return out;
}

/// A fault plan that corrupts, delays and drops sensor traffic in turn.
fault::FaultPlan message_fault_plan() {
  fault::FaultPlan plan("golden-msg", 11);
  plan.corrupt_messages(sim::sec(40), sim::sec(6), "tempSensProc",
                        "tempProc");
  plan.delay_messages(sim::sec(50), sim::sec(6), "tempSensProc", "tempProc",
                      sim::msec(300));
  plan.drop_messages(sim::sec(60), sim::sec(4), "tempSensProc", "tempProc");
  return plan;
}

/// One fault cell through the experiment driver.
Artifacts fault_cell(Platform p, const fault::FaultPlan& plan) {
  Artifacts out;
  core::RunOptions opts = short_options(&out);
  opts.settle = sim::minutes(1);
  opts.post = sim::minutes(1);
  opts.scenario.room.initial_temp_c = opts.scenario.control.initial_setpoint_c;
  const core::FaultRunResult r = core::run_fault(p, plan, opts, sim::sec(70));
  std::string s;
  appendf(&s,
          "label=%s recovered=%d mttr=%lld gap=%lld restarts=%d faults=%llu "
          "excursion=%.17g %s\n",
          r.platform_label.c_str(), r.loop_recovered ? 1 : 0,
          static_cast<long long>(r.mttr),
          static_cast<long long>(r.max_ctl_gap), r.restarts,
          static_cast<unsigned long long>(r.faults_injected),
          r.max_excursion_after_fault_c, r.safety.summary().c_str());
  digest_outcome(r.web_spoof, &s);
  digest_history(r.history, &s);
  out["summary"] = s + out["summary"];
  return out;
}

/// The management-console compromise of the MINIX BSL-3 build: raw
/// messages in the suite's wire layout (fan stop, forged pressure, both
/// doors open), then a kill of the controller.
void bsl3_minix_compromise(bas::Bsl3Scenario& sc) {
  auto& k = sc.kernel();
  auto& m = sc.machine();
  const minix::Endpoint ctl = sc.endpoint_of("contCtlProc");
  const minix::Endpoint fan = sc.endpoint_of("exhaustFanProc");
  const minix::Endpoint doors = sc.endpoint_of("doorCtlProc");
  const sim::Time until = m.now() + sim::minutes(1);
  while (m.now() < until) {
    minix::Message stop_fan;
    stop_fan.m_type = bas::Bsl3Scenario::MTypes::kData;
    stop_fan.put_f64(0, 0.0);
    k.ipc_sendnb(fan, stop_fan);
    minix::Message forged;
    forged.m_type = bas::Bsl3Scenario::MTypes::kData;
    forged.put_f64(0, -35.0);
    forged.put_f64(8, -15.0);
    k.ipc_sendnb(ctl, forged);
    for (int door = 0; door < 2; ++door) {
      minix::Message open;
      open.m_type = bas::Bsl3Scenario::MTypes::kData;
      open.put_i32(0, door);
      open.put_i32(4, 1);
      k.ipc_sendnb(doors, open);
    }
    m.sleep_for(sim::msec(500));
  }
  k.pm_kill(ctl);
}

/// A BSL-3 cell: status polls, a door cycle, an interlock refusal, a
/// malformed door and an unknown path; optionally a compromise of the
/// management console at t=90s.
Artifacts bsl3_cell(Platform p, bas::Bsl3Policy policy, bool compromise) {
  Artifacts out;
  sim::Machine m(kSeed);
  bas::ScenarioConfig cfg;
  cfg.bsl3_policy = policy;
  auto sc = bas::make_scenario(m, p, "bsl3", cfg);
  net::HttpConsole& http = sc->http();
  m.every(sim::sec(10), sim::sec(15), [&m, &http] {
    http.submit(m.now(), {"GET", "/status", ""});
  });
  m.at(sim::sec(40), [&m, &http] {
    http.submit(m.now(), {"POST", "/door", "door=inner"});
  });
  m.at(sim::sec(42), [&m, &http] {
    http.submit(m.now(), {"POST", "/door", "door=outer"});
  });
  m.at(sim::sec(50), [&m, &http] {
    http.submit(m.now(), {"POST", "/door", "door=side"});
    http.submit(m.now(), {"GET", "/nope", ""});
  });
  m.at(sim::sec(70), [&m, &http] {
    http.submit(m.now(), {"POST", "/door", "door=outer"});
  });
  attack::AttackOutcome outcome;
  if (compromise) {
    sc->arm_attack(sim::sec(90), [&outcome](bas::Scenario& s) {
      if (auto* lab = dynamic_cast<bas::Bsl3Scenario*>(&s)) {
        bsl3_minix_compromise(*lab);
      } else {
        attack::make_attack(s.platform(), AttackKind::kSpoofActuator,
                            Privilege::kCodeExec, &outcome)(s);
      }
    });
  }
  m.run_until(sim::minutes(4));
  std::string& s = out["summary"];
  digest_http(http.exchanges(), &s);
  digest_outcome(outcome, &s);
  appendf(&s, "restarts=%d\n", sc->restarts());
  render_machine(m, &out);
  return out;
}

struct Cell {
  const char* name;
  std::function<Artifacts()> run;
};

std::vector<Cell> cells() {
  using S = bas::ScenarioConfig;
  using O = core::RunOptions;
  const auto temp = [](Platform p, const char* variant,
                       void (*tweak)(S&) = nullptr) {
    return [p, variant, tweak] { return temp_cell(p, variant, config(tweak)); };
  };
  const auto atk = [](Platform p, AttackKind k, Privilege priv,
                      void (*tweak)(O&) = nullptr) {
    return [p, k, priv, tweak] { return attack_cell(p, k, priv, tweak); };
  };
  const auto flt = [](Platform p, fault::FaultPlan (*plan)()) {
    return [p, plan] { return fault_cell(p, plan()); };
  };
  const auto lab = [](Platform p, bas::Bsl3Policy policy, bool compromise) {
    return [p, policy, compromise] { return bsl3_cell(p, policy, compromise); };
  };
  const auto ref_plan = [] { return fault::reference_sensor_crash_plan(); };
  constexpr Platform kMinix = Platform::kMinix;
  constexpr Platform kSel4 = Platform::kSel4;
  constexpr Platform kLinux = Platform::kLinux;
  constexpr Privilege kExec = Privilege::kCodeExec;
  constexpr Privilege kRoot = Privilege::kRoot;
  constexpr auto kEnforced = bas::Bsl3Policy::kAcmEnforced;
  constexpr auto kPermissive = bas::Bsl3Policy::kPermissive;
  return {
      // ---- temperature, benign ----
      {"minix_benign", temp(kMinix, "temp")},
      {"minix_benign_quota",
       temp(kMinix, "temp", [](S& c) { c.enable_quotas = true; })},
      {"minix_benign_fslog",
       temp(kMinix, "temp", [](S& c) { c.enable_fs_log = true; })},
      {"minix_benign_rs",
       temp(kMinix, "temp", [](S& c) { c.enable_reincarnation = true; })},
      {"sel4_benign", temp(kSel4, "temp")},
      {"sel4_benign_restart",
       temp(kSel4, "temp", [](S& c) { c.enable_reincarnation = true; })},
      {"linux_benign", temp(kLinux, "temp")},
      {"linux_benign_acl",
       temp(kLinux, "temp", [](S& c) { c.linux_separate_accounts = true; })},
      // ---- temperature over Unix domain sockets ----
      {"uds_fs_shared", temp(kLinux, "uds")},
      {"uds_fs_separate",
       temp(kLinux, "uds", [](S& c) { c.linux_separate_accounts = true; })},
      {"uds_abstract_shared",
       temp(kLinux, "uds", [](S& c) { c.uds_abstract_namespace = true; })},
      {"uds_abstract_separate", temp(kLinux, "uds",
                                     [](S& c) {
                                       c.uds_abstract_namespace = true;
                                       c.linux_separate_accounts = true;
                                     })},
      // ---- temperature, attacks ----
      {"minix_spoof_sensor", atk(kMinix, AttackKind::kSpoofSensor, kExec)},
      {"minix_spoof_actuator", atk(kMinix, AttackKind::kSpoofActuator, kExec)},
      {"minix_kill", atk(kMinix, AttackKind::kKillControl, kExec)},
      {"minix_fork_bomb", atk(kMinix, AttackKind::kForkBomb, kExec)},
      {"minix_fork_bomb_quota",
       atk(kMinix, AttackKind::kForkBomb, kExec,
           [](O& o) { o.scenario.enable_quotas = true; })},
      {"minix_brute_force", atk(kMinix, AttackKind::kCapBruteForce, kExec)},
      {"minix_flood", atk(kMinix, AttackKind::kIpcFlood, kExec)},
      {"minix_root_spoof_sensor", atk(kMinix, AttackKind::kSpoofSensor, kRoot)},
      {"sel4_spoof_sensor", atk(kSel4, AttackKind::kSpoofSensor, kExec)},
      {"sel4_spoof_actuator", atk(kSel4, AttackKind::kSpoofActuator, kExec)},
      {"sel4_kill", atk(kSel4, AttackKind::kKillControl, kExec)},
      {"sel4_fork_bomb", atk(kSel4, AttackKind::kForkBomb, kExec)},
      {"sel4_brute_force", atk(kSel4, AttackKind::kCapBruteForce, kExec)},
      {"sel4_flood", atk(kSel4, AttackKind::kIpcFlood, kExec)},
      {"linux_spoof_sensor", atk(kLinux, AttackKind::kSpoofSensor, kExec)},
      {"linux_spoof_actuator", atk(kLinux, AttackKind::kSpoofActuator, kExec)},
      {"linux_kill", atk(kLinux, AttackKind::kKillControl, kExec)},
      {"linux_fork_bomb", atk(kLinux, AttackKind::kForkBomb, kExec)},
      {"linux_brute_force", atk(kLinux, AttackKind::kCapBruteForce, kExec)},
      {"linux_flood", atk(kLinux, AttackKind::kIpcFlood, kExec)},
      {"linux_acl_spoof_sensor",
       atk(kLinux, AttackKind::kSpoofSensor, kExec,
           [](O& o) { o.scenario.linux_separate_accounts = true; })},
      {"linux_root_spoof_sensor", atk(kLinux, AttackKind::kSpoofSensor, kRoot)},
      {"linux_root_spoof_actuator",
       atk(kLinux, AttackKind::kSpoofActuator, kRoot)},
      {"linux_root_kill", atk(kLinux, AttackKind::kKillControl, kRoot)},
      {"uds_spoof_sensor", atk(kLinux, AttackKind::kSpoofSensor, kExec,
                               [](O& o) { o.scenario_variant = "uds"; })},
      // ---- temperature, faults ----
      {"minix_fault_reference", flt(kMinix, ref_plan)},
      {"sel4_fault_reference", flt(kSel4, ref_plan)},
      {"linux_fault_reference", flt(kLinux, ref_plan)},
      {"minix_fault_messages", flt(kMinix, message_fault_plan)},
      {"sel4_fault_messages", flt(kSel4, message_fault_plan)},
      {"linux_fault_messages", flt(kLinux, message_fault_plan)},
      // ---- BSL-3 containment ----
      {"bsl3_minix", lab(kMinix, kEnforced, false)},
      {"bsl3_minix_compromised", lab(kMinix, kEnforced, true)},
      {"bsl3_minix_permissive", lab(kMinix, kPermissive, false)},
      {"bsl3_minix_permissive_compromised", lab(kMinix, kPermissive, true)},
      {"bsl3_sel4", lab(kSel4, kEnforced, false)},
      {"bsl3_sel4_compromised", lab(kSel4, kEnforced, true)},
  };
}

/// FNV-1a of each artifact, in kArtifacts order: summary trace metrics
/// metrics_prom spans audit critical series health flight.
const std::map<std::string, std::string>& goldens() {
  static const std::map<std::string, std::string> table = {
    {"minix_benign",
     "faabd5d6a03991a8 394f422b7fa513f2 5c7bc744677418aa d7f8ea5ad16630ad "
     "6832701c88684a2c 7a36e2dc508d2490 541cfaf365f5e65a c2a96997d723d15f "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"minix_benign_quota",
     "faabd5d6a03991a8 394f422b7fa513f2 5c7bc744677418aa d7f8ea5ad16630ad "
     "6832701c88684a2c 7a36e2dc508d2490 541cfaf365f5e65a c2a96997d723d15f "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"minix_benign_fslog",
     "5eccb7aed3e0dec6 f539a16b6f98eaf8 5aab3846c80d4243 dc8bd5ef03c5c37a "
     "f260e25f690477e8 7a36e2dc508d2490 541cfaf365f5e65a c2a96997d723d15f "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"minix_benign_rs",
     "703be72061906341 4bd5ff48524e0f3e 5fad6f4413d47393 0c65df533134e742 "
     "20124eaea77ef06d 7a36e2dc508d2490 541cfaf365f5e65a c2a96997d723d15f "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"sel4_benign",
     "aca924bf5312baad b53007fd629a6efd ebad56dae8daca9a 6ab45e3efa15bec9 "
     "9851e26a07f749a7 7a36e2dc508d2490 edfa469449c41394 770e45eda584b77a "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"sel4_benign_restart",
     "ac8f06c73ea743ee 3beac899c1b69d0f dea509c9e774b116 054133cea00cf16d "
     "d99d4e06f6439eb7 7a36e2dc508d2490 edfa469449c41394 770e45eda584b77a "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"linux_benign",
     "e55ae34fa2aef8dd 0e7364a4c53114dc 7231c645ad039de9 23402b61fc4808b0 "
     "16654ecd554535a3 7a36e2dc508d2490 b2fb15d972bb607f 9b21d6405e0eb6de "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"linux_benign_acl",
     "e55ae34fa2aef8dd 2e202c94216795c8 7231c645ad039de9 23402b61fc4808b0 "
     "16654ecd554535a3 7a36e2dc508d2490 b2fb15d972bb607f 9b21d6405e0eb6de "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"uds_fs_shared",
     "e60ada7d77232cea f96f3cafc2db81e6 4a27365345ce3578 b00f8656b672ced4 "
     "ddd9eb111e22517f d7e6fb8b24c791c4 1c5e38049f5c1664 b4778052d315a85f "
     "644defc58df38dd6 b32fb2b998862d07"},
    {"uds_fs_separate",
     "e60ada7d77232cea ca57e66c00c90d92 4a27365345ce3578 b00f8656b672ced4 "
     "ddd9eb111e22517f d7e6fb8b24c791c4 1c5e38049f5c1664 b4778052d315a85f "
     "644defc58df38dd6 b32fb2b998862d07"},
    {"uds_abstract_shared",
     "e60ada7d77232cea 44b2a473ab9b8b21 4a27365345ce3578 b00f8656b672ced4 "
     "ddd9eb111e22517f d7e6fb8b24c791c4 1c5e38049f5c1664 b4778052d315a85f "
     "644defc58df38dd6 b32fb2b998862d07"},
    {"uds_abstract_separate",
     "e60ada7d77232cea 90dea9de1b669465 4a27365345ce3578 b00f8656b672ced4 "
     "ddd9eb111e22517f d7e6fb8b24c791c4 1c5e38049f5c1664 b4778052d315a85f "
     "644defc58df38dd6 b32fb2b998862d07"},
    {"minix_spoof_sensor",
     "dd7e717f5ed5cca7 51421863fbeddaba 3f6759ccf06d7e12 b280372a46547f20 "
     "4056d4e751ea4ef5 aa21670f3fb91455 89851d610be8f0ff cbb14715a88dd3f1 "
     "3471a76c617bbba2 d530dcde2223485d"},
    {"minix_spoof_actuator",
     "fd07c357ad80e7ce 01da4f9dfd9bafff 0f6d70fbbf14cf51 6a56cd7f064632a5 "
     "d17f4d69e01ad694 d269ffcd5ec623e4 89851d610be8f0ff f26afd2c7d7009f5 "
     "dcf3ccd30bb6b78e e72e2c6b0167451d"},
    {"minix_kill",
     "f09388a053fbb6c8 295aedb0092042a6 dc0425e7137745b0 29c9a873f79d5b45 "
     "d7dde01f9214f60f 8c1fb6a419b804d5 89851d610be8f0ff 9b096fe71fe7d306 "
     "88c65db9593a5232 5c07d528b5edb87e"},
    {"minix_fork_bomb",
     "b8d4e1c06185fd70 1db4963c0af4dc35 bf99dd48eb2d9cc6 9a18c3e34f82ad8c "
     "ec47879cc44ffc4f a9c3a07a5c43a6bd 89851d610be8f0ff 9b096fe71fe7d306 "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"minix_fork_bomb_quota",
     "4500d94e2dea796c 0e538982ca7b1c58 53031786d65ee506 8458ccbcb52c2e0d "
     "8679211932c29370 16afcd3dd6d666fc 89851d610be8f0ff 9b096fe71fe7d306 "
     "88c65db9593a5232 1e08539c68b7b3a4"},
    {"minix_brute_force",
     "b9381d5433863eed 4be56244fde22c81 ac90b7bc690a084b d61df99f93f40577 "
     "d92446e2a75eb190 2ee204fdb8198fde 89851d610be8f0ff 790ac6b84e056b55 "
     "88c65db9593a5232 ea2ed368fab6a331"},
    {"minix_flood",
     "bfa65a481e1ab77c 8f200f885cb5a65f 6af466bc60f2f63b 11bb5fd6a9dd8089 "
     "4ac5d5cf9d7c8a54 af60a89e6fb50fa7 89851d610be8f0ff 9b096fe71fe7d306 "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"minix_root_spoof_sensor",
     "dd7e717f5ed5cca7 51421863fbeddaba 3f6759ccf06d7e12 b280372a46547f20 "
     "4056d4e751ea4ef5 aa21670f3fb91455 89851d610be8f0ff cbb14715a88dd3f1 "
     "3471a76c617bbba2 d530dcde2223485d"},
    {"sel4_spoof_sensor",
     "78e62d27b5f546c6 f0aecc89d89627a4 2ec1408219870ef6 8386206a03f8e5e6 "
     "9138b6edb35135b9 66edba20116dcc16 a8bf2f337a79db85 83794f8fd36a266f "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"sel4_spoof_actuator",
     "27f14bc271ee3221 3112dca7ec53b048 efb9ec031c0e8b6a 547f2e2386faab5e "
     "165c143ff4a595ff 3ab75a59c6a481bd a8bf2f337a79db85 83794f8fd36a266f "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"sel4_kill",
     "ec0f11cb2202e058 1caf32369868c746 b5c00bbf8d4be5f2 1d3a3be2eebba8b6 "
     "16bc7a8d2fa037ad 4a8a2cb864e907b5 a8bf2f337a79db85 83794f8fd36a266f "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"sel4_fork_bomb",
     "1c9369f625995412 d79d54ec1dc91db9 8a33565a9aeef356 3aa073ca04be2d1a "
     "d84888a0e3e87fec d43e85e6ba2b9d01 a8bf2f337a79db85 83794f8fd36a266f "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"sel4_brute_force",
     "7c861b470c0a7cc1 cce23a2fd1044945 0911a4fc7a4bb66f 55b2c3f67a844489 "
     "0ca6c3ace80f31a8 e6830a7553448055 a8bf2f337a79db85 83794f8fd36a266f "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"sel4_flood",
     "545caaf38a5c8f86 c4aba51b038da576 9c41b8e6597a10ee 75c4ac49cc245dd5 "
     "2312c6f641ffe47c ca42d75eef76611a 24793acc2449561d 9156459cc53930d3 "
     "ff8fcd9900445eb6 3e3c02c8cdcd2b9c"},
    {"linux_spoof_sensor",
     "34e573a4cd35a45a 7c84c0125e8534dd 3019bc3e2c50eb62 0247f2f63cb7099d "
     "aee8a31b3cf4ea8d 778b610f2badf39a dfb4bdd92558d0c8 55dfcb587ca62966 "
     "78fe91314dcb7110 b113ff9da54aa47c"},
    {"linux_spoof_actuator",
     "11e4ce35565d801e 117af12283b6433d 913fa7397ad4af46 925677924a191ff9 "
     "835005602fbb1941 299eb5bbc066dfcb dfb4bdd92558d0c8 6e00ba23b90fc2e1 "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"linux_kill",
     "c4aae7ff6858de6f f63ec886ae958163 a9cd4bf364c7e1ea 16e8219215e6df8e "
     "b95c5b5c7aaa5922 151d366bb62b0cb0 997756ce6138bd63 04a7b3905995a7db "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"linux_fork_bomb",
     "fcdeadfbf6052d82 4d8ffca0a6dd90bc b660eb7d4e9b266e dab566ba10046a57 "
     "0d051e8fd99b4e65 675080c73b2ce898 dfb4bdd92558d0c8 6e00ba23b90fc2e1 "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"linux_brute_force",
     "0f2122ee23cc037b 1cf2d0b463cdb55a 53ad1c1bd58695ba 924d10e7caad6fcd "
     "4c35dd8cf03f36fe 770291e1f38b859d dfb4bdd92558d0c8 6e00ba23b90fc2e1 "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"linux_flood",
     "36ec55ec5f1941e6 b4f212c04db3a261 2c24fb1dd9cfad58 f35432d9f00b7fc2 "
     "f42be831c587ab42 d8421eb0a2163d8c dfb4bdd92558d0c8 6e00ba23b90fc2e1 "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"linux_acl_spoof_sensor",
     "6bf6ca4374f81cc4 813fa5df76bb86ca 46935fc06d138e9a 3f719ddb998c9529 "
     "63d5340574e347a4 a0305d60fb4c1b40 dfb4bdd92558d0c8 6e00ba23b90fc2e1 "
     "88c65db9593a5232 fe8618322319ed7f"},
    {"linux_root_spoof_sensor",
     "737bdad5ab6c189c 48742a3ec9ba7b77 1cbc9e11c07ce89d e415480fe3930b10 "
     "bcf4c774ef6a66d3 be75926f385b9e71 dfb4bdd92558d0c8 4dfc34a94fb19ef6 "
     "596372d1378d6af8 f3c3e4c2dbe462da"},
    {"linux_root_spoof_actuator",
     "f33515d55c5729b2 27a9d20d4bd7d04a 8968d8e0edabc21d 3d99497d12567ea2 "
     "87236b35d7c2f8c3 eb7f633b1d23a75b dfb4bdd92558d0c8 6e00ba23b90fc2e1 "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"linux_root_kill",
     "e9f9a1959d6c2933 637373f5b58075db 1ddb884091ea0b0b df702648b7250c15 "
     "f2451a9eea754789 851ed8b0b39a12e1 997756ce6138bd63 04a7b3905995a7db "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"uds_spoof_sensor",
     "eb48b32b58ba0152 e3faab782a93f418 292752b872ca934b 1e3903fe035d705e "
     "4f62f771087d20dc 7a36e2dc508d2490 1c5e38049f5c1664 4373f5fbb4e102ee "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"minix_fault_reference",
     "f7657561f9e76da2 6940107389d75801 4e74254778b1f345 23c9b9d0d971af7c "
     "6298f491862533b9 4a53159e6ee09ffc f9da45361ddd997f 0970582e23c1b532 "
     "c15f6f0c7adf5e60 8023a5422bee7d1c"},
    {"sel4_fault_reference",
     "11d2c1db4288f76e 354567293716686a 4bf1a99f399ad093 c9c81fa43e68d86a "
     "47e27f4870831954 c431953d95feb895 d57598ad2a9d2fd7 1f1a861ecb03afb6 "
     "11d9540bb9875aaa 2565c3be5e906ceb"},
    {"linux_fault_reference",
     "54c799598de6e18b 55406d4e5696b630 23e9c53c4905821d 532dad929ab90682 "
     "b9b458fe79fe31dc 7a36e2dc508d2490 48e52b30fadc1a47 700d343b6f520fe3 "
     "88c65db9593a5232 2dc1e8304ab559b6"},
    {"minix_fault_messages",
     "a6eea92c97f6df2d 1d2f8d02e5839ba0 69869e099fd1a6b2 c8072559070839c1 "
     "a23672c1705eece1 66b9d5e97f1f323a 4a5bff24dcd1db32 aad4abe080b11818 "
     "882016fbacb63235 dab67e8b73f17525"},
    {"sel4_fault_messages",
     "fcaade8be4195f17 bba92fa34fb5f732 719804141dce642b 222db6be99599be8 "
     "1cc52fc7e2b3e704 12e4ead49a255cdb 63014dcd4cd903fd 1658067ba79e694a "
     "1a7f271509e7eb6d 5bc703916b650905"},
    {"linux_fault_messages",
     "0dac7595d671726b 11e935af15544501 8bfa1bfdc25445b7 c2709d498c38a812 "
     "f31b375a5973c00f dcad5e9659dfd05e 3dbcf6fc1c433938 b37e2201b4f7766d "
     "f115cb3186dd5d6e 5f3643f0a550b97e"},
    {"bsl3_minix",
     "395f2ec6ef515871 21fe7928951c81ea b4e3703efc8d9759 3c375f868652af22 "
     "55dbb05d0e343ed4 7a36e2dc508d2490 1c5e38049f5c1664 6beb5960cb8c56ec "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"bsl3_minix_compromised",
     "c1a86b6bf902583f c7ea4fe1bf5e1d9d e85d97622119574d 11a913bb512d5d62 "
     "121dab372d3fa238 d5d0383d5eaf9f8f 1c5e38049f5c1664 024b685d699cb733 "
     "88c65db9593a5232 10417746b28c36e5"},
    {"bsl3_minix_permissive",
     "395f2ec6ef515871 21fe7928951c81ea b4e3703efc8d9759 3c375f868652af22 "
     "55dbb05d0e343ed4 7a36e2dc508d2490 1c5e38049f5c1664 6beb5960cb8c56ec "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"bsl3_minix_permissive_compromised",
     "602f4a7c680155e4 b25df2ea933db4cd 3c98fad4aaec7efd e48c2ad45037315a "
     "a1a8e96dd2d8d240 ff3e4413881f8646 1c5e38049f5c1664 6beb5960cb8c56ec "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"bsl3_sel4",
     "92a33782b7249d0a f1726b2eec47863b fb497f2a847a6d7d 7607ffba3e8b11bf "
     "4c321c98c1917046 7a36e2dc508d2490 1c5e38049f5c1664 cc33b33676d5447c "
     "88c65db9593a5232 302c3a57e32bed36"},
    {"bsl3_sel4_compromised",
     "81c2343133f0f05c 2f9a42a6b1ed2bab fb497f2a847a6d7d 7607ffba3e8b11bf "
     "4c321c98c1917046 7a36e2dc508d2490 1c5e38049f5c1664 cc33b33676d5447c "
     "88c65db9593a5232 302c3a57e32bed36"},
  };
  return table;
}

class ScenarioGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScenarioGolden, ArtifactsMatch) {
  const std::vector<Cell> all = cells();
  const Cell& cell = all.at(GetParam());
  const auto golden = goldens().find(cell.name);
  ASSERT_NE(golden, goldens().end()) << cell.name << ": no golden row";
  const Artifacts got = cell.run();
  std::istringstream want(golden->second);
  std::string row = "    {\"" + std::string(cell.name) + "\",";
  bool same = true;
  for (std::size_t i = 0; i < kNumArtifacts; ++i) {
    const auto it = got.find(kArtifacts[i]);
    ASSERT_NE(it, got.end()) << cell.name << ": no " << kArtifacts[i];
    const std::string have = core::hex64(core::fnv1a(it->second));
    std::string w;
    want >> w;
    EXPECT_EQ(w, have) << cell.name << ": " << kArtifacts[i] << " moved";
    same = same && w == have;
    row += (i % 4 == 0 ? "\n     \"" : "") + have +
           (i + 1 == kNumArtifacts ? "\"},"
                                   : (i % 4 == 3 ? " \"" : " "));
  }
  if (!same) ADD_FAILURE() << "recomputed row:\n" << row;
}

INSTANTIATE_TEST_SUITE_P(Cells, ScenarioGolden,
                         ::testing::Range<std::size_t>(0, cells().size()),
                         [](const auto& info) {
                           return std::string(cells().at(info.param).name);
                         });

}  // namespace
