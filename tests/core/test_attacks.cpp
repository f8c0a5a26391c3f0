// The paper's §IV.D result as executable assertions: attacks that succeed
// on Linux are blocked on MINIX 3 + ACM and on seL4/CAmkES, and only on
// Linux do they reach the physical world.
#include <gtest/gtest.h>

#include "campaign/campaign.hpp"
#include "core/experiment.hpp"

namespace core = mkbas::core;
namespace sim = mkbas::sim;

using core::Platform;
using mkbas::attack::AttackKind;
using mkbas::attack::Privilege;

TEST(AttackLinux, SpoofedSensorDataDisruptsThePhysicalWorld) {
  const auto row = core::run_attack(Platform::kLinux,
                                    AttackKind::kSpoofSensor,
                                    Privilege::kCodeExec);
  EXPECT_TRUE(row.outcome.primitive_succeeded);
  EXPECT_GT(row.outcome.successes, 100);
  // Forged "freezing" readings force the heater on; the room overheats.
  EXPECT_TRUE(row.safety.temp_excursion);
  EXPECT_TRUE(row.safety.physically_compromised());
  EXPECT_GT(row.safety.max_temp_c, 25.0);
}

TEST(AttackLinux, RootDefeatsWellConfiguredQueues) {
  // Second simulation: per-process accounts + ACLs, but the attacker has
  // a privilege-escalation exploit.
  const auto row = core::run_attack(Platform::kLinux,
                                    AttackKind::kSpoofSensor,
                                    Privilege::kRoot);
  EXPECT_EQ(row.platform_label, "Linux(acl)");
  EXPECT_TRUE(row.outcome.primitive_succeeded);
  EXPECT_TRUE(row.safety.physically_compromised());
}

TEST(AttackLinux, WithoutRootWellConfiguredQueuesHold) {
  // Control experiment: ACL'd queues DO stop a non-root attacker — the
  // paper's "unless each process runs under a unique user account ..."
  core::RunOptions opts;
  opts.scenario.linux_separate_accounts = true;
  const auto row = core::run_attack(Platform::kLinux,
                                    AttackKind::kSpoofSensor,
                                    Privilege::kCodeExec, opts);
  EXPECT_FALSE(row.outcome.primitive_succeeded);
  EXPECT_FALSE(row.safety.physically_compromised());
}

TEST(AttackLinux, ActuatorSpoofSilencesTheAlarm) {
  const auto row = core::run_attack(Platform::kLinux,
                                    AttackKind::kSpoofActuator,
                                    Privilege::kCodeExec);
  EXPECT_TRUE(row.outcome.primitive_succeeded);
  // "the LED controlled by alarm actuator process showed everything is
  // normal" while the room overheats.
  EXPECT_TRUE(row.safety.alarm_violation);
  EXPECT_TRUE(row.safety.temp_excursion);
}

TEST(AttackLinux, RootKillsTheControlProcess) {
  const auto row = core::run_attack(Platform::kLinux,
                                    AttackKind::kKillControl,
                                    Privilege::kRoot);
  EXPECT_TRUE(row.outcome.primitive_succeeded);
  EXPECT_FALSE(row.safety.control_alive);
  EXPECT_TRUE(row.safety.physically_compromised());
}

TEST(AttackMinix, SpoofedSensorDataIsDeniedByTheAcm) {
  const auto row = core::run_attack(Platform::kMinix,
                                    AttackKind::kSpoofSensor,
                                    Privilege::kCodeExec);
  EXPECT_FALSE(row.outcome.primitive_succeeded);
  EXPECT_EQ(row.outcome.successes, 0);
  EXPECT_FALSE(row.safety.physically_compromised());
}

TEST(AttackMinix, RootChangesNothing) {
  // "with root privilege web interface still cannot spoof" (§IV.D.2).
  const auto row = core::run_attack(Platform::kMinix,
                                    AttackKind::kSpoofSensor,
                                    Privilege::kRoot);
  EXPECT_FALSE(row.outcome.primitive_succeeded);
  EXPECT_FALSE(row.safety.physically_compromised());
}

TEST(AttackMinix, ActuatorSpoofIsDenied) {
  const auto row = core::run_attack(Platform::kMinix,
                                    AttackKind::kSpoofActuator,
                                    Privilege::kCodeExec);
  EXPECT_FALSE(row.outcome.primitive_succeeded);
  EXPECT_FALSE(row.safety.alarm_violation);
}

TEST(AttackMinix, KillIsAuditedAndDenied) {
  const auto row = core::run_attack(Platform::kMinix,
                                    AttackKind::kKillControl,
                                    Privilege::kRoot);
  EXPECT_FALSE(row.outcome.primitive_succeeded);
  EXPECT_TRUE(row.safety.control_alive);
  EXPECT_NE(row.outcome.detail.find("EPERM"), std::string::npos);
}

TEST(AttackMinix, ForkBombSucceedsWithoutQuotas) {
  // The paper concedes this: "it can potentially launch a fork bomb to
  // eat up system resources. This is problematic."
  const auto row = core::run_attack(Platform::kMinix, AttackKind::kForkBomb,
                                    Privilege::kCodeExec);
  EXPECT_TRUE(row.outcome.primitive_succeeded);
  EXPECT_GT(row.outcome.successes, 50);
  // ... but the already-running control loop is not physically affected.
  EXPECT_FALSE(row.safety.physically_compromised());
}

TEST(AttackMinix, ForkQuotaStopsTheBomb) {
  // The proposed mitigation ("using the ACM to give each system call a
  // quota"), implemented and verified.
  core::RunOptions opts;
  opts.scenario.enable_quotas = true;
  const auto row = core::run_attack(Platform::kMinix, AttackKind::kForkBomb,
                                    Privilege::kCodeExec, opts);
  EXPECT_FALSE(row.outcome.primitive_succeeded);
  EXPECT_LE(row.outcome.successes, 4);  // the AADL-declared quota
}

TEST(AttackMinix, EndpointScanReachesNoCriticalProcess) {
  const auto row = core::run_attack(Platform::kMinix,
                                    AttackKind::kCapBruteForce,
                                    Privilege::kCodeExec);
  EXPECT_FALSE(row.outcome.primitive_succeeded);
  EXPECT_EQ(row.outcome.successes, 0);
}

TEST(AttackSel4, NoPathToSensorInterface) {
  const auto row = core::run_attack(Platform::kSel4,
                                    AttackKind::kSpoofSensor,
                                    Privilege::kCodeExec);
  EXPECT_FALSE(row.outcome.primitive_succeeded);
  EXPECT_FALSE(row.safety.physically_compromised());
}

TEST(AttackSel4, NoCapabilityToActuators) {
  const auto row = core::run_attack(Platform::kSel4,
                                    AttackKind::kSpoofActuator,
                                    Privilege::kCodeExec);
  EXPECT_FALSE(row.outcome.primitive_succeeded);
  EXPECT_FALSE(row.safety.alarm_violation);
}

TEST(AttackSel4, NoKillPrimitiveExists) {
  const auto row = core::run_attack(Platform::kSel4,
                                    AttackKind::kKillControl,
                                    Privilege::kCodeExec);
  EXPECT_FALSE(row.outcome.primitive_succeeded);
  EXPECT_TRUE(row.safety.control_alive);
}

TEST(AttackSel4, BruteForceFindsOnlyTheTwoPlannedCaps) {
  // §IV.D.3's experiment: "This brute-force program was unsuccessful in
  // finding any additional capabilities."
  const auto row = core::run_attack(Platform::kSel4,
                                    AttackKind::kCapBruteForce,
                                    Privilege::kCodeExec);
  EXPECT_FALSE(row.outcome.primitive_succeeded);
  EXPECT_EQ(row.outcome.successes, 2);  // setpointOut + envQuery
}

TEST(AttackSel4, NoUntypedMeansNoThreadCreation) {
  const auto row = core::run_attack(Platform::kSel4, AttackKind::kForkBomb,
                                    Privilege::kCodeExec);
  EXPECT_FALSE(row.outcome.primitive_succeeded);
}

TEST(AttackFlood, ControlAbsorbsLegitimateChannelFloodEverywhere) {
  // DoS through the allowed setpoint edge: the 1 kHz flood is delivered
  // (or queue-bounded) but the control loop keeps regulating on all
  // three platforms — range-checked setpoints bound the damage.
  for (auto p : {Platform::kLinux, Platform::kMinix, Platform::kSel4}) {
    const auto row =
        core::run_attack(p, AttackKind::kIpcFlood, Privilege::kCodeExec);
    EXPECT_FALSE(row.safety.physically_compromised())
        << core::to_string(p) << ": " << row.safety.summary();
    EXPECT_GT(row.outcome.attempts, 1000) << core::to_string(p);
  }
}

TEST(AttackMinix, ReincarnationRestoresAKilledDriver) {
  // Extension experiment: with the RS enabled, even a successful fault
  // (kernel-level kill of the heater driver, modelling a driver crash)
  // heals — MINIX's self-repairing story applied to the scenario.
  sim::Machine m;
  mkbas::bas::ScenarioConfig cfg;
  cfg.enable_reincarnation = true;
  mkbas::bas::MinixScenario sc(m, cfg);
  m.at(sim::minutes(12), [&] {
    sc.kernel().kernel_kill(sc.endpoint_of("heaterActProc"));
  });
  m.run_until(sim::minutes(30));
  EXPECT_GE(sc.kernel().restarts(), 1);
  EXPECT_TRUE(sc.kernel().is_live(sc.endpoint_of("heaterActProc")));
  const auto safety = core::check_safety(
      sc.plant()->coupler->history(), m.trace(), cfg.control,
      sim::minutes(30), cfg.sensor_period);
  EXPECT_TRUE(safety.control_alive);
  EXPECT_FALSE(safety.alarm_violation);
  // The heater keeps being commanded after the restart.
  bool commanded_after_restart = false;
  for (const auto& tr : sc.plant()->heater.transitions()) {
    if (tr.time > sim::minutes(13)) commanded_after_restart = true;
  }
  EXPECT_TRUE(commanded_after_restart);
}

TEST(AttackMatrix, ReproducesThePapersHeadline) {
  // Condensed sanity over the full matrix: on Linux at least one attack
  // reaches the physical world; on the microkernels none does.
  const auto rows =
      core::attack_rows(core::run_campaign(core::attack_matrix_cells(), 1, 0));
  int linux_compromises = 0, minix_compromises = 0, sel4_compromises = 0;
  for (const auto& r : rows) {
    if (!r.safety.physically_compromised()) continue;
    switch (r.platform) {
      case Platform::kLinux:
        ++linux_compromises;
        break;
      case Platform::kMinix:
        ++minix_compromises;
        break;
      case Platform::kSel4:
        ++sel4_compromises;
        break;
    }
  }
  EXPECT_GE(linux_compromises, 4);
  EXPECT_EQ(minix_compromises, 0);
  EXPECT_EQ(sel4_compromises, 0);
}

// The quota and account switches live in ScenarioConfig alone: what a
// caller sets in RunOptions::scenario reaches the scenario and its label.
TEST(RunOptions, ScenarioQuotaSwitchReachesTheMinixRun) {
  core::RunOptions opts;
  opts.scenario.enable_quotas = true;
  const auto row = core::run_attack(Platform::kMinix, AttackKind::kForkBomb,
                                    Privilege::kCodeExec, opts);
  EXPECT_EQ(row.platform_label, "MINIX3+ACM(quota)");
  EXPECT_FALSE(row.outcome.primitive_succeeded);
}

TEST(RunOptions, ScenarioAccountSwitchReachesTheLinuxRun) {
  core::RunOptions opts;
  opts.scenario.linux_separate_accounts = true;
  const auto row = core::run_attack(Platform::kLinux,
                                    AttackKind::kSpoofSensor,
                                    Privilege::kCodeExec, opts);
  EXPECT_EQ(row.platform_label, "Linux(acl)");
  EXPECT_FALSE(row.outcome.primitive_succeeded);
}
