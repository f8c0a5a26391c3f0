#pragma once

#include <functional>
#include <string>

#include "bas/temp_scenario.hpp"

namespace mkbas::attack {

/// The attack vocabulary of §IV.D.
enum class AttackKind {
  kSpoofSensor,    // impersonate the sensor: fake temperature data
  kSpoofActuator,  // command the heater directly and silence the alarm
  kKillControl,    // terminate the temperature control process
  kForkBomb,       // exhaust the process table
  kCapBruteForce,  // enumerate capability slots (seL4)
  kIpcFlood,       // DoS through the web's *legitimate* channel: flood
                   // the control process with setpoint messages
};

/// The attacker's starting privilege. kCodeExec = arbitrary code in the
/// web interface (first simulation); kRoot additionally assumes a
/// successful privilege-escalation exploit (second simulation).
enum class Privilege { kCodeExec, kRoot };

const char* to_string(AttackKind k);
const char* to_string(Privilege p);

/// What the attack primitive itself achieved, independent of physical
/// consequences (the safety checker judges those separately).
struct AttackOutcome {
  AttackKind kind = AttackKind::kSpoofSensor;
  Privilege privilege = Privilege::kCodeExec;
  bool attempted = false;
  /// Did the injection/kill/fork primitive succeed at the syscall level?
  bool primitive_succeeded = false;
  int attempts = 0;
  int successes = 0;
  std::string detail;
};

/// How long injection-style attacks keep sending (simulated time).
inline constexpr sim::Duration kInjectionDuration = sim::minutes(10);
inline constexpr sim::Duration kInjectionPeriod = sim::msec(200);
/// The flood attack sends far faster, for a shorter window.
inline constexpr sim::Duration kFloodDuration = sim::minutes(2);
inline constexpr sim::Duration kFloodPeriod = sim::msec(1);

/// Build a web-compromise hook for each platform. The hook runs inside
/// the (compromised) web-interface process and only uses the syscall
/// surface that process legitimately has — exactly the paper's threat
/// model. Results are accumulated into *out, which must outlive the run.
std::function<void(bas::MinixScenario&)> minix_attack(AttackKind kind,
                                                      Privilege priv,
                                                      AttackOutcome* out);

std::function<void(bas::Sel4Scenario&, camkes::Runtime&)> sel4_attack(
    AttackKind kind, Privilege priv, AttackOutcome* out);

std::function<void(bas::LinuxScenario&)> linux_attack(AttackKind kind,
                                                      Privilege priv,
                                                      AttackOutcome* out);

/// Platform-generic builder: the same payloads, wrapped behind the
/// bas::Scenario interface so experiment drivers, the campaign engine and
/// the fabric never switch-case on platform. The downcast to the concrete
/// scenario type lives here, once. Arming against a scenario variant the
/// payload does not understand (e.g. "bsl3") records an unattempted
/// outcome instead of crashing.
bas::AttackHook make_attack(bas::Platform platform, AttackKind kind,
                            Privilege priv, AttackOutcome* out);

}  // namespace mkbas::attack
