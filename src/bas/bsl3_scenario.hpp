#pragma once

#include <functional>
#include <memory>
#include <string>

#include "bas/camkes_binding.hpp"
#include "bas/minix_binding.hpp"
#include "bas/ports.hpp"
#include "bas/scenario.hpp"
#include "devices/containment.hpp"
#include "net/http.hpp"
#include "physics/pressure.hpp"

namespace mkbas::bas {

// Bsl3Config and Bsl3Policy live in bas/scenario.hpp (part of the shared
// ScenarioConfig the registry builds every variant from).

/// Safety verdict for a containment run, judged on ground truth.
struct Bsl3Safety {
  bool control_alive = false;
  /// Lab pressure above the breach line for an extended period (beyond
  /// door-opening transients) after the system settled.
  bool containment_breach = false;
  /// Both doors stood open simultaneously at any instant.
  bool interlock_violation = false;
  /// A sustained breach without the critical alarm.
  bool alarm_violation = false;
  double max_lab_pa = -1e9;

  bool compromised() const {
    return !control_alive || containment_breach || interlock_violation ||
           alarm_violation;
  }
  std::string summary() const;
};

/// The BSL-3 suite scenario, written once: the richer sibling of the
/// temperature scenario, extracted from the same Biosecurity Research
/// Institute case study the paper's Fig. 1 points at ("Biosafety Level 3
/// Lab"). Six processes:
///
///   presSensProc  — differential pressure transmitters (lab + anteroom)
///   contCtlProc   — containment controller: fan speed law, door
///                   interlock, critical alarm
///   exhaustFanProc, doorCtlProc, alarmProc — actuator drivers
///   mgmtProc      — untrusted management interface (HTTP console):
///                   status queries and door-open requests only
///
/// Safety obligations: the lab stays below the breach line (transient
/// door openings aside), the two doors are never open together, and a
/// sustained breach raises the critical alarm.
class Bsl3Suite : public Scenario {
 public:
  /// Message types of the suite's connections (MINIX wire layout).
  struct MTypes {
    static constexpr int kAck = 0;
    static constexpr int kData = 1;      // sensor data / actuator commands
    static constexpr int kDoorReq = 2;   // mgmt -> ctl
    static constexpr int kEnvQuery = 3;  // mgmt -> ctl
  };

  physics::ContainmentModel& model() { return model_; }
  devices::DoorLatch& inner_door() { return inner_; }
  const std::vector<devices::ContainmentSample>& history() const {
    return coupler_->history();
  }
  const Bsl3Config& config() const { return cfg_; }

  /// Judge a finished run.
  static Bsl3Safety check_safety(
      const std::vector<devices::ContainmentSample>& history,
      const sim::TraceLog& trace, const Bsl3Config& cfg, sim::Time run_end);

 protected:
  Bsl3Suite(sim::Machine& machine, const Bsl3Config& cfg, Platform platform,
            const char* label);

 private:
  void sensor_body(Ports& io);
  void control_body(Ports& io);
  template <class Apply>
  void actuator_body(Ports& io, Apply apply);
  void mgmt_body(Ports& io);

  Bsl3Config cfg_;
  physics::ContainmentModel model_;
  devices::ExhaustFan fan_;
  devices::DoorLatch inner_{"inner"};
  devices::DoorLatch outer_{"outer"};
  bool alarm_on_ = false;
  std::unique_ptr<devices::ContainmentCoupler> coupler_;
};

/// The suite on security-enhanced MINIX 3, under the ACM generated from
/// the model or (ablation) a permissive legacy matrix.
class Bsl3Scenario final : public Bsl3Suite, public MinixBinding {
 public:
  static constexpr int kLoaderAcId = 109;

  explicit Bsl3Scenario(sim::Machine& machine, Bsl3Config cfg = {},
                        Bsl3Policy policy = Bsl3Policy::kAcmEnforced);
  ~Bsl3Scenario() override { machine().shutdown(); }

  /// Compromise the management interface at `when` (same contract as the
  /// temperature scenario's web attack).
  void arm_mgmt_attack(sim::Time when,
                       std::function<void(Bsl3Scenario&)> hook);
  int restarts() const override { return MinixBinding::restarts(); }
};

/// The suite on seL4 via CAmkES: the untrusted management component holds
/// capabilities only to its two connections into the controller.
class Bsl3Sel4Scenario final : public Bsl3Suite, public CamkesBinding {
 public:
  explicit Bsl3Sel4Scenario(sim::Machine& machine, Bsl3Config cfg = {});
  ~Bsl3Sel4Scenario() override { machine().shutdown(); }

  /// Compromise the management component at `when` (arbitrary code with
  /// exactly that component's capabilities).
  void arm_mgmt_attack(
      sim::Time when,
      std::function<void(Bsl3Sel4Scenario&, camkes::Runtime&)> hook);
  int restarts() const override { return CamkesBinding::restarts(); }
};

}  // namespace mkbas::bas
