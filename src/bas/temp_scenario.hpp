#pragma once

#include <functional>
#include <string>

#include "bas/camkes_binding.hpp"
#include "bas/linux_binding.hpp"
#include "bas/minix_binding.hpp"
#include "bas/ports.hpp"
#include "bas/scenario.hpp"
#include "net/http.hpp"

namespace mkbas::bas {

/// The paper's temperature-control scenario (Fig. 2), written once: five
/// processes — sensor, controller, heater and alarm actuators, and the
/// untrusted web interface — whose bodies only use bas::Ports. A binding
/// boots them from the AADL model on one personality; the bound types
/// below pair the scenario with each of the four.
class TempScenario : public Scenario {
 public:
  Plant* plant() override { return &plant_; }
  const ScenarioConfig& config() const { return cfg_; }

 protected:
  TempScenario(sim::Machine& machine, const ScenarioConfig& cfg,
               Platform platform, const char* variant, const char* label);

 private:
  void sensor_body(Ports& io);
  void control_body(Ports& io);
  template <class Device>
  void actuator_body(Ports& io, Device& device);
  void web_body(Ports& io);

  ScenarioConfig cfg_;
  Plant plant_;
};

/// On security-enhanced MINIX 3 (§IV.A).
class MinixScenario final : public TempScenario, public MinixBinding {
 public:
  static constexpr int kLoaderAcId = 99;

  explicit MinixScenario(sim::Machine& machine, ScenarioConfig cfg = {});
  ~MinixScenario() override { machine().shutdown(); }

  int restarts() const override { return MinixBinding::restarts(); }
};

/// On seL4 via CAmkES (§IV.B), with the demonstration timer pair.
class Sel4Scenario final : public TempScenario, public CamkesBinding {
 public:
  explicit Sel4Scenario(sim::Machine& machine, ScenarioConfig cfg = {});
  ~Sel4Scenario() override { machine().shutdown(); }

  int restarts() const override { return CamkesBinding::restarts(); }
};

/// On Linux over POSIX message queues (§IV.C).
class LinuxScenario final : public TempScenario, public MqBinding {
 public:
  explicit LinuxScenario(sim::Machine& machine, ScenarioConfig cfg = {},
                         Accounts accounts = Accounts::kShared);
  ~LinuxScenario() override { machine().shutdown(); }
};

/// On Linux over Unix domain sockets (§III, [10]).
class LinuxUdsScenario final : public TempScenario, public UdsBinding {
 public:
  explicit LinuxUdsScenario(sim::Machine& machine, ScenarioConfig cfg = {},
                            Accounts accounts = Accounts::kShared,
                            Namespace ns = Namespace::kFilesystem);
  ~LinuxUdsScenario() override { machine().shutdown(); }

  /// Arm a compromise of the web interface (arbitrary code execution in
  /// the web process, §IV.D).
  void arm_web_attack(sim::Time when,
                      std::function<void(LinuxUdsScenario&)> hook);
};

}  // namespace mkbas::bas
