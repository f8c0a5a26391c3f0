#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bas/control_law.hpp"
#include "bas/ports.hpp"
#include "devices/devices.hpp"
#include "net/http.hpp"
#include "physics/pressure.hpp"
#include "physics/room.hpp"
#include "sim/machine.hpp"

namespace mkbas::bas {

/// The three platforms of the paper's comparison. Lives in bas (not core)
/// so the scenario registry and the attack drivers can dispatch on it
/// without a layering cycle; core aliases it.
enum class Platform { kMinix, kSel4, kLinux };

/// Display label ("MINIX3+ACM").
const char* to_string(Platform p);
/// Wire spelling ("minix"/"sel4"/"linux"): request JSON and metric names.
const char* platform_name(Platform p);

/// Tunables of the BSL-3 containment controller (EXT1). Part of the
/// shared ScenarioConfig so the registry can build the "bsl3" variant
/// from the same configuration object as the temperature scenarios.
struct Bsl3Config {
  double target_lab_pa = -30.0;      // design negative pressure
  double breach_threshold_pa = -5.0; // "loss of containment" line
  sim::Duration alarm_delay = sim::sec(30);
  sim::Duration sample_period = sim::sec(1);
  sim::Duration door_open_time = sim::sec(10);
  physics::ContainmentModel::Params model{};
};

/// Policy ablation: the ACM generated from the model, or a permissive
/// matrix standing in for a legacy flat controller (everything may talk
/// to everything) — the "before" picture of the paper's framework.
enum class Bsl3Policy { kAcmEnforced, kPermissive };

/// Configuration shared by every scenario the registry can build (§IV).
struct ScenarioConfig {
  ControlConfig control{};
  sim::Duration sensor_period = sim::sec(1);
  sim::Duration web_poll = sim::msec(100);
  double heater_power_w = 3000.0;
  double outdoor_c = 10.0;
  physics::RoomModel::Params room{};
  double sensor_noise_sigma_c = 0.05;
  /// MINIX only: enable the ACM syscall-quota extension (fork-bomb
  /// mitigation the paper proposes as future work).
  bool enable_quotas = false;
  /// MINIX only: boot the reincarnation server, which respawns crashed
  /// or killed drivers (MINIX's "self-repairing" behaviour).
  bool enable_reincarnation = false;
  /// MINIX only: boot the FS server and have the control process append
  /// environment information to /var/log/tempctl.log each cycle ("at the
  /// end of the while loop, environment information will be written in a
  /// log file", §IV.A).
  bool enable_fs_log = false;
  /// Linux only: one uid per process plus tight per-queue/socket ACLs
  /// (the "well-configured" baseline of the paper's second simulation).
  bool linux_separate_accounts = false;
  /// Linux "uds" variant only: bind the sockets to abstract names (no
  /// permission model) instead of filesystem paths.
  bool uds_abstract_namespace = false;
  /// "bsl3" variant only.
  Bsl3Config bsl3{};
  Bsl3Policy bsl3_policy = Bsl3Policy::kAcmEnforced;
};

/// The simulated testbed of Fig. 4: room + BMP180 + heater(fan) + LED,
/// coupled to a machine's virtual clock.
class Plant {
 public:
  Plant(sim::Machine& machine, const ScenarioConfig& cfg)
      : room(cfg.room),
        heater(cfg.heater_power_w),
        sensor(room, machine.rng(), cfg.sensor_noise_sigma_c) {
    room.set_outdoor(physics::OutdoorSpec::constant(cfg.outdoor_c));
    coupler = std::make_unique<devices::PlantCoupler>(machine, room, heater,
                                                      alarm);
  }

  physics::RoomModel room;
  devices::HeaterActuator heater;
  devices::AlarmLed alarm;
  devices::Bmp180Sensor sensor;
  std::unique_ptr<devices::PlantCoupler> coupler;
};

class Scenario;

/// A compromise of the scenario's untrusted process (web interface or
/// management console). The hook runs *inside* that process, with exactly
/// its authority — the paper's threat model. Platform-specific payloads
/// downcast to the concrete scenario type (attack::make_attack builds
/// them); callers that only drive the run never need the concrete type.
using AttackHook = std::function<void(Scenario&)>;

/// What every platform scenario looks like from the outside: one machine,
/// one plant (temperature variants; null for containment), one HTTP
/// console, and an armable compromise of its untrusted process. The
/// experiment drivers, the campaign engine and the network fabric attach
/// zones through this interface only — no switch-casing on platform.
class Scenario {
 public:
  virtual ~Scenario() = default;
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  Platform platform() const { return platform_; }
  /// Registry variant this scenario was built as ("temp", "uds", "bsl3").
  const char* variant() const { return variant_; }
  sim::Machine& machine() { return machine_; }
  net::HttpConsole& http() { return http_; }
  /// The temperature plant, or nullptr for variants with different
  /// physics (bsl3).
  virtual Plant* plant() { return nullptr; }
  /// Reincarnation-server / restart-from-spec respawns so far (0 on
  /// platforms without a recovery mechanism).
  virtual int restarts() const { return 0; }

  /// Arm a compromise of the untrusted process at `when` (once per run of
  /// that process). Call before running.
  void arm_attack(sim::Time when, AttackHook hook) {
    attack_time_ = when;
    attack_hook_ = std::move(hook);
  }

 protected:
  /// `label` names the build in the compromise's trace event.
  Scenario(sim::Machine& machine, Platform platform, const char* variant,
           const char* label)
      : machine_(machine),
        platform_(platform),
        variant_(variant),
        label_(label) {}

  /// The console's check at every poll: once the armed time has come,
  /// trace `event` and run the hook inside the console process. `*fired`
  /// belongs to that run of the process, so a restarted console starts
  /// unfired.
  void maybe_compromise(Ports& io, bool* fired, const char* event);

  const ScenarioSpec& spec() const { return spec_; }

  sim::Machine& machine_;
  net::HttpConsole http_;
  /// What a binding boots: the AADL model, processes and flows.
  ScenarioSpec spec_;

 private:
  Platform platform_;
  const char* variant_;
  const char* label_;
  sim::Time attack_time_ = -1;
  AttackHook attack_hook_;
};

/// Build a scenario on `machine`. Variant "" means "temp". Throws
/// std::invalid_argument for a (platform, variant) pair the registry does
/// not hold (e.g. "uds" on MINIX).
std::unique_ptr<Scenario> make_scenario(sim::Machine& machine,
                                        Platform platform,
                                        const std::string& variant,
                                        const ScenarioConfig& cfg = {});

/// Variants registered for `platform`, sorted (for usage/error messages).
std::vector<std::string> scenario_variants(Platform platform);

/// Whether (platform, variant) is registered and carries the temperature
/// plant the benign, attack and fault experiments drive.
bool scenario_has_plant(Platform platform, const std::string& variant);

}  // namespace mkbas::bas
