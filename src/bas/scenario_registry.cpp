#include <algorithm>
#include <stdexcept>

#include "bas/bsl3_scenario.hpp"
#include "bas/scenario.hpp"
#include "bas/temp_scenario.hpp"

namespace mkbas::bas {

namespace {

/// Display label and wire spelling, by Platform.
constexpr const char* kPlatformNames[][2] = {
    {"MINIX3+ACM", "minix"}, {"seL4/CAmkES", "sel4"}, {"Linux", "linux"}};

}  // namespace

const char* to_string(Platform p) {
  return kPlatformNames[static_cast<int>(p)][0];
}

const char* platform_name(Platform p) {
  return kPlatformNames[static_cast<int>(p)][1];
}

void Scenario::maybe_compromise(Ports& io, bool* fired, const char* event) {
  sim::Machine& m = machine_;
  if (!attack_hook_ || *fired || attack_time_ < 0 || m.now() < attack_time_) {
    return;
  }
  *fired = true;
  m.trace().emit(m.now(), -1, sim::TraceKind::kAttack, event, label_);
  io.run_compromised([this] { attack_hook_(*this); });
}

namespace {

/// The registry: every (platform, variant) the repo builds, fixed at
/// compile time, and whether it carries the temperature plant.
struct Entry {
  Platform platform;
  const char* variant;
  bool has_plant;
  std::unique_ptr<Scenario> (*make)(sim::Machine&, const ScenarioConfig&);
};

LinuxBinding::Accounts accounts(const ScenarioConfig& cfg) {
  return cfg.linux_separate_accounts ? LinuxBinding::Accounts::kSeparate
                                     : LinuxBinding::Accounts::kShared;
}

constexpr Entry kRegistry[] = {
    {Platform::kMinix, "temp", true,
     [](sim::Machine& m, const ScenarioConfig& cfg)
         -> std::unique_ptr<Scenario> {
       return std::make_unique<MinixScenario>(m, cfg);
     }},
    {Platform::kSel4, "temp", true,
     [](sim::Machine& m, const ScenarioConfig& cfg)
         -> std::unique_ptr<Scenario> {
       return std::make_unique<Sel4Scenario>(m, cfg);
     }},
    {Platform::kLinux, "temp", true,
     [](sim::Machine& m, const ScenarioConfig& cfg)
         -> std::unique_ptr<Scenario> {
       return std::make_unique<LinuxScenario>(m, cfg, accounts(cfg));
     }},
    {Platform::kLinux, "uds", true,
     [](sim::Machine& m, const ScenarioConfig& cfg)
         -> std::unique_ptr<Scenario> {
       return std::make_unique<LinuxUdsScenario>(
           m, cfg, accounts(cfg),
           cfg.uds_abstract_namespace ? UdsBinding::Namespace::kAbstract
                                      : UdsBinding::Namespace::kFilesystem);
     }},
    {Platform::kMinix, "bsl3", false,
     [](sim::Machine& m, const ScenarioConfig& cfg)
         -> std::unique_ptr<Scenario> {
       return std::make_unique<Bsl3Scenario>(m, cfg.bsl3, cfg.bsl3_policy);
     }},
    {Platform::kSel4, "bsl3", false,
     [](sim::Machine& m, const ScenarioConfig& cfg)
         -> std::unique_ptr<Scenario> {
       return std::make_unique<Bsl3Sel4Scenario>(m, cfg.bsl3);
     }},
};

const Entry* find(Platform platform, const std::string& variant) {
  const std::string v = variant.empty() ? "temp" : variant;
  for (const Entry& e : kRegistry) {
    if (e.platform == platform && v == e.variant) return &e;
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Scenario> make_scenario(sim::Machine& machine,
                                        Platform platform,
                                        const std::string& variant,
                                        const ScenarioConfig& cfg) {
  const Entry* e = find(platform, variant);
  if (e == nullptr) {
    throw std::invalid_argument(
        "no scenario '" + (variant.empty() ? std::string("temp") : variant) +
        "' registered for platform " + to_string(platform));
  }
  return e->make(machine, cfg);
}

std::vector<std::string> scenario_variants(Platform platform) {
  std::vector<std::string> out;
  for (const Entry& e : kRegistry) {
    if (e.platform == platform) out.push_back(e.variant);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool scenario_has_plant(Platform platform, const std::string& variant) {
  const Entry* e = find(platform, variant);
  return e != nullptr && e->has_plant;
}

}  // namespace mkbas::bas
