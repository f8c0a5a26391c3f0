// EXT1 — extension experiment: the BSL-3 containment suite (the paper's
// Fig. 1 "Biosafety Level 3 Lab", from the same Biosecurity Research
// Institute case study as the temperature scenario), attacked through a
// compromised management interface, with and without the ACM.
//
// Expected shape: with the generated ACM, every injection is dropped and
// containment holds; on the permissive "legacy flat controller", the fan
// stops, both doors are forced, the lab goes positive and the controller
// is killed.
#include <cstdio>

#include "bas/bsl3_scenario.hpp"

namespace bas = mkbas::bas;
namespace minix = mkbas::minix;
namespace sim = mkbas::sim;

using bas::Bsl3Policy;
using bas::Bsl3Scenario;

namespace {

void attack(Bsl3Scenario& sc, int* denials, int* deliveries) {
  auto& k = sc.kernel();
  auto& m = sc.machine();
  const minix::Endpoint ctl = sc.endpoint_of("contCtlProc");
  const minix::Endpoint fan = sc.endpoint_of("exhaustFanProc");
  const minix::Endpoint doors = sc.endpoint_of("doorCtlProc");
  const sim::Time until = m.now() + sim::minutes(10);
  while (m.now() < until) {
    minix::Message stop_fan;
    stop_fan.m_type = Bsl3Scenario::MTypes::kData;
    stop_fan.put_f64(0, 0.0);
    (k.ipc_sendnb(fan, stop_fan) == minix::IpcResult::kOk ? ++*deliveries
                                                          : ++*denials);
    minix::Message fake;
    fake.m_type = Bsl3Scenario::MTypes::kData;
    fake.put_f64(0, -35.0);
    fake.put_f64(8, -15.0);
    (k.ipc_sendnb(ctl, fake) == minix::IpcResult::kOk ? ++*deliveries
                                                      : ++*denials);
    for (int door = 0; door < 2; ++door) {
      minix::Message open;
      open.m_type = Bsl3Scenario::MTypes::kData;
      open.put_i32(0, door);
      open.put_i32(4, 1);
      (k.ipc_sendnb(doors, open) == minix::IpcResult::kOk ? ++*deliveries
                                                          : ++*denials);
    }
    m.sleep_for(sim::msec(500));
  }
  k.pm_kill(ctl);
}

}  // namespace

int main() {
  std::printf(
      "EXT1: BSL-3 containment suite under management-interface "
      "compromise\n"
      "=================================================================="
      "\n"
      "attack at t=10min: stop exhaust fan, spoof pressure, force both\n"
      "doors, kill the controller. Run ends at t=25min.\n\n");

  for (const auto policy :
       {Bsl3Policy::kAcmEnforced, Bsl3Policy::kPermissive}) {
    sim::Machine m;
    Bsl3Scenario sc(m, {}, policy);
    int denials = 0, deliveries = 0;
    sc.arm_mgmt_attack(sim::minutes(10), [&](Bsl3Scenario& s) {
      attack(s, &denials, &deliveries);
    });
    m.run_until(sim::minutes(25));
    const auto safety = Bsl3Scenario::check_safety(
        sc.history(), m.trace(), sc.config(), sim::minutes(25));

    std::printf("--- %s ---\n", policy == Bsl3Policy::kAcmEnforced
                                    ? "MINIX3 + generated ACM"
                                    : "legacy flat controller (no ACM)");
    std::printf("  injections: %d delivered, %d denied by the kernel\n",
                deliveries, denials);
    std::printf("  pressure trace (lab Pa):");
    for (sim::Time t = sim::minutes(5); t <= sim::minutes(25);
         t += sim::minutes(5)) {
      for (const auto& s : sc.history()) {
        if (s.time >= t) {
          std::printf("  t=%lldmin %.1f",
                      static_cast<long long>(t / sim::minutes(1)), s.lab_pa);
          break;
        }
      }
    }
    std::printf("\n  verdict: %s\n\n", safety.summary().c_str());
  }
  std::printf(
      "Same controller code, same attack; the only difference is the\n"
      "kernel-enforced IPC policy compiled from the AADL model.\n");
  return 0;
}
