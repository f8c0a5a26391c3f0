// BACnet gateway: the controller joined to a simulated SCADA segment, as
// deployed BAS are (§I). An operator workstation writes the setpoint via
// BACnet WriteProperty; the gateway forwards it to the controller's web
// interface. Without protection, anyone on the segment can do the same —
// with the Fig. 1 secure proxy in front of the gateway, only the keyed
// operator can.
//
//   $ ./bacnet_gateway
#include <cstdio>

#include "bas/temp_scenario.hpp"
#include "net/bacnet.hpp"

namespace bas = mkbas::bas;
namespace net = mkbas::net;
namespace sim = mkbas::sim;

namespace {

net::BacnetMsg setpoint_write(double value) {
  net::BacnetMsg msg;
  msg.service = net::BacnetMsg::Service::kWriteProperty;
  msg.src_device = 500;  // claimed; nothing verifies it
  msg.dst_device = 77;
  msg.property = "zone.setpoint";
  msg.value = value;
  return msg;
}

double final_setpoint(const bas::MinixScenario& sc) {
  double sp = 22.0;
  for (const auto& ev :
       const_cast<bas::MinixScenario&>(sc).machine().trace().events()) {
    if (ev.what() == "ctl.setpoint") sp = ev.value;
  }
  return sp;
}

/// The gateway's property wiring: BACnet writes to "zone.setpoint" become
/// HTTP POSTs against the controller's web interface; reads of
/// "zone.temp" serve the live room temperature.
class GatewayHandler : public net::PropertyHandler {
 public:
  GatewayHandler(sim::Machine& machine, bas::MinixScenario& scenario)
      : machine_(machine), scenario_(scenario) {}

  bool write(net::BacnetDevice&, const std::string& prop,
             double v) override {
    if (prop == "zone.setpoint") {
      char body[48];
      std::snprintf(body, sizeof body, "value=%.1f", v);
      scenario_.http().submit(machine_.now(), {"POST", "/setpoint", body});
    }
    return true;  // plain gateway: never vetoes (BACnet's weakness)
  }

  bool read(net::BacnetDevice&, const std::string& prop,
            double* value) override {
    if (prop != "zone.temp") return false;
    *value = scenario_.plant()->room.temperature_c();
    return true;
  }

 private:
  sim::Machine& machine_;
  bas::MinixScenario& scenario_;
};

}  // namespace

int main() {
  constexpr std::uint64_t kOperatorKey = 0x0B5E55ED;

  for (const bool use_proxy : {false, true}) {
    sim::Machine machine(11);
    bas::MinixScenario scenario(machine);
    net::BacnetNetwork segment(machine);

    net::BacnetDevice gateway(77, "bas-gateway");
    gateway.set_property("zone.setpoint", 22.0);
    GatewayHandler handler(machine, scenario);
    gateway.set_handler(&handler);
    net::SecureProxy proxy(gateway, kOperatorKey);
    if (use_proxy) {
      segment.attach(proxy);
    } else {
      segment.attach(gateway);
    }

    // t=5min: the legitimate operator sets 24C (sealed when proxied).
    machine.at(sim::minutes(5), [&] {
      auto msg = setpoint_write(24.0);
      if (use_proxy) msg = net::SecureProxy::seal(msg, kOperatorKey, 1);
      segment.send(msg);
    });
    // t=10min: an attacker on the SCADA segment tries to set 29C.
    machine.at(sim::minutes(10), [&] {
      segment.send(setpoint_write(29.0));  // no key, no sequence
    });

    machine.run_until(sim::minutes(20));

    std::printf("%s:\n", use_proxy ? "WITH secure proxy (Fig. 1)"
                                   : "bare BACnet gateway");
    std::printf("  controller setpoint after the run : %.1f C %s\n",
                final_setpoint(scenario),
                final_setpoint(scenario) == 29.0
                    ? "(ATTACKER-CONTROLLED)"
                    : "(operator's value)");
    if (use_proxy) {
      std::printf("  proxy rejections: %zu bad tag, %zu replay\n",
                  proxy.rejected_bad_tag(), proxy.rejected_replay());
    }
    std::printf("  room temperature at end           : %.2f C\n\n",
                scenario.plant()->room.temperature_c());
  }
  std::printf(
      "The kernel-level protections (ACM / capabilities) guard the\n"
      "controller from compromised *local* processes; the secure proxy\n"
      "extends the perimeter to the legacy SCADA network — both layers\n"
      "of the paper's Fig. 1 framework.\n");
  return 0;
}
