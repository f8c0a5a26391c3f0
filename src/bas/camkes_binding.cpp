#include "bas/camkes_binding.hpp"

#include <algorithm>
#include <utility>

namespace mkbas::bas {

using camkes::Runtime;
using sel4::Sel4Error;
using sel4::Sel4Msg;

namespace {

/// One message register per field, in order.
Sel4Msg pack(const char* layout, const Payload& msg) {
  Sel4Msg m;
  for (int i = 0; layout[i] != '\0'; ++i) {
    if (layout[i] == 'f') {
      m.push_f64(msg.f64(i));
    } else {
      m.push(static_cast<std::uint64_t>(msg.i32(i)));
    }
  }
  return m;
}

Payload unpack(const char* layout, const Sel4Msg& m) {
  Payload p;
  for (int i = 0; layout[i] != '\0'; ++i) {
    p.push(layout[i] == 'f' ? m.mr_f64(i) : static_cast<double>(m.mr(i)));
  }
  return p;
}

}  // namespace

/// Ports are the component's interfaces, named by their AADL ports.
class CamkesBinding::ProcessPorts final : public Ports {
 public:
  ProcessPorts(CamkesBinding& b, const ScenarioSpec& spec,
               const ProcessSpec& proc, Runtime& rt)
      : Ports(spec, proc.name), b_(b), rt_(rt) {}

  void send(Port out, const Payload& msg) override {
    if (owed_) {
      deferred_.emplace_back(out, msg);
      return;
    }
    Sel4Msg m = pack(links_[out].flow->request, msg);
    rt_.rpc_call(links_[out].name, m);
  }

  bool call(Port out, const Payload& request, Payload* reply) override {
    Sel4Msg m = pack(links_[out].flow->request, request);
    if (rt_.rpc_call(links_[out].name, m) != Sel4Error::kOk) return false;
    *reply = unpack(links_[out].flow->reply, m);
    return true;
  }

  bool await(Port* in, Payload* msg) override {
    for (;;) {
      auto got = rt_.await();
      if (got.status != Sel4Error::kOk) continue;
      const auto it = std::find_if(links_.begin(), links_.end(),
                                   [&got](const Link& l) {
                                     return l.inbound && l.name == got.iface;
                                   });
      if (it == links_.end()) {
        rt_.reply(Sel4Msg{});  // unknown interface: ack and ignore
        continue;
      }
      current_ = *in = static_cast<Port>(it - links_.begin());
      owed_ = true;
      *msg = unpack(it->flow->request, got.msg);
      return true;
    }
  }

  void reply(const Payload& msg) override {
    if (!owed_) return;
    owed_ = false;
    rt_.reply(pack(links_[current_].flow->reply, msg));
    for (const auto& [out, m] : std::exchange(deferred_, {})) send(out, m);
  }

  void run_compromised(const std::function<void()>& payload) override {
    b_.attack_runtime_ = &rt_;
    payload();
    b_.attack_runtime_ = nullptr;
  }

 private:
  CamkesBinding& b_;
  Runtime& rt_;
  /// A reply is owed to the caller of the message await() returned;
  /// calls out wait until it is sent.
  bool owed_ = false;
  std::vector<std::pair<Port, Payload>> deferred_;
};

CamkesBinding::CamkesBinding(sim::Machine& machine, const ScenarioSpec& spec,
                             Options opts)
    : camkes_(std::make_unique<camkes::CamkesSystem>(machine)) {
  std::map<std::string, std::function<void(Runtime&)>> bodies;
  std::map<std::string, int> priorities;
  for (const ProcessSpec& proc : spec.processes) {
    bodies[proc.name] = [this, &spec, &proc](Runtime& rt) {
      ProcessPorts io(*this, spec, proc, rt);
      proc.body(io);
    };
    priorities[proc.name] = proc.priority;
  }
  camkes_->load_compiled_system(spec.system, bodies, priorities);

  if (opts.demo_timers) {
    // A periodic tick source and a consumer, wired with the
    // seL4Notification connector: they exercise the event path without
    // touching the control loop.
    camkes_->add_component("timerA", [&machine](Runtime& rt) {
      for (;;) {
        machine.sleep_for(sim::sec(1));
        rt.emit("tickOut");
      }
    }, 7);
    camkes_->add_component("timerB", [this](Runtime& rt) {
      for (;;) {
        if (rt.wait_event("tickIn", nullptr) != Sel4Error::kOk) return;
        ++timer_ticks_;
      }
    }, 7);
    camkes_->connect_event("c_timer", "timerA", "tickOut", "timerB",
                           "tickIn");
  }
  if (opts.restart) camkes_->enable_restart();
  camkes_->instantiate();
}

}  // namespace mkbas::bas
