#include "bas/bsl3_scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "aadl/scenario_model.hpp"

namespace mkbas::bas {

namespace {

/// The suite's flows, one per AADL connection (by source port), with the
/// fields of each request and reply ('f' = f64, 'i' = i32).
constexpr Flow kFlows[] = {
    {"presOut", FlowKind::kSample, "ff", ""},
    {"fanCmd", FlowKind::kCommand, "f", ""},
    {"doorCmd", FlowKind::kCommand, "ii", ""},
    {"alarmCmd", FlowKind::kCommand, "i", ""},
    {"doorReq", FlowKind::kCall, "i", "i"},
    {"envQuery", FlowKind::kCall, "", "fffi"},
};

}  // namespace

Bsl3Suite::Bsl3Suite(sim::Machine& machine, const Bsl3Config& cfg,
                     Platform platform, const char* label)
    : Scenario(machine, platform, "bsl3", label),
      cfg_(cfg),
      model_(cfg.model) {
  coupler_ = std::make_unique<devices::ContainmentCoupler>(
      machine_, model_, fan_, inner_, outer_, &alarm_on_);
  spec_.system = compile_model(aadl::bsl3_aadl(), "Bsl3.impl");
  spec_.flows = kFlows;
  spec_.processes = {
      {"contCtlProc", 6, [this](Ports& io) { control_body(io); }},
      {"exhaustFanProc", 5,
       [this](Ports& io) {
         actuator_body(io, [this](const Payload& cmd) {
           fan_.set_speed(cmd.f64(0), machine_.now());
         });
       }},
      {"doorCtlProc", 5,
       [this](Ports& io) {
         actuator_body(io, [this](const Payload& cmd) {
           (cmd.i32(0) == 0 ? inner_ : outer_).set_open(cmd.flag(1),
                                                        machine_.now());
         });
       }},
      {"alarmProc", 5,
       [this](Ports& io) {
         actuator_body(io,
                       [this](const Payload& cmd) { alarm_on_ = cmd.flag(0); });
       }},
      {"presSensProc", 5, [this](Ports& io) { sensor_body(io); }},
      {"mgmtProc", 8, [this](Ports& io) { mgmt_body(io); }},
  };
}

void Bsl3Suite::sensor_body(Ports& io) {
  devices::PressureSensor lab(model_, devices::PressureSensor::Tap::kLab,
                              machine_.rng());
  devices::PressureSensor ante(
      model_, devices::PressureSensor::Tap::kAnteroom, machine_.rng());
  const Ports::Port out = io.port("presOut");
  for (;;) {
    const double lab_pa = lab.read_pa();
    const double ante_pa = ante.read_pa();
    io.send(out, {lab_pa, ante_pa});
    machine_.sleep_for(cfg_.sample_period);
  }
}

void Bsl3Suite::control_body(Ports& io) {
  const Ports::Port pres = io.port("presIn");
  const Ports::Port door_req = io.port("doorReqIn");
  const Ports::Port env = io.port("envIn");
  const Ports::Port fan_cmd = io.port("fanCmd");
  const Ports::Port door_cmd = io.port("doorCmd");
  const Ports::Port alarm_cmd = io.port("alarmCmd");
  double fan_speed = 0.6;
  bool alarm = false;
  sim::Time breach_since = -1;
  sim::Time inner_open_until = -1, outer_open_until = -1;
  double last_lab = 0.0, last_ante = 0.0;

  auto command_door = [&](int door, bool open) {
    io.send(door_cmd, {static_cast<double>(door), open ? 1.0 : 0.0});
  };

  for (;;) {
    Ports::Port in = -1;
    Payload msg;
    if (!io.await(&in, &msg)) return;
    const sim::Time now = machine_.now();
    if (in == pres) {
      last_lab = msg.f64(0);
      last_ante = msg.f64(1);
      io.reply({});  // release the sensor before actuating
      // Incremental fan law toward the target pressure.
      const double err = last_lab - cfg_.target_lab_pa;
      if (err > 1.0) {
        fan_speed = std::min(1.0, fan_speed + 0.05);
      } else if (err < -1.0) {
        fan_speed = std::max(0.3, fan_speed - 0.05);
      }
      io.send(fan_cmd, {fan_speed});
      // Critical alarm on sustained breach.
      if (last_lab > cfg_.breach_threshold_pa) {
        if (breach_since < 0) breach_since = now;
        if (now - breach_since >= cfg_.alarm_delay) alarm = true;
      } else {
        breach_since = -1;
        if (last_lab < cfg_.breach_threshold_pa - 2.0) alarm = false;
      }
      io.send(alarm_cmd, {alarm ? 1.0 : 0.0});
      // Door auto-close deadlines.
      if (inner_open_until >= 0 && now >= inner_open_until) {
        command_door(0, false);
        inner_open_until = -1;
      }
      if (outer_open_until >= 0 && now >= outer_open_until) {
        command_door(1, false);
        outer_open_until = -1;
      }
      machine_.trace().emit(now, -1, sim::TraceKind::kControl, "bsl3.sample",
                            "", last_lab);
    } else if (in == door_req) {
      const int door = msg.i32(0);  // 0 inner, 1 outer
      // Interlock: grant only while the other door is shut.
      const bool other_busy =
          door == 0 ? outer_open_until >= 0 : inner_open_until >= 0;
      const bool granted = !other_busy && (door == 0 || door == 1);
      if (granted) {
        command_door(door, true);
        (door == 0 ? inner_open_until : outer_open_until) =
            now + cfg_.door_open_time;
      }
      machine_.trace().emit(now, -1, sim::TraceKind::kControl,
                            granted ? "bsl3.door_granted" : "bsl3.door_denied",
                            door == 0 ? "inner" : "outer");
      io.reply({granted ? 1.0 : 0.0});
    } else if (in == env) {
      io.reply({last_lab, last_ante, fan_speed, alarm ? 1.0 : 0.0});
    }
  }
}

template <class Apply>
void Bsl3Suite::actuator_body(Ports& io, Apply apply) {
  for (;;) {
    Ports::Port in = -1;
    Payload cmd;
    if (!io.await(&in, &cmd)) return;
    apply(cmd);
    io.reply({});
  }
}

void Bsl3Suite::mgmt_body(Ports& io) {
  const Ports::Port door_req = io.port("doorReq");
  const Ports::Port env = io.port("envQuery");
  bool compromised = false;
  for (;;) {
    io.refresh();
    maybe_compromise(io, &compromised, "mgmt.compromised");
    while (auto id = http_.poll()) {
      const net::HttpRequest& req = http_.request(*id);
      Payload reply;
      if (req.method == "GET" && req.path == "/status") {
        if (!io.call(env, {}, &reply)) {
          http_.respond(*id, machine_.now(), {503, "control unavailable"});
          continue;
        }
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "lab=%.1fPa;ante=%.1fPa;fan=%.2f;alarm=%s",
                      reply.f64(0), reply.f64(1), reply.f64(2),
                      reply.flag(3) ? "on" : "off");
        http_.respond(*id, machine_.now(), {200, buf});
      } else if (req.method == "POST" && req.path == "/door") {
        const int door = req.body == "door=inner" ? 0
                         : req.body == "door=outer" ? 1
                                                    : -1;
        if (door < 0) {
          http_.respond(*id, machine_.now(), {400, "bad door"});
          continue;
        }
        if (!io.call(door_req, {static_cast<double>(door)}, &reply)) {
          http_.respond(*id, machine_.now(), {503, "control unavailable"});
          continue;
        }
        http_.respond(*id, machine_.now(),
                      reply.flag(0) ? net::HttpResponse{200, "door released"}
                                    : net::HttpResponse{409,
                                                        "interlock engaged"});
      } else {
        http_.respond(*id, machine_.now(), {404, "not found"});
      }
    }
    machine_.sleep_for(sim::msec(100));
  }
}

// ---- the two bound types ----

Bsl3Scenario::Bsl3Scenario(sim::Machine& machine, Bsl3Config cfg,
                           Bsl3Policy policy)
    : Bsl3Suite(machine, cfg, Platform::kMinix, "bsl3"),
      MinixBinding(machine, spec(),
                   {.loader = "bsl3-scenario",
                    .loader_ac_id = kLoaderAcId,
                    .permissive = policy == Bsl3Policy::kPermissive}) {}

void Bsl3Scenario::arm_mgmt_attack(sim::Time when,
                                   std::function<void(Bsl3Scenario&)> hook) {
  arm_attack(when, [hook = std::move(hook)](Scenario& sc) {
    hook(static_cast<Bsl3Scenario&>(sc));
  });
}

Bsl3Sel4Scenario::Bsl3Sel4Scenario(sim::Machine& machine, Bsl3Config cfg)
    : Bsl3Suite(machine, cfg, Platform::kSel4, "bsl3-sel4"),
      CamkesBinding(machine, spec(), {}) {}

void Bsl3Sel4Scenario::arm_mgmt_attack(
    sim::Time when,
    std::function<void(Bsl3Sel4Scenario&, camkes::Runtime&)> hook) {
  arm_attack(when, [hook = std::move(hook)](Scenario& sc) {
    auto& self = static_cast<Bsl3Sel4Scenario&>(sc);
    hook(self, *self.attack_runtime());
  });
}

// ---- safety analysis ----

Bsl3Safety Bsl3Suite::check_safety(
    const std::vector<devices::ContainmentSample>& history,
    const sim::TraceLog& trace, const Bsl3Config& cfg, sim::Time run_end) {
  Bsl3Safety r;
  if (history.empty()) return r;

  sim::Time last_sample = -1;
  for (const auto& ev : trace.events()) {
    if (ev.what() == "bsl3.sample") last_sample = ev.time;
  }
  r.control_alive =
      last_sample >= 0 && run_end - last_sample <= 5 * cfg.sample_period;

  const sim::Duration kSettle = sim::minutes(5);
  // Longer than a door transient (10 s open + recovery), far longer than
  // sensor noise:
  const sim::Duration kBreachHold = sim::minutes(2);
  const sim::Duration kAlarmSlack = sim::sec(45);

  sim::Time breach_since = -1;
  for (const auto& s : history) {
    r.max_lab_pa = std::max(r.max_lab_pa, s.lab_pa);
    if (s.inner_open && s.outer_open) r.interlock_violation = true;
    if (s.time < kSettle) continue;
    if (s.lab_pa > cfg.breach_threshold_pa + 0.5) {
      if (breach_since < 0) breach_since = s.time;
      if (s.time - breach_since > kBreachHold) r.containment_breach = true;
      if (s.time - breach_since > cfg.alarm_delay + kAlarmSlack &&
          !s.alarm_on) {
        r.alarm_violation = true;
      }
    } else {
      breach_since = -1;
    }
  }
  return r;
}

std::string Bsl3Safety::summary() const {
  std::ostringstream os;
  os << (compromised() ? "COMPROMISED" : "contained") << " [";
  os << (control_alive ? "ctl-alive" : "CTL-DEAD");
  if (containment_breach) os << ", CONTAINMENT-BREACH";
  if (interlock_violation) os << ", INTERLOCK-VIOLATION";
  if (alarm_violation) os << ", ALARM-SILENCED";
  char buf[48];
  std::snprintf(buf, sizeof buf, ", max lab %.1f Pa", max_lab_pa);
  os << buf << "]";
  return os.str();
}

}  // namespace mkbas::bas
