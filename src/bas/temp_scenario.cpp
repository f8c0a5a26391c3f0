#include "bas/temp_scenario.hpp"

#include "aadl/scenario_model.hpp"
#include "bas/web_logic.hpp"

namespace mkbas::bas {

namespace {

/// The scenario's flows, one per AADL connection (by source port), with
/// the fields of each request and reply ('f' = f64, 'i' = i32).
constexpr Flow kFlows[] = {
    {"sensorOut", FlowKind::kSample, "f", ""},
    {"heaterCmd", FlowKind::kCommand, "i", ""},
    {"alarmCmd", FlowKind::kCommand, "i", ""},
    {"setpointOut", FlowKind::kCall, "f", "i"},
    {"envQuery", FlowKind::kCall, "", "ffii"},
};

Payload env_payload(const EnvInfo& env) {
  return {env.last_temp_c, env.setpoint_c, env.heater_on ? 1.0 : 0.0,
          env.alarm_on ? 1.0 : 0.0};
}

}  // namespace

TempScenario::TempScenario(sim::Machine& machine, const ScenarioConfig& cfg,
                           Platform platform, const char* variant,
                           const char* label)
    : Scenario(machine, platform, variant, label),
      cfg_(cfg),
      plant_(machine, cfg_) {
  spec_.system = compile_model(aadl::temp_control_aadl(), "TempControl.impl");
  spec_.flows = kFlows;
  spec_.processes = {
      {"tempProc", 6, [this](Ports& io) { control_body(io); },
       "/var/log/tempctl.log"},
      {"heaterActProc", 5,
       [this](Ports& io) { actuator_body(io, plant_.heater); }},
      {"alarmProc", 5, [this](Ports& io) { actuator_body(io, plant_.alarm); }},
      {"tempSensProc", 5, [this](Ports& io) { sensor_body(io); }},
      {"webInterface", 8, [this](Ports& io) { web_body(io); }},
  };
}

void TempScenario::sensor_body(Ports& io) {
  auto& spans = machine_.spans();
  const std::uint32_t tag_sample =
      sim::TagRegistry::instance().intern("sensor.sample");
  const int self = machine_.current()->pid();
  const Ports::Port out = io.port("sensorOut");
  for (;;) {
    // Root of the control-loop trace: the hop to the controller (and
    // everything the controller does with this sample) chains under it.
    const std::uint64_t s = spans.begin(self, machine_.now(), tag_sample);
    const double t = plant_.sensor.read_temperature_c();
    machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kDevice,
                          "sensor.sample", "", t);
    io.send(out, {t});
    spans.end(self, machine_.now(), s);
    machine_.sleep_for(cfg_.sensor_period);
  }
}

void TempScenario::control_body(Ports& io) {
  auto& spans = machine_.spans();
  const std::uint32_t tag_compute =
      sim::TagRegistry::instance().intern("ctl.compute");
  const int self = machine_.current()->pid();
  const Ports::Port sensor = io.port("sensorIn");
  const Ports::Port setpoint = io.port("setpointIn");
  const Ports::Port env = io.port("envIn");
  const Ports::Port heater = io.port("heaterCmd");
  const Ports::Port alarm = io.port("alarmCmd");
  TempControlLogic logic(cfg_.control);
  // Control-quality metrics: deviation of the realised sample interval
  // from the nominal sensor period, and every actuator command issued.
  const std::string plat = platform_name(platform());
  auto jitter = machine_.metrics().log_histogram(plat + ".ctl.jitter", 4, 1e6);
  auto jitter_sig = machine_.health().signal(plat + ".ctl.jitter");
  auto actuations = machine_.metrics().counter(plat + ".ctl.actuations");
  sim::Time last_sample_t = -1;
  io.log(env_payload(logic.env()));
  for (;;) {
    Ports::Port in = -1;
    Payload msg;
    if (!io.await(&in, &msg)) return;
    if (in == sensor) {
      // The delivery path has already set this pid's current context to
      // the sensor's hop, so the compute span (and both actuator commands
      // issued inside it) chain under the sample that triggered them.
      const std::uint64_t cs = spans.begin(self, machine_.now(), tag_compute);
      const double t = msg.f64(0);
      const auto d = logic.on_sample(t, machine_.now());
      io.reply({});  // release the sensor before actuating
      io.send(heater, {d.heater_on ? 1.0 : 0.0});
      actuations.inc();
      io.send(alarm, {d.alarm_on ? 1.0 : 0.0});
      actuations.inc();
      machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kControl,
                            "ctl.sample", "", t);
      if (last_sample_t >= 0) {
        const sim::Duration dt = machine_.now() - last_sample_t;
        const sim::Duration nominal = cfg_.sensor_period;
        const auto dev = static_cast<double>(
            dt > nominal ? dt - nominal : nominal - dt);
        jitter.record(dev);
        jitter_sig.observe(machine_.now(), dev);
      }
      last_sample_t = machine_.now();
      // "At the end of the while loop, environment information will be
      // written in a log file" (§IV.A).
      io.log(env_payload(logic.env()));
      spans.end(self, machine_.now(), cs);
    } else if (in == setpoint) {
      const double sp = msg.f64(0);
      const bool ok = logic.try_set_setpoint(sp, machine_.now());
      machine_.trace().emit(machine_.now(), -1, sim::TraceKind::kControl,
                            ok ? "ctl.setpoint" : "ctl.setpoint_rejected",
                            "", sp);
      io.reply({ok ? 1.0 : 0.0});
      io.log(env_payload(logic.env()));
    } else if (in == env) {
      io.reply(env_payload(logic.env()));
    }
  }
}

template <class Device>
void TempScenario::actuator_body(Ports& io, Device& device) {
  auto& spans = machine_.spans();
  const std::uint32_t tag_apply =
      sim::TagRegistry::instance().intern("act.apply");
  const std::uint32_t tag_sample =
      sim::TagRegistry::instance().intern("sensor.sample");
  const std::string plat = platform_name(platform());
  auto e2e = machine_.metrics().log_histogram(plat + ".ctl.e2e_us", 4, 1e6);
  auto e2e_sig = machine_.health().signal(plat + ".ctl.e2e_us");
  const int self = machine_.current()->pid();
  for (;;) {
    Ports::Port in = -1;
    Payload cmd;
    if (!io.await(&in, &cmd)) return;
    const std::uint64_t s = spans.begin(self, machine_.now(), tag_apply);
    device.set_on(cmd.flag(0), machine_.now());
    // Sensor-to-actuation latency measured on the span chain itself, so
    // the histogram and the critical-path export agree exactly. The root
    // check filters commands that were not triggered by a sample (e.g.
    // spoofed frames, which root under an attack span instead).
    const std::uint64_t root = spans.root_of(s);
    if (root != 0 && spans.name_of(root) == tag_sample) {
      const sim::Time t0 = spans.start_of(root);
      if (t0 >= 0) {
        e2e.record(static_cast<double>(machine_.now() - t0));
        e2e_sig.observe(machine_.now(),
                        static_cast<double>(machine_.now() - t0));
      }
    }
    spans.end(self, machine_.now(), s);
    io.reply({});  // acknowledge after applying
  }
}

void TempScenario::web_body(Ports& io) {
  const Ports::Port env = io.port("envQuery");
  const Ports::Port setpoint = io.port("setpointOut");
  bool compromised = false;
  for (;;) {
    io.refresh();
    maybe_compromise(io, &compromised, "web.compromised");
    while (auto id = http_.poll()) {
      const WebAction act = route_request(http_.request(*id));
      Payload reply;
      net::HttpResponse resp;
      switch (act.kind) {
        case WebAction::Kind::kStatus:
          resp = io.call(env, {}, &reply)
                     ? render_status({reply.f64(0), reply.f64(1),
                                      reply.flag(2), reply.flag(3)})
                     : render_unavailable();
          break;
        case WebAction::Kind::kSetSetpoint:
          resp = io.call(setpoint, {act.setpoint_c}, &reply)
                     ? render_setpoint_result(reply.flag(0))
                     : render_unavailable();
          break;
        case WebAction::Kind::kBadRequest:
          resp = render_bad_request();
          break;
        case WebAction::Kind::kNotFound:
          resp = render_not_found();
          break;
      }
      http_.respond(*id, machine_.now(), resp);
    }
    machine_.sleep_for(cfg_.web_poll);
  }
}

// ---- the four bound types ----

MinixScenario::MinixScenario(sim::Machine& machine, ScenarioConfig cfg)
    : TempScenario(machine, cfg, Platform::kMinix, "temp", "minix"),
      MinixBinding(machine, spec(),
                   {.loader = "scenario",
                    .loader_ac_id = kLoaderAcId,
                    // The kill syscall is addressable by everyone (as on
                    // real MINIX); the kill matrix inside PM still denies
                    // every pair — so a blocked kill is an audited PM
                    // decision whose journal entry carries the full causal
                    // chain, not a silent edge drop.
                    .acm = {.open_kill_syscall = true,
                            .enable_quotas = cfg.enable_quotas},
                    .reincarnation = cfg.enable_reincarnation,
                    .fs_log = cfg.enable_fs_log}) {}

Sel4Scenario::Sel4Scenario(sim::Machine& machine, ScenarioConfig cfg)
    : TempScenario(machine, cfg, Platform::kSel4, "temp", "sel4"),
      CamkesBinding(machine, spec(),
                    {.restart = cfg.enable_reincarnation,
                     .demo_timers = true}) {}

LinuxScenario::LinuxScenario(sim::Machine& machine, ScenarioConfig cfg,
                             Accounts accounts)
    : TempScenario(machine, cfg, Platform::kLinux, "temp", "linux"),
      MqBinding(machine, spec(), accounts) {}

LinuxUdsScenario::LinuxUdsScenario(sim::Machine& machine, ScenarioConfig cfg,
                                   Accounts accounts, Namespace ns)
    : TempScenario(machine, cfg, Platform::kLinux, "uds", "linux-uds"),
      UdsBinding(machine, spec(), accounts, ns) {}

void LinuxUdsScenario::arm_web_attack(
    sim::Time when, std::function<void(LinuxUdsScenario&)> hook) {
  arm_attack(when, [hook = std::move(hook)](Scenario& sc) {
    hook(static_cast<LinuxUdsScenario&>(sc));
  });
}

}  // namespace mkbas::bas
