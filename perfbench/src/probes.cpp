// Per-layer probes: each one times a module's public functions from the
// outside, in a loop long enough to read in nanoseconds per call. They
// run only in traced mode, so untraced runs stay lean. Every probe loop
// is recorded as a span of its own.
#include <algorithm>
#include <memory>

#include "aadl/compile.hpp"
#include "aadl/parser.hpp"
#include "aadl/scenario_model.hpp"
#include "bas/scenario.hpp"
#include "campaign/campaign.hpp"
#include "campaign/run_request.hpp"
#include "core/request.hpp"
#include "fault/fault.hpp"
#include "linuxsim/kernel.hpp"
#include "minix/kernel.hpp"
#include "net/bacnet.hpp"
#include "net/fabric.hpp"
#include "physics/room.hpp"
#include "sel4/kernel.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "sim/fiber.hpp"
#include "sim/machine.hpp"
#include "sim/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sim = mkbas::sim;
namespace minix = mkbas::minix;
namespace sel4 = mkbas::sel4;
namespace lx = mkbas::linuxsim;
namespace net = mkbas::net;
namespace core = mkbas::core;
namespace serve = mkbas::serve;

namespace {

/// Keep a value alive without google-benchmark's DoNotOptimize.
volatile std::uint64_t g_sink = 0;

double ns_per(double t0_us, double t1_us, double calls) {
  return calls > 0 ? (t1_us - t0_us) * 1e3 / calls : 0.0;
}

/// Best of `reps` timings of `fn`, which returns ns per call.
template <typename F>
double best_of(int reps, F&& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) best = std::min(best, fn());
  return best;
}

// ---- sim ----

struct FiberPair {
  sim::FiberContext main, fiber;
  bool stop = false;
};

void fiber_entry(unsigned hi, unsigned lo) {
  auto* p = reinterpret_cast<FiberPair*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  sim::fiber_on_entry(p->fiber);
  while (!p->stop) sim::fiber_switch(p->fiber, p->main);
  sim::fiber_switch_final(p->fiber, p->main);
}

double probe_fiber_switch() {
  sim::FiberStackPool stacks;
  FiberPair pair;
  void* stack = stacks.acquire();
  sim::fiber_bind_native(pair.main);
  sim::fiber_create(pair.fiber, stack, stacks.usable(), fiber_entry, &pair);
  constexpr int kTrips = 200000;
  const double ns = best_of(3, [&] {
    const double t0 = now_us();
    for (int i = 0; i < kTrips; ++i) sim::fiber_switch(pair.main, pair.fiber);
    return ns_per(t0, now_us(), 2.0 * kTrips);  // a round trip is 2 switches
  });
  pair.stop = true;
  sim::fiber_switch(pair.main, pair.fiber);  // let it switch_final out
  sim::fiber_destroy(pair.fiber);
  stacks.release(stack);
  return ns;
}

double probe_timer_event() {
  return best_of(3, [] {
    sim::Machine m(7);
    std::uint64_t fired = 0;
    constexpr int kTimers = 1000;
    for (int i = 0; i < kTimers; ++i) {
      m.every(sim::usec(1 + i), sim::msec(1), [&fired] { ++fired; });
    }
    const double t0 = now_us();
    m.run_for(sim::msec(100));
    const double t1 = now_us();
    g_sink = fired;
    return ns_per(t0, t1, static_cast<double>(fired));
  });
}

double probe_next_event_time() {
  sim::Machine m(7);
  for (int i = 0; i < 64; ++i) {
    m.every(sim::usec(10 + i), sim::msec(1), [] {});
  }
  m.run_for(sim::msec(5));
  constexpr int kCalls = 2000000;
  return best_of(3, [&] {
    std::uint64_t acc = 0;
    const double t0 = now_us();
    for (int i = 0; i < kCalls; ++i) {
      acc += static_cast<std::uint64_t>(m.next_event_time());
    }
    const double t1 = now_us();
    g_sink = acc;
    return ns_per(t0, t1, kCalls);
  });
}

// ---- kernels ----

minix::AcmPolicy open_policy() {
  minix::AcmPolicy acm;
  acm.allow_mask(10, 11, ~0ULL);
  acm.allow_mask(11, 10, ~0ULL);
  return acm;
}

/// MINIX sendrec/senda pingpong with the campaign-cell obs configuration
/// (trace ring and span ring on), as bench_hotloop runs it.
double probe_minix_sendrec() {
  return best_of(3, [] {
    sim::Machine m(42);
    m.trace().set_capacity(4096);
    m.spans().set_capacity(4096);
    minix::MinixKernel k(m, open_policy());
    auto ops = std::make_shared<std::uint64_t>(0);
    const minix::Endpoint server = k.srv_fork2("server", 10, [&k] {
      for (;;) {
        minix::Message msg;
        if (k.ipc_receive(minix::Endpoint::any(), msg) !=
            minix::IpcResult::kOk) {
          continue;
        }
        minix::Message reply;
        reply.m_type = 0;
        k.ipc_senda(msg.source(), reply);
      }
    });
    k.srv_fork2("client", 11, [&k, server, ops] {
      for (;;) {
        minix::Message msg;
        msg.m_type = 1;
        if (k.ipc_sendrec(server, msg) == minix::IpcResult::kOk) ++*ops;
      }
    });
    m.run_for(sim::msec(20));  // warm the rings
    const std::uint64_t ops0 = *ops;
    const double t0 = now_us();
    m.run_for(sim::msec(200));
    const double t1 = now_us();
    return ns_per(t0, t1, 2.0 * static_cast<double>(*ops - ops0));
  });
}

/// AcmPolicy::allowed as a dependent chain at 8 ac_ids (bench_campaign).
double probe_acm_allowed(std::uint64_t seed) {
  constexpr int kN = 8;
  minix::AcmPolicy acm;
  sim::Rng fill(seed);
  for (int src = 0; src < kN; ++src) {
    for (int e = 0; e < 4; ++e) {
      acm.allow_mask(src, static_cast<int>(fill.next_below(kN)),
                     fill.next_u64() & 0xFF);
    }
  }
  constexpr std::uint64_t kIters = 2000000;
  return best_of(3, [&] {
    std::uint64_t x = 0x243F6A8885A308D3ULL;
    const double t0 = now_us();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      const bool a = acm.allowed(static_cast<int>(x % kN),
                                 static_cast<int>((x >> 8) % kN),
                                 static_cast<int>((x >> 16) & 7));
      x = x * 6364136223846793005ULL +
          (a ? 1442695040888963407ULL : 0x9E3779B97F4A7C15ULL);
    }
    const double t1 = now_us();
    g_sink = x;
    return ns_per(t0, t1, kIters);
  });
}

double probe_sel4_call_reply() {
  return best_of(3, [] {
    sim::Machine m(42);
    sel4::Sel4Kernel k(m);
    auto ops = std::make_shared<std::uint64_t>(0);
    k.boot_root([&k, ops] {
      using sel4::CapRights;
      k.retype(sel4::Sel4Kernel::kRootUntypedSlot, sel4::ObjType::kEndpoint,
               9);
      k.create_thread(sel4::Sel4Kernel::kRootUntypedSlot, "server",
                      [&k] {
                        for (;;) {
                          sel4::Sel4Msg msg;
                          if (k.recv(2, msg).status != sel4::Sel4Error::kOk) {
                            continue;
                          }
                          k.reply(sel4::Sel4Msg{});
                        }
                      },
                      6, 20, 21);
      k.cnode_copy_into(21, 9, 2, CapRights::r());
      k.tcb_resume(20);
      k.create_thread(sel4::Sel4Kernel::kRootUntypedSlot, "client",
                      [&k, ops] {
                        for (;;) {
                          sel4::Sel4Msg msg;
                          msg.label = 1;
                          if (k.call(2, msg) == sel4::Sel4Error::kOk) ++*ops;
                        }
                      },
                      7, 22, 23);
      k.cnode_copy_into(23, 9, 2, CapRights::wg(), /*badge=*/1);
      k.tcb_resume(22);
    });
    m.run_for(sim::msec(20));
    const std::uint64_t ops0 = *ops;
    const double t0 = now_us();
    m.run_for(sim::msec(200));
    const double t1 = now_us();
    return ns_per(t0, t1, 2.0 * static_cast<double>(*ops - ops0));
  });
}

/// Cached probe_path through an 8-deep CNode chain (bench_campaign).
double probe_sel4_probe_path() {
  sim::Machine m(42);
  sel4::Sel4Kernel k(m);
  double ns = 0.0;
  k.boot_root([&] {
    using Slot = sel4::Sel4Kernel::Slot;
    constexpr int kDepth = 8;
    for (int i = 0; i < kDepth; ++i) {
      k.retype(sel4::Sel4Kernel::kRootUntypedSlot, sel4::ObjType::kCNode,
               10 + i, 4);
    }
    for (int i = 0; i + 1 < kDepth; ++i) {
      k.cnode_copy_into(10 + i, 10 + i + 1, 0, sel4::CapRights::all());
    }
    std::vector<Slot> path = {10};
    for (int i = 0; i + 1 < kDepth; ++i) path.push_back(0);
    k.probe_path(path);  // warm the cache entry
    constexpr int kIters = 500000;
    ns = best_of(3, [&] {
      const double t0 = now_us();
      for (int i = 0; i < kIters; ++i) k.probe_path(path);
      return ns_per(t0, now_us(), kIters);
    });
  });
  m.run();
  return ns;
}

double probe_mq_roundtrip() {
  return best_of(3, [] {
    sim::Machine m(42);
    lx::LinuxKernel k(m);
    auto ops = std::make_shared<std::uint64_t>(0);
    k.spawn_process("server", 1000, [&k] {
      const int req = k.mq_open("/req", true, lx::Mode::rw_owner_only());
      const int rep = k.mq_open("/rep", true, lx::Mode::rw_owner_only());
      for (;;) {
        lx::MqMessage msg;
        if (k.mq_receive(req, msg) != lx::Errno::kOk) return;
        k.mq_send(rep, {"ok", 0});
      }
    });
    k.spawn_process("client", 1000, [&k, ops] {
      const int req = k.mq_open("/req", true, lx::Mode::rw_owner_only());
      const int rep = k.mq_open("/rep", true, lx::Mode::rw_owner_only());
      for (;;) {
        if (k.mq_send(req, {"ping", 0}) != lx::Errno::kOk) return;
        lx::MqMessage msg;
        if (k.mq_receive(rep, msg) != lx::Errno::kOk) return;
        ++*ops;
      }
    });
    m.run_for(sim::msec(20));
    const std::uint64_t ops0 = *ops;
    const double t0 = now_us();
    m.run_for(sim::msec(200));
    const double t1 = now_us();
    return ns_per(t0, t1, 2.0 * static_cast<double>(*ops - ops0));
  });
}

// ---- physics, aadl, bas ----

double probe_room_step(std::uint64_t seed) {
  constexpr std::size_t kRooms = 4096;
  constexpr int kTicks = 200;
  mkbas::physics::RoomBank bank;
  sim::Rng rng(seed);
  for (std::size_t i = 0; i < kRooms; ++i) {
    mkbas::physics::RoomModel::Params p;
    p.capacitance_j_per_k =
        1.0e5 + static_cast<double>(rng.next_u64() % 2000) * 100.0;
    p.loss_w_per_k = 40.0 + static_cast<double>(rng.next_u64() % 100);
    p.initial_temp_c = 12.0 + static_cast<double>(rng.next_u64() % 160) * 0.1;
    bank.add(p, mkbas::physics::OutdoorSpec::diurnal(8.0, 6.0));
    bank.set_heater_w(i, static_cast<double>(rng.next_u64() % 2000));
  }
  sim::Time now = 0;
  return best_of(3, [&] {
    const double t0 = now_us();
    for (int t = 0; t < kTicks; ++t) {
      now += sim::sec(1);
      bank.step_all(sim::sec(1), now);
    }
    return ns_per(t0, now_us(), static_cast<double>(kRooms) * kTicks);
  });
}

double probe_aadl_compile_us() {
  constexpr int kIters = 200;
  return best_of(3, [] {
    std::size_t acc = 0;
    const double t0 = now_us();
    for (int i = 0; i < kIters; ++i) {
      mkbas::aadl::Parser parser(mkbas::aadl::temp_control_aadl());
      const auto model = parser.parse();
      std::vector<mkbas::aadl::Diagnostic> diags;
      const auto sys = mkbas::aadl::compile(model, "TempControl.impl", diags);
      if (sys) acc += mkbas::aadl::generate_acm(*sys).memory_footprint_bytes();
    }
    const double t1 = now_us();
    g_sink = acc;
    return (t1 - t0) / kIters;
  });
}

/// make_scenario on a fresh Machine, plus the boot-time work at t = 0
/// (seL4: the CAmkES/CapDL bootstrap).
double probe_make_scenario_us(mkbas::bas::Platform p) {
  constexpr int kIters = 30;
  return best_of(3, [p] {
    double total = 0.0;
    for (int i = 0; i < kIters; ++i) {
      sim::Machine m(static_cast<std::uint64_t>(i + 1));
      const double t0 = now_us();
      auto s = mkbas::bas::make_scenario(m, p, "temp");
      m.run_until(0);
      total += now_us() - t0;
      m.shutdown();
    }
    return total / kIters;
  });
}

// ---- obs ----

double probe_span() {
  sim::Machine m(1);
  m.spans().set_capacity(4096);
  const std::uint32_t tag = sim::TagRegistry::instance().intern("probe.span");
  constexpr int kIters = 200000;
  m.spans().reserve(static_cast<std::size_t>(kIters) * 3);
  return best_of(3, [&] {
    const double t0 = now_us();
    for (int i = 0; i < kIters; ++i) {
      const std::uint64_t id = m.spans().begin(1, i, tag);
      m.spans().end(1, i, id);
    }
    return ns_per(t0, now_us(), kIters);
  });
}

double probe_trace_emit() {
  sim::TraceLog log;
  log.set_capacity(4096);
  const std::uint32_t tag = sim::TagRegistry::instance().intern("probe.emit");
  constexpr int kIters = 1000000;
  return best_of(3, [&] {
    const double t0 = now_us();
    for (int i = 0; i < kIters; ++i) {
      log.emit(i, 1, sim::TraceKind::kIpc, tag, {}, 1.0);
    }
    return ns_per(t0, now_us(), kIters);
  });
}

// ---- cells and artifacts ----

/// A fixed cell sample: one benign, one attack and one fault cell.
std::vector<core::CampaignCell> export_sample(std::uint64_t seed) {
  core::RunOptions base;
  base.seed = seed;
  std::vector<core::CampaignCell> cells =
      core::seed_sweep_cells(core::Platform::kMinix, {}, seed, 1);
  for (auto& c : core::attack_matrix_cells(base)) {
    if (c.name == "attack/spoof-sensor-data/linux/code-exec") {
      cells.push_back(std::move(c));
    }
  }
  core::RunOptions f;
  f.settle = sim::minutes(1);
  f.post = sim::minutes(6);
  f.seed = seed;
  for (auto& c : core::fault_campaign_cells(
           mkbas::fault::reference_sensor_crash_plan(), f, sim::sec(70))) {
    if (c.platform == core::Platform::kSel4) cells.push_back(std::move(c));
  }
  return cells;
}

/// A cell's wall inside run_campaign minus the same cell through the
/// sequential entry point: what the engine's per-cell export costs.
double probe_cell_export_ms(std::uint64_t seed) {
  const auto cells = export_sample(seed);
  const auto r = core::run_campaign(cells, 1);
  std::vector<double> diff_ms;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    const double t0 = now_us();
    switch (c.kind) {
      case core::CellKind::kBenign:
        g_sink = core::run_benign(c.platform, c.opts).kernel_entries;
        break;
      case core::CellKind::kAttack:
        g_sink = core::run_attack(c.platform, c.attack_kind, c.privilege,
                                  c.opts)
                     .outcome.attempts;
        break;
      default:
        g_sink = core::run_fault(c.platform, c.plan, c.opts,
                                 c.spoof_probe_at)
                     .faults_injected;
        break;
    }
    const double direct_ms = (now_us() - t0) / 1e3;
    diff_ms.push_back(r.cells[i].wall_seconds * 1e3 - direct_ms);
  }
  return median(diff_ms);
}

/// Serve-mix cold cells 0, 4 and 8: benign MINIX, attack seL4, fault Linux.
std::vector<core::ExperimentRequest> cold_sample(std::uint64_t seed) {
  return {cold_request(seed, 0), cold_request(seed, 4), cold_request(seed, 8)};
}

/// run_request with every deterministic artifact minus summary-only.
void probe_artifact_render(std::uint64_t seed, double* ms, double* bytes) {
  std::vector<double> diff_ms;
  double total_bytes = 0.0;
  const auto reqs = cold_sample(seed);
  for (const auto& req : reqs) {
    const double t0 = now_us();
    const auto full = core::run_request(req, core::all_deterministic_artifacts());
    const double t1 = now_us();
    const auto lean = core::run_request(
        req, core::artifact_bit(core::ArtifactKind::kSummary));
    const double t2 = now_us();
    diff_ms.push_back(((t1 - t0) - (t2 - t1)) / 1e3);
    for (const auto& [name, text] : full.artifacts) {
      total_bytes += static_cast<double>(text.size());
    }
    g_sink = lean.artifacts.size();
  }
  *ms = median(diff_ms);
  *bytes = total_bytes / static_cast<double>(reqs.size());
}

// ---- net ----

/// One datagram through Fabric::post + run_until between two bare nodes
/// (a ReadProperty and its ack), ns per delivered datagram.
double probe_post_deliver() {
  // The devices outlive the fabric that holds references to them.
  net::BacnetDevice da(100, "a"), db(200, "b");
  db.set_property("x", 1.0);
  net::Fabric fab(3);
  const int a = fab.add_node(1);
  const int b = fab.add_node(2);
  fab.attach(a, da);
  fab.attach(b, db);
  fab.set_capture(false);
  fab.set_tracing(false);
  sim::Time t = 0;
  constexpr int kIters = 20000;
  return best_of(3, [&] {
    const std::uint64_t d0 = fab.delivered();
    const double t0 = now_us();
    for (int i = 0; i < kIters; ++i) {
      net::BacnetMsg msg;
      msg.service = net::BacnetMsg::Service::kReadProperty;
      msg.src_device = 100;
      msg.dst_device = 200;
      msg.property = "x";
      msg.invoke_id = static_cast<std::uint32_t>(i);
      fab.post(a, std::move(msg));
      t += sim::msec(20);
      fab.run_until(t);
    }
    const double t1 = now_us();
    return ns_per(t0, t1, static_cast<double>(fab.delivered() - d0));
  });
}

/// SecureProxy::handle of a sealed WriteProperty.
double probe_proxy_handle(std::uint64_t seed) {
  constexpr std::uint64_t kKey = 0x5eed5eedULL;
  constexpr int kIters = 100000;
  net::BacnetDevice legacy(300, "legacy");
  legacy.set_property("setpoint", 21.0);
  net::SecureProxy proxy(legacy, kKey ^ seed);
  std::uint64_t seq = 0;
  return best_of(3, [&] {
    std::vector<net::BacnetMsg> sealed;
    sealed.reserve(kIters);
    for (int i = 0; i < kIters; ++i) {
      net::BacnetMsg msg;
      msg.service = net::BacnetMsg::Service::kWriteProperty;
      msg.src_device = 1;
      msg.dst_device = 300;
      msg.property = "setpoint";
      msg.value = 20.0 + 0.1 * (i % 10);
      sealed.push_back(net::SecureProxy::seal(msg, kKey ^ seed, ++seq));
    }
    std::uint64_t accepted = 0;
    const double t0 = now_us();
    for (const auto& m : sealed) {
      accepted += proxy.handle(m).service != net::BacnetMsg::Service::kError;
    }
    const double t1 = now_us();
    g_sink = accepted;
    return ns_per(t0, t1, kIters);
  });
}

// ---- core, serve ----

double probe_parse_request_us(std::uint64_t seed) {
  std::vector<std::string> bodies;
  for (const auto& r : cold_sample(seed)) bodies.push_back(r.to_canonical_json());
  constexpr int kIters = 20000;
  return best_of(3, [&] {
    std::size_t acc = 0;
    const double t0 = now_us();
    for (int i = 0; i < kIters; ++i) {
      core::ExperimentRequest req;
      std::string err;
      if (core::parse_request_json(bodies[static_cast<std::size_t>(i) %
                                          bodies.size()],
                                   &req, &err)) {
        acc += req.cell_key_hex().size();
      }
    }
    const double t1 = now_us();
    g_sink = acc;
    return (t1 - t0) / kIters;
  });
}

/// Closed-loop hit round trip and cold accept (POST /run until its 202)
/// on an otherwise idle daemon with deployed defaults.
void probe_daemon(std::uint64_t seed, SpanLog& spans, double* hit_us,
                  double* accept_us) {
  serve::DaemonOptions o;
  o.port = 0;
  o.jobs = 2;
  serve::Daemon d(o);
  std::string err;
  *hit_us = *accept_us = 0.0;
  if (!d.start(&err)) return;
  serve::HttpClient c(d.port(), "probe");
  serve::HttpResponse resp;
  const std::string hot = cold_sample(seed)[0].to_canonical_json();
  for (int i = 0; i < 2000; ++i) {
    if (!c.post("/run", hot, &resp, &err)) return;
    if (resp.body.find("\"status\":\"ready\"") != std::string::npos) break;
    sleep_until_us(now_us() + 2000.0);
  }
  std::vector<double> rtt;
  for (int i = 0; i < 2000; ++i) {
    const double t0 = now_us();
    if (!c.post("/run", hot, &resp, &err)) return;
    rtt.push_back(now_us() - t0);
  }
  *hit_us = median(rtt);
  std::vector<double> accept;
  for (std::uint64_t j = 0; j < 8; ++j) {
    core::ExperimentRequest r;
    r.mode = core::RequestMode::kFault;
    r.platform = core::Platform::kSel4;
    r.seed = seed * 1000 + 500 + j;
    const std::string body = r.to_canonical_json();
    const double t0 = now_us();
    if (!c.post("/run", body, &resp, &err)) return;
    const double t1 = now_us();
    spans.add("POST /run (accept probe)", "probe", t0, t1, r.cell_key_hex());
    accept.push_back(t1 - t0);
  }
  *accept_us = median(accept);
  d.shutdown();
}

}  // namespace

std::vector<LayerRow> run_probes(std::uint64_t seed, SpanLog& spans) {
  std::vector<LayerRow> rows;
  const std::string camp = "throughput_per_s (campaign_kentries_per_s)";
  const std::string city = "throughput_per_s (city_datagrams_per_s)";
  const std::string cold = "p50_ms (cold_p50_ms)";
  auto probe = [&](const std::string& name, const std::string& unit,
                   const std::string& target, const std::string& workload,
                   auto&& fn) {
    const double t0 = now_us();
    const double v = fn();
    spans.add("probe " + name, "probes", t0, now_us());
    rows.push_back({name, v, unit, 0.0, "", target, workload});
  };
  probe("sim.fiber_switch_ns", "ns", camp, "campaign (little: city, serve hits)",
        [] { return probe_fiber_switch(); });
  probe("sim.timer_event_ns", "ns", city, "city",
        [] { return probe_timer_event(); });
  probe("sim.next_event_time_ns", "ns", city, "city (campaign)",
        [] { return probe_next_event_time(); });
  probe("minix.sendrec_ns", "ns", camp, "campaign (city)",
        [] { return probe_minix_sendrec(); });
  probe("minix.acm_allowed_ns", "ns", camp, "campaign (ipc-flood cells)",
        [&] { return probe_acm_allowed(seed); });
  probe("sel4.call_reply_ns", "ns", camp, "campaign",
        [] { return probe_sel4_call_reply(); });
  probe("sel4.probe_path_ns", "ns", camp, "campaign (cap-brute-force cells)",
        [] { return probe_sel4_probe_path(); });
  probe("linuxsim.mq_roundtrip_ns", "ns", camp, "campaign",
        [] { return probe_mq_roundtrip(); });
  probe("physics.room_step_ns", "ns", camp + " (predicted negligible)",
        "campaign", [&] { return probe_room_step(seed); });
  probe("aadl.compile_us", "us", camp + ", " + cold,
        "campaign, serve-mix cold", [] { return probe_aadl_compile_us(); });
  probe("bas.make_scenario_us.minix", "us", camp + ", " + cold,
        "campaign, serve-mix cold",
        [] { return probe_make_scenario_us(mkbas::bas::Platform::kMinix); });
  probe("bas.make_scenario_us.sel4", "us", camp + ", " + cold,
        "campaign, serve-mix cold",
        [] { return probe_make_scenario_us(mkbas::bas::Platform::kSel4); });
  probe("bas.make_scenario_us.linux", "us", camp + ", " + cold,
        "campaign, serve-mix cold",
        [] { return probe_make_scenario_us(mkbas::bas::Platform::kLinux); });
  probe("obs.span_ns", "ns", camp + ", " + cold,
        "campaign, serve-mix cold (city)", [] { return probe_span(); });
  probe("obs.trace_emit_ns", "ns", camp + ", " + cold,
        "campaign, serve-mix cold (city)", [] { return probe_trace_emit(); });
  probe("obs.cell_export_ms", "ms", camp, "campaign",
        [&] { return probe_cell_export_ms(seed); });
  double render_ms = 0.0, render_bytes = 0.0;
  probe("obs.artifact_render_ms", "ms", cold + ", peak_rss_mb",
        "serve-mix (hits)", [&] {
          probe_artifact_render(seed, &render_ms, &render_bytes);
          return render_ms;
        });
  rows.push_back({"obs.artifact_bytes", render_bytes, "bytes", 3.0,
                  "cold-mix requests", "peak_rss_mb", "serve-mix"});
  probe("net.post_deliver_ns", "ns", city, "city (campaign)",
        [] { return probe_post_deliver(); });
  probe("net.proxy_handle_ns", "ns", city, "city",
        [&] { return probe_proxy_handle(seed); });
  probe("core.parse_request_us", "us", "hit_p50_us", "serve-mix",
        [&] { return probe_parse_request_us(seed); });
  double hit_us = 0.0, accept_us = 0.0;
  probe("serve.hit_rtt_us", "us", "hit_p50_us", "serve-mix (campaign, city)",
        [&] {
          probe_daemon(seed, spans, &hit_us, &accept_us);
          return hit_us;
        });
  rows.push_back({"serve.accept_us", accept_us, "us", 8.0, "cold POSTs",
                  cold, "serve-mix"});
  return rows;
}

}  // namespace perfbench
