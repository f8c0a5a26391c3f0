#include "camkes/camkes.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "aadl/parser.hpp"
#include "aadl/scenario_model.hpp"
#include "bas/bsl3_scenario.hpp"
#include "bas/temp_scenario.hpp"

namespace bas = mkbas::bas;
namespace camkes = mkbas::camkes;
namespace sel4 = mkbas::sel4;
namespace sim = mkbas::sim;
namespace aadl = mkbas::aadl;

using camkes::CamkesSystem;
using camkes::Runtime;
using sel4::Sel4Error;
using sel4::Sel4Msg;

namespace {

/// What `aadlc <model> <system> --capdl` prints.
std::string printed_plan(const char* source, const char* system) {
  return camkes::plan(camkes::assembly_of(bas::compile_model(source, system)))
      .to_text();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

}  // namespace

TEST(Camkes, RpcCallRoundTrip) {
  sim::Machine m;
  CamkesSystem sys(m);
  double answer = 0.0;
  sys.add_component("server", [](Runtime& rt) {
    for (;;) {
      auto in = rt.await();
      if (in.status != Sel4Error::kOk) break;
      Sel4Msg rep;
      rep.push_f64(in.msg.mr_f64(0) + 1.0);
      if (rt.reply(rep) != Sel4Error::kOk) break;
    }
  });
  sys.add_component("client", [&](Runtime& rt) {
    Sel4Msg msg;
    msg.push_f64(41.0);
    ASSERT_EQ(rt.rpc_call("compute", msg), Sel4Error::kOk);
    answer = msg.mr_f64(0);
  });
  sys.connect("c1", "client", "compute", "server", "serve");
  sys.instantiate();
  m.run_until(sim::sec(1));
  EXPECT_DOUBLE_EQ(answer, 42.0);
}

TEST(Camkes, ServerDemultiplexesInterfacesByBadge) {
  sim::Machine m;
  CamkesSystem sys(m);
  std::vector<std::string> seen_ifaces, seen_peers;
  sys.add_component("server", [&](Runtime& rt) {
    for (int i = 0; i < 2; ++i) {
      auto in = rt.await();
      ASSERT_EQ(in.status, Sel4Error::kOk);
      seen_ifaces.push_back(in.iface);
      seen_peers.push_back(in.from);
      rt.reply(Sel4Msg{});
    }
  });
  sys.add_component("alice", [&](Runtime& rt) {
    Sel4Msg msg;
    rt.rpc_call("port_a", msg);
  });
  sys.add_component("bob", [&](Runtime& rt) {
    rt.machine().sleep_for(sim::msec(1));
    Sel4Msg msg;
    rt.rpc_call("port_b", msg);
  });
  sys.connect("ca", "alice", "port_a", "server", "iface_a");
  sys.connect("cb", "bob", "port_b", "server", "iface_b");
  sys.instantiate();
  m.run_until(sim::sec(1));
  EXPECT_EQ(seen_ifaces, (std::vector<std::string>{"iface_a", "iface_b"}));
  EXPECT_EQ(seen_peers, (std::vector<std::string>{"alice", "bob"}));
}

TEST(Camkes, CapDlSpecMatchesLiveDistribution) {
  sim::Machine m;
  CamkesSystem sys(m);
  sys.add_component("server", [](Runtime& rt) {
    auto in = rt.await();
    if (in.status == Sel4Error::kOk) rt.reply(Sel4Msg{});
  });
  sys.add_component("client", [](Runtime& rt) {
    Sel4Msg msg;
    rt.rpc_call("x", msg);
  });
  sys.connect("c1", "client", "x", "server", "serve");
  sys.instantiate();
  m.run_until(sim::sec(1));
  EXPECT_TRUE(sys.verify_distribution());
  EXPECT_EQ(m.trace().count_tag("capdl.verified"), 1u);
  const std::string text = sys.capdl().to_text();
  EXPECT_NE(text.find("ep_server = ep"), std::string::npos);
  EXPECT_NE(text.find("cnode_client"), std::string::npos);
  EXPECT_NE(text.find("W, G, badge: 1"), std::string::npos);
}

TEST(Camkes, ComponentsHoldOnlyPlannedCaps) {
  // The §IV.D.3 property at the framework level: a component's CSpace
  // contains exactly what the bootstrap installed.
  sim::Machine m;
  CamkesSystem sys(m);
  std::vector<int> client_caps;
  sys.add_component("server", [](Runtime& rt) {
    auto in = rt.await();
    if (in.status == Sel4Error::kOk) rt.reply(Sel4Msg{});
  });
  sys.add_component("client", [&](Runtime& rt) {
    client_caps = rt.enumerate_own_caps();
    Sel4Msg msg;
    rt.rpc_call("x", msg);
  });
  sys.connect("c1", "client", "x", "server", "serve");
  sys.instantiate();
  m.run_until(sim::sec(1));
  // Exactly one cap: the badged endpoint send cap at slot 3.
  EXPECT_EQ(client_caps, (std::vector<int>{3}));
}

TEST(Camkes, CallToAbsentInterfaceFailsCleanly) {
  sim::Machine m;
  CamkesSystem sys(m);
  Sel4Error r = Sel4Error::kOk;
  sys.add_component("lonely", [&](Runtime& rt) {
    Sel4Msg msg;
    r = rt.rpc_call("nonexistent", msg);
  });
  sys.instantiate();
  m.run_until(sim::sec(1));
  EXPECT_EQ(r, Sel4Error::kEmptySlot);
}

TEST(Camkes, NonServerComponentAwaitFails) {
  sim::Machine m;
  CamkesSystem sys(m);
  Sel4Error r = Sel4Error::kOk;
  sys.add_component("pure-client", [&](Runtime& rt) {
    r = rt.await().status;
  });
  sys.instantiate();
  m.run_until(sim::sec(1));
  EXPECT_EQ(r, Sel4Error::kEmptySlot);
}

TEST(Camkes, LoadsCompiledAadlSystem) {
  aadl::Parser p(aadl::temp_control_aadl());
  auto model = p.parse();
  ASSERT_TRUE(p.ok());
  std::vector<aadl::Diagnostic> diags;
  auto compiled = aadl::compile(model, "TempControl.impl", diags);
  ASSERT_TRUE(compiled.has_value());

  sim::Machine m;
  CamkesSystem sys(m);
  bool ctl_got_sensor_data = false;
  std::map<std::string, std::function<void(Runtime&)>> bodies;
  bodies["tempProc"] = [&](Runtime& rt) {
    auto in = rt.await();
    if (in.status == Sel4Error::kOk && in.iface == "sensorIn") {
      ctl_got_sensor_data = true;
      rt.reply(Sel4Msg{});
    }
  };
  bodies["tempSensProc"] = [](Runtime& rt) {
    Sel4Msg msg;
    msg.push_f64(21.0);
    rt.rpc_call("sensorOut", msg);
  };
  sys.load_compiled_system(*compiled, bodies);
  sys.instantiate();
  m.run_until(sim::sec(1));
  EXPECT_TRUE(ctl_got_sensor_data);
  EXPECT_TRUE(sys.verify_distribution());
}

TEST(Camkes, EventConnectorSignalsAcrossComponents) {
  sim::Machine m;
  CamkesSystem sys(m);
  int fired = 0;
  sys.add_component("producer", [&](Runtime& rt) {
    for (int i = 0; i < 3; ++i) {
      rt.machine().sleep_for(sim::msec(5));
      ASSERT_EQ(rt.emit("tick"), Sel4Error::kOk);
    }
  });
  sys.add_component("consumer", [&](Runtime& rt) {
    for (int i = 0; i < 3; ++i) {
      std::uint64_t bits = 0;
      ASSERT_EQ(rt.wait_event("tock", &bits), Sel4Error::kOk);
      EXPECT_NE(bits, 0u);
      ++fired;
    }
  });
  sys.connect_event("ev", "producer", "tick", "consumer", "tock");
  sys.instantiate();
  m.run_until(sim::sec(1));
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(sys.verify_distribution());
}

TEST(Camkes, DataportSharesDataOneWay) {
  sim::Machine m;
  CamkesSystem sys(m);
  std::string received;
  Sel4Error reverse_write = Sel4Error::kOk;
  sys.add_component("writer", [&](Runtime& rt) {
    const char msg[] = "shared-through-frame";
    ASSERT_EQ(rt.dataport_write("shm", 0, msg, sizeof msg), Sel4Error::kOk);
    rt.emit("ready");
  });
  sys.add_component("reader", [&](Runtime& rt) {
    ASSERT_EQ(rt.wait_event("ready", nullptr), Sel4Error::kOk);
    char buf[32] = {};
    ASSERT_EQ(rt.dataport_read("shm", 0, buf, sizeof buf), Sel4Error::kOk);
    received = buf;
    // The reader's mapping is read-only: writes must fault.
    reverse_write = rt.dataport_write("shm", 0, "tamper", 6);
  });
  sys.connect_dataport("dp", "writer", "shm", "reader", "shm");
  sys.connect_event("ev", "writer", "ready", "reader", "ready");
  sys.instantiate();
  m.run_until(sim::sec(1));
  EXPECT_EQ(received, "shared-through-frame");
  EXPECT_EQ(reverse_write, Sel4Error::kNoRights);
  EXPECT_TRUE(sys.verify_distribution());
}

TEST(Camkes, MixedConnectorCapDlIsVerified) {
  sim::Machine m;
  CamkesSystem sys(m);
  sys.add_component("a", [](Runtime& rt) {
    Sel4Msg msg;
    rt.rpc_call("r", msg);
    rt.emit("e");
    rt.dataport_write("d", 0, "x", 1);
  });
  sys.add_component("b", [](Runtime& rt) {
    auto in = rt.await();
    if (in.status == Sel4Error::kOk) rt.reply(Sel4Msg{});
    rt.wait_event("e_in", nullptr);
  });
  sys.connect("c1", "a", "r", "b", "serve");
  sys.connect_event("c2", "a", "e", "b", "e_in");
  sys.connect_dataport("c3", "a", "d", "b", "d_in");
  sys.instantiate();
  m.run_until(sim::sec(1));
  EXPECT_TRUE(sys.verify_distribution());
  const std::string text = sys.capdl().to_text();
  EXPECT_NE(text.find("ntfn_c2 = notification"), std::string::npos);
  EXPECT_NE(text.find("frame_c3 = frame (4k)"), std::string::npos);
}

TEST(Camkes, RpcSendNbDropsWhenServerBusy) {
  sim::Machine m;
  CamkesSystem sys(m);
  Sel4Error r = Sel4Error::kOk;
  sys.add_component("server", [](Runtime& rt) {
    rt.machine().sleep_for(sim::sec(10));  // never receives
  });
  sys.add_component("client", [&](Runtime& rt) {
    Sel4Msg msg;
    r = rt.rpc_send_nb("x", msg);
  });
  sys.connect("c1", "client", "x", "server", "serve");
  sys.instantiate();
  m.run_until(sim::sec(1));
  EXPECT_EQ(r, Sel4Error::kNotReady);
}

TEST(Camkes, PrintedPlanIsTheOneBsl3Installs) {
  const std::string printed = printed_plan(aadl::bsl3_aadl(), "Bsl3.impl");
  sim::Machine m;
  bas::Bsl3Sel4Scenario sc(m);
  m.run_until(sim::sec(1));
  EXPECT_EQ(m.trace().count_tag("capdl.verified"), 1u);
  EXPECT_EQ(m.trace().count_tag("capdl.mismatch"), 0u);
  EXPECT_EQ(printed, sc.capdl().to_text());
}

TEST(Camkes, PrintedTempPlanIsInstalledBesideTheTimerPair) {
  const auto printed =
      lines_of(printed_plan(aadl::temp_control_aadl(), "TempControl.impl"));
  sim::Machine m;
  bas::Sel4Scenario sc(m);
  m.run_until(sim::sec(1));
  EXPECT_EQ(m.trace().count_tag("capdl.verified"), 1u);
  EXPECT_EQ(m.trace().count_tag("capdl.mismatch"), 0u);
  // Every printed line appears, in order, in the installed plan; what is
  // left over is the §IV.B demonstration timer pair.
  std::size_t matched = 0;
  std::vector<std::string> extra;
  for (const auto& line : lines_of(sc.capdl().to_text())) {
    if (matched < printed.size() && line == printed[matched]) {
      ++matched;
    } else {
      extra.push_back(line);
    }
  }
  EXPECT_EQ(matched, printed.size());
  EXPECT_EQ(extra, (std::vector<std::string>{
                       "    ntfn_c_timer = notification",
                       "    tcb_timerA = tcb",
                       "    cnode_timerA = cnode",
                       "    tcb_timerB = tcb",
                       "    cnode_timerB = cnode",
                       "    cnode_timerA {",
                       "        3: ntfn_c_timer (W, badge: 6)",
                       "    }",
                       "    cnode_timerB {",
                       "        3: ntfn_c_timer (R)",
                       "    }",
                   }));
}

TEST(Camkes, RestartReinstallsExactlyThePlan) {
  sim::Machine m;
  CamkesSystem sys(m);
  std::vector<std::uint64_t> badges;
  std::vector<std::vector<int>> recordings;
  int events = 0;
  sys.add_component("server", [&](Runtime& rt) {
    int serve_slot = -1;
    for (const auto& p : sys.capdl().placements) {
      if (p.connection < 0) serve_slot = p.slot;  // the only receive cap
    }
    for (;;) {
      Sel4Msg msg;
      const auto rr = rt.kernel().recv(serve_slot, msg);
      if (rr.status != Sel4Error::kOk) return;
      badges.push_back(rr.badge);
      rt.reply(Sel4Msg{});
    }
  });
  sys.add_component("peer", [&](Runtime& rt) {
    while (rt.wait_event("doneIn") == Sel4Error::kOk) ++events;
  });
  // Records its CSpace, uses both connections, and returns: the monitor
  // rebuilds it from the plan on its next poll.
  sys.add_component("client", [&](Runtime& rt) {
    recordings.push_back(rt.enumerate_own_caps());
    Sel4Msg msg;
    rt.rpc_call("x", msg);
    rt.emit("done");
  });
  sys.connect("c1", "peer", "p", "server", "serveP");
  sys.connect("c2", "client", "x", "server", "serveX");
  sys.connect_event("c3", "client", "done", "peer", "doneIn");
  sys.enable_restart(sim::msec(100));
  sys.instantiate();
  m.run_until(sim::sec(1));

  // The client is the third component; its RPC is the second connection.
  constexpr int kClient = 2, kClientRpc = 1;
  std::vector<int> planned_slots;
  std::uint64_t planned_badge = 0;
  for (const auto& p : sys.capdl().placements) {
    if (p.component != kClient) continue;
    planned_slots.push_back(p.slot);
    if (p.connection == kClientRpc) planned_badge = p.badge;
  }
  EXPECT_EQ(planned_slots, (std::vector<int>{3, 4}));
  EXPECT_EQ(planned_badge, 2u);
  EXPECT_GE(sys.restarts(), 2);
  ASSERT_EQ(recordings.size(), static_cast<std::size_t>(sys.restarts()) + 1);
  for (const auto& caps : recordings) EXPECT_EQ(caps, planned_slots);
  EXPECT_EQ(badges,
            std::vector<std::uint64_t>(recordings.size(), planned_badge));
  EXPECT_EQ(events, static_cast<int>(recordings.size()));
  EXPECT_TRUE(sys.verify_distribution());
}
