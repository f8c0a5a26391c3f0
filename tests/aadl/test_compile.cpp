#include "aadl/compile.hpp"

#include <gtest/gtest.h>

#include "aadl/parser.hpp"
#include "aadl/scenario_model.hpp"
#include "camkes/camkes.hpp"
#include "minix/kernel.hpp"

namespace aadl = mkbas::aadl;
namespace camkes = mkbas::camkes;
namespace minix = mkbas::minix;

namespace {

aadl::Model parse_ok(const std::string& src) {
  aadl::Parser p(src);
  auto model = p.parse();
  EXPECT_TRUE(p.ok()) << (p.ok() ? "" : p.diagnostics()[0].message);
  return model;
}

std::optional<aadl::CompiledSystem> compile_scenario() {
  auto model = parse_ok(aadl::temp_control_aadl());
  std::vector<aadl::Diagnostic> diags;
  auto sys = aadl::compile(model, "TempControl.impl", diags);
  EXPECT_TRUE(diags.empty()) << (diags.empty() ? "" : diags[0].message);
  return sys;
}

}  // namespace

TEST(Compile, ScenarioCompiles) {
  auto sys = compile_scenario();
  ASSERT_TRUE(sys.has_value());
  EXPECT_EQ(sys->instances.size(), 5u);
  EXPECT_EQ(sys->connections.size(), 5u);
  EXPECT_EQ(sys->ac_of("tempSensProc"), 100);
  EXPECT_EQ(sys->ac_of("tempProc"), 101);
  EXPECT_EQ(sys->ac_of("webInterface"), 104);
}

TEST(Compile, RejectsUnknownImplementation) {
  auto model = parse_ok(R"(
system S end S;
system implementation S.impl
  subcomponents
    a : process Missing.imp;
end S.impl;
)");
  std::vector<aadl::Diagnostic> diags;
  EXPECT_FALSE(aadl::compile(model, "S.impl", diags).has_value());
  EXPECT_NE(diags[0].message.find("unknown implementation"),
            std::string::npos);
}

TEST(Compile, RejectsMissingAcId) {
  auto model = parse_ok(R"(
process A end A;
process implementation A.imp
end A.imp;
system S end S;
system implementation S.impl
  subcomponents
    a : process A.imp;
end S.impl;
)");
  std::vector<aadl::Diagnostic> diags;
  EXPECT_FALSE(aadl::compile(model, "S.impl", diags).has_value());
  EXPECT_NE(diags[0].message.find("ac_id"), std::string::npos);
}

TEST(Compile, RejectsDuplicateAcIds) {
  auto model = parse_ok(R"(
process A end A;
process B end B;
process implementation A.imp
  properties MKBAS::ac_id => 7;
end A.imp;
process implementation B.imp
  properties MKBAS::ac_id => 7;
end B.imp;
system S end S;
system implementation S.impl
  subcomponents
    a : process A.imp;
    b : process B.imp;
end S.impl;
)");
  std::vector<aadl::Diagnostic> diags;
  EXPECT_FALSE(aadl::compile(model, "S.impl", diags).has_value());
  EXPECT_NE(diags[0].message.find("duplicate ac_id"), std::string::npos);
}

TEST(Compile, RejectsDirectionMismatch) {
  auto model = parse_ok(R"(
process A
  features p : in event data port T;
end A;
process B
  features q : in event data port T;
end B;
process implementation A.imp
  properties MKBAS::ac_id => 10;
end A.imp;
process implementation B.imp
  properties MKBAS::ac_id => 11;
end B.imp;
system S end S;
system implementation S.impl
  subcomponents
    a : process A.imp;
    b : process B.imp;
  connections
    c : port a.p -> b.q;
end S.impl;
)");
  std::vector<aadl::Diagnostic> diags;
  EXPECT_FALSE(aadl::compile(model, "S.impl", diags).has_value());
  EXPECT_NE(diags[0].message.find("out port"), std::string::npos);
}

TEST(Compile, RejectsDataTypeMismatch) {
  auto model = parse_ok(R"(
process A
  features p : out event data port Celsius;
end A;
process B
  features q : in event data port Fahrenheit;
end B;
process implementation A.imp
  properties MKBAS::ac_id => 10;
end A.imp;
process implementation B.imp
  properties MKBAS::ac_id => 11;
end B.imp;
system S end S;
system implementation S.impl
  subcomponents
    a : process A.imp;
    b : process B.imp;
  connections
    c : port a.p -> b.q;
end S.impl;
)");
  std::vector<aadl::Diagnostic> diags;
  EXPECT_FALSE(aadl::compile(model, "S.impl", diags).has_value());
  EXPECT_NE(diags[0].message.find("data types differ"), std::string::npos);
}

TEST(Compile, AutoAssignsFreeMTypes) {
  auto model = parse_ok(R"(
process A
  features p : out event port T;
         p2 : out event port T;
end A;
process B
  features q : in event port T;
         q2 : in event port T;
end B;
process implementation A.imp
  properties MKBAS::ac_id => 10;
end A.imp;
process implementation B.imp
  properties MKBAS::ac_id => 11;
end B.imp;
system S end S;
system implementation S.impl
  subcomponents
    a : process A.imp;
    b : process B.imp;
  connections
    c1 : port a.p -> b.q { MKBAS::m_type => 1; };
    c2 : port a.p2 -> b.q2;
end S.impl;
)");
  std::vector<aadl::Diagnostic> diags;
  auto sys = aadl::compile(model, "S.impl", diags);
  ASSERT_TRUE(sys.has_value()) << diags[0].message;
  EXPECT_EQ(sys->connections[0].m_type, 1);
  EXPECT_EQ(sys->connections[1].m_type, 2);  // smallest free type
}

TEST(Compile, GeneratedAcmMatchesConnections) {
  auto sys = compile_scenario();
  ASSERT_TRUE(sys.has_value());
  const minix::AcmPolicy acm = aadl::generate_acm(*sys);

  // Sensor may send type 1 to control; web may not.
  EXPECT_TRUE(acm.allowed(100, 101, 1));
  EXPECT_FALSE(acm.allowed(104, 101, 1));
  // Web may send setpoints (type 2) and env queries (type 3) to control,
  // nothing else; control answers only with acks (type 0).
  EXPECT_TRUE(acm.allowed(104, 101, 2));
  EXPECT_TRUE(acm.allowed(104, 101, 3));
  EXPECT_FALSE(acm.allowed(104, 101, 4));
  EXPECT_TRUE(acm.allowed(101, 104, 0));
  EXPECT_FALSE(acm.allowed(101, 104, 1));
  // Control commands the drivers; web holds no edge to them at all.
  EXPECT_TRUE(acm.allowed(101, 102, 1));
  EXPECT_TRUE(acm.allowed(101, 103, 1));
  EXPECT_FALSE(acm.allowed(104, 102, 1));
  EXPECT_FALSE(acm.allowed(104, 103, 0));
  // Acks flow both ways along each connection.
  EXPECT_TRUE(acm.allowed(101, 100, 0));
  EXPECT_TRUE(acm.allowed(101, 104, 0));
  // Nobody may kill anybody in this policy.
  EXPECT_FALSE(acm.kill_allowed(104, 101));
  EXPECT_FALSE(acm.kill_allowed(101, 104));
}

TEST(Compile, GeneratedAcmIncludesPmRows) {
  auto sys = compile_scenario();
  ASSERT_TRUE(sys.has_value());
  const minix::AcmPolicy acm = aadl::generate_acm(*sys);
  // Every process may fork (type 1) and exit (type 3) via PM, ack with PM.
  for (int ac : {100, 101, 102, 103, 104}) {
    EXPECT_TRUE(acm.allowed(ac, 1, 1)) << ac;
    EXPECT_TRUE(acm.allowed(ac, 1, 3)) << ac;
    EXPECT_TRUE(acm.allowed(1, ac, 0)) << ac;
    // ... but nobody may send PM a kill request (type 2).
    EXPECT_FALSE(acm.allowed(ac, 1, 2)) << ac;
  }
}

TEST(Compile, MayKillPropertyGeneratesKillEdges) {
  auto model = parse_ok(R"(
process A end A;
process B end B;
process implementation A.imp
  properties
    MKBAS::ac_id => 10;
    MKBAS::may_kill => (b);
end A.imp;
process implementation B.imp
  properties MKBAS::ac_id => 11;
end B.imp;
system S end S;
system implementation S.impl
  subcomponents
    a : process A.imp;
    b : process B.imp;
end S.impl;
)");
  std::vector<aadl::Diagnostic> diags;
  auto sys = aadl::compile(model, "S.impl", diags);
  ASSERT_TRUE(sys.has_value());
  const minix::AcmPolicy acm = aadl::generate_acm(*sys);
  EXPECT_TRUE(acm.kill_allowed(10, 11));
  EXPECT_FALSE(acm.kill_allowed(11, 10));
  EXPECT_TRUE(acm.allowed(10, 1, 2));  // kill request edge to PM
}

TEST(Compile, ForkQuotaIsCarriedIntoPolicy) {
  auto sys = compile_scenario();
  ASSERT_TRUE(sys.has_value());
  aadl::AcmGenOptions opts;
  opts.enable_quotas = true;
  const minix::AcmPolicy acm = aadl::generate_acm(*sys, opts);
  ASSERT_TRUE(acm.fork_quota(104).has_value());
  EXPECT_EQ(*acm.fork_quota(104), 4);
  EXPECT_TRUE(acm.quotas_enabled());
}

TEST(Compile, CSourceEmitterProducesTable) {
  auto sys = compile_scenario();
  ASSERT_TRUE(sys.has_value());
  const std::string c = aadl::emit_acm_c_source(*sys);
  EXPECT_NE(c.find("#define AC_TEMPSENSPROC 100"), std::string::npos);
  EXPECT_NE(c.find("#define AC_WEBINTERFACE 104"), std::string::npos);
  EXPECT_NE(c.find("ACM_TABLE[]"), std::string::npos);
  EXPECT_NE(c.find("AC_TEMPSENSPROC, AC_TEMPPROC"), std::string::npos);
  // web -> control mask: types 0, 2 and 3 -> 0xd.
  EXPECT_NE(c.find("0x000000000000000d"), std::string::npos);
}

TEST(Compile, CamkesEmitterListsComponentsAndConnections) {
  auto sys = compile_scenario();
  ASSERT_TRUE(sys.has_value());
  const std::string cam = camkes::assembly_text(*sys);
  EXPECT_NE(cam.find("component TempControlProcess tempProc;"),
            std::string::npos);
  EXPECT_NE(cam.find("connection seL4RPCCall c_setpoint(from "
                     "webInterface.setpointOut, to tempProc.setpointIn);"),
            std::string::npos);
  EXPECT_NE(cam.find("connection seL4RPCCall c_env(from "
                     "webInterface.envQuery, to tempProc.envIn);"),
            std::string::npos);
  EXPECT_NE(cam.find("uses MkbasIface sensorOut;"), std::string::npos);
  EXPECT_NE(cam.find("provides MkbasIface cmdIn;"), std::string::npos);
}

TEST(Compile, PortKindsSelectCamkesConnectors) {
  auto model = parse_ok(R"(
process A
  features
    rpcOut : out event data port T;
    evOut  : out event port E;
    dpOut  : out data port D;
end A;
process B
  features
    rpcIn : in event data port T;
    evIn  : in event port E;
    dpIn  : in data port D;
end B;
process implementation A.imp
  properties MKBAS::ac_id => 10;
end A.imp;
process implementation B.imp
  properties MKBAS::ac_id => 11;
end B.imp;
system S end S;
system implementation S.impl
  subcomponents
    a : process A.imp;
    b : process B.imp;
  connections
    c1 : port a.rpcOut -> b.rpcIn;
    c2 : port a.evOut -> b.evIn;
    c3 : port a.dpOut -> b.dpIn;
end S.impl;
)");
  std::vector<aadl::Diagnostic> diags;
  auto sys = aadl::compile(model, "S.impl", diags);
  ASSERT_TRUE(sys.has_value()) << diags[0].message;
  EXPECT_EQ(sys->connections[0].kind, aadl::PortKind::kEventData);
  EXPECT_EQ(sys->connections[1].kind, aadl::PortKind::kEvent);
  EXPECT_EQ(sys->connections[2].kind, aadl::PortKind::kData);
  const std::string cam = camkes::assembly_text(*sys);
  EXPECT_NE(cam.find("connection seL4RPCCall c1"), std::string::npos);
  EXPECT_NE(cam.find("connection seL4Notification c2"), std::string::npos);
  EXPECT_NE(cam.find("connection seL4SharedData c3"), std::string::npos);
  EXPECT_NE(cam.find("emits MkbasEvent evOut;"), std::string::npos);
  EXPECT_NE(cam.find("consumes MkbasEvent evIn;"), std::string::npos);
  EXPECT_NE(cam.find("dataport Buf dpOut;"), std::string::npos);
}

TEST(Compile, LintFlagsUnconnectedPorts) {
  auto model = parse_ok(R"(
process A
  features
    used   : out event data port T;
    unused : out event data port T;
end A;
process B
  features q : in event data port T;
end B;
process implementation A.imp
  properties MKBAS::ac_id => 10;
end A.imp;
process implementation B.imp
  properties MKBAS::ac_id => 11;
end B.imp;
system S end S;
system implementation S.impl
  subcomponents
    a : process A.imp;
    b : process B.imp;
  connections
    c : port a.used -> b.q;
end S.impl;
)");
  const auto warnings = aadl::lint(model, "S.impl");
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].message.find("'unused'"), std::string::npos);
  EXPECT_NE(warnings[0].message.find("unconnected"), std::string::npos);
}

TEST(Compile, ScenarioModelLintsClean) {
  aadl::Parser p(aadl::temp_control_aadl());
  auto model = p.parse();
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(aadl::lint(model, "TempControl.impl").empty());
}

TEST(Compile, GeneratedPolicyEnforcesInLiveKernel) {
  // End-to-end: AADL text -> policy -> kernel decision.
  auto sys = compile_scenario();
  ASSERT_TRUE(sys.has_value());
  mkbas::sim::Machine m;
  minix::MinixKernel k(m, aadl::generate_acm(*sys));
  minix::IpcResult spoof = minix::IpcResult::kOk;
  minix::IpcResult legit = minix::IpcResult::kNotAllowed;
  auto ctl = k.srv_fork2("tempProc", 101, [&] {
    minix::Message msg;
    k.ipc_receive(minix::Endpoint::any(), msg);
    k.ipc_receive(minix::Endpoint::any(), msg);
  });
  k.srv_fork2("webInterface", 104, [&] {
    minix::Message msg;
    msg.m_type = 1;  // impersonate the sensor: denied
    spoof = k.ipc_send(ctl, msg);
    msg.m_type = 2;  // legitimate setpoint: allowed
    legit = k.ipc_send(ctl, msg);
  });
  k.srv_fork2("tempSensProc", 100, [&] {
    mkbas::sim::Machine& mm = k.machine();
    mm.sleep_for(mkbas::sim::msec(5));
    minix::Message msg;
    msg.m_type = 1;
    k.ipc_send(ctl, msg);
  });
  m.run_until(mkbas::sim::sec(1));
  EXPECT_EQ(spoof, minix::IpcResult::kNotAllowed);
  EXPECT_EQ(legit, minix::IpcResult::kOk);
}
