// The Linux scenario over Unix domain sockets: benign equivalence with
// the message-queue transport, plus the socket-specific attack surfaces
// (§III and the misuse study [10]).
#include <gtest/gtest.h>

#include "bas/temp_scenario.hpp"
#include "core/safety.hpp"

namespace bas = mkbas::bas;
namespace core = mkbas::core;
namespace sim = mkbas::sim;
namespace lx = mkbas::linuxsim;

using bas::LinuxUdsScenario;

namespace {

core::SafetyReport run_and_check(sim::Machine& m, LinuxUdsScenario& sc,
                                 sim::Time end) {
  m.run_until(end);
  return core::check_safety(sc.plant()->coupler->history(), m.trace(),
                            sc.config().control, end,
                            sc.config().sensor_period);
}

}  // namespace

TEST(LinuxUds, BenignControlMatchesTheMqueueTransport) {
  sim::Machine m;
  LinuxUdsScenario sc(m);
  m.at(sim::minutes(10), [&] {
    sc.http().submit(m.now(), {"POST", "/setpoint", "value=25.0"});
  });
  const auto safety = run_and_check(m, sc, sim::minutes(25));
  EXPECT_TRUE(safety.control_alive);
  EXPECT_FALSE(safety.physically_compromised()) << safety.summary();
  EXPECT_NEAR(sc.plant()->room.temperature_c(), 25.0, 1.0);
}

TEST(LinuxUds, StatusWorksOverSockets) {
  sim::Machine m;
  LinuxUdsScenario sc(m);
  m.at(sim::minutes(8), [&] {
    sc.http().submit(m.now(), {"GET", "/status", ""});
  });
  m.run_until(sim::minutes(9));
  bool ok = false;
  for (const auto& ex : sc.http().exchanges()) {
    if (ex.answered >= 0 && ex.response.status == 200) {
      ok = true;
      EXPECT_NE(ex.response.body.find("temp="), std::string::npos);
    }
  }
  EXPECT_TRUE(ok);
}

TEST(LinuxUds, RecordsTheSameControlTelemetryAsTheOtherTransports) {
  // The socket transport runs the shared process bodies, so it records
  // the control-quality metrics and spans too. (Sockets
  // carry no span context, so no sensor-to-actuation chain forms.)
  sim::Machine m;
  LinuxUdsScenario sc(m);
  m.run_until(sim::minutes(3));
  auto& metrics = m.metrics();
  EXPECT_GT(metrics.log_histogram("linux.ctl.jitter", 4, 1e6).count(), 100u);
  EXPECT_GT(metrics.counter("linux.ctl.actuations").value(), 0u);
  const auto sample =
      mkbas::sim::TagRegistry::instance().intern("sensor.sample");
  std::size_t samples = 0;
  for (const auto& span : m.spans().spans()) samples += span.name == sample;
  EXPECT_GT(samples, 100u);
}

TEST(LinuxUds, AbstractNamespaceWorksBenignly) {
  sim::Machine m;
  LinuxUdsScenario sc(m, {}, LinuxUdsScenario::Accounts::kShared,
                      LinuxUdsScenario::Namespace::kAbstract);
  const auto safety = run_and_check(m, sc, sim::minutes(15));
  EXPECT_TRUE(safety.control_alive);
  EXPECT_FALSE(safety.physically_compromised()) << safety.summary();
}

TEST(LinuxUds, SharedAccountSpoofCompromises) {
  // First simulation over sockets: the compromised web interface opens
  // its own connection to the control socket and streams fake readings;
  // nothing authenticates the sender.
  sim::Machine m;
  LinuxUdsScenario sc(m);
  sc.arm_web_attack(sim::minutes(12), [](LinuxUdsScenario& s) {
    auto& k = s.kernel();
    const int fd = s.connect_service(LinuxUdsScenario::kCtlSock,
                                     LinuxUdsScenario::kCtlAbstract);
    ASSERT_GE(fd, 0);
    const sim::Time until = s.machine().now() + sim::minutes(10);
    while (s.machine().now() < until) {
      k.sock_send(fd, bas::LinuxScenario::encode_temp(5.0), false);
      s.machine().sleep_for(sim::msec(200));
    }
  });
  const auto safety = run_and_check(m, sc, sim::minutes(32));
  EXPECT_TRUE(safety.physically_compromised()) << safety.summary();
  EXPECT_GT(safety.max_temp_c, 25.0);
}

TEST(LinuxUds, AclOnFilesystemSocketBlocksNonRootSpoof) {
  sim::Machine m;
  LinuxUdsScenario sc(m, {}, LinuxUdsScenario::Accounts::kSeparate);
  int attacker_fd = 0;
  sc.arm_web_attack(sim::minutes(12), [&](LinuxUdsScenario& s) {
    // The web account may connect to the control socket (it is a
    // legitimate client) — but NOT to the heater's.
    attacker_fd = s.kernel().sock_connect(LinuxUdsScenario::kHeaterSock);
  });
  const auto safety = run_and_check(m, sc, sim::minutes(20));
  EXPECT_EQ(attacker_fd, -static_cast<int>(lx::Errno::kEACCES));
  EXPECT_FALSE(safety.physically_compromised());
}

TEST(LinuxUds, RootConnectsToActuatorsAnyway) {
  sim::Machine m;
  LinuxUdsScenario sc(m, {}, LinuxUdsScenario::Accounts::kSeparate);
  int attacker_fd = -1;
  sc.arm_web_attack(sim::minutes(12), [&](LinuxUdsScenario& s) {
    s.kernel().exploit_escalate_to_root();
    attacker_fd = s.kernel().sock_connect(LinuxUdsScenario::kHeaterSock);
    if (attacker_fd >= 0) {
      const sim::Time until = s.machine().now() + sim::minutes(10);
      while (s.machine().now() < until) {
        s.kernel().sock_send(attacker_fd,
                             bas::LinuxScenario::encode_cmd(true), false);
        s.machine().sleep_for(sim::msec(200));
      }
    }
  });
  const auto safety = run_and_check(m, sc, sim::minutes(32));
  EXPECT_GE(attacker_fd, 0);
  EXPECT_TRUE(safety.physically_compromised()) << safety.summary();
}

TEST(LinuxUds, AbstractNameSquattingHijacksTheControlService) {
  // The [10] attack chain at scenario level: kill the control process
  // (same account), squat its abstract name, and impersonate it. The
  // sensor and web reconnect to the attacker; the real service cannot
  // even rebind.
  sim::Machine m;
  LinuxUdsScenario sc(m, {}, LinuxUdsScenario::Accounts::kShared,
                      LinuxUdsScenario::Namespace::kAbstract);
  int hijacked_messages = 0;
  sc.arm_web_attack(sim::minutes(12), [&](LinuxUdsScenario& s) {
    auto& k = s.kernel();
    // 1. Kill the real control process (allowed: same uid).
    ASSERT_EQ(k.sys_kill(s.pid_of("tempProc")), lx::Errno::kOk);
    // 2. Squat its well-known abstract name before anyone else.
    const int srv = k.sock_socket();
    ASSERT_EQ(k.sock_bind_abstract(srv, LinuxUdsScenario::kCtlAbstract),
              lx::Errno::kOk);
    ASSERT_EQ(k.sock_listen(srv, 8), lx::Errno::kOk);
    // 3. Impersonate: accept reconnecting clients, swallow their data,
    //    command nothing — the building is now uncontrolled.
    std::vector<int> victims;
    const sim::Time until = s.machine().now() + sim::minutes(15);
    while (s.machine().now() < until) {
      const int c = k.sock_accept(srv, /*blocking=*/false);
      if (c >= 0) victims.push_back(c);
      for (int fd : victims) {
        std::string msg;
        while (k.sock_recv(fd, &msg, false) == lx::Errno::kOk) {
          ++hijacked_messages;
        }
      }
      s.machine().sleep_for(sim::msec(200));
    }
  });
  const auto safety = run_and_check(m, sc, sim::minutes(35));
  EXPECT_GT(hijacked_messages, 100);  // the sensor now reports to the enemy
  EXPECT_FALSE(safety.control_alive);
  EXPECT_TRUE(safety.physically_compromised()) << safety.summary();
}
