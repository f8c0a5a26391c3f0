#include "linuxsim/kernel.hpp"

#include <gtest/gtest.h>

namespace lx = mkbas::linuxsim;
namespace sim = mkbas::sim;

using lx::Errno;
using lx::LinuxKernel;
using lx::Mode;
using lx::MqMessage;

TEST(LinuxKernel, SpawnAssignsUid) {
  sim::Machine m;
  LinuxKernel k(m);
  int seen_uid = -1;
  k.spawn_process("app", 1000, [&] { seen_uid = k.getuid(); });
  m.run();
  EXPECT_EQ(seen_uid, 1000);
}

TEST(LinuxKernel, ForkInheritsUid) {
  sim::Machine m;
  LinuxKernel k(m);
  int child_uid = -1;
  k.spawn_process("parent", 1000, [&] {
    k.fork_process("child", [&] { child_uid = k.getuid(); });
  });
  m.run();
  EXPECT_EQ(child_uid, 1000);
}

TEST(LinuxKernel, MqSendReceiveRoundTrip) {
  sim::Machine m;
  LinuxKernel k(m);
  std::string got;
  k.spawn_process("recv", 1000, [&] {
    const int fd = k.mq_open("/q", true, Mode::rw_everyone());
    ASSERT_GE(fd, 0);
    MqMessage msg;
    ASSERT_EQ(k.mq_receive(fd, msg), Errno::kOk);
    got = msg.data;
  });
  k.spawn_process("send", 1000, [&] {
    m.sleep_for(sim::msec(1));
    const int fd = k.mq_open("/q", true, Mode::rw_everyone());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(k.mq_send(fd, {"hello", 0}), Errno::kOk);
  });
  m.run();
  EXPECT_EQ(got, "hello");
}

TEST(LinuxKernel, MqPriorityOrdering) {
  sim::Machine m;
  LinuxKernel k(m);
  std::vector<std::string> order;
  k.spawn_process("p", 1000, [&] {
    const int fd = k.mq_open("/q", true, Mode::rw_owner_only());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(k.mq_send(fd, {"low1", 1}), Errno::kOk);
    ASSERT_EQ(k.mq_send(fd, {"high", 9}), Errno::kOk);
    ASSERT_EQ(k.mq_send(fd, {"low2", 1}), Errno::kOk);
    MqMessage msg;
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(k.mq_receive(fd, msg), Errno::kOk);
      order.push_back(msg.data);
    }
  });
  m.run();
  EXPECT_EQ(order, (std::vector<std::string>{"high", "low1", "low2"}));
}

TEST(LinuxKernel, MqBlocksWhenFullAndWakes) {
  sim::Machine m;
  LinuxKernel k(m);
  bool second_send_done = false;
  k.spawn_process("producer", 1000, [&] {
    const int fd = k.mq_open("/q", true, Mode::rw_owner_only(), /*maxmsg=*/1);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(k.mq_send(fd, {"a", 0}), Errno::kOk);
    ASSERT_EQ(k.mq_send(fd, {"b", 0}), Errno::kOk);  // blocks until drained
    second_send_done = true;
  });
  k.spawn_process("consumer", 1000, [&] {
    m.sleep_for(sim::msec(5));
    const int fd = k.mq_open("/q", true, Mode::rw_owner_only(), 1);
    ASSERT_GE(fd, 0);
    MqMessage msg;
    ASSERT_EQ(k.mq_receive(fd, msg), Errno::kOk);
    ASSERT_EQ(k.mq_receive(fd, msg), Errno::kOk);
  });
  m.run();
  EXPECT_TRUE(second_send_done);
}

TEST(LinuxKernel, NonBlockingVariantsReturnEagain) {
  sim::Machine m;
  LinuxKernel k(m);
  Errno recv_r = Errno::kOk, send_r = Errno::kOk;
  k.spawn_process("p", 1000, [&] {
    const int fd = k.mq_open("/q", true, Mode::rw_owner_only(), 1);
    MqMessage msg;
    recv_r = k.mq_receive(fd, msg, /*blocking=*/false);
    ASSERT_EQ(k.mq_send(fd, {"x", 0}), Errno::kOk);
    send_r = k.mq_send(fd, {"y", 0}, /*blocking=*/false);
  });
  m.run();
  EXPECT_EQ(recv_r, Errno::kEAGAIN);
  EXPECT_EQ(send_r, Errno::kEAGAIN);
}

TEST(LinuxKernel, ModeBitsGateOtherUsers) {
  sim::Machine m;
  LinuxKernel k(m);
  int other_fd = 0;
  k.spawn_process("owner", 1000, [&] {
    ASSERT_GE(k.mq_open("/private", true, Mode::rw_owner_only()), 0);
    m.sleep_for(sim::sec(1));
  });
  k.spawn_process("other", 2000, [&] {
    m.sleep_for(sim::msec(1));
    other_fd = k.mq_open("/private", false);
  });
  m.run_until(sim::sec(2));
  EXPECT_EQ(other_fd, -static_cast<int>(Errno::kEACCES));
  EXPECT_GE(m.trace().count_tag("linux.mq_deny"), 1u);
}

TEST(LinuxKernel, SameUidCanOpenAnything) {
  // The paper's first simulation: all five processes share one account, so
  // the compromised web interface can open every queue.
  sim::Machine m;
  LinuxKernel k(m);
  int fd = -1;
  k.spawn_process("victim", 1000, [&] {
    ASSERT_GE(k.mq_open("/ctl", true, Mode::rw_owner_only()), 0);
    m.sleep_for(sim::sec(1));
  });
  k.spawn_process("attacker", 1000, [&] {
    m.sleep_for(sim::msec(1));
    fd = k.mq_open("/ctl", false);
  });
  m.run_until(sim::sec(2));
  EXPECT_GE(fd, 0);
}

TEST(LinuxKernel, RootBypassesModeBits) {
  // Second simulation: with root, well-configured queues don't help.
  sim::Machine m;
  LinuxKernel k(m);
  int fd = -1;
  k.spawn_process("victim", 1000, [&] {
    ASSERT_GE(k.mq_open("/ctl", true, Mode::rw_owner_only()), 0);
    m.sleep_for(sim::sec(1));
  });
  k.spawn_process("attacker", 2000, [&] {
    m.sleep_for(sim::msec(1));
    k.exploit_escalate_to_root();
    fd = k.mq_open("/ctl", false);
  });
  m.run_until(sim::sec(2));
  EXPECT_GE(fd, 0);
  EXPECT_GE(m.trace().count_tag("linux.privesc"), 1u);
}

TEST(LinuxKernel, KillRequiresMatchingUidOrRoot) {
  sim::Machine m;
  LinuxKernel k(m);
  Errno denied = Errno::kOk, granted = Errno::kEPERM;
  const int victim =
      k.spawn_process("victim", 1000, [&] { m.sleep_for(sim::sec(10)); });
  k.spawn_process("other-user", 2000, [&] { denied = k.sys_kill(victim); });
  k.spawn_process("same-user", 1000, [&] {
    m.sleep_for(sim::msec(5));
    granted = k.sys_kill(victim);
  });
  m.run_until(sim::sec(1));
  EXPECT_EQ(denied, Errno::kEPERM);
  EXPECT_EQ(granted, Errno::kOk);
  EXPECT_FALSE(k.is_alive(victim));
}

TEST(LinuxKernel, RootKillsAnyone) {
  sim::Machine m;
  LinuxKernel k(m);
  Errno r = Errno::kEPERM;
  const int victim =
      k.spawn_process("victim", 1000, [&] { m.sleep_for(sim::sec(10)); });
  k.spawn_process("attacker", 2000, [&] {
    k.exploit_escalate_to_root();
    r = k.sys_kill(victim);
  });
  m.run_until(sim::sec(1));
  EXPECT_EQ(r, Errno::kOk);
  EXPECT_FALSE(k.is_alive(victim));
}

TEST(LinuxKernel, SigTermDefaultTerminates) {
  sim::Machine m;
  LinuxKernel k(m);
  // Signals deliver at syscall boundaries; the victim makes them often.
  const int victim = k.spawn_process("victim", 1000, [&] {
    for (;;) {
      k.getpid();
      m.sleep_for(sim::msec(5));
    }
  });
  k.spawn_process("sender", 1000, [&] {
    m.sleep_for(sim::msec(10));
    k.sys_kill_sig(victim, LinuxKernel::kSigTerm);
  });
  m.run_until(sim::sec(1));
  EXPECT_FALSE(k.is_alive(victim));
  EXPECT_GE(m.trace().count_tag("linux.sig_default"), 1u);
}

TEST(LinuxKernel, SigTermHandlerEnablesGracefulShutdown) {
  sim::Machine m;
  LinuxKernel k(m);
  bool flushed = false;
  const int victim = k.spawn_process("daemon", 1000, [&] {
    ASSERT_EQ(k.install_signal_handler(LinuxKernel::kSigTerm, [&] {
      // Graceful path: flush state, then exit voluntarily.
      flushed = true;
      k.sys_exit(0);
    }), Errno::kOk);
    const int q = k.mq_open("/work", true, Mode::rw_owner_only());
    MqMessage msg;
    k.mq_receive(q, msg);  // blocked here when the signal arrives
  });
  k.spawn_process("admin", 1000, [&] {
    m.sleep_for(sim::msec(10));
    ASSERT_EQ(k.sys_kill_sig(victim, LinuxKernel::kSigTerm), Errno::kOk);
  });
  m.run_until(sim::sec(1));
  EXPECT_TRUE(flushed);
  EXPECT_FALSE(k.is_alive(victim));
  EXPECT_GE(m.trace().count_tag("linux.sig_handled"), 1u);
}

TEST(LinuxKernel, SigUsr1WithoutHandlerIsIgnored) {
  sim::Machine m;
  LinuxKernel k(m);
  bool survived = false;
  const int victim = k.spawn_process("victim", 1000, [&] {
    m.sleep_for(sim::msec(100));
    survived = true;
  });
  k.spawn_process("sender", 1000, [&] {
    k.sys_kill_sig(victim, LinuxKernel::kSigUsr1);
  });
  m.run_until(sim::sec(1));
  EXPECT_TRUE(survived);
}

TEST(LinuxKernel, SigKillCannotBeCaught) {
  sim::Machine m;
  LinuxKernel k(m);
  bool handler_ran = false;
  const int victim = k.spawn_process("victim", 1000, [&] {
    // Installing a SIGKILL handler must be rejected outright.
    EXPECT_EQ(k.install_signal_handler(LinuxKernel::kSigKill,
                                       [&] { handler_ran = true; }),
              Errno::kEINVAL);
    m.sleep_for(sim::sec(10));
  });
  k.spawn_process("sender", 1000, [&] {
    m.sleep_for(sim::msec(10));
    k.sys_kill_sig(victim, LinuxKernel::kSigKill);
  });
  m.run_until(sim::sec(1));
  EXPECT_FALSE(k.is_alive(victim));
  EXPECT_FALSE(handler_ran);
}

TEST(LinuxKernel, SignalPermissionFollowsKillRules) {
  sim::Machine m;
  LinuxKernel k(m);
  Errno r = Errno::kOk;
  const int victim =
      k.spawn_process("victim", 1000, [&] { m.sleep_for(sim::sec(10)); });
  k.spawn_process("other", 2000, [&] {
    r = k.sys_kill_sig(victim, LinuxKernel::kSigTerm);
  });
  m.run_until(sim::sec(1));
  EXPECT_EQ(r, Errno::kEPERM);
  EXPECT_TRUE(k.is_alive(victim));
}

TEST(LinuxKernel, SetuidOnlyForRoot) {
  sim::Machine m;
  LinuxKernel k(m);
  Errno from_user = Errno::kOk, from_root = Errno::kEPERM;
  k.spawn_process("user", 1000, [&] { from_user = k.sys_setuid(0); });
  k.spawn_process("rootproc", 0, [&] { from_root = k.sys_setuid(1234); });
  m.run();
  EXPECT_EQ(from_user, Errno::kEPERM);
  EXPECT_EQ(from_root, Errno::kOk);
}

TEST(LinuxKernel, MqUnlinkRemovesName) {
  sim::Machine m;
  LinuxKernel k(m);
  Errno unlink_r = Errno::kEINVAL;
  int reopen = 0;
  k.spawn_process("p", 1000, [&] {
    ASSERT_GE(k.mq_open("/q", true, Mode::rw_owner_only()), 0);
    unlink_r = k.mq_unlink("/q");
    reopen = k.mq_open("/q", false);
  });
  m.run();
  EXPECT_EQ(unlink_r, Errno::kOk);
  EXPECT_EQ(reopen, -static_cast<int>(Errno::kENOENT));
}

TEST(LinuxKernel, NoSenderIdentityOnMessages) {
  // The structural weakness: a receiver cannot tell who sent a message.
  sim::Machine m;
  LinuxKernel k(m);
  std::string got;
  k.spawn_process("recv", 1000, [&] {
    const int fd = k.mq_open("/q", true, Mode::rw_everyone());
    MqMessage msg;
    ASSERT_EQ(k.mq_receive(fd, msg), Errno::kOk);
    got = msg.data;  // nothing but the payload: no authentic source field
  });
  k.spawn_process("impostor", 2000, [&] {
    m.sleep_for(sim::msec(1));
    const int fd = k.mq_open("/q", false);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(k.mq_send(fd, {"I am the sensor, trust me", 0}), Errno::kOk);
  });
  m.run();
  EXPECT_EQ(got, "I am the sensor, trust me");
}

TEST(LinuxKernel, FilesRespectPermissions) {
  sim::Machine m;
  LinuxKernel k(m);
  Errno write_denied = Errno::kOk;
  k.spawn_process("owner", 1000, [&] {
    const int fd = k.open_file("/var/log/ctl.log", true,
                               Mode{true, true, true, false, {}});
    ASSERT_GE(fd, 0);
    ASSERT_EQ(k.write_file(fd, "t=0 temp=20.0\n"), Errno::kOk);
    m.sleep_for(sim::sec(1));
  });
  k.spawn_process("other", 2000, [&] {
    m.sleep_for(sim::msec(1));
    const int fd = k.open_file("/var/log/ctl.log", false);
    ASSERT_GE(fd, 0);  // other_read = true
    std::string contents;
    ASSERT_EQ(k.read_file(fd, contents), Errno::kOk);
    EXPECT_NE(contents.find("temp=20.0"), std::string::npos);
    write_denied = k.write_file(fd, "tamper");
  });
  m.run_until(sim::sec(2));
  EXPECT_EQ(write_denied, Errno::kEACCES);
}

TEST(LinuxKernel, FindPidLocatesByName) {
  sim::Machine m;
  LinuxKernel k(m);
  int found = -1;
  const int pid =
      k.spawn_process("tempctl", 1000, [&] { m.sleep_for(sim::sec(1)); });
  k.spawn_process("prober", 1000, [&] { found = k.find_pid("tempctl"); });
  m.run_until(sim::sec(2));
  EXPECT_EQ(found, pid);
}
