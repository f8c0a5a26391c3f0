#include "sel4/kernel.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sel4 = mkbas::sel4;
namespace sim = mkbas::sim;

using sel4::CapRights;
using sel4::ObjType;
using sel4::Sel4Error;
using sel4::Sel4Kernel;
using sel4::Sel4Msg;

using Slot = Sel4Kernel::Slot;
constexpr Slot kUntyped = Sel4Kernel::kRootUntypedSlot;

TEST(Sel4, BootRootHoldsInitialCaps) {
  sim::Machine m;
  Sel4Kernel k(m);
  bool cnode_ok = false, untyped_ok = false, slot5_empty = true;
  k.boot_root([&] {
    cnode_ok = k.probe_own_slot(Sel4Kernel::kRootCNodeSlot);
    untyped_ok = k.probe_own_slot(kUntyped);
    slot5_empty = !k.probe_own_slot(5);
  });
  m.run();
  EXPECT_TRUE(cnode_ok);
  EXPECT_TRUE(untyped_ok);
  EXPECT_TRUE(slot5_empty);
}

TEST(Sel4, RetypeCreatesEndpointCap) {
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error r = Sel4Error::kOk;
  bool present = false;
  k.boot_root([&] {
    r = k.retype(kUntyped, ObjType::kEndpoint, 10);
    present = k.probe_own_slot(10);
  });
  m.run();
  EXPECT_EQ(r, Sel4Error::kOk);
  EXPECT_TRUE(present);
}

TEST(Sel4, RetypeIntoOccupiedSlotFails) {
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error r = Sel4Error::kOk;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    r = k.retype(kUntyped, ObjType::kEndpoint, 10);
  });
  m.run();
  EXPECT_EQ(r, Sel4Error::kSlotOccupied);
}

TEST(Sel4, UntypedBudgetIsExhaustible) {
  sim::Machine m;
  Sel4Kernel k(m);
  int created = 0;
  Sel4Error last = Sel4Error::kOk;
  k.boot_root([&] {
    for (Slot s = 10; s < Sel4Kernel::kDefaultCNodeSlots; ++s) {
      // Huge CNodes burn through the 4 MiB untyped quickly.
      const Sel4Error r = k.retype(kUntyped, ObjType::kCNode, s, 1 << 16);
      if (r != Sel4Error::kOk) {
        last = r;
        break;
      }
      ++created;
    }
  });
  m.run();
  EXPECT_GT(created, 0);
  EXPECT_EQ(last, Sel4Error::kUntypedExhausted);
}

namespace {

/// Boot helper: create a child thread, install `caps` (src slot in root,
/// dest slot in child, rights, badge), resume it.
struct CapPlan {
  Slot src;
  Slot dest;
  CapRights rights;
  std::uint64_t badge = 0;
};

void start_child(Sel4Kernel& k, const std::string& name,
                 std::function<void()> body, const std::vector<CapPlan>& caps,
                 Slot tcb_slot, Slot cnode_slot, int priority = 7) {
  ASSERT_EQ(k.create_thread(kUntyped, name, std::move(body), priority,
                            tcb_slot, cnode_slot),
            Sel4Error::kOk);
  for (const auto& c : caps) {
    ASSERT_EQ(k.cnode_copy_into(cnode_slot, c.src, c.dest, c.rights, c.badge),
              Sel4Error::kOk);
  }
  ASSERT_EQ(k.tcb_resume(tcb_slot), Sel4Error::kOk);
}

}  // namespace

TEST(Sel4, SendRecvAcrossThreads) {
  sim::Machine m;
  Sel4Kernel k(m);
  std::uint64_t got = 0;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    start_child(k, "recv", [&] {
      Sel4Msg msg;
      auto rr = k.recv(2, msg);
      ASSERT_EQ(rr.status, Sel4Error::kOk);
      got = msg.mr(0);
    }, {{10, 2, CapRights::r()}}, 20, 21);
    start_child(k, "send", [&] {
      Sel4Msg msg;
      msg.label = 1;
      msg.push(12345);
      ASSERT_EQ(k.send(2, msg), Sel4Error::kOk);
    }, {{10, 2, CapRights::w()}}, 22, 23);
  });
  m.run();
  EXPECT_EQ(got, 12345u);
}

TEST(Sel4, SendWithoutWriteRightIsDenied) {
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error r = Sel4Error::kOk;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    start_child(k, "sender", [&] {
      Sel4Msg msg;
      r = k.send(2, msg);  // read-only cap: must be refused
    }, {{10, 2, CapRights::r()}}, 20, 21);
  });
  m.run();
  EXPECT_EQ(r, Sel4Error::kNoRights);
  EXPECT_GE(m.trace().count_tag("cap.deny"), 1u);
}

TEST(Sel4, RecvWithoutReadRightIsDenied) {
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error r = Sel4Error::kOk;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    start_child(k, "recv", [&] {
      Sel4Msg msg;
      r = k.recv(2, msg).status;
    }, {{10, 2, CapRights::w()}}, 20, 21);
  });
  m.run();
  EXPECT_EQ(r, Sel4Error::kNoRights);
}

TEST(Sel4, BadgesIdentifyClients) {
  sim::Machine m;
  Sel4Kernel k(m);
  std::vector<std::uint64_t> badges;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    start_child(k, "server", [&] {
      for (int i = 0; i < 2; ++i) {
        Sel4Msg msg;
        auto rr = k.recv(2, msg);
        ASSERT_EQ(rr.status, Sel4Error::kOk);
        badges.push_back(rr.badge);
      }
    }, {{10, 2, CapRights::r()}}, 20, 21);
    start_child(k, "client-a", [&] {
      Sel4Msg msg;
      k.send(2, msg);
    }, {{10, 2, CapRights::w(), /*badge=*/77}}, 22, 23);
    start_child(k, "client-b", [&] {
      m.sleep_for(sim::msec(1));
      Sel4Msg msg;
      k.send(2, msg);
    }, {{10, 2, CapRights::w(), /*badge=*/88}}, 24, 25);
  });
  m.run();
  ASSERT_EQ(badges.size(), 2u);
  EXPECT_EQ(badges[0], 77u);
  EXPECT_EQ(badges[1], 88u);
}

TEST(Sel4, CallAndReplyFormAnRpc) {
  sim::Machine m;
  Sel4Kernel k(m);
  double answer = 0.0;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    start_child(k, "server", [&] {
      for (;;) {
        Sel4Msg req;
        if (k.recv(2, req).status != Sel4Error::kOk) break;
        Sel4Msg rep;
        rep.push_f64(req.mr_f64(0) * 2.0);
        if (k.reply(rep) != Sel4Error::kOk) break;
      }
    }, {{10, 2, CapRights::r()}}, 20, 21);
    start_child(k, "client", [&] {
      Sel4Msg msg;
      msg.push_f64(21.0);
      ASSERT_EQ(k.call(2, msg), Sel4Error::kOk);
      answer = msg.mr_f64(0);
    }, {{10, 2, CapRights::wg()}}, 22, 23);
  });
  m.run_until(sim::sec(1));
  EXPECT_DOUBLE_EQ(answer, 42.0);
}

TEST(Sel4, CallWithoutGrantIsDenied) {
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error r = Sel4Error::kOk;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    start_child(k, "client", [&] {
      Sel4Msg msg;
      r = k.call(2, msg);  // write-only, no grant: Call refused
    }, {{10, 2, CapRights::w()}}, 20, 21);
  });
  m.run();
  EXPECT_EQ(r, Sel4Error::kNoRights);
}

TEST(Sel4, ReplyWithoutPendingCallerFails) {
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error r = Sel4Error::kOk;
  k.boot_root([&] { r = k.reply(Sel4Msg{}); });
  m.run();
  EXPECT_EQ(r, Sel4Error::kNoReplyCap);
}

TEST(Sel4, ReplyCapIsOneTime) {
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error second = Sel4Error::kOk;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    start_child(k, "server", [&] {
      Sel4Msg req;
      ASSERT_EQ(k.recv(2, req).status, Sel4Error::kOk);
      ASSERT_EQ(k.reply(Sel4Msg{}), Sel4Error::kOk);
      second = k.reply(Sel4Msg{});  // consumed: must fail
    }, {{10, 2, CapRights::r()}}, 20, 21);
    start_child(k, "client", [&] {
      Sel4Msg msg;
      k.call(2, msg);
    }, {{10, 2, CapRights::wg()}}, 22, 23);
  });
  m.run_until(sim::sec(1));
  EXPECT_EQ(second, Sel4Error::kNoReplyCap);
}

TEST(Sel4, CallerUnblocksWithErrorWhenServerDies) {
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error r = Sel4Error::kOk;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    start_child(k, "server", [&] {
      Sel4Msg req;
      ASSERT_EQ(k.recv(2, req).status, Sel4Error::kOk);
      // exits without replying
    }, {{10, 2, CapRights::r()}}, 20, 21);
    start_child(k, "client", [&] {
      Sel4Msg msg;
      r = k.call(2, msg);
    }, {{10, 2, CapRights::wg()}}, 22, 23);
  });
  m.run_until(sim::sec(1));
  EXPECT_EQ(r, Sel4Error::kDeleted);
}

TEST(Sel4, NonBlockingVariantsReturnNotReady) {
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error s = Sel4Error::kOk, rv = Sel4Error::kOk;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    Sel4Msg msg;
    s = k.nbsend(10, msg);
    rv = k.nbrecv(10, msg).status;
  });
  m.run();
  EXPECT_EQ(s, Sel4Error::kNotReady);
  EXPECT_EQ(rv, Sel4Error::kNotReady);
}

TEST(Sel4, RightsDerivationOnlyShrinks) {
  sim::Machine m;
  Sel4Kernel k(m);
  bool send_denied = false;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    // Derive a read-only copy, then try to re-derive full rights from it.
    ASSERT_EQ(k.cnode_copy(10, 11, CapRights::r()), Sel4Error::kOk);
    ASSERT_EQ(k.cnode_copy(11, 12, CapRights::all()), Sel4Error::kOk);
    // Slot 12 must still be read-only: sending through it fails.
    Sel4Msg msg;
    send_denied = (k.nbsend(12, msg) == Sel4Error::kNoRights);
  });
  m.run();
  EXPECT_TRUE(send_denied);
}

TEST(Sel4, CapTransferRequiresGrant) {
  sim::Machine m;
  Sel4Kernel k(m);
  bool received_without_grant = true;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 11), Sel4Error::kOk);
    start_child(k, "recv", [&] {
      k.set_receive_slot(5);
      Sel4Msg msg;
      ASSERT_EQ(k.recv(2, msg).status, Sel4Error::kOk);
      received_without_grant = k.probe_own_slot(5);
    }, {{10, 2, CapRights::r()}}, 20, 21);
    start_child(k, "send", [&] {
      Sel4Msg msg;
      msg.transfer_cap_slot = 3;  // try to send away our cap to ep 11
      ASSERT_EQ(k.send(2, msg), Sel4Error::kOk);
    }, {{10, 2, CapRights::w()}, {11, 3, CapRights::all()}}, 22, 23);
  });
  m.run();
  // Without grant on the endpoint cap, the transfer silently fails.
  EXPECT_FALSE(received_without_grant);
  EXPECT_GE(m.trace().count_tag("cap.transfer_deny"), 1u);
}

TEST(Sel4, CapTransferWithGrantSucceeds) {
  sim::Machine m;
  Sel4Kernel k(m);
  bool received = false;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 11), Sel4Error::kOk);
    start_child(k, "recv", [&] {
      k.set_receive_slot(5);
      Sel4Msg msg;
      ASSERT_EQ(k.recv(2, msg).status, Sel4Error::kOk);
      received = k.probe_own_slot(5);
    }, {{10, 2, CapRights::r()}}, 20, 21);
    start_child(k, "send", [&] {
      Sel4Msg msg;
      msg.transfer_cap_slot = 3;
      ASSERT_EQ(k.send(2, msg), Sel4Error::kOk);
    }, {{10, 2, CapRights::wg()}, {11, 3, CapRights::all()}}, 22, 23);
  });
  m.run();
  EXPECT_TRUE(received);
  EXPECT_GE(m.trace().count_tag("cap.transfer"), 1u);
}

TEST(Sel4, BruteForceFindsOnlyGrantedCaps) {
  // §IV.D.3: "a simple brute-forcing program which attempts to enumerate
  // all the seL4 capability slots ... was unsuccessful in finding any
  // additional capabilities."
  sim::Machine m;
  Sel4Kernel k(m);
  std::vector<Slot> found;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 11), Sel4Error::kOk);
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 12), Sel4Error::kOk);
    start_child(k, "attacker", [&] {
      const int n = k.cspace_slots();
      for (Slot s = 0; s < n; ++s) {
        if (k.probe_own_slot(s)) found.push_back(s);
      }
    }, {{10, 2, CapRights::wg()}}, 20, 21);
  });
  m.run();
  // Exactly the one endpoint cap the bootstrap installed; nothing else.
  EXPECT_EQ(found, (std::vector<Slot>{2}));
}

TEST(Sel4, NotificationSignalAndWait) {
  sim::Machine m;
  Sel4Kernel k(m);
  std::uint64_t bits = 0;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kNotification, 10), Sel4Error::kOk);
    start_child(k, "waiter", [&] {
      ASSERT_EQ(k.wait(2, &bits), Sel4Error::kOk);
    }, {{10, 2, CapRights::r()}}, 20, 21);
    start_child(k, "signaller", [&] {
      m.sleep_for(sim::msec(1));
      ASSERT_EQ(k.signal(2), Sel4Error::kOk);
    }, {{10, 2, CapRights::w(), /*badge=*/0b100}}, 22, 23);
  });
  m.run();
  EXPECT_EQ(bits, 0b100u);
}

TEST(Sel4, ProbePathWalksChainedCNodes) {
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error deep = Sel4Error::kEmptySlot, missing = Sel4Error::kOk;
  k.boot_root([&] {
    // Build a 3-level chain: root[30] -> cnodeA[4] -> cnodeB[7] = endpoint
    ASSERT_EQ(k.retype(kUntyped, ObjType::kCNode, 30, 16), Sel4Error::kOk);
    ASSERT_EQ(k.retype(kUntyped, ObjType::kCNode, 31, 16), Sel4Error::kOk);
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 32), Sel4Error::kOk);
    ASSERT_EQ(k.cnode_copy_into(30, 31, 4, CapRights::all()), Sel4Error::kOk);
    ASSERT_EQ(k.cnode_copy_into(31, 32, 7, CapRights::all()), Sel4Error::kOk);
    deep = k.probe_path({30, 4, 7});
    missing = k.probe_path({30, 4, 8});
  });
  m.run();
  EXPECT_EQ(deep, Sel4Error::kOk);
  EXPECT_EQ(missing, Sel4Error::kEmptySlot);
}

TEST(Sel4, MoveLeavesSourceEmpty) {
  sim::Machine m;
  Sel4Kernel k(m);
  bool src_empty = false, dst_full = false;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    ASSERT_EQ(k.cnode_move(10, 11), Sel4Error::kOk);
    src_empty = !k.probe_own_slot(10);
    dst_full = k.probe_own_slot(11);
  });
  m.run();
  EXPECT_TRUE(src_empty);
  EXPECT_TRUE(dst_full);
}

TEST(Sel4, DeletingLastCapWakesBlockedThreads) {
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error r = Sel4Error::kOk;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    start_child(k, "recv", [&] {
      Sel4Msg msg;
      r = k.recv(2, msg).status;
    }, {{10, 2, CapRights::r()}}, 20, 21);
    m.sleep_for(sim::msec(5));
    // Delete both caps to the endpoint (root's and... the child still has
    // one, so delete only revokes when the last reference goes).
    ASSERT_EQ(k.cnode_delete(10), Sel4Error::kOk);
  });
  m.run_until(sim::msec(50));
  // Child still holds a cap, so it stays blocked (no spurious wake).
  EXPECT_EQ(r, Sel4Error::kOk);
}

TEST(Sel4, SuspendAndResumeViaTcbCap) {
  sim::Machine m;
  Sel4Kernel k(m);
  int beats = 0;
  k.boot_root([&] {
    start_child(k, "worker", [&] {
      for (;;) {
        ++beats;
        m.sleep_for(sim::msec(10));
      }
    }, {}, 20, 21);
    m.sleep_for(sim::msec(100));
    const int before = beats;
    ASSERT_EQ(k.tcb_suspend(20), Sel4Error::kOk);
    m.sleep_for(sim::msec(100));
    EXPECT_LE(beats - before, 1);  // effectively frozen
    ASSERT_EQ(k.tcb_resume(20), Sel4Error::kOk);
    m.sleep_for(sim::msec(100));
    EXPECT_GE(beats - before, 8);  // running again
  });
  m.run_until(sim::sec(1));
  EXPECT_GT(beats, 0);
}

TEST(Sel4, SuspendWithoutTcbCapIsImpossible) {
  // The only "kill-adjacent" primitive needs a TCB capability; a
  // component given none (like the web interface) cannot even name the
  // target.
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error r = Sel4Error::kOk;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    start_child(k, "attacker", [&] {
      r = k.tcb_suspend(2);  // its one cap is an endpoint, not a TCB
    }, {{10, 2, CapRights::wg()}}, 20, 21);
  });
  m.run_until(sim::sec(1));
  EXPECT_EQ(r, Sel4Error::kWrongType);
}

TEST(Sel4, ReplyRecvServesBackToBack) {
  sim::Machine m;
  Sel4Kernel k(m);
  std::vector<std::uint64_t> served;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    start_child(k, "server", [&] {
      Sel4Msg req;
      auto rr = k.recv(2, req);
      while (rr.status == Sel4Error::kOk) {
        served.push_back(req.mr(0));
        Sel4Msg rep;
        rep.push(req.mr(0) * 10);
        rr = k.reply_recv(2, rep, req);  // the canonical server loop
      }
    }, {{10, 2, CapRights::r()}}, 20, 21);
    start_child(k, "client", [&] {
      for (std::uint64_t i = 1; i <= 3; ++i) {
        Sel4Msg msg;
        msg.push(i);
        ASSERT_EQ(k.call(2, msg), Sel4Error::kOk);
        EXPECT_EQ(msg.mr(0), i * 10);
      }
    }, {{10, 2, CapRights::wg()}}, 22, 23);
  });
  m.run_until(sim::sec(1));
  EXPECT_EQ(served, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Sel4, FrameReadWriteRespectRights) {
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error ro_write = Sel4Error::kOk;
  std::uint8_t got = 0;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kFrame, 10), Sel4Error::kOk);
    ASSERT_EQ(k.cnode_copy(10, 11, CapRights::r()), Sel4Error::kOk);
    const std::uint8_t v = 0xAB;
    ASSERT_EQ(k.frame_write(10, 100, &v, 1), Sel4Error::kOk);
    ASSERT_EQ(k.frame_read(11, 100, &got, 1), Sel4Error::kOk);
    ro_write = k.frame_write(11, 0, &v, 1);
    // Bounds are enforced.
    EXPECT_EQ(k.frame_write(10, Sel4Kernel::kFrameBytes, &v, 1),
              Sel4Error::kTruncated);
  });
  m.run();
  EXPECT_EQ(got, 0xAB);
  EXPECT_EQ(ro_write, Sel4Error::kNoRights);
}

TEST(Sel4, RevokeStripsAllCopiesEverywhere) {
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error blocked_recv = Sel4Error::kOk;
  bool child_cap_gone = false;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    ASSERT_EQ(k.cnode_copy(10, 11, CapRights::all()), Sel4Error::kOk);
    start_child(k, "recv", [&] {
      Sel4Msg msg;
      blocked_recv = k.recv(2, msg).status;  // blocks; then revoked
      child_cap_gone = !k.probe_own_slot(2);
    }, {{10, 2, CapRights::r()}}, 20, 21);
    m.sleep_for(sim::msec(5));
    ASSERT_EQ(k.cnode_revoke(11), Sel4Error::kOk);
    // Both root copies and the child's cap must be gone.
    EXPECT_FALSE(k.probe_own_slot(10));
    EXPECT_FALSE(k.probe_own_slot(11));
  });
  m.run_until(sim::sec(1));
  EXPECT_EQ(blocked_recv, Sel4Error::kDeleted);
  EXPECT_TRUE(child_cap_gone);
}

TEST(Sel4, RevokeOfEmptySlotFails) {
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error r = Sel4Error::kOk;
  k.boot_root([&] { r = k.cnode_revoke(40); });
  m.run();
  EXPECT_EQ(r, Sel4Error::kEmptySlot);
}

TEST(Sel4, ThreadDeathPurgesEndpointQueues) {
  sim::Machine m;
  Sel4Kernel k(m);
  std::uint64_t got = 999;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 10), Sel4Error::kOk);
    start_child(k, "dying-sender", [&] {
      Sel4Msg msg;
      msg.push(111);
      k.send(2, msg);  // queues; killed before pickup
    }, {{10, 2, CapRights::w()}}, 20, 21);
    start_child(k, "late-recv", [&] {
      m.sleep_for(sim::msec(20));
      Sel4Msg msg;
      auto rr = k.nbrecv(2, msg);
      got = (rr.status == Sel4Error::kOk) ? msg.mr(0) : 0;
    }, {{10, 2, CapRights::r()}}, 22, 23);
  });
  m.at(sim::msec(5), [&] {
    // Kill the queued sender directly (simulated fault).
    for (auto* p : m.live_processes()) {
      if (p->name() == "dying-sender") m.kill(p);
    }
  });
  m.run_until(sim::sec(1));
  EXPECT_EQ(got, 0u);  // queue was purged; nothing to receive
}

// ---- probe_path verdicts follow every capability change ----

TEST(Sel4ProbePath, VerdictFollowsSlotWrite) {
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error before = Sel4Error::kOk, after = Sel4Error::kBadSlot;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kCNode, 10, 4), Sel4Error::kOk);
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 11), Sel4Error::kOk);
    const std::vector<Slot> path = {10, 1};
    before = k.probe_path(path);  // slot 1 is empty
    ASSERT_EQ(k.cnode_copy_into(10, 11, 1, CapRights::all()),
              Sel4Error::kOk);
    after = k.probe_path(path);
  });
  m.run();
  EXPECT_EQ(before, Sel4Error::kEmptySlot);
  EXPECT_EQ(after, Sel4Error::kOk);
}

TEST(Sel4ProbePath, VerdictFollowsDelete) {
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error before = Sel4Error::kBadSlot, after = Sel4Error::kOk;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kCNode, 10, 4), Sel4Error::kOk);
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 11), Sel4Error::kOk);
    ASSERT_EQ(k.cnode_copy_into(10, 11, 0, CapRights::all()),
              Sel4Error::kOk);
    const std::vector<Slot> path = {10, 0};
    before = k.probe_path(path);
    ASSERT_EQ(k.cnode_delete(10), Sel4Error::kOk);
    after = k.probe_path(path);  // root slot gone: must not report kOk
  });
  m.run();
  EXPECT_EQ(before, Sel4Error::kOk);
  EXPECT_NE(after, Sel4Error::kOk);
}

TEST(Sel4ProbePath, VerdictFollowsRevoke) {
  sim::Machine m;
  Sel4Kernel k(m);
  Sel4Error before = Sel4Error::kBadSlot, after = Sel4Error::kOk;
  k.boot_root([&] {
    ASSERT_EQ(k.retype(kUntyped, ObjType::kCNode, 10, 4), Sel4Error::kOk);
    ASSERT_EQ(k.retype(kUntyped, ObjType::kEndpoint, 11), Sel4Error::kOk);
    // Derive the copy inside the CNode from the root's endpoint cap.
    ASSERT_EQ(k.cnode_copy_into(10, 11, 0, CapRights::all()),
              Sel4Error::kOk);
    const std::vector<Slot> path = {10, 0};
    before = k.probe_path(path);
    ASSERT_EQ(k.cnode_revoke(11), Sel4Error::kOk);  // sweeps the child
    after = k.probe_path(path);
  });
  m.run();
  EXPECT_EQ(before, Sel4Error::kOk);
  EXPECT_NE(after, Sel4Error::kOk);
}
