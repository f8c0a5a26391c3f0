// Randomised invariant tests ("fuzzers") over the three kernels:
//  * MINIX: under a random policy, random IPC traffic and random process
//    kills, every delivered message respects the ACM — no interleaving
//    slips a disallowed (src, dst, type) through.
//  * seL4: a random sequence of capability operations stays in exact
//    agreement with a shadow model, and rights never amplify.
//  * Linux: mq_open and filesystem-socket connect outcomes match the
//    documented permission predicate for random uid/mode/ACL combinations.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "linuxsim/kernel.hpp"
#include "minix/kernel.hpp"
#include "sel4/kernel.hpp"
#include "sim/rng.hpp"

namespace sim = mkbas::sim;
namespace minix = mkbas::minix;
namespace sel4 = mkbas::sel4;
namespace lx = mkbas::linuxsim;

// ---------------------------------------------------------------------
// MINIX IPC chaos fuzz
// ---------------------------------------------------------------------

class MinixIpcFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinixIpcFuzz, DeliveriesRespectThePolicyUnderChaos) {
  const std::uint64_t seed = GetParam();
  sim::Rng policy_rng(seed);

  constexpr int kProcs = 8;
  constexpr int kBaseAc = 100;  // inside the scenarios' ac_ids (99..115)
  minix::AcmPolicy acm;
  // Random message policy over types 0..7 between the 8 processes.
  for (int a = 0; a < kProcs; ++a) {
    for (int b = 0; b < kProcs; ++b) {
      acm.allow_mask(kBaseAc + a, kBaseAc + b, policy_rng.next_u64() & 0xFF);
    }
    acm.allow_mask(kBaseAc + a, minix::MinixKernel::kPmAcId, ~0ULL);
    acm.allow_mask(minix::MinixKernel::kPmAcId, kBaseAc + a, ~0ULL);
  }
  const minix::AcmPolicy reference = acm;  // kernel gets a copy

  sim::Machine m(seed);
  minix::MinixKernel k(m, std::move(acm));

  struct Delivery {
    int src_ac;
    int dst_ac;
    int m_type;
  };
  auto deliveries = std::make_shared<std::vector<Delivery>>();
  auto ep_to_ac = std::make_shared<std::map<std::int32_t, int>>();
  auto endpoints = std::make_shared<std::vector<minix::Endpoint>>();

  for (int i = 0; i < kProcs; ++i) {
    const int ac = kBaseAc + i;
    const minix::Endpoint ep = k.srv_fork2(
        "fuzz" + std::to_string(i), ac,
        [&k, &m, ac, deliveries, endpoints, ep_to_ac, seed, i] {
          sim::Rng rng(seed * 1000 + static_cast<std::uint64_t>(i));
          for (;;) {
            const auto op = rng.next_below(10);
            const minix::Endpoint target =
                (*endpoints)[rng.next_below(endpoints->size())];
            minix::Message msg;
            msg.m_type = static_cast<int>(rng.next_below(8));
            msg.put_f64(0, rng.next_double());
            switch (op) {
              case 0:
              case 1:
                k.ipc_sendnb(target, msg);
                break;
              case 2:
                k.ipc_senda(target, msg);
                break;
              case 3:
                k.ipc_notify(target);
                break;
              case 4: {
                // Blocking send: may block a while; peers will drain or
                // die, and EDEADSRCDST unblocks us.
                k.ipc_send(target, msg);
                break;
              }
              case 5:
              case 6:
              case 7: {
                minix::Message in;
                if (k.ipc_nbreceive(minix::Endpoint::any(), in) ==
                    minix::IpcResult::kOk) {
                  const auto it = ep_to_ac->find(in.m_source);
                  deliveries->push_back(
                      {it == ep_to_ac->end() ? -1 : it->second, ac,
                       in.m_type});
                }
                break;
              }
              case 8: {
                minix::Message in;
                if (k.ipc_receive(target, in) == minix::IpcResult::kOk) {
                  const auto it = ep_to_ac->find(in.m_source);
                  deliveries->push_back(
                      {it == ep_to_ac->end() ? -1 : it->second, ac,
                       in.m_type});
                }
                break;
              }
              default:
                m.sleep_for(sim::usec(100 + rng.next_below(900)));
                break;
            }
          }
        },
        /*priority=*/5 + static_cast<int>(i % 3));
    endpoints->push_back(ep);
    (*ep_to_ac)[ep.raw()] = ac;
  }

  // Kill two random processes mid-run to stress cleanup paths.
  sim::Rng kill_rng(seed ^ 0xDEAD);
  for (int n = 0; n < 2; ++n) {
    const auto victim = (*endpoints)[kill_rng.next_below(endpoints->size())];
    m.at(sim::msec(200 + 300 * n), [&k, victim] { k.kernel_kill(victim); });
  }

  m.run_until(sim::sec(1));

  ASSERT_FALSE(deliveries->empty()) << "fuzz produced no traffic";
  for (const auto& d : *deliveries) {
    ASSERT_NE(d.src_ac, -1) << "delivery from unknown endpoint";
    if (d.m_type == minix::kNotifyMType) {
      ASSERT_TRUE(reference.allowed(d.src_ac, d.dst_ac, minix::kNotifyMType))
          << "notify slipped past the ACM";
    } else {
      ASSERT_TRUE(reference.allowed(d.src_ac, d.dst_ac, d.m_type))
          << "message type " << d.m_type << " from ac " << d.src_ac
          << " to ac " << d.dst_ac << " violates the policy";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinixIpcFuzz,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

// ---------------------------------------------------------------------
// seL4 capability shadow-model fuzz
// ---------------------------------------------------------------------

namespace {

struct ShadowCap {
  bool present = false;
  int object = -1;
  sel4::CapRights rights;
  std::uint64_t badge = 0;
};

}  // namespace

class Sel4CapFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Sel4CapFuzz, ShadowModelStaysExact) {
  const std::uint64_t seed = GetParam();
  sim::Machine m(seed);
  sel4::Sel4Kernel k(m);
  bool done = false;
  int mismatches = 0;
  int rights_amplifications = 0;

  k.boot_root([&] {
    using sel4::CapRights;
    using sel4::ObjType;
    using sel4::Sel4Error;
    sim::Rng rng(seed);
    const int n = k.cspace_slots();
    std::vector<ShadowCap> shadow(static_cast<std::size_t>(n));
    // Slots 0/1 (own CNode, untyped) are never operands.
    constexpr int kMinSlot = 5;
    int next_object_tag = 1000;

    auto rand_slot = [&] {
      return kMinSlot +
             static_cast<int>(rng.next_below(
                 static_cast<std::uint64_t>(n - kMinSlot)));
    };
    auto rand_rights = [&] {
      return CapRights{rng.next_below(2) == 1, rng.next_below(2) == 1,
                       rng.next_below(2) == 1};
    };

    for (int step = 0; step < 1500 && !done; ++step) {
      const auto op = rng.next_below(10);
      if (op <= 1) {  // retype a fresh endpoint/notification
        const int dst = rand_slot();
        const ObjType type = rng.next_below(2) == 0
                                 ? ObjType::kEndpoint
                                 : ObjType::kNotification;
        const Sel4Error r =
            k.retype(sel4::Sel4Kernel::kRootUntypedSlot, type, dst);
        const bool expect_ok = !shadow[static_cast<std::size_t>(dst)].present;
        if (expect_ok != (r == Sel4Error::kOk)) {
          // Untyped exhaustion is a legal alternative failure.
          if (r != Sel4Error::kUntypedExhausted) ++mismatches;
          continue;
        }
        if (r == Sel4Error::kOk) {
          shadow[static_cast<std::size_t>(dst)] =
              ShadowCap{true, next_object_tag++, CapRights::all(), 0};
        }
      } else if (op <= 4) {  // copy/mint
        const int src = rand_slot(), dst = rand_slot();
        const CapRights mask = rand_rights();
        const std::uint64_t badge = rng.next_below(100);
        const Sel4Error r = k.cnode_mint(src, dst, mask, badge);
        auto& s = shadow[static_cast<std::size_t>(src)];
        auto& d = shadow[static_cast<std::size_t>(dst)];
        const bool expect_ok = s.present && !d.present && src != dst;
        if (expect_ok != (r == Sel4Error::kOk)) {
          ++mismatches;
          continue;
        }
        if (r == Sel4Error::kOk) {
          d = s;
          d.rights = s.rights.masked_by(mask);
          if (badge != 0) d.badge = badge;
          if (!d.rights.subset_of(s.rights)) ++rights_amplifications;
        }
      } else if (op <= 6) {  // move
        const int src = rand_slot(), dst = rand_slot();
        const Sel4Error r = k.cnode_move(src, dst);
        auto& s = shadow[static_cast<std::size_t>(src)];
        auto& d = shadow[static_cast<std::size_t>(dst)];
        const bool expect_ok = s.present && !d.present && src != dst;
        if (expect_ok != (r == Sel4Error::kOk)) {
          ++mismatches;
          continue;
        }
        if (r == Sel4Error::kOk) {
          d = s;
          s = ShadowCap{};
        }
      } else if (op <= 8) {  // delete
        const int slot = rand_slot();
        const Sel4Error r = k.cnode_delete(slot);
        auto& s = shadow[static_cast<std::size_t>(slot)];
        const bool expect_ok = s.present;
        if (expect_ok != (r == Sel4Error::kOk)) {
          ++mismatches;
          continue;
        }
        s = ShadowCap{};
      } else {  // revoke: strips every cap to the same object
        const int slot = rand_slot();
        auto& s = shadow[static_cast<std::size_t>(slot)];
        const Sel4Error r = k.cnode_revoke(slot);
        const bool expect_ok = s.present;
        if (expect_ok != (r == Sel4Error::kOk)) {
          ++mismatches;
          continue;
        }
        if (r == Sel4Error::kOk) {
          const int obj = s.object;
          for (auto& c : shadow) {
            if (c.present && c.object == obj) c = ShadowCap{};
          }
        }
      }

      // Periodic full-state comparison through legitimate introspection.
      if (step % 100 == 99) {
        for (int slot = kMinSlot; slot < n; ++slot) {
          sel4::Sel4Kernel::CapInfo info;
          if (k.cnode_inspect(sel4::Sel4Kernel::kRootCNodeSlot, slot,
                              info) != Sel4Error::kOk) {
            ++mismatches;
            continue;
          }
          const auto& sc = shadow[static_cast<std::size_t>(slot)];
          if (info.present != sc.present) {
            ++mismatches;
          } else if (info.present) {
            if (info.rights.read != sc.rights.read ||
                info.rights.write != sc.rights.write ||
                info.rights.grant != sc.rights.grant ||
                info.badge != sc.badge) {
              ++mismatches;
            }
          }
        }
      }
    }
    done = true;
  });
  m.run_until(sim::sec(30));
  EXPECT_TRUE(done);
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(rights_amplifications, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Sel4CapFuzz,
                         ::testing::Values(1u, 7u, 42u, 99u, 12345u));

// ---------------------------------------------------------------------
// Unix-domain-socket chaos fuzz
// ---------------------------------------------------------------------

class UdsChaosFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UdsChaosFuzz, KernelSurvivesRandomSocketTraffic) {
  // Random binds/connects/sends/recvs/closes across 6 tasks and two
  // namespaces, plus mid-run kills. Invariants: the kernel never crashes,
  // and every byte received was sent by *someone* on that socket's name
  // (streams never cross names).
  const std::uint64_t seed = GetParam();
  sim::Machine m(seed);
  lx::LinuxKernel k(m);
  const char* names[] = {"/run/a", "/run/b", "@c"};
  auto violations = std::make_shared<int>(0);
  std::vector<int> pids;

  for (int i = 0; i < 6; ++i) {
    const int pid = k.spawn_process(
        "fz" + std::to_string(i), 1000 + (i % 2), [&k, &m, seed, i, names,
                                                   violations] {
          sim::Rng rng(seed * 77 + static_cast<std::uint64_t>(i));
          std::vector<int> server_fds, conn_fds;
          for (;;) {
            const char* name = names[rng.next_below(3)];
            const bool abstract = name[0] == '@';
            switch (rng.next_below(8)) {
              case 0: {
                const int s = k.sock_socket();
                const lx::Errno r =
                    abstract ? k.sock_bind_abstract(s, name + 1)
                             : k.sock_bind(s, name, lx::Mode::rw_everyone());
                if (r == lx::Errno::kOk) {
                  k.sock_listen(s, 4);
                  server_fds.push_back(s);
                } else {
                  k.sock_close(s);
                }
                break;
              }
              case 1: {
                const int c = abstract
                                  ? k.sock_connect_abstract(name + 1)
                                  : k.sock_connect(name);
                if (c >= 0) conn_fds.push_back(c);
                break;
              }
              case 2: {
                if (server_fds.empty()) break;
                const int c = k.sock_accept(
                    server_fds[rng.next_below(server_fds.size())], false);
                if (c >= 0) conn_fds.push_back(c);
                break;
              }
              case 3:
              case 4: {
                if (conn_fds.empty()) break;
                const int fd = conn_fds[rng.next_below(conn_fds.size())];
                // Tag each payload with the sender-visible marker.
                k.sock_send(fd, std::string("payload:") +
                                    std::to_string(rng.next_below(1000)),
                            false);
                break;
              }
              case 5: {
                if (conn_fds.empty()) break;
                const int fd = conn_fds[rng.next_below(conn_fds.size())];
                std::string msg;
                if (k.sock_recv(fd, &msg, false) == lx::Errno::kOk) {
                  if (msg.rfind("payload:", 0) != 0) ++*violations;
                }
                break;
              }
              case 6: {
                if (conn_fds.empty()) break;
                const std::size_t idx = rng.next_below(conn_fds.size());
                k.sock_close(conn_fds[idx]);
                conn_fds.erase(conn_fds.begin() +
                               static_cast<long>(idx));
                break;
              }
              default:
                m.sleep_for(sim::usec(200 + rng.next_below(800)));
                break;
            }
          }
        });
    pids.push_back(pid);
  }
  sim::Rng kill_rng(seed ^ 0xBEEF);
  m.at(sim::msec(300), [&m, &pids, &kill_rng] {
    // Driver-context fault injection uses the machine primitive (Linux
    // syscalls are only valid from task context).
    m.kill(m.find_process(pids[kill_rng.next_below(pids.size())]));
  });
  m.run_until(sim::sec(1));
  EXPECT_EQ(*violations, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UdsChaosFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ---------------------------------------------------------------------
// Linux permission-predicate fuzz
// ---------------------------------------------------------------------

namespace {

/// A random owner, mode and ACL, and a random caller (root one time in
/// six), with the documented DAC predicate over them.
struct RandomDac {
  lx::Uid owner;
  lx::Mode mode;
  lx::Uid caller;

  explicit RandomDac(sim::Rng& rng) {
    owner = 1000 + static_cast<int>(rng.next_below(4));
    mode.owner_read = rng.next_below(2) == 1;
    mode.owner_write = rng.next_below(2) == 1;
    mode.other_read = rng.next_below(2) == 1;
    mode.other_write = rng.next_below(2) == 1;
    const int acl_count = static_cast<int>(rng.next_below(3));
    for (int a = 0; a < acl_count; ++a) {
      mode.grant(1000 + static_cast<int>(rng.next_below(6)),
                 rng.next_below(2) == 1, rng.next_below(2) == 1);
    }
    caller = rng.next_below(6) == 0
                 ? lx::kRootUid
                 : 1000 + static_cast<int>(rng.next_below(6));
  }

  /// Root bypasses; else the caller's ACL entry; else owner or other bit.
  bool allows(bool write) const {
    if (caller == lx::kRootUid) return true;
    const auto it = mode.acl.find(caller);
    if (it != mode.acl.end()) {
      return write ? it->second.second : it->second.first;
    }
    if (caller == owner) return write ? mode.owner_write : mode.owner_read;
    return write ? mode.other_write : mode.other_read;
  }
};

}  // namespace

class LinuxPermFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinuxPermFuzz, MqOpenMatchesTheDocumentedPredicate) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed);

  for (int round = 0; round < 20; ++round) {
    sim::Machine m(seed + static_cast<std::uint64_t>(round));
    lx::LinuxKernel k(m);
    const RandomDac dac(rng);
    int fd = -99;
    k.spawn_process("owner", dac.owner, [&] {
      const int f = k.mq_open("/q", true, dac.mode);
      ASSERT_GE(f, 0);  // creation always succeeds for the creator
      m.sleep_for(sim::sec(1));
    });
    k.spawn_process("opener", dac.caller, [&] {
      m.sleep_for(sim::msec(1));
      fd = k.mq_open("/q", false);
    });
    m.run_until(sim::sec(2));
    const bool allowed = fd >= 0;
    ASSERT_EQ(allowed, dac.allows(false) || dac.allows(true))
        << "round " << round << " uid " << dac.caller << " owner "
        << dac.owner;
  }
}

// Connecting to a filesystem socket is the same DAC check as opening a
// node for writing: same owner, mode and ACL, same verdict.
TEST_P(LinuxPermFuzz, SockConnectMatchesTheWritePredicate) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed ^ 0x50C);

  for (int round = 0; round < 20; ++round) {
    sim::Machine m(seed + static_cast<std::uint64_t>(round));
    lx::LinuxKernel k(m);
    const RandomDac dac(rng);
    int fd = -99;
    k.spawn_process("server", dac.owner, [&] {
      const int s = k.sock_socket();
      ASSERT_EQ(k.sock_bind(s, "/run/s.sock", dac.mode), lx::Errno::kOk);
      ASSERT_EQ(k.sock_listen(s), lx::Errno::kOk);
      m.sleep_for(sim::sec(1));
    });
    k.spawn_process("client", dac.caller, [&] {
      m.sleep_for(sim::msec(1));
      fd = k.sock_connect("/run/s.sock");
    });
    m.run_until(sim::sec(2));
    ASSERT_EQ(fd >= 0, dac.allows(true))
        << "round " << round << " uid " << dac.caller << " owner "
        << dac.owner << " fd " << fd;
    ASSERT_EQ(m.trace().count_tag("uds.connect_deny"),
              dac.allows(true) ? 0u : 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinuxPermFuzz,
                         ::testing::Values(3u, 17u, 256u, 999u));
