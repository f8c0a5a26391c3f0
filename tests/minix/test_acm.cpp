#include "minix/acm.hpp"

#include <gtest/gtest.h>

#include "sim/rng.hpp"

namespace minix = mkbas::minix;

TEST(Acm, DefaultDeniesEverything) {
  minix::AcmPolicy acm;
  EXPECT_FALSE(acm.allowed(100, 101, 0));
  EXPECT_FALSE(acm.allowed(0, 0, 0));
}

TEST(Acm, AllowIsPerTypeAndDirectional) {
  minix::AcmPolicy acm;
  acm.allow(100, 101, {0, 2});
  EXPECT_TRUE(acm.allowed(100, 101, 0));
  EXPECT_FALSE(acm.allowed(100, 101, 1));
  EXPECT_TRUE(acm.allowed(100, 101, 2));
  // Direction matters: the reverse edge was never granted.
  EXPECT_FALSE(acm.allowed(101, 100, 0));
}

TEST(Acm, PaperFigure3Example) {
  // The exact example from Fig. 3: App1=100, App2=101, App3=102.
  // App2 may invoke App1's f2() and f3() (types 2, 3) but not f1();
  // App1's f1() may only be invoked by App3; acknowledgments (type 0)
  // are allowed between all communicating pairs.
  minix::AcmPolicy acm;
  acm.allow(101, 100, {0, 2, 3});  // App2 -> App1
  acm.allow(102, 100, {0, 1, 2, 3});  // App3 -> App1
  acm.allow(100, 101, {0});  // App1 -> App2 (ack only)
  acm.allow(100, 102, {0, 1, 3});  // App1 -> App3
  acm.allow(101, 102, {0, 1});  // App2 -> App3

  // "Suppose App2 tries to send a message with message type 2 to App1 ...
  //  the message will be allowed."
  EXPECT_TRUE(acm.allowed(101, 100, 2));
  // "if the message type is 1 the message will be denied."
  EXPECT_FALSE(acm.allowed(101, 100, 1));
  // app1_f1() is reserved for App3.
  EXPECT_TRUE(acm.allowed(102, 100, 1));
  // App2 has no publicly available procedures beyond ACK.
  EXPECT_TRUE(acm.allowed(100, 101, 0));
  EXPECT_FALSE(acm.allowed(100, 101, 1));
}

TEST(Acm, OutOfRangeTypesAreDenied) {
  minix::AcmPolicy acm;
  acm.allow_mask(1, 2, ~0ULL);
  EXPECT_TRUE(acm.allowed(1, 2, 63));
  EXPECT_FALSE(acm.allowed(1, 2, 64));
  EXPECT_FALSE(acm.allowed(1, 2, -1));
}

TEST(Acm, AllowAccumulates) {
  minix::AcmPolicy acm;
  acm.allow(1, 2, {0});
  acm.allow(1, 2, {5});
  EXPECT_TRUE(acm.allowed(1, 2, 0));
  EXPECT_TRUE(acm.allowed(1, 2, 5));
  EXPECT_EQ(acm.cell_count(), 1u);
}

TEST(Acm, KillPolicyIsSeparateFromMessagePolicy) {
  minix::AcmPolicy acm;
  acm.allow(1, 2, {0, 1, 2, 3});
  EXPECT_FALSE(acm.kill_allowed(1, 2));
  acm.allow_kill(1, 2);
  EXPECT_TRUE(acm.kill_allowed(1, 2));
  EXPECT_FALSE(acm.kill_allowed(2, 1));
}

TEST(Acm, ForkQuota) {
  minix::AcmPolicy acm;
  EXPECT_FALSE(acm.fork_quota(7).has_value());
  acm.set_fork_quota(7, 3);
  ASSERT_TRUE(acm.fork_quota(7).has_value());
  EXPECT_EQ(*acm.fork_quota(7), 3);
  EXPECT_FALSE(acm.quotas_enabled());
  acm.set_quotas_enabled(true);
  EXPECT_TRUE(acm.quotas_enabled());
}

TEST(Acm, SparseFootprintScalesWithEdgesNotProcesses) {
  minix::AcmPolicy sparse;
  // A 1000-process system with a 10-edge policy.
  for (int i = 0; i < 10; ++i) sparse.allow(i, i + 1, {0, 1});
  minix::DenseAcm dense(1000);
  for (int i = 0; i < 10; ++i) dense.allow_mask(i, i + 1, 0b11);
  EXPECT_LT(sparse.memory_footprint_bytes(),
            dense.memory_footprint_bytes() / 100);
}

// Property sweep: decisions must exactly reflect the constructed policy,
// at every moment of its construction. Ids span [0, 128), so they reach
// past 64 and cover the scenarios' ac_ids (99..115); half the grants land
// in that band, so most cells are looked up and then granted again. A
// lookup made before a grant must never hide the grant. Negative ids and
// out-of-range message types are always denied.
class AcmPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AcmPropertyTest, DecisionsMatchConstructedPolicy) {
  constexpr int kIds = 128;
  mkbas::sim::Rng rng(GetParam());
  minix::AcmPolicy acm;
  minix::DenseAcm dense(kIds - 1);
  const auto expect_same = [&](int src, int dst) {
    for (int type : {-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 63, 64}) {
      ASSERT_EQ(acm.allowed(src, dst, type), dense.allowed(src, dst, type))
          << "src=" << src << " dst=" << dst << " type=" << type;
    }
  };
  const auto pick = [&](bool band) {
    return static_cast<int>(band ? 99 + rng.next_below(17)
                                 : rng.next_below(kIds));
  };
  for (int step = 0; step < 400; ++step) {
    const bool band = rng.next_below(2) == 0;
    const int src = pick(band);
    const int dst = pick(band);
    const std::uint64_t mask = rng.next_u64() & 0xFF;
    expect_same(src, dst);  // looked up first, then granted
    acm.allow_mask(src, dst, mask);
    dense.allow_mask(src, dst, mask);
    expect_same(src, dst);
    const int other_src = pick(band);  // an unrelated cell in between
    expect_same(other_src, pick(band));
  }
  for (int src = -1; src < kIds; ++src) {
    for (int dst = -1; dst < kIds; ++dst) expect_same(src, dst);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcmPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 7u, 17u, 21u, 42u, 63u,
                                           99u, 404u, 1234u, 5678u, 9001u));
