// The fabric's contract: conservative-lockstep delivery that replays
// byte-identically from (topology, seed), with loss / partition /
// overflow accounted per cause — plus the cross-controller attack
// matrix riding on top of it (core::run_fabric).
#include <gtest/gtest.h>

#include "../same_bytes.hpp"
#include "campaign/campaign.hpp"
#include "core/fabric_run.hpp"
#include "core/hash.hpp"
#include "net/fabric.hpp"

namespace net = mkbas::net;
namespace sim = mkbas::sim;
namespace core = mkbas::core;

using Service = net::BacnetMsg::Service;

namespace {

net::BacnetMsg write_msg(std::uint32_t src, std::uint32_t dst, double v) {
  net::BacnetMsg m;
  m.service = Service::kWriteProperty;
  m.src_device = src;
  m.dst_device = dst;
  m.property = "zone.setpoint";
  m.value = v;
  return m;
}

}  // namespace

TEST(Fabric, DeliversAcrossMachinesAfterLinkLatency) {
  net::Fabric fabric(/*seed=*/3);
  const int a = fabric.add_node(1);
  const int b = fabric.add_node(2);
  net::BacnetDevice console(1, "console");
  net::BacnetDevice zone(100, "zone0");
  zone.set_property("zone.setpoint", 21.0);
  fabric.attach(a, console);
  fabric.attach(b, zone);
  net::LinkProfile link;
  link.base = sim::msec(5);
  link.jitter = 0;
  fabric.set_default_link(link);

  fabric.machine(a).at(sim::msec(10), [&] {
    fabric.post(a, write_msg(1, 100, 24.5));
  });
  fabric.run_until(sim::msec(10));
  // Posted but not yet delivered: base latency is 5 ms.
  EXPECT_EQ(fabric.delivered(), 0u);
  EXPECT_DOUBLE_EQ(zone.property("zone.setpoint"), 21.0);

  fabric.run_until(sim::msec(40));
  EXPECT_DOUBLE_EQ(zone.property("zone.setpoint"), 24.5);
  EXPECT_EQ(zone.writes_accepted(), 1u);
  // The write plus its SimpleAck back to the console.
  EXPECT_EQ(fabric.delivered(), 2u);
  // The fabric stamped the send time on the posting node's clock.
  ASSERT_EQ(fabric.sent_log().size(), 2u);
  EXPECT_EQ(fabric.sent_log()[0].sent_at, sim::msec(10));
}

TEST(Fabric, CovSubscriptionPushesAcrossTheFabric) {
  net::Fabric fabric(/*seed=*/3);
  const int a = fabric.add_node(1);
  const int b = fabric.add_node(2);
  net::BacnetDevice console(1, "console");
  net::BacnetDevice zone(100, "zone0");
  zone.set_property("zone.temp", 20.0);
  fabric.attach(a, console);
  fabric.attach(b, zone);

  fabric.machine(a).at(sim::msec(1), [&] {
    net::BacnetMsg sub;
    sub.service = Service::kSubscribeCov;
    sub.src_device = 1;
    sub.dst_device = 100;
    sub.property = "zone.temp";
    fabric.post(a, sub);
  });
  fabric.machine(b).at(sim::msec(50), [&] {
    zone.set_property("zone.temp", 21.5);
  });
  fabric.run_until(sim::msec(100));

  ASSERT_EQ(console.cov_inbox().size(), 1u);
  EXPECT_EQ(console.cov_inbox()[0].property, "zone.temp");
  EXPECT_DOUBLE_EQ(console.cov_inbox()[0].value, 21.5);
  // End-to-end latency was recorded (base 5 ms + U[0,2] ms jitter).
  EXPECT_EQ(fabric.cov_delivered(), 1u);
}

TEST(Fabric, LossyLinkDropsAndAccountsDatagrams) {
  net::Fabric fabric(/*seed=*/3);
  const int a = fabric.add_node(1);
  const int b = fabric.add_node(2);
  net::BacnetDevice console(1, "console");
  net::BacnetDevice zone(100, "zone0");
  fabric.attach(a, console);
  fabric.attach(b, zone);
  net::LinkProfile lossy;
  lossy.loss = 1.0;  // every datagram a->b dies; replies still pass
  fabric.set_link(a, b, lossy);

  fabric.machine(a).at(sim::msec(1), [&] {
    fabric.post(a, write_msg(1, 100, 30.0));
  });
  fabric.run_until(sim::msec(50));
  EXPECT_EQ(zone.writes_accepted(), 0u);
  EXPECT_EQ(fabric.dropped_loss(), 1u);
  EXPECT_EQ(fabric.delivered(), 0u);
}

TEST(Fabric, PartitionWindowDropsThenHeals) {
  net::Fabric fabric(/*seed=*/3);
  const int a = fabric.add_node(1);
  const int b = fabric.add_node(2);
  net::BacnetDevice console(1, "console");
  net::BacnetDevice zone(100, "zone0");
  fabric.attach(a, console);
  fabric.attach(b, zone);
  net::PartitionWindow split;
  split.node_a = a;
  split.node_b = b;
  split.from = 0;
  split.to = sim::msec(100);
  fabric.add_partition(split);

  fabric.machine(a).at(sim::msec(10), [&] {
    fabric.post(a, write_msg(1, 100, 25.0));  // inside the window: dropped
  });
  fabric.machine(a).at(sim::msec(150), [&] {
    fabric.post(a, write_msg(1, 100, 26.0));  // after healing: delivered
  });
  fabric.run_until(sim::msec(200));
  EXPECT_EQ(fabric.dropped_partition(), 1u);
  EXPECT_EQ(zone.writes_accepted(), 1u);
  EXPECT_DOUBLE_EQ(zone.property("zone.setpoint"), 26.0);
}

TEST(Fabric, BoundedInboxDropsFloodOverflow) {
  net::Fabric fabric(/*seed=*/3);
  const int a = fabric.add_node(1);
  const int b = fabric.add_node(2);
  net::BacnetDevice console(1, "console");
  net::BacnetDevice zone(100, "zone0");
  fabric.attach(a, console);
  fabric.attach(b, zone);

  fabric.machine(a).at(sim::msec(1), [&] {
    for (int i = 0; i < 200; ++i) {
      net::BacnetMsg probe;
      probe.service = Service::kWhoIs;
      probe.src_device = 66;  // unattached: replies vanish
      probe.dst_device = 100;
      fabric.post(a, probe);
    }
  });
  fabric.run_until(sim::msec(50));
  EXPECT_EQ(fabric.dropped_overflow(),
            200u - net::Fabric::kInboxDepth);
  EXPECT_EQ(fabric.delivered(), net::Fabric::kInboxDepth);
}

// --- run_fabric: the N-zone building ------------------------------------

TEST(FabricRun, ReplaysByteIdenticallyWithLossAndPartitions) {
  core::FabricOptions opts;
  opts.zones = 3;
  opts.seed = 11;
  opts.duration = sim::minutes(12);
  opts.link.loss = 0.05;
  net::PartitionWindow split;
  split.node_a = 0;
  split.node_b = 2;
  split.from = sim::minutes(4);
  split.to = sim::minutes(6);  // heals mid-run
  opts.partitions.push_back(split);

  const core::FabricRunResult r1 = core::run_fabric(opts);
  const core::FabricRunResult r2 = core::run_fabric(opts);
  EXPECT_GT(r1.delivered, 0u);
  EXPECT_GT(r1.drop_loss, 0u);   // the lossy links actually fired
  EXPECT_GT(r1.cov_count, 0u);   // telemetry flowed despite the split
  EXPECT_EQ(r1.delivered, r2.delivered);
  EXPECT_EQ(r1.drop_loss, r2.drop_loss);
  EXPECT_EQ(r1.drop_partition, r2.drop_partition);
  EXPECT_EQ(r1.trace_hash, r2.trace_hash);
  EXPECT_TRUE(same_bytes(r1.telemetry->metrics.to_json(),
                         r2.telemetry->metrics.to_json()));
}

TEST(FabricRun, DifferentSeedsDiverge) {
  core::FabricOptions opts;
  opts.zones = 2;
  opts.duration = sim::minutes(8);
  opts.link.loss = 0.05;
  opts.seed = 1;
  const auto r1 = core::run_fabric(opts);
  opts.seed = 2;
  const auto r2 = core::run_fabric(opts);
  EXPECT_NE(r1.trace_hash, r2.trace_hash);
}

TEST(FabricRun, SpoofedWriteLandsOnLinuxButNotBehindProxies) {
  core::FabricOptions opts;
  opts.zones = 3;  // zone 0 linux, 1 minix+proxy, 2 sel4+proxy (attacker)
  opts.duration = sim::minutes(15);
  opts.attack = core::FabricAttack::kSpoofWrite;
  opts.attack_at = sim::minutes(10);
  const auto r = core::run_fabric(opts);
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_FALSE(r.rows[0].proxied);
  EXPECT_TRUE(r.rows[0].attack_delivered);
  EXPECT_DOUBLE_EQ(r.rows[0].final_setpoint_c, 35.0);
  EXPECT_TRUE(r.rows[1].proxied);
  EXPECT_FALSE(r.rows[1].attack_delivered);
  EXPECT_GE(r.rows[1].proxy_rejected_tag, 1u);
  EXPECT_LT(r.rows[1].final_setpoint_c, 30.0);
}

TEST(FabricRun, ReplayedDatagramsRejectedByProxySequenceWindow) {
  core::FabricOptions opts;
  opts.zones = 3;
  opts.duration = sim::minutes(15);
  opts.attack = core::FabricAttack::kReplay;
  opts.attack_at = sim::minutes(10);
  const auto r = core::run_fabric(opts);
  ASSERT_EQ(r.rows.size(), 3u);
  // The Linux zone re-accepts the captured write; the proxied zones see a
  // valid MAC with a stale sequence number and reject it as a replay.
  EXPECT_TRUE(r.rows[0].attack_delivered);
  EXPECT_FALSE(r.rows[1].attack_delivered);
  EXPECT_GE(r.rows[1].proxy_rejected_replay, 1u);
  EXPECT_GE(r.rows[2].proxy_rejected_replay, 1u);
}

TEST(FabricRun, FloodSaturatesHeadEndInbox) {
  core::FabricOptions opts;
  opts.zones = 3;
  opts.duration = sim::minutes(12);
  opts.attack = core::FabricAttack::kFlood;
  opts.attack_at = sim::minutes(10);
  const auto r = core::run_fabric(opts);
  EXPECT_GT(r.drop_overflow, 0u);
  // No zone's setpoint was touched: flooding is loss of view, not of
  // control.
  for (const auto& row : r.rows) {
    EXPECT_FALSE(row.attack_delivered);
  }
}

TEST(FabricRun, CovLatencyHistogramPopulated) {
  core::FabricOptions opts;
  opts.zones = 2;
  opts.duration = sim::minutes(8);
  const auto r = core::run_fabric(opts);
  EXPECT_GT(r.cov_count, 0u);
  // base 5 ms; p99 bounded by base + jitter rounded up to a bucket edge.
  EXPECT_GE(r.cov_p99_us, 5000.0);
  EXPECT_LE(r.cov_p99_us, 10000.0);
  // The fabric metrics made it into the merged registry export.
  const std::string metrics = r.telemetry->metrics.to_json();
  EXPECT_NE(metrics.find("fabric.cov.latency_us"), std::string::npos);
  EXPECT_NE(metrics.find("fabric.delivered"), std::string::npos);
}

// --- the campaign cell: one building per cell, any --jobs ----------------

TEST(FabricCampaign, SixteenZoneBuildingIdenticalAcrossJobCounts) {
  core::FabricOptions base;
  base.duration = sim::minutes(12);
  base.seed = 5;
  auto cells = core::fabric_matrix_cells(/*zones=*/16, base);
  ASSERT_EQ(cells.size(), 4u);  // none / spoof-write / replay / flood
  const auto seq = core::run_campaign(cells, /*jobs=*/1);
  const auto par = core::run_campaign(cells, /*jobs=*/4);
  EXPECT_TRUE(same_bytes(seq.summary_json(), par.summary_json()));

  const auto rows = core::fabric_rows(seq);
  ASSERT_EQ(rows.size(), 4u);
  for (const auto& r : rows) {
    EXPECT_EQ(r.zones, 16);
    EXPECT_EQ(r.rows.size(), 16u);
  }
  // The spoof cell: every Linux zone falls, every proxied zone holds.
  const auto& spoof = rows[1];
  ASSERT_EQ(spoof.attack, core::FabricAttack::kSpoofWrite);
  for (const auto& row : spoof.rows) {
    if (static_cast<std::size_t>(row.zone) + 1 == 16u) continue;  // attacker
    EXPECT_EQ(row.attack_delivered, !row.proxied)
        << "zone " << row.zone << " (" << row.label << ")";
  }
}
