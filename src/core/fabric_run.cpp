#include "core/fabric_run.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/hash.hpp"

namespace mkbas::core {

const char* to_string(FabricAttack a) {
  switch (a) {
    case FabricAttack::kNone:
      return "none";
    case FabricAttack::kSpoofWrite:
      return "spoof-write";
    case FabricAttack::kReplay:
      return "replay";
    case FabricAttack::kFlood:
      return "flood";
  }
  return "?";
}

namespace {

constexpr std::uint32_t kConsoleId = 1;
constexpr std::uint32_t kZoneIdBase = 100;
constexpr std::uint32_t kFloorIdBase = 1000000;
constexpr double kSpoofSetpointC = 35.0;
constexpr std::uint32_t kFloodSrcId = 66;  // deliberately unattached
constexpr sim::Duration kFloodWindow = sim::sec(30);

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  // splitmix64 over the xor — enough to decorrelate derived seeds.
  std::uint64_t x = a ^ (b * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Wires a zone's BACnet gateway device to the zone controller: writes to
/// "zone.setpoint" become HTTP POSTs against the controller's web
/// interface, reads of "zone.temp" serve the live room temperature.
class ZoneGateway : public net::PropertyHandler {
 public:
  ZoneGateway(sim::Machine& machine, bas::Scenario& scenario)
      : machine_(machine), scenario_(scenario) {}

  bool write(net::BacnetDevice&, const std::string& prop,
             double v) override {
    if (prop == "zone.setpoint") {
      char body[48];
      std::snprintf(body, sizeof body, "value=%.1f", v);
      scenario_.http().submit(machine_.now(), {"POST", "/setpoint", body});
    }
    return true;  // BACnet itself never vetoes; the proxy layer does
  }

  bool read(net::BacnetDevice&, const std::string& prop,
            double* value) override {
    if (prop != "zone.temp" || scenario_.plant() == nullptr) return false;
    *value = scenario_.plant()->room.temperature_c();
    return true;
  }

 private:
  sim::Machine& machine_;
  bas::Scenario& scenario_;
};

/// A floor head-end: absorbs the COV samples of every zone on its floor
/// and pushes one averaged "floor.agg" value upstream per flush period.
/// Aggregation happens in handle() itself — buffering each sample (the
/// cov_inbox path of the base class) would grow without bound under a
/// city's worth of telemetry.
class FloorAggregator : public net::BacnetDevice {
 public:
  FloorAggregator(std::uint32_t id, std::string name)
      : net::BacnetDevice(id, std::move(name)) {
    // Subscriptions to non-existent properties are rejected, and the
    // building console subscribes before the first flush window closes.
    set_property("floor.agg", 0.0);
  }

  net::BacnetMsg handle(const net::BacnetMsg& in) override {
    if (in.service == net::BacnetMsg::Service::kCovNotification) {
      ++absorbed_;
      ++window_count_;
      window_sum_ += in.value;
      net::BacnetMsg ack;
      ack.service = net::BacnetMsg::Service::kSimpleAck;
      ack.src_device = id();
      ack.dst_device = in.src_device;
      return ack;  // unconfirmed service: the fabric never routes this
    }
    return net::BacnetDevice::handle(in);
  }

  /// Push the window average upstream (COV to the building console).
  void flush() {
    if (window_count_ == 0) return;
    set_property("floor.agg", window_sum_ / static_cast<double>(window_count_));
    window_count_ = 0;
    window_sum_ = 0.0;
  }

  std::uint64_t absorbed() const { return absorbed_; }

 private:
  std::uint64_t window_count_ = 0;
  double window_sum_ = 0.0;
  std::uint64_t absorbed_ = 0;
};

/// Deterministic synthetic room temperature for gateway-only zones:
/// 19..23 C, a pure function of (zone, tick).
double lite_temp(int zone, int tick) {
  const std::uint32_t h = static_cast<std::uint32_t>(zone) * 2654435761u +
                          static_cast<std::uint32_t>(tick) * 40503u + 1u;
  return 19.0 + static_cast<double>(h % 4000) / 1000.0;
}

}  // namespace

FabricRunResult run_fabric(const FabricOptions& opts) {
  if (opts.zones < 1) throw std::invalid_argument("run_fabric: zones < 1");
  if (opts.mix.empty()) throw std::invalid_argument("run_fabric: empty mix");
  const bool flat = opts.topology == net::TopologySpec::Kind::kFlat;
  if (!flat && opts.topology != net::TopologySpec::Kind::kTree &&
      opts.topology != net::TopologySpec::Kind::kCampus) {
    throw std::invalid_argument(
        "run_fabric: topology must be flat, tree or campus");
  }
  const int buildings =
      opts.topology == net::TopologySpec::Kind::kCampus ? opts.buildings : 1;
  if (buildings < 1 || kConsoleId + static_cast<std::uint32_t>(buildings) >
                           kZoneIdBase) {
    throw std::invalid_argument("run_fabric: buildings out of range");
  }
  if (kZoneIdBase + static_cast<std::uint32_t>(opts.zones) >= kFloorIdBase) {
    throw std::invalid_argument("run_fabric: too many zones for the id plan");
  }

  FabricRunResult res;
  res.zones = opts.zones;
  res.attack = opts.attack;
  res.topology = to_string(opts.topology);

  net::Fabric fabric(opts.seed);
  fabric.set_default_link(opts.link);
  fabric.set_sync(opts.sync);
  fabric.set_capture(opts.capture);
  fabric.set_tracing(opts.net_trace);
  for (const net::PartitionWindow& w : opts.partitions) {
    fabric.add_partition(w);
  }

  auto& tags = sim::TagRegistry::instance();
  const std::uint32_t tag_sample = tags.intern("sensor.sample");
  const std::uint32_t tag_op_write = tags.intern("op.setpoint");
  const std::uint32_t tag_subscribe = tags.intern("head.subscribe");
  const std::uint32_t tag_attack =
      tags.intern(std::string("attack.") + to_string(opts.attack));

  auto configure_node = [&opts](sim::Machine& m) {
    m.spans().set_enabled(opts.trace_spans);
    m.audit().set_enabled(opts.trace_spans);
    // The series/health/flight stack rides the same observability knob:
    // the trace-off arm stays the clean A/B baseline.
    m.series().set_enabled(opts.trace_spans);
    m.health().set_enabled(opts.trace_spans);
    m.flight().set_enabled(opts.trace_spans);
  };

  // Node plan. Flat: head-end on node 0, zone z on node z + 1. Tree and
  // campus: the Topology builder lays out each building as one
  // contiguous block [building head][floor heads][zones] and the fabric
  // routes ONLY over its declared links — zone-to-zone datagrams drop
  // as unroutable (network segmentation as containment).
  net::Topology topo;
  if (!flat) {
    net::TopologySpec spec;
    spec.kind = opts.topology;
    spec.zones = opts.zones;
    spec.floors = opts.floors;
    spec.buildings = buildings;
    topo = net::Topology::build(spec);
  }
  const int node_count = flat ? opts.zones + 1 : topo.node_count();
  for (int n = 0; n < node_count; ++n) {
    fabric.add_node(mix64(opts.seed, static_cast<std::uint64_t>(n)));
    configure_node(fabric.machine(n));
  }
  if (!flat) fabric.set_topology(topo);
  fabric.set_jobs(opts.jobs);
  res.nodes = node_count;
  const net::Topology& t = fabric.topology();

  const auto zone_node = [&](int z) {
    return flat ? z + 1 : t.zone_nodes[static_cast<std::size_t>(z)];
  };
  const auto building_of_zone = [&](int z) {
    return flat ? 0 : t.zone_building[static_cast<std::size_t>(z)];
  };

  // Supervisory devices: one console per building head-end, one
  // aggregator per floor head-end.
  std::vector<std::unique_ptr<net::BacnetDevice>> consoles;
  std::vector<std::unique_ptr<FloorAggregator>> floor_aggs;
  std::map<int, std::uint32_t> floor_dev_of_node;  // floor node -> device id
  if (flat) {
    consoles.push_back(
        std::make_unique<net::BacnetDevice>(kConsoleId, "head-end"));
    fabric.attach(0, *consoles.back());
  } else {
    for (int b = 0; b < buildings; ++b) {
      consoles.push_back(std::make_unique<net::BacnetDevice>(
          kConsoleId + static_cast<std::uint32_t>(b),
          "head-end-b" + std::to_string(b)));
      fabric.attach(t.building_heads[static_cast<std::size_t>(b)],
                    *consoles.back());
    }
    std::uint32_t floor_seq = 0;
    for (int b = 0; b < buildings; ++b) {
      for (int fn : t.floor_heads[static_cast<std::size_t>(b)]) {
        const std::uint32_t id = kFloorIdBase + floor_seq;
        floor_aggs.push_back(std::make_unique<FloorAggregator>(
            id, "floor" + std::to_string(floor_seq) + "-agg"));
        floor_dev_of_node[fn] = id;
        fabric.attach(fn, *floor_aggs.back());
        // Periodic upstream push: one averaged COV per floor per period
        // instead of one per zone sample — the per-tier batching.
        FloorAggregator* agg = floor_aggs.back().get();
        fabric.machine(fn).every(opts.floor_flush, opts.floor_flush,
                                 [agg] { agg->flush(); });
        ++floor_seq;
      }
    }
  }

  struct Zone {
    bas::Platform platform;
    bool proxied;
    std::uint64_t key;
    std::unique_ptr<bas::Scenario> scenario;
    std::unique_ptr<ZoneGateway> handler;
    std::unique_ptr<net::BacnetDevice> gateway;
    std::unique_ptr<net::SecureProxy> proxy;
    std::uint64_t op_sequence = 0;
    int sample_tick = 0;
  };
  std::vector<Zone> zones(static_cast<std::size_t>(opts.zones));

  for (int z = 0; z < opts.zones; ++z) {
    Zone& zone = zones[static_cast<std::size_t>(z)];
    zone.platform = opts.mix[static_cast<std::size_t>(z) % opts.mix.size()];
    // The paper's framework hardens the microkernel controllers end to
    // end: kernel-level isolation inside the box, the Fig. 1 secure
    // proxy at its network edge. The Linux baseline is deployed bare.
    zone.proxied = zone.platform != bas::Platform::kLinux;
    zone.key = mix64(opts.seed, 0x5EC5E7 + static_cast<std::uint64_t>(z));

    const int node = zone_node(z);
    sim::Machine& m = fabric.machine(node);
    if (!opts.lite_zones) {
      zone.scenario =
          bas::make_scenario(m, zone.platform, "temp", opts.scenario);
      zone.handler = std::make_unique<ZoneGateway>(m, *zone.scenario);
    }
    zone.gateway = std::make_unique<net::BacnetDevice>(
        kZoneIdBase + static_cast<std::uint32_t>(z),
        "zone" + std::to_string(z) + "-gw");
    zone.gateway->set_handler(zone.handler.get());
    zone.gateway->set_property("zone.setpoint",
                               opts.scenario.control.initial_setpoint_c);
    zone.gateway->set_property("zone.temp", 0.0);
    // Attach the gateway first (wires its COV notifier), then the proxy
    // under the same device id so *incoming* datagrams pass the guard.
    fabric.attach(node, *zone.gateway);
    if (zone.proxied) {
      zone.proxy = std::make_unique<net::SecureProxy>(*zone.gateway,
                                                      zone.key);
      fabric.attach(node, *zone.proxy);
    }

    // Telemetry: the gateway samples the room every 30 s; subscribed
    // head-ends get the value pushed over the fabric as COV traffic. The
    // sensor.sample span roots the telemetry trace — COV link spans the
    // notifier posts chain under it, so the critical-path analyzer can
    // decompose sample -> wire latency per hop. Hierarchical layouts
    // stagger the phase per zone so a floor's worth of samples does not
    // slam its head-end inbox in one instant.
    const sim::Time phase =
        flat ? sim::sec(30)
             : sim::sec(30) + (static_cast<sim::Time>(z) % 3000) * sim::msec(9);
    Zone* zp = &zone;
    m.every(phase, sim::sec(30), [&m, zp, z, tag_sample] {
      double temp;
      if (zp->scenario != nullptr) {
        if (zp->scenario->plant() == nullptr) return;
        temp = zp->scenario->plant()->room.temperature_c();
      } else {
        temp = lite_temp(z, zp->sample_tick++);
      }
      const std::uint64_t s = m.spans().begin(-1, m.now(), tag_sample);
      zp->gateway->set_property("zone.temp", temp);
      m.spans().end(-1, m.now(), s);
    });
  }

  // Head-end boot at t=30s. Flat: the console subscribes to every zone
  // directly. Hierarchical: each floor head subscribes to its zones and
  // each building console subscribes to its floor aggregates — COV
  // traffic then climbs the tree one tier at a time.
  if (flat) {
    sim::Machine& head = fabric.machine(0);
    std::vector<Zone>* zs = &zones;
    head.at(sim::sec(30), [&fabric, &head, zs, tag_subscribe] {
      const std::uint64_t s =
          head.spans().begin(-1, head.now(), tag_subscribe);
      for (std::size_t z = 0; z < zs->size(); ++z) {
        net::BacnetMsg sub;
        sub.service = net::BacnetMsg::Service::kSubscribeCov;
        sub.src_device = kConsoleId;
        sub.dst_device = kZoneIdBase + static_cast<std::uint32_t>(z);
        sub.property = "zone.temp";
        fabric.post(0, sub);
      }
      head.spans().end(-1, head.now(), s);
    });
  } else {
    // Floor -> zone subscriptions, batched per floor.
    for (int z = 0; z < opts.zones; ++z) {
      const int fn = t.zone_floor[static_cast<std::size_t>(z)];
      const std::uint32_t floor_dev = floor_dev_of_node[fn];
      sim::Machine& fm = fabric.machine(fn);
      fm.at(sim::sec(30), [&fabric, &fm, fn, floor_dev, z, tag_subscribe] {
        const std::uint64_t s =
            fm.spans().begin(-1, fm.now(), tag_subscribe);
        net::BacnetMsg sub;
        sub.service = net::BacnetMsg::Service::kSubscribeCov;
        sub.src_device = floor_dev;
        sub.dst_device = kZoneIdBase + static_cast<std::uint32_t>(z);
        sub.property = "zone.temp";
        fabric.post(fn, sub);
        fm.spans().end(-1, fm.now(), s);
      });
    }
    // Console -> floor subscriptions.
    for (int b = 0; b < buildings; ++b) {
      const int head = t.building_heads[static_cast<std::size_t>(b)];
      sim::Machine& hm = fabric.machine(head);
      const std::uint32_t console_id =
          kConsoleId + static_cast<std::uint32_t>(b);
      std::vector<std::uint32_t> floor_devs;
      for (int fn : t.floor_heads[static_cast<std::size_t>(b)]) {
        floor_devs.push_back(floor_dev_of_node[fn]);
      }
      hm.at(sim::sec(30),
            [&fabric, &hm, head, console_id, floor_devs, tag_subscribe] {
              const std::uint64_t s =
                  hm.spans().begin(-1, hm.now(), tag_subscribe);
              for (std::uint32_t fd : floor_devs) {
                net::BacnetMsg sub;
                sub.service = net::BacnetMsg::Service::kSubscribeCov;
                sub.src_device = console_id;
                sub.dst_device = fd;
                sub.property = "floor.agg";
                fabric.post(head, sub);
              }
              hm.spans().end(-1, hm.now(), s);
            });
    }
  }

  // Operator traffic: each building's console writes a setpoint to one
  // of its zones every minute, round-robin, sealed with the zone key
  // where a proxy guards the zone. Hierarchical layouts carry the write
  // on the building -> zone management downlink; the zone's ack has no
  // return wire and drops as unroutable (the management plane is
  // deliberately one-way). Under an attack the operator goes quiet at
  // attack_at, so any write a zone accepts afterwards is the attacker's.
  for (int b = 0; b < buildings; ++b) {
    const int head =
        flat ? 0 : t.building_heads[static_cast<std::size_t>(b)];
    std::vector<int> my_zones;
    for (int z = 0; z < opts.zones; ++z) {
      if (building_of_zone(z) == b) my_zones.push_back(z);
    }
    if (my_zones.empty()) continue;
    sim::Machine& head_m = fabric.machine(head);
    auto op_tick = std::make_shared<int>(0);
    std::vector<Zone>* zs = &zones;
    fabric.machine(head).every(
        sim::minutes(1), sim::minutes(1),
        [&fabric, &head_m, zs, &opts, op_tick, tag_op_write, head,
         my_zones] {
          if (opts.attack != FabricAttack::kNone &&
              head_m.now() >= opts.attack_at) {
            return;
          }
          const int z = my_zones[static_cast<std::size_t>(
              (*op_tick)++ % static_cast<int>(my_zones.size()))];
          Zone& zone = (*zs)[static_cast<std::size_t>(z)];
          net::BacnetMsg w;
          w.service = net::BacnetMsg::Service::kWriteProperty;
          w.src_device = kConsoleId;
          w.dst_device = kZoneIdBase + static_cast<std::uint32_t>(z);
          w.property = "zone.setpoint";
          w.value = opts.scenario.control.initial_setpoint_c + 1.0 +
                    0.5 * (*op_tick % 3);
          if (zone.proxied) {
            w = net::SecureProxy::seal(w, zone.key, ++zone.op_sequence);
          }
          const std::uint64_t s =
              head_m.spans().begin(-1, head_m.now(), tag_op_write);
          fabric.post(head, w);
          head_m.spans().end(-1, head_m.now(), s);
        });
  }

  // The attacker: arbitrary code on the last zone's controller, able to
  // emit raw datagrams onto its own segment. Flat: that segment is the
  // whole building. Hierarchical: segmentation confines it to its floor
  // head-end and its own node — a spoofed write to a sibling zone has
  // no wire to travel and drops as unroutable.
  const int attacker_node = zone_node(opts.zones - 1);
  if (opts.attack == FabricAttack::kSpoofWrite) {
    fabric.machine(attacker_node)
        .at(opts.attack_at, [&fabric, &opts, attacker_node, tag_attack] {
          sim::Machine& att = fabric.machine(attacker_node);
          // Root span of the attack trace: every forged datagram's link
          // span — and any proxy rejection it provokes — chains here.
          const std::uint64_t s =
              att.spans().begin(-1, att.now(), tag_attack);
          for (int z = 0; z < opts.zones; ++z) {
            if (z == opts.zones - 1) continue;  // already owned
            net::BacnetMsg w;
            w.service = net::BacnetMsg::Service::kWriteProperty;
            w.src_device = kConsoleId;  // forged; nothing verifies it
            w.dst_device = kZoneIdBase + static_cast<std::uint32_t>(z);
            w.property = "zone.setpoint";
            w.value = kSpoofSetpointC;
            fabric.post(attacker_node, w);
          }
          att.spans().end(-1, att.now(), s);
        });
  } else if (opts.attack == FabricAttack::kReplay) {
    fabric.machine(attacker_node)
        .at(opts.attack_at, [&fabric, attacker_node, tag_attack] {
          sim::Machine& att = fabric.machine(attacker_node);
          const std::uint64_t s =
              att.spans().begin(-1, att.now(), tag_attack);
          // The packet capture: every operator WriteProperty seen so
          // far, re-posted verbatim — sealed datagrams keep their valid
          // MAC, but their sequence numbers are now stale. The captured
          // trace context is scrubbed: the attacker re-posts bytes, so
          // the replayed frames root under the attack span instead.
          const std::vector<net::BacnetMsg> capture = fabric.sent_log();
          for (const net::BacnetMsg& msg : capture) {
            if (msg.service != net::BacnetMsg::Service::kWriteProperty) {
              continue;
            }
            net::BacnetMsg replayed = msg;
            replayed.trace_id = 0;
            replayed.parent_span = 0;
            fabric.post(attacker_node, replayed);
          }
          att.spans().end(-1, att.now(), s);
        });
  }
  // Flood state lives at function scope so the self-rescheduling
  // callback below holds no owning cycle.
  std::shared_ptr<std::function<void()>> flood_burst;
  if (opts.attack == FabricAttack::kFlood) {
    sim::Machine& att = fabric.machine(attacker_node);
    // Flat: drown the head-end console. Hierarchical: the only
    // supervisory device the attacker can even reach is its own floor
    // head-end — whose per-floor surge detector is the tripwire.
    const std::uint32_t flood_dst =
        flat ? kConsoleId
             : floor_dev_of_node[t.zone_floor[static_cast<std::size_t>(
                   opts.zones - 1)]];
    flood_burst = std::make_shared<std::function<void()>>();
    std::function<void()>* burst = flood_burst.get();
    *flood_burst = [&fabric, &att, &opts, attacker_node, burst, flood_dst,
                    tag_attack] {
      if (att.now() >= opts.attack_at + kFloodWindow) return;
      // 16 datagrams per millisecond: with ~5-7 ms of link latency that
      // keeps ~100 datagrams in flight towards the head-end, well past
      // the 64-deep inbox — the overflow drops ARE the DoS.
      const std::uint64_t s = att.spans().begin(-1, att.now(), tag_attack);
      for (int i = 0; i < 16; ++i) {
        net::BacnetMsg probe;
        probe.service = net::BacnetMsg::Service::kWhoIs;
        probe.src_device = kFloodSrcId;
        probe.dst_device = flood_dst;
        fabric.post(attacker_node, probe);
      }
      att.spans().end(-1, att.now(), s);
      att.at(att.now() + sim::msec(1), *burst);
    };
    att.at(opts.attack_at, *flood_burst);
  }

  // Phase 1: run to the attack instant, then snapshot how many writes
  // each zone had legitimately accepted.
  const sim::Time attack_barrier =
      opts.attack == FabricAttack::kNone
          ? opts.duration
          : std::min(opts.attack_at, opts.duration);
  fabric.run_until(attack_barrier);
  std::vector<std::uint64_t> writes_before(zones.size());
  for (std::size_t z = 0; z < zones.size(); ++z) {
    writes_before[z] = zones[z].gateway->writes_accepted();
  }
  // Phase 2: the attack window. Every attack datagram is still in the
  // future here (delivery = send + base latency >= attack_at), so the
  // snapshot cleanly separates operator writes from attacker writes.
  fabric.run_until(opts.duration);

  // Close trailing rate windows so every detector has judged the whole
  // run before any verdict is journaled — a flood that trips the inbox
  // surge detector lands in the audit journal ahead of its verdict row.
  for (std::size_t n = 0; n < fabric.node_count(); ++n) {
    fabric.machine(static_cast<int>(n)).health().flush(opts.duration);
  }

  for (std::size_t z = 0; z < zones.size(); ++z) {
    Zone& zone = zones[z];
    FabricZoneRow row;
    row.zone = static_cast<int>(z);
    row.platform = zone.platform;
    row.proxied = zone.proxied;
    row.label = std::string(bas::to_string(zone.platform)) +
                (zone.proxied ? "+proxy" : "");
    row.attack_delivered =
        opts.attack != FabricAttack::kNone &&
        zone.gateway->writes_accepted() > writes_before[z];
    row.final_setpoint_c = zone.gateway->property("zone.setpoint");
    if (zone.scenario != nullptr && zone.scenario->plant() != nullptr) {
      row.final_temp_c = zone.scenario->plant()->room.temperature_c();
    } else {
      row.final_temp_c = zone.gateway->property("zone.temp");
    }
    if (zone.proxy != nullptr) {
      row.proxy_rejected_tag = zone.proxy->rejected_bad_tag();
      row.proxy_rejected_replay = zone.proxy->rejected_replay();
    }
    if (opts.attack != FabricAttack::kNone) {
      // Per-zone verdict into the zone's own audit journal; the merged
      // journal below carries all of them in node order.
      sim::Machine& zm = fabric.machine(zone_node(static_cast<int>(z)));
      zm.audit().record(
          zm.now(), zm.machine_id(), -1, "attack.verdict",
          std::string(to_string(opts.attack)) + " against " + row.label +
              ": " + (row.attack_delivered ? "DELIVERED" : "blocked"),
          zm.spans(), zm.spans().current(-1));
    }
    res.rows.push_back(row);
  }

  res.posted = fabric.posted();
  res.delivered = fabric.delivered();
  res.drop_loss = fabric.dropped_loss();
  res.drop_partition = fabric.dropped_partition();
  res.drop_overflow = fabric.dropped_overflow();
  res.drop_unroutable = fabric.dropped_unroutable();
  res.pending = fabric.pending();
  res.causality_violations = fabric.causality_violations();
  res.cov_count = fabric.cov_delivered();
  res.cov_p99_us = fabric.cov_p99_us();
  for (const auto& agg : floor_aggs) res.floor_covs += agg->absorbed();

  // Trace hash always: it is the cheap cross-mode replay fingerprint.
  // Telemetry folds in the same pass — node order, the one order every
  // run shares.
  std::shared_ptr<obs::Telemetry> fold;
  if (opts.collect) fold = std::make_shared<obs::Telemetry>();
  std::uint64_t chain = 14695981039346656037ULL;
  for (std::size_t n = 0; n < fabric.node_count(); ++n) {
    const sim::Machine& m = fabric.machine(static_cast<int>(n));
    chain = fnv1a(hex64(trace_hash(m.trace())), chain);
    res.trace_events += m.trace().total_emitted();
    if (fold) fold->merge_from(m.telemetry());
  }
  res.trace_hash = chain;

  if (fold) {
    const obs::SpanStore& merged_spans = fold->spans;
    res.health_events = fold->health.events().size();
    // Mean telemetry e2e from the spans themselves (leaf.end -
    // root.start over complete chains) — tests compare this against the
    // head-end's COV latency histogram.
    double total = 0.0;
    std::uint64_t n_chains = 0;
    const std::uint32_t link_tag = tags.intern("net.link");
    const std::uint32_t drop_tag = tags.intern("drop");
    for (const obs::Span& s : merged_spans.spans()) {
      if (s.name != link_tag || s.abandoned || s.note == drop_tag) continue;
      const std::vector<std::uint64_t> up = merged_spans.chain(s.span_id);
      if (up.empty() || merged_spans.name_of(up.back()) != tag_sample) {
        continue;
      }
      total += static_cast<double>(s.end) -
               static_cast<double>(merged_spans.start_of(up.back()));
      ++n_chains;
    }
    if (n_chains > 0) {
      res.sample_e2e_mean_us = total / static_cast<double>(n_chains);
    }
    res.telemetry = std::move(fold);
  }
  return res;
}

std::string format_fabric_table(const FabricRunResult& r) {
  std::ostringstream os;
  auto pad = [](std::string s, std::size_t w) {
    if (s.size() < w) s.append(w - s.size(), ' ');
    return s;
  };
  os << "attack: " << to_string(r.attack) << "  topology: " << r.topology
     << "  zones: " << r.zones << "  delivered: " << r.delivered
     << "  drops(loss/part/ovfl/unrt): " << r.drop_loss << "/"
     << r.drop_partition << "/" << r.drop_overflow << "/"
     << r.drop_unroutable << "  cov p99: " << r.cov_p99_us / 1000.0
     << "ms\n";
  os << pad("zone", 6) << pad("platform", 20) << pad("attack", 11)
     << pad("setpoint", 10) << pad("temp", 9) << "proxy rejects\n";
  os << std::string(72, '-') << "\n";
  for (const FabricZoneRow& row : r.rows) {
    std::ostringstream sp, tc, rej;
    sp.setf(std::ios::fixed);
    sp.precision(1);
    sp << row.final_setpoint_c << "C";
    tc.setf(std::ios::fixed);
    tc.precision(2);
    tc << row.final_temp_c << "C";
    if (row.proxied) {
      rej << row.proxy_rejected_tag << " tag, " << row.proxy_rejected_replay
          << " replay";
    } else {
      rej << "-";
    }
    os << pad(std::to_string(row.zone), 6) << pad(row.label, 20)
       << pad(r.attack == FabricAttack::kNone
                  ? "-"
                  : (row.attack_delivered ? "DELIVERED" : "blocked"),
              11)
       << pad(sp.str(), 10) << pad(tc.str(), 9) << rej.str() << "\n";
  }
  return os.str();
}

}  // namespace mkbas::core
