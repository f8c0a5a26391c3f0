#include "net/topology.hpp"

#include <stdexcept>

namespace mkbas::net {

const char* to_string(NodeRole r) {
  switch (r) {
    case NodeRole::kZone:
      return "zone";
    case NodeRole::kFloor:
      return "floor";
    case NodeRole::kBuilding:
      return "building";
  }
  return "?";
}

const char* to_string(TopologySpec::Kind k) {
  switch (k) {
    case TopologySpec::Kind::kFlat:
      return "flat";
    case TopologySpec::Kind::kLine:
      return "line";
    case TopologySpec::Kind::kStar:
      return "star";
    case TopologySpec::Kind::kTree:
      return "tree";
    case TopologySpec::Kind::kCampus:
      return "campus";
  }
  return "?";
}

Topology Topology::build(const TopologySpec& spec) {
  Topology t;
  t.spec = spec;
  if (spec.zones < 1) throw std::invalid_argument("topology: zones < 1");

  switch (spec.kind) {
    case TopologySpec::Kind::kFlat:
      return t;  // empty: the fabric stays fully connected

    case TopologySpec::Kind::kLine:
      for (int i = 0; i < spec.zones; ++i) {
        t.add_node(NodeRole::kZone, i == 0 ? -1 : i - 1, 0);
        if (i > 0) t.add_duplex(i - 1, i);
      }
      return t;

    case TopologySpec::Kind::kStar:
      t.add_node(NodeRole::kBuilding, -1, 0);
      t.building_heads.push_back(0);
      for (int i = 1; i <= spec.zones; ++i) {
        t.add_node(NodeRole::kZone, 0, 0);
        t.add_duplex(0, i);
        t.zone_nodes.push_back(i);
        t.zone_floor.push_back(0);
        t.zone_building.push_back(0);
      }
      return t;

    case TopologySpec::Kind::kTree:
    case TopologySpec::Kind::kCampus:
      break;
  }

  const int buildings =
      spec.kind == TopologySpec::Kind::kCampus ? spec.buildings : 1;
  if (buildings < 1) throw std::invalid_argument("topology: buildings < 1");
  const int floors = spec.floors < 1 ? 1 : spec.floors;
  t.floor_heads.resize(buildings);
  for (int b = 0; b < buildings; ++b) {
    // Distribute zones evenly; earlier buildings absorb the remainder.
    const int zb = spec.zones / buildings + (b < spec.zones % buildings);
    const int head = t.node_count();
    t.add_node(NodeRole::kBuilding, -1, b);
    t.building_heads.push_back(head);
    for (int f = 0; f < floors; ++f) {
      const int fn = t.node_count();
      t.add_node(NodeRole::kFloor, head, b);
      t.floor_heads[b].push_back(fn);
      t.add_duplex(head, fn);
    }
    for (int z = 0; z < zb; ++z) {
      const int fn = t.floor_heads[b][z % floors];
      const int zn = t.node_count();
      t.add_node(NodeRole::kZone, fn, b);
      t.add_duplex(fn, zn);
      // Management downlink: the building head-end writes setpoints
      // directly to zones; zones cannot address the head-end back.
      t.add_link(head, zn);
      t.zone_nodes.push_back(zn);
      t.zone_floor.push_back(fn);
      t.zone_building.push_back(b);
    }
  }
  return t;
}

}  // namespace mkbas::net
