#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace mkbas::net {

/// Supervisory tier of a fabric node. The hierarchical run_fabric wiring
/// and the per-tier COV latency histograms key off it.
enum class NodeRole : std::uint8_t { kZone = 0, kFloor = 1, kBuilding = 2 };

const char* to_string(NodeRole r);

/// Parameters for the canonical layouts Topology::build() produces.
struct TopologySpec {
  enum class Kind { kFlat, kLine, kStar, kTree, kCampus };
  Kind kind = Kind::kFlat;
  int zones = 4;      // total zone nodes, across all buildings
  int floors = 1;     // floor head-ends per building (tree/campus)
  int buildings = 1;  // independent buildings (campus)
};

const char* to_string(TopologySpec::Kind k);

/// An explicit node/link graph for net::Fabric. Node indices are fabric
/// node indices in add order; links are the directed edges the fabric
/// will route — datagrams between unlinked nodes are dropped and
/// accounted as `unroutable` (network segmentation as a defense: a
/// compromised zone cannot even address a zone on another floor's VLAN).
/// An empty topology (no nodes) keeps the legacy fully-connected segment.
struct Topology {
  struct Node {
    NodeRole role = NodeRole::kZone;
    int parent = -1;   // supervising head-end node, -1 for a building head
    int building = 0;  // campus component this node belongs to
  };

  TopologySpec spec{};
  std::vector<Node> nodes;
  std::vector<std::pair<int, int>> links;  // directed src -> dst

  // Index helpers filled in by build() for tree/campus layouts. Building
  // b occupies one contiguous node block: [head][floor heads...][zones].
  std::vector<int> building_heads;          // building -> node index
  std::vector<std::vector<int>> floor_heads;  // building -> floor nodes
  std::vector<int> zone_nodes;              // global zone -> node index
  std::vector<int> zone_floor;              // global zone -> floor head node
  std::vector<int> zone_building;           // global zone -> building

  int node_count() const { return static_cast<int>(nodes.size()); }
  int zone_count() const { return static_cast<int>(zone_nodes.size()); }

  void add_node(NodeRole role, int parent, int building) {
    nodes.push_back(Node{role, parent, building});
  }
  void add_link(int src, int dst) { links.emplace_back(src, dst); }
  void add_duplex(int a, int b) {
    add_link(a, b);
    add_link(b, a);
  }

  /// Build a canonical layout:
  ///  - kFlat:   empty topology (legacy fully-connected segment)
  ///  - kLine:   `zones` nodes in a bidirectional chain
  ///  - kStar:   node 0 the hub; every other node linked only to it
  ///  - kTree:   building head -> floor head-ends -> zones (duplex
  ///             links), plus a building -> zone management downlink
  ///  - kCampus: `buildings` independent kTree components
  static Topology build(const TopologySpec& spec);
};

}  // namespace mkbas::net
