// Network topology: nodes, duplex links, and latency-shortest-path routing.
//
// The topology is static for the lifetime of a simulation. Routes are
// computed with Dijkstra (edge weight = latency, deterministic
// tie-breaking): one shortest-path tree per root node, built on first
// use, with the routes read from it kept in dense per-node vectors.
#pragma once

#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"

namespace wcs::net {

struct Link {
  LinkId id;
  NodeId a;
  NodeId b;
  double bandwidth_bps = 0;  // bytes per second
  SimTime latency_s = 0;
  std::string name;
};

struct Node {
  NodeId id;
  std::string name;
  std::vector<LinkId> links;  // incident links
};

// A route is the ordered list of links from src to dst.
using Route = std::vector<LinkId>;

class Topology {
 public:
  NodeId add_node(std::string name);
  LinkId add_link(NodeId a, NodeId b, double bandwidth_bps, SimTime latency_s,
                  std::string name = {});

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_links() const { return links_.size(); }
  [[nodiscard]] const Node& node(NodeId id) const {
    WCS_CHECK(id.valid() && id.value() < nodes_.size());
    return nodes_[id.value()];
  }
  [[nodiscard]] const Link& link(LinkId id) const {
    WCS_CHECK(id.valid() && id.value() < links_.size());
    return links_[id.value()];
  }

  // Route from src to dst. Returns an empty route when src == dst.
  // Throws if dst is unreachable.
  [[nodiscard]] const Route& route(NodeId src, NodeId dst) const;

  // Sum of link latencies along route(src, dst).
  [[nodiscard]] SimTime path_latency(NodeId src, NodeId dst) const;

  // Sum of link latencies from src to dst along the shortest-path tree
  // rooted at dst, added in src-to-dst link order. Every src shares dst's
  // one tree, so asking for many sources costs one Dijkstra, not one per
  // source. Where the shortest path is unique (always, on a tree) this is
  // bit-identical to path_latency(src, dst). Throws if src is unreachable.
  [[nodiscard]] SimTime latency_to(NodeId src, NodeId dst) const;

  // Minimum link bandwidth along route(src, dst); +inf when src == dst.
  [[nodiscard]] double path_bandwidth(NodeId src, NodeId dst) const;

  // True if every node can reach every other node.
  [[nodiscard]] bool connected() const;

 private:
  // The shortest-path tree rooted at one node and the routes read from
  // it so far, both indexed by node. The tree is built on first use, the
  // route slots on the first route() from this root; an empty
  // routes[dst] with dst != root means "not read yet".
  struct RouteTable {
    std::vector<LinkId> parent_link;  // toward the root; empty until built
    std::vector<Route> routes;        // routes[dst]: root -> dst
  };

  RouteTable& table(NodeId root) const;
  [[nodiscard]] NodeId other_end(const Link& l, NodeId from) const {
    return l.a == from ? l.b : l.a;
  }

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  mutable std::vector<RouteTable> tables_;  // indexed by root; lazily sized
};

}  // namespace wcs::net
