#include "net/topology.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace wcs::net {

NodeId Topology::add_node(std::string name) {
  NodeId id(static_cast<NodeId::underlying_type>(nodes_.size()));
  nodes_.push_back(Node{id, std::move(name), {}});
  tables_.clear();  // invalidate cached routes
  return id;
}

LinkId Topology::add_link(NodeId a, NodeId b, double bandwidth_bps,
                          SimTime latency_s, std::string name) {
  WCS_CHECK(a.valid() && a.value() < nodes_.size());
  WCS_CHECK(b.valid() && b.value() < nodes_.size());
  WCS_CHECK_MSG(a != b, "self-loop link");
  WCS_CHECK_MSG(bandwidth_bps > 0, "link bandwidth must be positive");
  WCS_CHECK_MSG(latency_s >= 0, "negative latency");
  LinkId id(static_cast<LinkId::underlying_type>(links_.size()));
  links_.push_back(Link{id, a, b, bandwidth_bps, latency_s, std::move(name)});
  nodes_[a.value()].links.push_back(id);
  nodes_[b.value()].links.push_back(id);
  tables_.clear();
  return id;
}

Topology::RouteTable& Topology::table(NodeId root) const {
  WCS_CHECK(root.valid() && root.value() < nodes_.size());
  const auto n = nodes_.size();
  if (tables_.empty()) tables_.resize(n);
  RouteTable& table = tables_[root.value()];
  if (!table.parent_link.empty()) return table;

  std::vector<double> dist(n, std::numeric_limits<double>::infinity());
  table.parent_link.assign(n, LinkId::invalid());

  // Dijkstra keyed by (latency, node index) — the node-index tiebreak makes
  // equal-latency route choices deterministic across runs and platforms.
  using QEntry = std::pair<double, NodeId::underlying_type>;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
  dist[root.value()] = 0;
  pq.emplace(0.0, root.value());
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (LinkId lid : nodes_[u].links) {
      const Link& l = links_[lid.value()];
      NodeId v = other_end(l, NodeId(u));
      double nd = d + l.latency_s;
      auto vi = v.value();
      // Strictly-better only. Equal-cost alternatives are resolved by the
      // deterministic visit order (pq keyed by (distance, node index),
      // links iterated in insertion order), so the tree is reproducible;
      // rewriting parents on ties can create cycles with zero-latency
      // links.
      if (nd < dist[vi]) {
        dist[vi] = nd;
        table.parent_link[vi] = lid;
        pq.emplace(nd, vi);
      }
    }
  }
  return table;
}

const Route& Topology::route(NodeId src, NodeId dst) const {
  WCS_CHECK(dst.valid() && dst.value() < nodes_.size());
  RouteTable& t = table(src);
  if (t.routes.empty()) t.routes.resize(nodes_.size());
  Route& cached = t.routes[dst.value()];
  if (!cached.empty() || src == dst) return cached;

  // Walk dst's parent links up to the root once to count the hops, then
  // again to fill the route back to front (src -> dst order).
  std::size_t hops = 0;
  for (NodeId cur = dst; cur != src; ++hops) {
    LinkId pl = t.parent_link[cur.value()];
    WCS_CHECK_MSG(pl.valid(), "node " << dst << " unreachable from " << src);
    cur = other_end(links_[pl.value()], cur);
  }
  cached.resize(hops);
  NodeId cur = dst;
  for (std::size_t i = hops; i-- > 0;) {
    cached[i] = t.parent_link[cur.value()];
    cur = other_end(links_[cached[i].value()], cur);
  }
  return cached;
}

SimTime Topology::path_latency(NodeId src, NodeId dst) const {
  SimTime total = 0;
  for (LinkId lid : route(src, dst)) total += links_[lid.value()].latency_s;
  return total;
}

SimTime Topology::latency_to(NodeId src, NodeId dst) const {
  WCS_CHECK(src.valid() && src.value() < nodes_.size());
  const RouteTable& t = table(dst);
  // Parent links lead toward the root, so walking them from src visits
  // the path's links in src -> dst order.
  SimTime total = 0;
  for (NodeId cur = src; cur != dst;) {
    LinkId pl = t.parent_link[cur.value()];
    WCS_CHECK_MSG(pl.valid(), "node " << src << " cannot reach " << dst);
    const Link& l = links_[pl.value()];
    total += l.latency_s;
    cur = other_end(l, cur);
  }
  return total;
}

double Topology::path_bandwidth(NodeId src, NodeId dst) const {
  double bw = std::numeric_limits<double>::infinity();
  for (LinkId lid : route(src, dst))
    bw = std::min(bw, links_[lid.value()].bandwidth_bps);
  return bw;
}

bool Topology::connected() const {
  if (nodes_.empty()) return true;
  std::vector<char> seen(nodes_.size(), 0);
  std::vector<NodeId> stack{NodeId(0)};
  seen[0] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    for (LinkId lid : nodes_[u.value()].links) {
      NodeId v = other_end(links_[lid.value()], u);
      if (!seen[v.value()]) {
        seen[v.value()] = 1;
        ++visited;
        stack.push_back(v);
      }
    }
  }
  return visited == nodes_.size();
}

}  // namespace wcs::net
