// Unit + property tests for net::Topology and the Tiers generator.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>

#include "common/units.h"
#include "fnv1a.h"
#include "net/tiers.h"
#include "net/topology.h"

namespace wcs::net {
namespace {

Topology line3(double bw = mbps(8), double lat = 0.01) {
  // a --l0-- b --l1-- c
  Topology t;
  NodeId a = t.add_node("a");
  NodeId b = t.add_node("b");
  NodeId c = t.add_node("c");
  t.add_link(a, b, bw, lat);
  t.add_link(b, c, bw, lat);
  return t;
}

// a-b-d (fast) vs a-c-d (slow).
Topology square() {
  Topology t;
  NodeId a = t.add_node("a");
  NodeId b = t.add_node("b");
  NodeId c = t.add_node("c");
  NodeId d = t.add_node("d");
  t.add_link(a, b, 1e6, 0.001);
  t.add_link(b, d, 1e6, 0.001);
  t.add_link(a, c, 1e6, 0.1);
  t.add_link(c, d, 1e6, 0.1);
  return t;
}

// a-c-d and a-b-d at equal latency, the c links added first: the
// deterministic tie-break (lower node index settles first) picks a-b-d.
Topology tied_square() {
  Topology t;
  NodeId a = t.add_node("a");
  NodeId b = t.add_node("b");
  NodeId c = t.add_node("c");
  NodeId d = t.add_node("d");
  t.add_link(a, c, 1e6, 0.001);
  t.add_link(c, d, 1e6, 0.001);
  t.add_link(a, b, 1e6, 0.001);
  t.add_link(b, d, 1e6, 0.001);
  return t;
}

// FNV-1a over route(src, dst) for every pair in ascending order. With
// `warm_descending`, every route is first asked for in descending order:
// the cache fills lazily, and the order it fills in must not change an
// answer.
std::uint64_t route_fingerprint(const Topology& t, bool warm_descending) {
  const auto n = static_cast<NodeId::underlying_type>(t.num_nodes());
  if (warm_descending)
    for (NodeId::underlying_type i = n; i-- > 0;)
      for (NodeId::underlying_type j = n; j-- > 0;)
        (void)t.route(NodeId(i), NodeId(j));
  wcs::testing::Fnv1a h;
  for (NodeId::underlying_type i = 0; i < n; ++i) {
    for (NodeId::underlying_type j = 0; j < n; ++j) {
      const Route& r = t.route(NodeId(i), NodeId(j));
      h.add(r.size());
      for (LinkId l : r) h.add(l.value());
    }
  }
  return h.value();
}

TEST(Topology, AddNodesAndLinks) {
  Topology t = line3();
  EXPECT_EQ(t.num_nodes(), 3u);
  EXPECT_EQ(t.num_links(), 2u);
  EXPECT_EQ(t.node(NodeId(0)).name, "a");
  EXPECT_EQ(t.link(LinkId(1)).a, NodeId(1));
}

TEST(Topology, SelfLoopRejected) {
  Topology t;
  NodeId a = t.add_node("a");
  EXPECT_THROW(t.add_link(a, a, 1, 0), std::logic_error);
}

TEST(Topology, NonPositiveBandwidthRejected) {
  Topology t;
  NodeId a = t.add_node("a");
  NodeId b = t.add_node("b");
  EXPECT_THROW(t.add_link(a, b, 0, 0), std::logic_error);
}

TEST(Topology, RouteOnLine) {
  Topology t = line3();
  const Route& r = t.route(NodeId(0), NodeId(2));
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], LinkId(0));
  EXPECT_EQ(r[1], LinkId(1));
}

TEST(Topology, RouteToSelfIsEmpty) {
  Topology t = line3();
  EXPECT_TRUE(t.route(NodeId(1), NodeId(1)).empty());
  EXPECT_DOUBLE_EQ(t.path_latency(NodeId(1), NodeId(1)), 0.0);
}

TEST(Topology, RouteIsSymmetricInLinkSet) {
  Topology t = line3();
  Route fwd = t.route(NodeId(0), NodeId(2));
  Route rev = t.route(NodeId(2), NodeId(0));
  ASSERT_EQ(fwd.size(), rev.size());
  EXPECT_EQ(fwd[0], rev[1]);
  EXPECT_EQ(fwd[1], rev[0]);
}

TEST(Topology, PathLatencySumsLinks) {
  Topology t = line3(mbps(8), 0.01);
  EXPECT_DOUBLE_EQ(t.path_latency(NodeId(0), NodeId(2)), 0.02);
}

TEST(Topology, PathBandwidthIsBottleneck) {
  Topology t;
  NodeId a = t.add_node("a");
  NodeId b = t.add_node("b");
  NodeId c = t.add_node("c");
  t.add_link(a, b, 100, 0.01);
  t.add_link(b, c, 10, 0.01);
  EXPECT_DOUBLE_EQ(t.path_bandwidth(a, c), 10.0);
}

TEST(Topology, PicksLowerLatencyPath) {
  Topology t = square();
  EXPECT_DOUBLE_EQ(t.path_latency(NodeId(0), NodeId(3)), 0.002);
}

TEST(Topology, TieBreaksTowardLowerNodeIndex) {
  Topology t = tied_square();
  EXPECT_EQ(t.route(NodeId(0), NodeId(3)), (Route{LinkId(2), LinkId(3)}));
  EXPECT_EQ(t.route(NodeId(3), NodeId(0)), (Route{LinkId(3), LinkId(2)}));
}

// The constants were recorded from the per-source map cache that the
// dense per-node cache replaced: every route stays exactly what it was.
TEST(Topology, RoutesMatchRecordedFingerprints) {
  for (bool warm_descending : {false, true}) {
    SCOPED_TRACE(warm_descending ? "warmed descending" : "cold");
    EXPECT_EQ(route_fingerprint(line3(), warm_descending),
              0x47d04b66993a6885ull);
    EXPECT_EQ(route_fingerprint(square(), warm_descending),
              0x5fd95d68ddbcdce5ull);
    EXPECT_EQ(route_fingerprint(tied_square(), warm_descending),
              0x0a04398070a9ece5ull);
    EXPECT_EQ(route_fingerprint(build_tiers_topology(TiersParams{}).topology,
                                warm_descending),
              0x22ee2a50f5f89925ull);
  }
}

TEST(Topology, LatencyToFollowsTheDestinationTree) {
  Topology t = square();
  EXPECT_DOUBLE_EQ(t.latency_to(NodeId(0), NodeId(3)), 0.002);
  EXPECT_DOUBLE_EQ(t.latency_to(NodeId(2), NodeId(3)), 0.1);
  EXPECT_DOUBLE_EQ(t.latency_to(NodeId(3), NodeId(3)), 0.0);
  Topology split;
  split.add_node("a");
  split.add_node("b");
  EXPECT_THROW((void)split.latency_to(NodeId(0), NodeId(1)), std::logic_error);
}

TEST(Topology, UnreachableThrows) {
  Topology t;
  NodeId a = t.add_node("a");
  NodeId b = t.add_node("b");
  (void)b;
  Topology t2 = std::move(t);  // silence unused warnings simply
  EXPECT_THROW((void)t2.route(a, NodeId(1)), std::logic_error);
  EXPECT_FALSE(t2.connected());
}

TEST(Topology, ConnectedOnLine) { EXPECT_TRUE(line3().connected()); }

// --- Tiers generator ----------------------------------------------------

TEST(Tiers, DefaultShape) {
  TiersParams p;  // 10 sites, 1 worker/site
  GridTopology g = build_tiers_topology(p);
  EXPECT_EQ(g.data_server_nodes.size(), 10u);
  EXPECT_EQ(g.worker_nodes.size(), 10u);
  for (const auto& site : g.worker_nodes) EXPECT_EQ(site.size(), 1u);
  EXPECT_EQ(g.site_uplinks.size(), 10u);
  EXPECT_TRUE(g.topology.connected());
}

TEST(Tiers, WorkerCountHonored) {
  TiersParams p;
  p.num_sites = 4;
  p.workers_per_site = 7;
  GridTopology g = build_tiers_topology(p);
  EXPECT_EQ(g.worker_nodes.size(), 4u);
  for (const auto& site : g.worker_nodes) EXPECT_EQ(site.size(), 7u);
}

TEST(Tiers, SiteHostsShareTheUplink) {
  TiersParams p;
  p.num_sites = 3;
  p.workers_per_site = 2;
  GridTopology g = build_tiers_topology(p);
  for (std::size_t s = 0; s < 3; ++s) {
    LinkId uplink = g.site_uplinks[s];
    auto crosses_uplink = [&](NodeId from) {
      const Route& r = g.topology.route(from, g.file_server_node);
      return std::find(r.begin(), r.end(), uplink) != r.end();
    };
    EXPECT_TRUE(crosses_uplink(g.data_server_nodes[s]));
    for (NodeId w : g.worker_nodes[s]) EXPECT_TRUE(crosses_uplink(w));
  }
}

TEST(Tiers, DifferentSitesUseDifferentUplinks) {
  TiersParams p;
  p.num_sites = 3;
  GridTopology g = build_tiers_topology(p);
  const Route& r0 =
      g.topology.route(g.data_server_nodes[0], g.file_server_node);
  EXPECT_EQ(std::find(r0.begin(), r0.end(), g.site_uplinks[1]), r0.end());
}

TEST(Tiers, SeedChangesLinkParameters) {
  TiersParams a, b;
  a.seed = 1;
  b.seed = 2;
  GridTopology ga = build_tiers_topology(a);
  GridTopology gb = build_tiers_topology(b);
  double bwa = ga.topology.link(ga.site_uplinks[0]).bandwidth_bps;
  double bwb = gb.topology.link(gb.site_uplinks[0]).bandwidth_bps;
  EXPECT_NE(bwa, bwb);
}

TEST(Tiers, SameSeedIsDeterministic) {
  TiersParams p;
  p.seed = 9;
  GridTopology a = build_tiers_topology(p);
  GridTopology b = build_tiers_topology(p);
  ASSERT_EQ(a.topology.num_links(), b.topology.num_links());
  for (LinkId::underlying_type l = 0; l < a.topology.num_links(); ++l) {
    EXPECT_DOUBLE_EQ(a.topology.link(LinkId(l)).bandwidth_bps,
                     b.topology.link(LinkId(l)).bandwidth_bps);
    EXPECT_DOUBLE_EQ(a.topology.link(LinkId(l)).latency_s,
                     b.topology.link(LinkId(l)).latency_s);
  }
}

TEST(Tiers, JitterStaysWithinBounds) {
  TiersParams p;
  p.jitter = 0.25;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    p.seed = seed;
    GridTopology g = build_tiers_topology(p);
    for (LinkId uplink : g.site_uplinks) {
      double bw = g.topology.link(uplink).bandwidth_bps;
      EXPECT_GE(bw, p.uplink_bandwidth_bps * 0.75 - 1);
      EXPECT_LE(bw, p.uplink_bandwidth_bps * 1.25 + 1);
    }
  }
}

TEST(Tiers, IsATree) {
  for (auto [sites, workers] : {std::pair{10, 1}, {40, 8}, {4, 7}, {1, 1}}) {
    TiersParams p;
    p.num_sites = sites;
    p.workers_per_site = workers;
    GridTopology g = build_tiers_topology(p);
    EXPECT_TRUE(g.topology.connected());
    EXPECT_EQ(g.topology.num_links(), g.topology.num_nodes() - 1);
  }
}

// The control plane reads every worker's scheduler latency from the one
// scheduler-rooted tree; on a tree that is path_latency bit for bit.
TEST(Tiers, TreeLatencyEqualsPathLatencyBitwise) {
  for (auto [sites, workers] : {std::pair{10, 1}, {40, 8}, {4, 7}}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      TiersParams p;
      p.num_sites = sites;
      p.workers_per_site = workers;
      p.seed = seed;
      const GridTopology g = build_tiers_topology(p);
      for (const auto& site : g.worker_nodes) {
        for (NodeId w : site) {
          const SimTime tree = g.topology.latency_to(w, g.scheduler_node);
          const SimTime path = g.topology.path_latency(w, g.scheduler_node);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(tree),
                    std::bit_cast<std::uint64_t>(path))
              << sites << "x" << workers << " seed " << seed << " worker "
              << w;
        }
      }
    }
  }
}

class TiersConnectivity : public ::testing::TestWithParam<int> {};

TEST_P(TiersConnectivity, AllSitesReachCoreHosts) {
  TiersParams p;
  p.num_sites = GetParam();
  p.workers_per_site = 2;
  p.seed = static_cast<std::uint64_t>(GetParam());
  GridTopology g = build_tiers_topology(p);
  EXPECT_TRUE(g.topology.connected());
  for (NodeId ds : g.data_server_nodes) {
    EXPECT_FALSE(g.topology.route(ds, g.file_server_node).empty());
    EXPECT_GT(g.topology.path_latency(ds, g.scheduler_node), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(SiteCounts, TiersConnectivity,
                         ::testing::Values(1, 2, 4, 10, 16, 26, 90));

}  // namespace
}  // namespace wcs::net
