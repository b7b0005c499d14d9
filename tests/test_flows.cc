// Tests for the max-min fair flow model, including a brute-force
// progressive-filling oracle on random topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "common/units.h"
#include "net/flow_manager.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace wcs::net {
namespace {

struct Fixture {
  sim::Simulator sim;
  Topology topo;
  std::unique_ptr<FlowManager> flows;

  void init() { flows = std::make_unique<FlowManager>(sim, topo); }
};

TEST(Flows, SingleFlowTakesBytesOverBandwidthPlusLatency) {
  Fixture f;
  NodeId a = f.topo.add_node("a");
  NodeId b = f.topo.add_node("b");
  f.topo.add_link(a, b, 1e6, 0.5);  // 1 MB/s, 500 ms
  f.init();
  double done_at = -1;
  f.flows->start_flow(a, b, 2'000'000, [&](FlowId) { done_at = f.sim.now(); });
  f.sim.run();
  EXPECT_NEAR(done_at, 0.5 + 2.0, 1e-9);
  EXPECT_EQ(f.flows->completed_flows(), 1u);
}

TEST(Flows, ZeroByteFlowCompletesAfterLatency) {
  Fixture f;
  NodeId a = f.topo.add_node("a");
  NodeId b = f.topo.add_node("b");
  f.topo.add_link(a, b, 1e6, 0.25);
  f.init();
  double done_at = -1;
  f.flows->start_flow(a, b, 0, [&](FlowId) { done_at = f.sim.now(); });
  f.sim.run();
  EXPECT_NEAR(done_at, 0.25, 1e-9);
}

TEST(Flows, SameNodeTransferIsInstant) {
  Fixture f;
  NodeId a = f.topo.add_node("a");
  f.init();
  double done_at = -1;
  f.flows->start_flow(a, a, 1'000'000, [&](FlowId) { done_at = f.sim.now(); });
  f.sim.run();
  EXPECT_NEAR(done_at, 0.0, 1e-9);
}

TEST(Flows, TwoFlowsShareALinkFairly) {
  Fixture f;
  NodeId a = f.topo.add_node("a");
  NodeId b = f.topo.add_node("b");
  f.topo.add_link(a, b, 1e6, 0.0);
  f.init();
  double t1 = -1, t2 = -1;
  f.flows->start_flow(a, b, 1'000'000, [&](FlowId) { t1 = f.sim.now(); });
  f.flows->start_flow(a, b, 1'000'000, [&](FlowId) { t2 = f.sim.now(); });
  f.sim.run();
  // Both share 1 MB/s: each runs at 0.5 MB/s and finishes at t=2.
  EXPECT_NEAR(t1, 2.0, 1e-9);
  EXPECT_NEAR(t2, 2.0, 1e-9);
}

TEST(Flows, ShortFlowFinishingSpeedsUpLongFlow) {
  Fixture f;
  NodeId a = f.topo.add_node("a");
  NodeId b = f.topo.add_node("b");
  f.topo.add_link(a, b, 1e6, 0.0);
  f.init();
  double t_short = -1, t_long = -1;
  f.flows->start_flow(a, b, 500'000, [&](FlowId) { t_short = f.sim.now(); });
  f.flows->start_flow(a, b, 1'500'000, [&](FlowId) { t_long = f.sim.now(); });
  f.sim.run();
  // Shared until t=1 (each moved 0.5 MB); then the long flow gets the full
  // link for its remaining 1 MB: finishes at t=2.
  EXPECT_NEAR(t_short, 1.0, 1e-9);
  EXPECT_NEAR(t_long, 2.0, 1e-9);
}

TEST(Flows, LateArrivalSlowsExistingFlow) {
  Fixture f;
  NodeId a = f.topo.add_node("a");
  NodeId b = f.topo.add_node("b");
  f.topo.add_link(a, b, 1e6, 0.0);
  f.init();
  double t1 = -1;
  f.flows->start_flow(a, b, 1'000'000, [&](FlowId) { t1 = f.sim.now(); });
  f.sim.schedule_in(0.5, [&] {
    f.flows->start_flow(a, b, 1'000'000, [](FlowId) {});
  });
  f.sim.run();
  // Flow 1: 0.5 MB alone (0.5 s), then 0.5 MB at half rate (1.0 s) -> 1.5 s.
  EXPECT_NEAR(t1, 1.5, 1e-9);
}

TEST(Flows, MaxMinRespectsPerFlowBottlenecks) {
  // Two flows: one crosses the thin link only, one crosses thin+thick.
  // a --thin(1MB/s)-- b --thick(10MB/s)-- c
  Fixture f;
  NodeId a = f.topo.add_node("a");
  NodeId b = f.topo.add_node("b");
  NodeId c = f.topo.add_node("c");
  f.topo.add_link(a, b, 1e6, 0.0);
  f.topo.add_link(b, c, 1e7, 0.0);
  f.init();
  f.flows->start_flow(a, b, 10'000'000, [](FlowId) {});
  f.flows->start_flow(a, c, 10'000'000, [](FlowId) {});
  // The first two events are the t=0 activations (completions land later).
  f.sim.step();
  f.sim.step();
  // Both constrained by the thin link: 0.5 MB/s each.
  EXPECT_NEAR(f.flows->flow_rate(FlowId(0)), 0.5e6, 1);
  EXPECT_NEAR(f.flows->flow_rate(FlowId(1)), 0.5e6, 1);
}

TEST(Flows, UnconstrainedFlowGetsLeftoverBandwidth) {
  // f0: a->b over thin 1 MB/s. f1: c->b over thick 10 MB/s. Disjoint.
  Fixture f;
  NodeId a = f.topo.add_node("a");
  NodeId b = f.topo.add_node("b");
  NodeId c = f.topo.add_node("c");
  f.topo.add_link(a, b, 1e6, 0.0);
  f.topo.add_link(c, b, 1e7, 0.0);
  f.init();
  double t0 = -1, t1 = -1;
  f.flows->start_flow(a, b, 1'000'000, [&](FlowId) { t0 = f.sim.now(); });
  f.flows->start_flow(c, b, 10'000'000, [&](FlowId) { t1 = f.sim.now(); });
  f.sim.run();
  EXPECT_NEAR(t0, 1.0, 1e-9);
  EXPECT_NEAR(t1, 1.0, 1e-9);
}

TEST(Flows, CancelStopsCallbackAndFreesBandwidth) {
  Fixture f;
  NodeId a = f.topo.add_node("a");
  NodeId b = f.topo.add_node("b");
  f.topo.add_link(a, b, 1e6, 0.0);
  f.init();
  bool cancelled_fired = false;
  double t1 = -1;
  FlowId victim =
      f.flows->start_flow(a, b, 1'000'000, [&](FlowId) { cancelled_fired = true; });
  f.flows->start_flow(a, b, 1'000'000, [&](FlowId) { t1 = f.sim.now(); });
  f.sim.schedule_in(1.0, [&] { EXPECT_TRUE(f.flows->cancel(victim)); });
  f.sim.run();
  EXPECT_FALSE(cancelled_fired);
  EXPECT_EQ(f.flows->cancelled_flows(), 1u);
  // Survivor: 0.5 MB by t=1 shared, remaining 0.5 MB alone -> t=1.5.
  EXPECT_NEAR(t1, 1.5, 1e-9);
}

TEST(Flows, CancelCompletedFlowReturnsFalse) {
  Fixture f;
  NodeId a = f.topo.add_node("a");
  NodeId b = f.topo.add_node("b");
  f.topo.add_link(a, b, 1e6, 0.0);
  f.init();
  FlowId id = f.flows->start_flow(a, b, 1000, [](FlowId) {});
  f.sim.run();
  EXPECT_FALSE(f.flows->cancel(id));
  // A second flow reuses the finished flow's slot; the old id stays
  // finished while the new one is live.
  FlowId next = f.flows->start_flow(a, b, 1000, [](FlowId) {});
  EXPECT_NE(next, id);
  f.sim.step();  // activation: `next` joins the pool
  EXPECT_EQ(f.flows->active_flows(), 1u);
  EXPECT_DOUBLE_EQ(f.flows->flow_rate(next), 1e6);
  EXPECT_EQ(f.flows->flow_rate(id), 0.0);
  EXPECT_FALSE(f.flows->cancel(id));
  EXPECT_EQ(f.flows->active_flows(), 1u);
  EXPECT_TRUE(f.flows->memory_defects().empty());
  EXPECT_TRUE(f.flows->cancel(next));
  EXPECT_FALSE(f.flows->cancel(next));
  EXPECT_TRUE(f.flows->memory_defects().empty());
}

TEST(Flows, LinkBytesAccounting) {
  Fixture f;
  NodeId a = f.topo.add_node("a");
  NodeId b = f.topo.add_node("b");
  NodeId c = f.topo.add_node("c");
  LinkId l0 = f.topo.add_link(a, b, 1e6, 0.0);
  LinkId l1 = f.topo.add_link(b, c, 1e6, 0.0);
  f.init();
  f.flows->start_flow(a, c, 3'000'000, [](FlowId) {});
  f.flows->start_flow(a, b, 1'000'000, [](FlowId) {});
  f.sim.run();
  EXPECT_NEAR(f.flows->link_bytes(l0), 4e6, 1);
  EXPECT_NEAR(f.flows->link_bytes(l1), 3e6, 1);
}

TEST(Flows, CompletionOrderMatchesSizesOnSharedLink) {
  Fixture f;
  NodeId a = f.topo.add_node("a");
  NodeId b = f.topo.add_node("b");
  f.topo.add_link(a, b, 1e6, 0.0);
  f.init();
  std::vector<int> order;
  f.flows->start_flow(a, b, 3'000'000, [&](FlowId) { order.push_back(3); });
  f.flows->start_flow(a, b, 1'000'000, [&](FlowId) { order.push_back(1); });
  f.flows->start_flow(a, b, 2'000'000, [&](FlowId) { order.push_back(2); });
  f.sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// --- Property test: allocation matches a brute-force max-min oracle ------

// Independent progressive-filling implementation over explicit sets.
std::vector<double> oracle_max_min(
    const std::vector<double>& link_caps,
    const std::vector<std::vector<std::size_t>>& flow_routes) {
  std::vector<double> caps = link_caps;
  std::vector<double> rates(flow_routes.size(), -1);
  std::vector<bool> fixed(flow_routes.size(), false);
  for (;;) {
    // count unfixed flows per link
    std::vector<int> count(caps.size(), 0);
    for (std::size_t i = 0; i < flow_routes.size(); ++i)
      if (!fixed[i])
        for (std::size_t l : flow_routes[i]) ++count[l];
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_link = SIZE_MAX;
    for (std::size_t l = 0; l < caps.size(); ++l)
      if (count[l] > 0 && caps[l] / count[l] < best) {
        best = caps[l] / count[l];
        best_link = l;
      }
    if (best_link == SIZE_MAX) break;
    for (std::size_t i = 0; i < flow_routes.size(); ++i) {
      if (fixed[i]) continue;
      if (std::find(flow_routes[i].begin(), flow_routes[i].end(),
                    best_link) == flow_routes[i].end())
        continue;
      fixed[i] = true;
      rates[i] = best;
      for (std::size_t l : flow_routes[i]) caps[l] -= best;
    }
  }
  return rates;
}

class FlowMaxMinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowMaxMinProperty, MatchesOracleOnRandomStar) {
  // Star topology: hub h, leaves l0..l{k-1}, random capacities; random
  // leaf-to-leaf flows (each crosses two links).
  Rng rng(GetParam());
  Fixture f;
  NodeId hub = f.topo.add_node("hub");
  const int kLeaves = 5;
  std::vector<NodeId> leaves;
  std::vector<double> caps;
  for (int i = 0; i < kLeaves; ++i) {
    leaves.push_back(f.topo.add_node("leaf"));
    double cap = rng.uniform_real(1e5, 1e7);
    caps.push_back(cap);
    f.topo.add_link(hub, leaves.back(), cap, 0.0);
  }
  f.init();

  const int kFlows = 8;
  std::vector<std::vector<std::size_t>> routes;
  std::vector<FlowId> ids;
  for (int i = 0; i < kFlows; ++i) {
    auto src = rng.index(kLeaves);
    auto dst = rng.index(kLeaves);
    while (dst == src) dst = rng.index(kLeaves);
    routes.push_back({src, dst});
    ids.push_back(f.flows->start_flow(leaves[src], leaves[dst], 1'000'000'000,
                                      [](FlowId) {}));
  }
  // Run exactly the kFlows activation events (all at t=0, scheduled before
  // any completion).
  for (int i = 0; i < kFlows; ++i) f.sim.step();

  std::vector<double> expected = oracle_max_min(caps, routes);
  for (int i = 0; i < kFlows; ++i)
    EXPECT_NEAR(f.flows->flow_rate(ids[i]), expected[i],
                expected[i] * 1e-9 + 1e-6)
        << "flow " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowMaxMinProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace wcs::net
