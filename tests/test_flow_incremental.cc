// Differential proof harness for certified-component max-min reallocation.
//
// The contract (net/flow_manager.h): after every flow start, activation,
// completion or cancel, every bandwidth-sharing flow's live rate equals,
// bitwise, the rate a from-scratch progressive fill over the whole pool
// assigns it. That fill is FlowManager::audit_rates_snapshot(), the one
// oracle the `flow-rates` audit checker also uses. This suite drives one
// live FlowManager through operation sequences and compares every pool
// flow's rate against the oracle after every operation, beside the flow
// table's slot-table self-check (FlowManager::memory_defects()):
//
//   * randomized churn (7 seeds x 3 topology families): start / cancel /
//     advance over partitioned multi-star platforms (many small
//     components), a shared chain (one big overlapping component) and an
//     equal-bandwidth tree (share ties everywhere, resolved by link id);
//   * adversarial fixtures: a shared link just above its flows'
//     downstream bottlenecks (one join saturates it, so the slack check
//     must widen the component), a shared-bottleneck chain with a
//     midstream cancel, zero-byte and same-node flows (complete inside
//     activation, never join the pool), cancels during the latency
//     phase, and simultaneous completions (drain rounds);
//   * an eviction-churn grid stress: full GridSimulation runs with worker
//     crashes, cache eviction pressure, and the invariant auditor on
//     (including the `flow-rates` checker).
//
// "Bitwise" means bitwise: doubles are compared through their bit
// patterns, not an epsilon.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/checkers.h"
#include "common/rng.h"
#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "net/flow_manager.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "workload/coadd.h"

namespace wcs::net {
namespace {

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

#define EXPECT_SAME_BITS(a, b) \
  EXPECT_EQ(bits(a), bits(b)) << #a " = " << (a) << " vs " #b " = " << (b)

// One live FlowManager over a test topology: every completion is logged,
// and expect_matches_oracle() checks every pool flow's live rate against
// the from-scratch fill bitwise.
struct Harness {
  Topology topo;
  sim::Simulator sim;
  std::unique_ptr<FlowManager> flows;
  std::vector<std::pair<std::uint64_t, double>> done;

  void init() { flows = std::make_unique<FlowManager>(sim, topo); }

  FlowId start(NodeId src, NodeId dst, Bytes bytes) {
    return flows->start_flow(src, dst, bytes, [this](FlowId id) {
      done.emplace_back(id.value(), sim.now());
    });
  }

  bool cancel(FlowId id) { return flows->cancel(id); }

  bool step() { return sim.step(); }

  // Stops at the first failure: past a broken check the flow table is
  // untrustworthy, and stepping on may never terminate.
  void run_all() {
    while (!::testing::Test::HasFailure() && step())
      expect_matches_oracle("during drain");
    EXPECT_EQ(flows->active_flows(), 0u);
  }

  void expect_matches_oracle(const char* context) {
    SCOPED_TRACE(context);
    const audit::FlowRatesSnapshot snap = flows->audit_rates_snapshot();
    for (const audit::FlowRateEntry& e : snap.flows) {
      SCOPED_TRACE("flow " + std::to_string(e.id));
      EXPECT_SAME_BITS(e.stored_bps, e.recomputed_bps);
      EXPECT_SAME_BITS(flows->flow_rate(FlowId(e.id)), e.recomputed_bps);
      EXPECT_GT(e.stored_bps, 0.0);
    }
    std::vector<audit::Violation> violations;
    audit::check_flow_rates(snap, violations);
    audit::check_flow_conservation(flows->audit_snapshot(), violations);
    EXPECT_TRUE(violations.empty())
        << (violations.empty() ? "" : violations.front().message);
    const std::vector<std::string> defects = flows->memory_defects();
    EXPECT_TRUE(defects.empty()) << (defects.empty() ? "" : defects.front());
  }

  // Flows currently sharing bandwidth (the oracle's pool).
  std::size_t pool_size() const {
    return flows->audit_rates_snapshot().flows.size();
  }
};

// Random start / cancel / advance, checking the oracle after every
// operation and through the final drain. A start picks one endpoint group
// and two of its nodes; ~1 in 10 starts is a same-node transfer and ~1 in
// 10 is zero-byte when `edge_flows`.
void random_churn(Harness& h, Rng& rng,
                  const std::vector<std::vector<NodeId>>& groups, int ops,
                  bool edge_flows, Bytes min_bytes, Bytes max_bytes) {
  std::vector<FlowId> live;
  for (int op = 0; op < ops; ++op) {
    const std::size_t kind = rng.index(5);
    if (kind <= 1 || live.empty()) {
      const std::vector<NodeId>& endpoints = groups[rng.index(groups.size())];
      const std::size_t s = rng.index(endpoints.size());
      std::size_t d = rng.index(endpoints.size());
      if (!edge_flows || rng.index(10) != 0)
        while (d == s) d = rng.index(endpoints.size());
      const Bytes bytes =
          edge_flows && rng.index(10) == 0
              ? 0u
              : static_cast<Bytes>(rng.uniform_int(
                    static_cast<std::int64_t>(min_bytes),
                    static_cast<std::int64_t>(max_bytes)));
      live.push_back(h.start(endpoints[s], endpoints[d], bytes));
    } else if (kind == 2) {
      const std::size_t victim = rng.index(live.size());
      h.cancel(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const std::size_t steps = 1 + rng.index(3);
      for (std::size_t i = 0; i < steps; ++i)
        if (!h.step()) break;
    }
    h.expect_matches_oracle("after op");
    if (::testing::Test::HasFailure()) return;
  }
  h.run_all();
}

// --- Randomized churn -----------------------------------------------------

class FlowDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowDifferential, RandomChurnOnMultiStarStaysBitIdentical) {
  // 4 disjoint hub-and-leaf stars: flows never cross stars, so the
  // sharing graph always has several connected components.
  Rng rng(GetParam());
  Harness h;
  const int kHubs = 4, kLeaves = 4;
  std::vector<std::vector<NodeId>> leaves(kHubs);
  for (int hub_i = 0; hub_i < kHubs; ++hub_i) {
    NodeId hub = h.topo.add_node("hub");
    for (int l = 0; l < kLeaves; ++l) {
      leaves[hub_i].push_back(h.topo.add_node("leaf"));
      h.topo.add_link(hub, leaves[hub_i].back(), rng.uniform_real(1e5, 1e7),
                      rng.uniform_real(0.0, 0.01));
    }
  }
  h.init();

  random_churn(h, rng, leaves, 80, /*edge_flows=*/true, 1'000, 50'000'000);
}

TEST_P(FlowDifferential, RandomChurnOnSharedChainStaysBitIdentical) {
  // One 8-node chain with a thin middle link: flows span random
  // overlapping segments, so most of the pool collapses into a single
  // shared component and the flood has to do real work.
  Rng rng(GetParam());
  Harness h;
  const int kNodes = 8;
  std::vector<NodeId> nodes;
  for (int i = 0; i < kNodes; ++i) nodes.push_back(h.topo.add_node("n"));
  for (int i = 0; i + 1 < kNodes; ++i) {
    const double cap = i == kNodes / 2 ? 2e5 : rng.uniform_real(1e6, 1e7);
    h.topo.add_link(nodes[i], nodes[i + 1], cap, 0.0);
  }
  h.init();
  random_churn(h, rng, {nodes}, 60, /*edge_flows=*/false, 10'000,
               20'000'000);
}

TEST_P(FlowDifferential, RandomChurnOnEqualBandwidthTreeStaysBitIdentical) {
  // A two-level tree whose links all have the same bandwidth, with flow
  // sizes drawn from two values: fair shares tie between links on almost
  // every filling round (the (share, link id) tie-break decides), and
  // flows finish at the same instant often (drain rounds).
  Rng rng(GetParam());
  Harness h;
  NodeId root = h.topo.add_node("root");
  std::vector<NodeId> leaves;
  for (int s = 0; s < 3; ++s) {
    NodeId sw = h.topo.add_node("switch");
    h.topo.add_link(root, sw, 3e6, 0.0);
    for (int l = 0; l < 3; ++l) {
      leaves.push_back(h.topo.add_node("leaf"));
      h.topo.add_link(sw, leaves.back(), 3e6, 0.0);
    }
  }
  h.init();

  std::vector<FlowId> live;
  for (int op = 0; op < 80; ++op) {
    const std::size_t kind = rng.index(5);
    if (kind <= 1 || live.empty()) {
      const std::size_t s = rng.index(leaves.size());
      std::size_t d = rng.index(leaves.size());
      while (d == s) d = rng.index(leaves.size());
      live.push_back(h.start(leaves[s], leaves[d],
                             rng.index(2) == 0 ? 1'000'000u : 3'000'000u));
    } else if (kind == 2) {
      const std::size_t victim = rng.index(live.size());
      h.cancel(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else if (!h.step()) {
      live.clear();
    }
    h.expect_matches_oracle("after op");
    if (::testing::Test::HasFailure()) return;
  }
  h.run_all();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowDifferential,
                         ::testing::Range<std::uint64_t>(1, 8));

// --- Adversarial fixtures -------------------------------------------------

TEST(FlowDifferentialFixtures, JoinSaturatingSharedLinkWidensComponent) {
  // Three flows cross a shared link of 9.000001 MB/s, each bottlenecked
  // downstream at 3 MB/s: the shared link carries 9 MB/s, just below
  // capacity, so it keeps slack and a join does not flood through it. A
  // fourth flow with a fat private link joins: filled alone it would take
  // 100 MB/s, which the slack check on the shared link must refuse,
  // widening the component to all four flows at capacity / 4. When it
  // leaves, the now-saturated shared link floods and the three flows
  // return to their downstream 3 MB/s.
  Harness h;
  const double kShared = 9.000001e6;
  NodeId src = h.topo.add_node("src");
  NodeId core = h.topo.add_node("core");
  h.topo.add_link(src, core, kShared, 0.0);
  std::vector<NodeId> leaves;
  for (int i = 0; i < 4; ++i) {
    leaves.push_back(h.topo.add_node("leaf"));
    h.topo.add_link(core, leaves.back(), i < 3 ? 3e6 : 100e6, 0.0);
  }
  h.init();

  std::vector<FlowId> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(h.start(src, leaves[i], 1e12));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(h.step());
  h.expect_matches_oracle("three flows");
  for (FlowId id : ids) EXPECT_EQ(h.flows->flow_rate(id), 3e6);

  FlowId fat = h.start(src, leaves[3], 1e12);
  ASSERT_TRUE(h.step());
  h.expect_matches_oracle("after the saturating join");
  for (FlowId id : ids) EXPECT_EQ(h.flows->flow_rate(id), kShared / 4);
  EXPECT_EQ(h.flows->flow_rate(fat), kShared / 4);

  ASSERT_TRUE(h.cancel(fat));
  h.expect_matches_oracle("after the fat flow left");
  for (FlowId id : ids) EXPECT_EQ(h.flows->flow_rate(id), 3e6);

  for (FlowId id : ids) {
    ASSERT_TRUE(h.cancel(id));
    h.expect_matches_oracle("after cancel");
  }
  EXPECT_EQ(h.pool_size(), 0u);
}

TEST(FlowDifferentialFixtures, SharedBottleneckChainWithMidstreamCancel) {
  // a --10MB/s-- b --1MB/s-- c --10MB/s-- d; four overlapping flows all
  // contend on the thin b-c link. Cancelling the b->c flow midstream
  // re-seeds the component from the released route; every rate must
  // track the from-scratch fill bitwise.
  Harness h;
  NodeId a = h.topo.add_node("a");
  NodeId b = h.topo.add_node("b");
  NodeId c = h.topo.add_node("c");
  NodeId d = h.topo.add_node("d");
  h.topo.add_link(a, b, 1e7, 0.0);
  h.topo.add_link(b, c, 1e6, 0.0);
  h.topo.add_link(c, d, 1e7, 0.0);
  h.init();

  h.start(a, d, 8'000'000);
  FlowId victim = h.start(b, c, 6'000'000);
  h.start(c, d, 4'000'000);
  h.start(a, b, 2'000'000);
  // Consume the four t=0 activations, then let some progress accrue.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(h.step());
    h.expect_matches_oracle("activation");
  }
  ASSERT_TRUE(h.cancel(victim));
  h.expect_matches_oracle("after cancel");
  h.run_all();
  EXPECT_EQ(h.done.size(), 3u);
}

TEST(FlowDifferentialFixtures, ZeroByteAndSameNodeFlowsNeverJoinThePool) {
  // Zero-byte and same-node flows complete inside their activation,
  // before joining the bandwidth-sharing pool. Interleaved with real
  // flows on a shared link, they must leave every rate untouched.
  Harness h;
  NodeId a = h.topo.add_node("a");
  NodeId b = h.topo.add_node("b");
  NodeId c = h.topo.add_node("c");
  h.topo.add_link(a, b, 1e6, 0.001);
  h.topo.add_link(b, c, 4e6, 0.001);
  h.init();

  FlowId long1 = h.start(a, c, 5'000'000);
  FlowId zero = h.start(a, c, 0);
  FlowId same = h.start(b, b, 7'000'000);
  FlowId long2 = h.start(b, c, 5'000'000);
  while (h.done.size() < 2) {
    ASSERT_TRUE(h.step());
    h.expect_matches_oracle("activations");
  }
  EXPECT_EQ(h.done[0].first, same.value());  // no latency on a self-route
  EXPECT_EQ(h.done[1].first, zero.value());
  EXPECT_EQ(h.pool_size(), 2u);
  EXPECT_EQ(h.flows->flow_rate(long1), 1e6);
  EXPECT_EQ(h.flows->flow_rate(long2), 3e6);
  EXPECT_FALSE(h.cancel(zero));
  EXPECT_FALSE(h.cancel(same));
  h.run_all();
  EXPECT_EQ(h.flows->completed_flows(), 4u);
}

TEST(FlowDifferentialFixtures, CancelDuringLatencyPhase) {
  // A flow cancelled while still connecting never shared bandwidth: its
  // callback never fires and the pool's rates do not move.
  Harness h;
  NodeId a = h.topo.add_node("a");
  NodeId b = h.topo.add_node("b");
  NodeId c = h.topo.add_node("c");
  h.topo.add_link(a, b, 2e6, 0.5);
  h.topo.add_link(b, c, 2e6, 0.0);
  h.init();

  FlowId sharing = h.start(b, c, 4'000'000);  // no latency: active at t=0
  ASSERT_TRUE(h.step());
  FlowId connecting = h.start(a, c, 4'000'000);  // 0.5 s latency
  h.expect_matches_oracle("while connecting");
  EXPECT_EQ(h.flows->flow_rate(connecting), 0.0);
  EXPECT_EQ(h.flows->flow_rate(sharing), 2e6);
  EXPECT_TRUE(h.cancel(connecting));
  h.expect_matches_oracle("after cancel in latency");
  EXPECT_EQ(h.flows->flow_rate(sharing), 2e6);
  EXPECT_EQ(h.flows->cancelled_flows(), 1u);
  h.run_all();
  ASSERT_EQ(h.done.size(), 1u);
  EXPECT_EQ(h.done[0].first, sharing.value());
  EXPECT_EQ(h.done[0].second, 2.0);
}

TEST(FlowDifferentialFixtures, SingleLinkStarSimultaneousCompletions) {
  // Four identical flows on one link finish at the same instant: the
  // first completion event re-rates the other three, whose remaining is
  // then FP dust, so they drain in follow-up rounds of the same
  // reallocation (the drain rounds flood their links unconditionally).
  Harness h;
  NodeId a = h.topo.add_node("a");
  NodeId b = h.topo.add_node("b");
  NodeId e = h.topo.add_node("e");
  NodeId f = h.topo.add_node("f");
  h.topo.add_link(a, b, 1e6, 0.0);
  h.topo.add_link(e, f, 2e6, 0.0);
  h.init();

  for (int i = 0; i < 4; ++i) h.start(a, b, 1'000'000);
  h.run_all();
  ASSERT_EQ(h.done.size(), 4u);
  // All four completed at the same simulated instant, in id order.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(h.done[i].first, i);
    EXPECT_SAME_BITS(h.done[i].second, h.done[0].second);
  }

  // Second wave: a disjoint-link flow sized to finish simultaneously
  // with a shared-link pair (same double instant, different links).
  h.start(a, b, 1'000'000);
  h.start(a, b, 1'000'000);  // shared: each at 0.5 MB/s -> t = +2
  h.start(e, f, 4'000'000);  // alone at 2 MB/s -> t = +2
  h.run_all();
  ASSERT_EQ(h.done.size(), 7u);
  for (std::size_t i = 4; i < 7; ++i)
    EXPECT_SAME_BITS(h.done[i].second, h.done[4].second);
}

TEST(FlowDifferentialFixtures, SimultaneousCompletionsAcrossSharedCore) {
  // The wide-grid shape: flows fan out through one shared core link onto
  // their own leaf links. Two leaves are bottlenecked by the core, one
  // by its own thin leaf; the core-bound pair finishes together, and the
  // drain re-rates the survivor through the core.
  Harness h;
  NodeId src = h.topo.add_node("src");
  NodeId core = h.topo.add_node("core");
  h.topo.add_link(src, core, 4e6, 0.0);
  std::vector<NodeId> leaves;
  const double leaf_bw[] = {8e6, 8e6, 1e6};
  for (double bw : leaf_bw) {
    leaves.push_back(h.topo.add_node("leaf"));
    h.topo.add_link(core, leaves.back(), bw, 0.0);
  }
  h.init();

  h.start(src, leaves[0], 3'000'000);
  h.start(src, leaves[1], 3'000'000);
  FlowId slow = h.start(src, leaves[2], 3'000'000);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(h.step());
  h.expect_matches_oracle("activations");
  EXPECT_EQ(h.flows->flow_rate(slow), 1e6);
  EXPECT_EQ(h.flows->flow_rate(FlowId(0)), 1.5e6);
  h.run_all();
  ASSERT_EQ(h.done.size(), 3u);
  EXPECT_SAME_BITS(h.done[0].second, h.done[1].second);
  EXPECT_EQ(h.done[2].first, slow.value());
}

// --- Grid-level eviction-churn stress under the auditor -------------------

TEST(FlowDifferentialGrid, EvictionChurnRunsBitIdenticalUnderAudit) {
  // Full GridSimulation runs: small caches force eviction, worker
  // crashes force batch cancellation (flows aborted midstream), and the
  // invariant auditor sweeps every 200 events — including the
  // `flow-rates` checker, which recomputes every live rate from scratch
  // and demands bitwise equality (a violation throws). The audited run
  // must also match the unaudited one exactly, scheduler by scheduler.
  workload::CoaddParams cp;
  cp.num_tasks = 200;
  cp.seed = 9;
  const workload::Workload wl{workload::generate_coadd(cp)};

  grid::GridConfig base;
  base.tiers.num_sites = 3;
  base.tiers.workers_per_site = 4;
  base.capacity_files = 2500;  // tight: sustained eviction pressure
  base.churn = grid::GridConfig::ChurnParams{
      .mean_uptime_s = 20000.0, .mean_downtime_s = 2000.0, .seed = 17};
  base.audit_interval_events = 200;

  for (const auto& spec : sched::SchedulerSpec::paper_algorithms()) {
    SCOPED_TRACE(spec.name());
    grid::GridConfig c = base;
    c.audit = true;
    const auto audited = grid::run_once(c, wl, spec, /*seed=*/5);
    c.audit = false;
    const auto plain = grid::run_once(c, wl, spec, /*seed=*/5);

    EXPECT_EQ(audited.tasks_completed, 200u);
    EXPECT_SAME_BITS(audited.makespan_s, plain.makespan_s);
    EXPECT_EQ(audited.tasks_completed, plain.tasks_completed);
    EXPECT_EQ(audited.events_executed, plain.events_executed);
    EXPECT_EQ(audited.total_file_transfers(), plain.total_file_transfers());
    EXPECT_SAME_BITS(audited.total_bytes_transferred(),
                     plain.total_bytes_transferred());
  }
}

}  // namespace
}  // namespace wcs::net
