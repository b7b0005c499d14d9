// Tests for the proactive data-replication subsystem and the
// worker-centric task-replication extension.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "replication/data_replicator.h"
#include "workload/coadd.h"
#include "workload/generators.h"

namespace wcs {
namespace {

// --- DataReplicator unit tests (driven through a mini grid) --------------

struct MiniGrid {
  sim::Simulator sim;
  net::Topology topo;
  NodeId fs;
  std::vector<NodeId> ds_nodes;
  // Overlap 0: every replica moves its file's full 1 MB.
  storage::BlockMap blocks;
  std::unique_ptr<net::FlowManager> flows;
  std::vector<std::unique_ptr<storage::DataServer>> servers;

  explicit MiniGrid(std::size_t sites = 2, std::size_t capacity = 20,
                    std::size_t files = 50)
      : blocks{workload::FileCatalog(files, megabytes(1)),
               storage::BlockStoreParams{}} {
    fs = topo.add_node("fs");
    for (std::size_t s = 0; s < sites; ++s) {
      NodeId n = topo.add_node("ds" + std::to_string(s));
      topo.add_link(fs, n, 1e6, 0.001);
      ds_nodes.push_back(n);
    }
    flows = std::make_unique<net::FlowManager>(sim, topo);
    for (std::size_t s = 0; s < sites; ++s)
      servers.push_back(std::make_unique<storage::DataServer>(
          SiteId(static_cast<SiteId::underlying_type>(s)), sim, *flows,
          ds_nodes[s], fs, blocks, capacity,
          storage::EvictionPolicy::kLru));
  }

  std::vector<storage::DataServer*> server_ptrs() {
    std::vector<storage::DataServer*> out;
    for (auto& s : servers) out.push_back(s.get());
    return out;
  }
};

replication::DataReplicatorParams quick_params() {
  replication::DataReplicatorParams p;
  p.popularity_threshold = 3;
  p.check_interval_s = 10;
  return p;
}

// Sites holding `file`, in site order.
std::vector<std::size_t> holders(MiniGrid& g, FileId file) {
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < g.servers.size(); ++s)
    if (g.servers[s]->cache().contains(file)) out.push_back(s);
  return out;
}

// One site-info entry per MAN group in `groups` (site order).
std::vector<replication::SiteNetInfo> grouped(
    std::initializer_list<std::uint32_t> groups) {
  std::vector<replication::SiteNetInfo> out;
  for (std::uint32_t g : groups) out.push_back({g, 1e6, 0.001});
  return out;
}

// Fetches file 7 once from each site in `origins` (the count meets the
// threshold), runs one scan of `placement` over the sites `info` describes,
// with `preloaded` sites already holding the file, and returns the sites
// that hold it afterwards.
std::vector<std::size_t> place_file_7(
    replication::Placement placement,
    std::vector<replication::SiteNetInfo> info,
    std::initializer_list<unsigned> origins,
    std::initializer_list<std::size_t> preloaded = {}) {
  MiniGrid g(info.size());
  for (std::size_t s : preloaded) g.servers[s]->cache().insert(FileId(7));
  replication::DataReplicatorParams p = quick_params();
  p.popularity_threshold = origins.size();
  p.placement = placement;
  replication::DataReplicator repl(p, g.sim, *g.flows, g.fs, g.server_ptrs(),
                                   std::move(info));
  repl.start();
  for (unsigned site : origins) repl.on_file_fetched(FileId(7), SiteId(site));
  g.sim.run_until(25);
  EXPECT_EQ(repl.stats().files_replicated, 1u);
  repl.stop();
  return holders(g, FileId(7));
}

// Test-only oracle: the brute-force full scan. Ranks every file whose
// count reached `threshold` and that no earlier round took by (count
// desc, id asc), takes the first `k` and marks them taken.
std::vector<FileId> oracle_round(const std::vector<std::size_t>& counts,
                                 std::size_t threshold, std::size_t k,
                                 std::vector<bool>& taken) {
  std::vector<FileId> hot;
  for (std::size_t f = 0; f < counts.size(); ++f)
    if (counts[f] >= threshold && !taken[f])
      hot.push_back(FileId(static_cast<FileId::underlying_type>(f)));
  std::sort(hot.begin(), hot.end(), [&](FileId a, FileId b) {
    if (counts[a.value()] != counts[b.value()])
      return counts[a.value()] > counts[b.value()];
    return a < b;
  });
  if (hot.size() > k) hot.resize(k);
  for (FileId f : hot) taken[f.value()] = true;
  return hot;
}

TEST(DataReplicator, TracksPopularity) {
  MiniGrid g;
  replication::DataReplicator repl(quick_params(), g.sim, *g.flows, g.fs,
                                   g.server_ptrs());
  repl.on_file_fetched(FileId(1));
  repl.on_file_fetched(FileId(1));
  repl.on_file_fetched(FileId(2));
  EXPECT_EQ(repl.popularity(FileId(1)), 2u);
  EXPECT_EQ(repl.popularity(FileId(2)), 1u);
  EXPECT_EQ(repl.popularity(FileId(3)), 0u);
}

TEST(DataReplicator, ReplicatesOnlyAboveThreshold) {
  MiniGrid g;
  replication::DataReplicator repl(quick_params(), g.sim, *g.flows, g.fs,
                                   g.server_ptrs());
  repl.start();
  for (int i = 0; i < 3; ++i) repl.on_file_fetched(FileId(7));
  repl.on_file_fetched(FileId(8));  // below threshold
  g.sim.run_until(25);
  EXPECT_EQ(repl.stats().files_replicated, 1u);
  bool somewhere = g.servers[0]->cache().contains(FileId(7)) ||
                   g.servers[1]->cache().contains(FileId(7));
  EXPECT_TRUE(somewhere);
  EXPECT_FALSE(g.servers[0]->cache().contains(FileId(8)));
  EXPECT_FALSE(g.servers[1]->cache().contains(FileId(8)));
  repl.stop();
}

TEST(DataReplicator, ReplicatesEachFileOnce) {
  MiniGrid g;
  replication::DataReplicator repl(quick_params(), g.sim, *g.flows, g.fs,
                                   g.server_ptrs());
  repl.start();
  for (int i = 0; i < 10; ++i) repl.on_file_fetched(FileId(7));
  g.sim.run_until(55);  // several scan rounds
  EXPECT_EQ(repl.stats().files_replicated, 1u);
  EXPECT_GT(repl.stats().rounds, 2u);
  repl.stop();
}

TEST(DataReplicator, SkipsSitesThatAlreadyHoldTheFile) {
  MiniGrid g;
  g.servers[0]->cache().insert(FileId(7));
  replication::DataReplicator repl(quick_params(), g.sim, *g.flows, g.fs,
                                   g.server_ptrs());
  repl.start();
  for (int i = 0; i < 3; ++i) repl.on_file_fetched(FileId(7));
  g.sim.run_until(25);
  // Only site 1 was a legal target.
  EXPECT_TRUE(g.servers[1]->cache().contains(FileId(7)));
  repl.stop();
}

TEST(DataReplicator, LeastLoadedPlacementPrefersShortQueue) {
  MiniGrid g;
  // Clog site 0's data server with a long batch.
  std::vector<FileId> big;
  for (unsigned i = 20; i < 35; ++i) big.push_back(FileId(i));
  g.servers[0]->request_batch(TaskId(0), WorkerId(0), big, [] {});
  g.servers[0]->request_batch(
      TaskId(1), WorkerId(0),
      std::vector<FileId>{FileId(40), FileId(41)}, [] {});
  replication::DataReplicatorParams p = quick_params();
  p.placement = replication::Placement::kLeastLoaded;
  replication::DataReplicator repl(p, g.sim, *g.flows, g.fs, g.server_ptrs());
  repl.start();
  for (int i = 0; i < 3; ++i) repl.on_file_fetched(FileId(7));
  g.sim.run_until(12);  // one scan while site 0 still has a queue
  g.sim.run_until(60);
  EXPECT_TRUE(g.servers[1]->cache().contains(FileId(7)));
  repl.stop();
  g.sim.run();
}

TEST(DataReplicator, StopCancelsScansAndFlows) {
  MiniGrid g;
  replication::DataReplicator repl(quick_params(), g.sim, *g.flows, g.fs,
                                   g.server_ptrs());
  repl.start();
  for (int i = 0; i < 3; ++i) repl.on_file_fetched(FileId(7));
  repl.stop();
  g.sim.run();
  EXPECT_EQ(repl.stats().files_replicated, 0u);
  EXPECT_EQ(repl.stats().rounds, 0u);
  // Idempotent.
  repl.stop();
}

TEST(DataReplicator, StopCancelsInFlightFlows) {
  MiniGrid g;
  replication::DataReplicator repl(quick_params(), g.sim, *g.flows, g.fs,
                                   g.server_ptrs());
  repl.start();
  for (unsigned f : {7u, 8u, 9u})
    for (int i = 0; i < 3; ++i) repl.on_file_fetched(FileId(f));
  g.sim.run_until(10.5);  // the first round started its flows
  ASSERT_EQ(repl.stats().rounds, 1u);
  ASSERT_GE(g.flows->active_flows(), 2u);
  const std::size_t started = g.flows->active_flows();
  repl.stop();
  g.sim.run();
  EXPECT_EQ(repl.stats().files_replicated, 0u);
  EXPECT_EQ(repl.stats().bytes_replicated, 0.0);
  EXPECT_EQ(g.flows->completed_flows(), 0u);
  EXPECT_EQ(g.flows->cancelled_flows(), started);
  for (unsigned f : {7u, 8u, 9u}) EXPECT_TRUE(holders(g, FileId(f)).empty());
}

// Drives a replicator (2 files per round, threshold 3) with `fetches`
// random demand fetches per round over `files` files and checks every
// round's new replicas against oracle_round. With `hot` > 0, half the
// fetches go to files [0, hot), so they keep raising the counts of files
// already eligible. Returns the largest backlog (eligible files no scan
// has taken) seen right after a round.
std::size_t check_selection_against_oracle(std::uint64_t seed,
                                           std::size_t files,
                                           std::size_t fetches, int rounds,
                                           std::size_t hot) {
  constexpr SimTime kInterval = 100;
  MiniGrid g(3, files + 60, files);  // ample capacity: nothing is evicted
  replication::DataReplicatorParams p = quick_params();
  p.check_interval_s = kInterval;
  p.max_replicas_per_round = 2;
  replication::DataReplicator repl(p, g.sim, *g.flows, g.fs, g.server_ptrs());
  repl.start();
  Rng rng(seed);
  std::vector<std::size_t> counts(files, 0);
  std::vector<bool> taken(files, false);
  std::vector<bool> resident(files, false);
  std::size_t picked = 0;
  std::size_t max_backlog = 0;
  for (int round = 1; round <= rounds; ++round) {
    for (std::size_t i = 0; i < fetches; ++i) {
      const std::size_t f = hot > 0 && rng.bernoulli(0.5) ? rng.index(hot)
                                                          : rng.index(files);
      ++counts[f];
      repl.on_file_fetched(
          FileId(static_cast<FileId::underlying_type>(f)),
          SiteId(static_cast<SiteId::underlying_type>(rng.index(3))));
    }
    // Half an interval past the round: its flows have all landed.
    g.sim.run_until(round * kInterval + kInterval / 2);
    std::vector<FileId> fresh;
    for (std::size_t f = 0; f < files; ++f) {
      const FileId id(static_cast<FileId::underlying_type>(f));
      if (!resident[f] && !holders(g, id).empty()) fresh.push_back(id);
      resident[f] = !holders(g, id).empty();
    }
    std::vector<FileId> expected =
        oracle_round(counts, p.popularity_threshold,
                     p.max_replicas_per_round, taken);
    picked += expected.size();
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(fresh, expected) << "round " << round;
    EXPECT_EQ(repl.stats().files_replicated, picked);
    std::size_t backlog = 0;
    for (std::size_t f = 0; f < files; ++f)
      backlog += counts[f] >= p.popularity_threshold && !taken[f] ? 1 : 0;
    max_backlog = std::max(max_backlog, backlog);
  }
  EXPECT_GT(picked, 10u);
  repl.stop();
  return max_backlog;
}

TEST(DataReplicator, SelectionMatchesFullScanOracle) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    // 40 files, 8 fetches a round: the eligible list stays short.
    check_selection_against_oracle(seed, 40, 8, 15, 0);
    // 400 files, 120 fetches a round, half on 60 hot files: a backlog
    // of well over 100 eligible files while counts rise under it.
    EXPECT_GT(check_selection_against_oracle(seed, 400, 120, 20, 60), 100u);
  }
}

TEST(DataReplicator, TiedCountsTakeLowestIdFirst) {
  MiniGrid g;
  replication::DataReplicatorParams p = quick_params();
  p.max_replicas_per_round = 1;
  replication::DataReplicator repl(p, g.sim, *g.flows, g.fs, g.server_ptrs());
  repl.start();
  for (unsigned f : {9u, 4u, 6u})
    for (int i = 0; i < 3; ++i) repl.on_file_fetched(FileId(f));
  for (int i = 0; i < 5; ++i) repl.on_file_fetched(FileId(11));
  for (int i = 0; i < 2; ++i) repl.on_file_fetched(FileId(2));  // below
  const std::vector<unsigned> order{11, 4, 6, 9};
  for (std::size_t round = 0; round < order.size(); ++round) {
    g.sim.run_until(10.0 * static_cast<double>(round + 1) + 5);
    for (std::size_t i = 0; i < order.size(); ++i)
      EXPECT_EQ(holders(g, FileId(order[i])).size(), i <= round ? 1u : 0u)
          << "round " << round << " file " << order[i];
  }
  EXPECT_TRUE(holders(g, FileId(2)).empty());
  repl.stop();
}

TEST(DataReplicator, HierarchicalPicksGroupWithMostDemand) {
  // Group 1 (sites 2, 3) asked twice; its lowest idle site wins.
  EXPECT_EQ(place_file_7(replication::Placement::kHierarchicalParent,
                         grouped({0, 0, 1, 1}), {0, 3, 3}),
            std::vector<std::size_t>{2});
}

TEST(DataReplicator, HierarchicalTieGoesToLowestGroup) {
  // Group 0 is the higher-numbered pair, so the tie-break is visible.
  EXPECT_EQ(place_file_7(replication::Placement::kHierarchicalParent,
                         grouped({1, 1, 0, 0}), {0, 0, 3, 3}),
            std::vector<std::size_t>{2});
}

TEST(DataReplicator, HierarchicalFallsBackWhenGroupHoldsTheFile) {
  // Every site of the hot group already holds it: all candidates compete.
  EXPECT_EQ(place_file_7(replication::Placement::kHierarchicalParent,
                         grouped({0, 0, 1, 1}), {2, 2, 2}, {2, 3}),
            (std::vector<std::size_t>{0, 2, 3}));
}

TEST(DataReplicator, NetworkCostPicksCheapestUplink) {
  std::vector<replication::SiteNetInfo> info = grouped({0, 0, 0});
  info[1].uplink_bandwidth_bps = 2e6;
  info[2].uplink_bandwidth_bps = 4e6;
  EXPECT_EQ(place_file_7(replication::Placement::kNetworkCost, info,
                         {0, 0, 0}),
            std::vector<std::size_t>{2});
  // Equal cost: the lowest site id wins.
  info[1].uplink_bandwidth_bps = 4e6;
  EXPECT_EQ(place_file_7(replication::Placement::kNetworkCost, info,
                         {0, 0, 0}),
            std::vector<std::size_t>{1});
}

TEST(DataReplicator, PlacementNames) {
  using replication::Placement;
  for (Placement p : {Placement::kRandom, Placement::kLeastLoaded,
                      Placement::kHierarchicalParent,
                      Placement::kNetworkCost}) {
    Placement parsed = Placement::kRandom;
    ASSERT_TRUE(replication::parse_placement(replication::to_string(p),
                                             &parsed));
    EXPECT_EQ(parsed, p);
  }
  EXPECT_STREQ(replication::to_string(Placement::kRandom), "random");
  EXPECT_STREQ(replication::to_string(Placement::kLeastLoaded),
               "least-loaded");
  EXPECT_STREQ(replication::to_string(Placement::kHierarchicalParent),
               "hierarchical");
  EXPECT_STREQ(replication::to_string(Placement::kNetworkCost),
               "network-cost");
  Placement untouched = Placement::kNetworkCost;
  EXPECT_FALSE(replication::parse_placement("nearest", &untouched));
  EXPECT_FALSE(replication::parse_placement("", &untouched));
  EXPECT_EQ(untouched, Placement::kNetworkCost);
}

// --- Integration through GridSimulation ----------------------------------

TEST(ReplicationIntegration, RunsToCompletionAndReportsStats) {
  workload::GeneratorParams gp;
  gp.num_tasks = 60;
  gp.num_files = 300;
  gp.files_per_task = 10;
  gp.file_size = megabytes(5);
  // Hot files: replication bites.
  const workload::Workload wl{workload::generate_zipf(gp, 1.2)};
  grid::GridConfig c;
  // More sites than the popularity threshold, so a hot file is NOT yet
  // resident everywhere when it becomes replication-eligible.
  c.tiers.num_sites = 5;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 300;
  replication::DataReplicatorParams rp;
  rp.popularity_threshold = 2;
  rp.check_interval_s = 300;
  c.replication = rp;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  auto r = grid::run_once(c, wl, spec, 1);
  EXPECT_EQ(r.tasks_completed, 60u);
  EXPECT_GT(r.files_replicated, 0u);
  EXPECT_GT(r.bytes_replicated, 0.0);
}

TEST(ReplicationIntegration, RaceWithDemandFetchesSurvives) {
  // Regression for the demand-fetch/replica race: aggressive replication
  // (low threshold, short interval) + storage affinity's bursty queues
  // maximize the chance a replica lands while the same file is being
  // demand-fetched at the same site.
  workload::CoaddParams cp;
  cp.num_tasks = 200;
  const workload::Workload wl{workload::generate_coadd(cp)};
  grid::GridConfig c;
  c.tiers.num_sites = 5;
  c.tiers.workers_per_site = 2;
  c.capacity_files = 500;
  replication::DataReplicatorParams rp;
  rp.popularity_threshold = 2;
  rp.check_interval_s = 200;  // very chatty
  rp.max_replicas_per_round = 100;
  c.replication = rp;
  sched::SchedulerSpec sa;
  sa.algorithm = sched::Algorithm::kStorageAffinity;
  auto r = grid::run_once(c, wl, sa, 1);
  EXPECT_EQ(r.tasks_completed, 200u);
  EXPECT_GT(r.files_replicated, 0u);
}

TEST(ReplicationIntegration, AdversarialConfigDrainsUnderAudit) {
  // Every fetched file is eligible at once and a round runs every
  // simulated second, under every placement, with the auditor sweeping.
  workload::CoaddParams cp;
  cp.num_tasks = 60;
  const workload::Workload wl{workload::generate_coadd(cp)};
  using replication::Placement;
  for (Placement placement :
       {Placement::kRandom, Placement::kLeastLoaded,
        Placement::kHierarchicalParent, Placement::kNetworkCost}) {
    for (sched::Algorithm algorithm :
         {sched::Algorithm::kRest, sched::Algorithm::kStorageAffinity}) {
      SCOPED_TRACE(replication::to_string(placement));
      grid::GridConfig c;
      c.tiers.num_sites = 3;
      c.tiers.workers_per_site = 2;
      c.capacity_files = 500;
      c.audit = true;
      replication::DataReplicatorParams rp;
      rp.popularity_threshold = 1;
      rp.check_interval_s = 1;
      rp.placement = placement;
      c.replication = rp;
      sched::SchedulerSpec spec;
      spec.algorithm = algorithm;
      auto r = grid::run_once(c, wl, spec, 1);
      EXPECT_EQ(r.tasks_completed, 60u) << spec.name();
      EXPECT_GT(r.files_replicated, 0u) << spec.name();
    }
  }
}

TEST(ReplicationIntegration, DisabledByDefault) {
  workload::CoaddParams cp;
  cp.num_tasks = 40;
  const workload::Workload wl{workload::generate_coadd(cp)};
  grid::GridConfig c;
  c.tiers.num_sites = 2;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 300;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  auto r = grid::run_once(c, wl, spec, 1);
  EXPECT_EQ(r.files_replicated, 0u);
}

TEST(ReplicationIntegration, DeterministicWithReplication) {
  workload::CoaddParams cp;
  cp.num_tasks = 60;
  const workload::Workload wl{workload::generate_coadd(cp)};
  grid::GridConfig c;
  c.tiers.num_sites = 2;
  c.tiers.workers_per_site = 1;
  c.capacity_files = 300;
  replication::DataReplicatorParams rp;
  rp.popularity_threshold = 4;
  rp.check_interval_s = 1200;
  c.replication = rp;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  auto r1 = grid::run_once(c, wl, spec, 2);
  auto r2 = grid::run_once(c, wl, spec, 2);
  EXPECT_DOUBLE_EQ(r1.makespan_s, r2.makespan_s);
  EXPECT_EQ(r1.files_replicated, r2.files_replicated);
}

// --- Worker-centric task replication --------------------------------------

TEST(WcTaskReplication, NameCarriesSuffix) {
  sched::SchedulerSpec s;
  s.algorithm = sched::Algorithm::kRest;
  s.choose_n = 2;
  s.task_replication = true;
  EXPECT_EQ(s.name(), "rest.2+repl");
}

TEST(WcTaskReplication, ReplicatesTailAndCancels) {
  workload::CoaddParams cp;
  cp.num_tasks = 80;
  const workload::Workload wl{workload::generate_coadd(cp)};
  grid::GridConfig c;
  c.tiers.num_sites = 3;
  c.tiers.workers_per_site = 2;
  c.capacity_files = 300;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  spec.task_replication = true;
  auto r = grid::run_once(c, wl, spec, 1);
  EXPECT_EQ(r.tasks_completed, 80u);
  EXPECT_GT(r.replicas_started, 0u);
  EXPECT_EQ(r.assignments, 80u + r.replicas_started);
  EXPECT_GE(r.replicas_started, r.replicas_cancelled);
}

TEST(WcTaskReplication, OffByDefaultNoReplicas) {
  workload::CoaddParams cp;
  cp.num_tasks = 50;
  const workload::Workload wl{workload::generate_coadd(cp)};
  grid::GridConfig c;
  c.tiers.num_sites = 2;
  c.tiers.workers_per_site = 2;
  c.capacity_files = 300;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  auto r = grid::run_once(c, wl, spec, 1);
  EXPECT_EQ(r.replicas_started, 0u);
}

TEST(WcTaskReplication, NeverHurtsCompletionInvariant) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    workload::CoaddParams cp;
    cp.num_tasks = 60;
    cp.seed = seed;
    const workload::Workload wl{workload::generate_coadd(cp)};
    grid::GridConfig c;
    c.tiers.num_sites = 2;
    c.tiers.workers_per_site = 3;
    c.capacity_files = 400;
    sched::SchedulerSpec spec;
    spec.algorithm = sched::Algorithm::kCombined;
    spec.choose_n = 2;
    spec.task_replication = true;
    auto r = grid::run_once(c, wl, spec, seed);
    EXPECT_EQ(r.tasks_completed, 60u);
  }
}

}  // namespace
}  // namespace wcs
