// Memory-lean hot structures: the small flat containers (InlineVec, Csr,
// DenseIdSet) that replaced per-task node containers, plus the
// allocation-free contracts the event loop relies on (disabled
// instruments, warm flow-table churn).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/alloc_stats.h"
#include "common/csr.h"
#include "common/dense_id_set.h"
#include "common/ids.h"
#include "common/inline_vec.h"
#include "grid/experiment.h"
#include "net/flow_manager.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "workload/coadd.h"

namespace wcs::common {
namespace {

// --- InlineVec -----------------------------------------------------------

TEST(InlineVec, InlineThenSpill) {
  InlineVec<int, 2> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);  // still inline
  v.push_back(3);  // spills to the heap
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[2], 3);
  EXPECT_TRUE(v.contains(2));
  EXPECT_FALSE(v.contains(9));
}

TEST(InlineVec, EraseValuePreservesOrder) {
  InlineVec<int, 2> v;
  for (int i = 1; i <= 5; ++i) v.push_back(i);
  EXPECT_TRUE(v.erase_value(3));
  EXPECT_FALSE(v.erase_value(3));
  ASSERT_EQ(v.size(), 4u);
  const int expect[] = {1, 2, 4, 5};
  EXPECT_TRUE(std::equal(v.begin(), v.end(), expect));
}

TEST(InlineVec, CopyAndMoveKeepContents) {
  InlineVec<int, 2> v;
  for (int i = 0; i < 8; ++i) v.push_back(i);
  InlineVec<int, 2> copy = v;
  EXPECT_TRUE(std::equal(copy.begin(), copy.end(), v.begin()));
  InlineVec<int, 2> moved = std::move(v);
  ASSERT_EQ(moved.size(), 8u);
  EXPECT_EQ(moved[7], 7);
}

// --- Csr -----------------------------------------------------------------

TEST(Csr, TwoPassBuildPreservesRowOrder) {
  Csr<int> csr;
  csr.reset(3);
  csr.count(0);
  csr.count(0);
  csr.count(2);
  csr.finalize();
  csr.push(0, 10);
  csr.push(0, 11);
  csr.push(2, 30);
  ASSERT_EQ(csr.row_size(0), 2u);
  EXPECT_EQ(csr.row(0)[0], 10);
  EXPECT_EQ(csr.row(0)[1], 11);
  EXPECT_EQ(csr.row_size(1), 0u);
  EXPECT_EQ(csr.row(2)[0], 30);
  EXPECT_TRUE(csr.row_bounds_sound());
}

TEST(Csr, EraseSwapMatchesVectorMotion) {
  Csr<int> csr;
  csr.reset(1);
  for (int i = 0; i < 4; ++i) csr.count(0);
  csr.finalize();
  for (int i = 0; i < 4; ++i) csr.push(0, i);
  // erase_swap(1): last element (3) moves into slot 1 — exactly the
  // `*it = vec.back(); vec.pop_back()` motion of the old flat vectors.
  EXPECT_TRUE(csr.erase_swap(0, 1));
  ASSERT_EQ(csr.row_size(0), 3u);
  EXPECT_EQ(csr.row(0)[0], 0);
  EXPECT_EQ(csr.row(0)[1], 3);
  EXPECT_EQ(csr.row(0)[2], 2);
  EXPECT_FALSE(csr.erase_swap(0, 99));
  // Re-push within the row's capacity (crash-recovery re-add).
  csr.push(0, 7);
  EXPECT_EQ(csr.row_size(0), 4u);
  EXPECT_TRUE(csr.row_bounds_sound());
}

// --- DenseIdSet ----------------------------------------------------------

TEST(DenseIdSet, InsertEraseFirst) {
  DenseIdSet s;
  s.reset(100);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.first(), DenseIdSet::kNpos);
  EXPECT_TRUE(s.insert(42));
  EXPECT_TRUE(s.insert(7));
  EXPECT_FALSE(s.insert(7));  // already present
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.first(), 7u);  // lowest id first, like std::set::begin()
  EXPECT_TRUE(s.erase(7));
  EXPECT_FALSE(s.erase(7));
  EXPECT_EQ(s.first(), 42u);
  EXPECT_TRUE(s.contains(42));
  EXPECT_FALSE(s.contains(41));
}

// --- allocation-free contracts ------------------------------------------

TEST(AllocFree, DisabledInstrumentsAllocateNothing) {
  if (!alloc_counting_enabled())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";
  // The disabled path is a null-instrument branch at every call site.
  obs::TraceSpan span;
  span.kind = obs::SpanKind::kAssign;
  obs::EventTracer* disabled = nullptr;
  const AllocSnapshot before = alloc_snapshot();
  for (int i = 0; i < 1000; ++i) {
    if (disabled) disabled->record(span);  // the component-side branch
  }
  const AllocSnapshot after = alloc_snapshot();
  EXPECT_EQ(allocations_between(before, after), 0u);
}

TEST(AllocFree, WarmFlowChurnAllocatesNothing) {
  if (!alloc_counting_enabled())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";
  // A finished flow's slot, route capacity included, serves the next
  // start; the callback captures one reference, which fits
  // std::function's inline buffer.
  sim::Simulator sim;
  net::Topology topo;
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const NodeId c = topo.add_node("c");
  topo.add_link(a, b, 1e6, 0.001);
  topo.add_link(b, c, 1e6, 0.001);
  net::FlowManager flows(sim, topo);
  std::uint64_t done = 0;
  auto churn = [&](int n) {
    for (int i = 0; i < n; ++i) {
      flows.start_flow(a, c, 1000, [&done](FlowId) { ++done; });
      sim.run();
    }
  };
  // The kernel's event-state vector and the flow id index grow with every
  // start, geometrically: after 2500 warm-up starts both have room for
  // the 500 measured ones.
  churn(2500);
  const AllocSnapshot before = alloc_snapshot();
  churn(500);
  const AllocSnapshot after = alloc_snapshot();
  EXPECT_EQ(allocations_between(before, after), 0u);
  EXPECT_EQ(done, 3000u);
  EXPECT_EQ(flows.active_flows(), 0u);
  EXPECT_TRUE(flows.memory_defects().empty());
}

// --- run_seeds determinism ----------------------------------------------

TEST(SeedReuse, RepeatedSeedsAreByteIdentical) {
  // Each seed's simulation builds and tears down the flow table and the
  // scheduler indexes; running the seed list twice must reproduce
  // identical totals (no state may leak between runs).
  workload::CoaddParams cp;
  cp.num_tasks = 120;
  const workload::Workload wl{workload::generate_coadd(cp)};
  grid::GridConfig c;
  c.tiers.num_sites = 3;
  c.tiers.workers_per_site = 2;
  c.capacity_files = 400;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  const std::uint64_t seeds[] = {3, 7, 11};
  auto first = grid::run_seeds(c, wl, spec, seeds);
  auto second = grid::run_seeds(c, wl, spec, seeds);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].makespan_s, second[i].makespan_s);
    EXPECT_EQ(first[i].events_executed, second[i].events_executed);
    EXPECT_EQ(first[i].total_file_transfers(),
              second[i].total_file_transfers());
    EXPECT_EQ(first[i].total_bytes_transferred(),
              second[i].total_bytes_transferred());
  }
}

}  // namespace
}  // namespace wcs::common
