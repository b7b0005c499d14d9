// Memory-lean hot structures: the NodeArena page allocator and the small
// flat containers (InlineVec, Csr, DenseIdSet) that replaced per-task node
// containers, plus the allocation-free contracts the event loop relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/alloc_stats.h"
#include "common/arena.h"
#include "common/csr.h"
#include "common/dense_id_set.h"
#include "common/ids.h"
#include "common/inline_vec.h"
#include "grid/experiment.h"
#include "obs/trace.h"
#include "workload/coadd.h"

namespace wcs::common {
namespace {

// --- NodeArena -----------------------------------------------------------

TEST(NodeArena, ServesSizeClassesAndCounts) {
  NodeArena arena;
  void* a = arena.allocate(24, 8);
  void* b = arena.allocate(24, 8);
  void* c = arena.allocate(512, 16);  // largest small class
  ASSERT_NE(a, nullptr);
  EXPECT_NE(a, b);
  const NodeArena::Stats& st = arena.stats();
  EXPECT_EQ(st.total_allocations, 3u);
  EXPECT_EQ(st.live_allocations, 3u);
  EXPECT_EQ(st.large_allocations, 0u);
  EXPECT_EQ(st.pages, 1u);
  EXPECT_EQ(st.page_bytes, 64u * 1024u);
  arena.deallocate(a, 24, 8);
  arena.deallocate(b, 24, 8);
  arena.deallocate(c, 512, 16);
  EXPECT_EQ(arena.stats().live_allocations, 0u);
}

TEST(NodeArena, FreelistRecyclesSameClass) {
  NodeArena arena;
  void* a = arena.allocate(40, 8);
  arena.deallocate(a, 40, 8);
  // Same size class (33..48 bytes) must reuse the freed block.
  void* b = arena.allocate(33, 8);
  EXPECT_EQ(a, b);
  EXPECT_EQ(arena.stats().freelist_hits, 1u);
  arena.deallocate(b, 33, 8);
}

TEST(NodeArena, LargeBlocksBypassPages) {
  NodeArena arena;
  void* big = arena.allocate(4096, 16);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xab, 4096);
  const NodeArena::Stats& st = arena.stats();
  EXPECT_EQ(st.large_allocations, 1u);
  EXPECT_EQ(st.large_live, 1u);
  EXPECT_EQ(st.pages, 0u);  // no page mapped for a large block
  arena.deallocate(big, 4096, 16);
  EXPECT_EQ(arena.stats().large_live, 0u);
  EXPECT_TRUE(arena.structural_defects().empty());
}

TEST(NodeArena, GrowsAcrossPages) {
  NodeArena arena(1024);  // tiny pages: 2 blocks of 512 per page
  std::vector<void*> blocks;
  for (int i = 0; i < 10; ++i) blocks.push_back(arena.allocate(512, 16));
  EXPECT_EQ(arena.stats().pages, 5u);
  for (void* p : blocks) arena.deallocate(p, 512, 16);
  EXPECT_TRUE(arena.structural_defects().empty());
}

TEST(NodeArena, ResetRewindsOverPooledPages) {
  NodeArena arena(1024);
  // First run: record the block addresses of a fixed allocation script.
  auto script = [&arena] {
    std::vector<void*> out;
    for (int i = 0; i < 6; ++i) out.push_back(arena.allocate(200, 16));
    // Interleave a free so a later allocation takes the freelist path.
    arena.deallocate(out[2], 200, 16);
    out.push_back(arena.allocate(200, 16));
    out.erase(out.begin() + 2);
    return out;
  };
  std::vector<void*> first = script();
  const std::size_t pages_after_first = arena.stats().pages;
  for (void* p : first) arena.deallocate(p, 200, 16);
  arena.reset();

  // Replay: the same script over the SAME pages yields the same
  // addresses and maps no new pages — the arena-reuse property the
  // run_seeds loop depends on.
  std::vector<void*> second = script();
  EXPECT_EQ(first, second);
  EXPECT_EQ(arena.stats().pages, pages_after_first);
  EXPECT_EQ(arena.stats().resets, 1u);
  for (void* p : second) arena.deallocate(p, 200, 16);
  EXPECT_TRUE(arena.structural_defects().empty());
}

TEST(NodeArena, ResetWithLiveAllocationsThrows) {
  NodeArena arena;
  void* p = arena.allocate(32, 8);
  EXPECT_THROW(arena.reset(), std::logic_error);
  arena.deallocate(p, 32, 8);
  EXPECT_NO_THROW(arena.reset());
}

TEST(ArenaAlloc, BacksNodeContainers) {
  NodeArena arena;
  {
    using Alloc = ArenaAlloc<std::pair<const int, int>>;
    std::map<int, int, std::less<int>, Alloc> m{Alloc(&arena)};
    for (int i = 0; i < 100; ++i) m[i] = i * i;
    EXPECT_GE(arena.stats().live_allocations, 100u);
    EXPECT_EQ(m.at(40), 1600);
    m.clear();
  }
  EXPECT_EQ(arena.stats().live_allocations, 0u);
  arena.reset();
  EXPECT_TRUE(arena.structural_defects().empty());
}

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

TEST(AllocFree, ArenaSteadyStateChurnAllocatesNothing) {
  if (!alloc_counting_enabled())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";
  NodeArena arena;
  // Warm up: one block resident so the page is mapped.
  void* warm = arena.allocate(64, 16);
  const AllocSnapshot before = alloc_snapshot();
  for (int i = 0; i < 10000; ++i) {
    void* p = arena.allocate(64, 16);
    arena.deallocate(p, 64, 16);
  }
  const AllocSnapshot after = alloc_snapshot();
  EXPECT_EQ(allocations_between(before, after), 0u);
  // First round bump-allocates; every later round recycles it.
  EXPECT_EQ(arena.stats().freelist_hits, 9999u);
  arena.deallocate(warm, 64, 16);
}

// --- run_seeds reuse property -------------------------------------------

TEST(ArenaReuse, RepeatedSeedsAreByteIdentical) {
  // Each seed's simulation builds and tears down the arena-backed flow
  // table and the scheduler indexes; running the seed list twice must
  // reproduce identical totals (no state may leak through the arenas or
  // pools between runs).
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
