// Memory-lean hot structures: the small flat containers (InlineVec, Csr,
// DenseIdSet, PagedTable) that replaced per-task node containers and
// catalog-sized tables, the residency table's per-(site, task) pair
// cost with and without its decision index, the file cache's per-page
// record cost, plus the allocation-free contracts the event loop relies
// on (disabled instruments, warm event-kernel and flow-table churn, the
// warm data-server cycle, the file cache's first-insert tables and warm
// cycle, storage affinity's submit-time projection, the warm
// ChooseTask(n) decision, job validation, and an open-system run whose
// allocations do not scale with its task count).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/alloc_stats.h"
#include "common/csr.h"
#include "common/dense_id_set.h"
#include "common/ids.h"
#include "common/inline_vec.h"
#include "common/paged_table.h"
#include "fake_engine.h"
#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "net/flow_manager.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "replication/data_replicator.h"
#include "sched/factory.h"
#include "sched/residency.h"
#include "sched/sharded_index.h"
#include "sched/storage_affinity.h"
#include "sched/worker_centric.h"
#include "sim/simulator.h"
#include "storage/data_server.h"
#include "workload/coadd.h"
#include "workload/job.h"
#include "workload/registry.h"

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

TEST(Csr, ManyRowsKeepTheirOwnWindows) {
  // Rows of 0..3 elements over 10,000 rows: the 32-bit offsets place
  // every row right after the previous one, and swap-erase plus re-push
  // stay inside each row's window.
  Csr<std::uint32_t> csr;
  const std::size_t rows = 10000;
  csr.reset(rows);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t i = 0; i < r % 4; ++i) csr.count(r);
  csr.finalize();
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t i = 0; i < r % 4; ++i)
      csr.push(r, static_cast<std::uint32_t>(r * 4 + i));
  for (std::size_t r = 0; r < rows; ++r) {
    ASSERT_EQ(csr.row_capacity(r), r % 4);
    ASSERT_EQ(csr.row_size(r), r % 4);
    for (std::size_t i = 0; i < r % 4; ++i)
      ASSERT_EQ(csr.row(r)[i], r * 4 + i);
  }
  const std::size_t last = rows - 1;  // 9999 % 4 == 3 elements
  EXPECT_TRUE(csr.erase_swap(last, static_cast<std::uint32_t>(last * 4)));
  csr.push(last, 7);
  EXPECT_EQ(csr.row(last)[2], 7u);
  EXPECT_TRUE(csr.row_bounds_sound());
}

TEST(Csr, RowBookkeepingCostsEightBytesPerRow) {
  if (!alloc_counting_enabled())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";
  // reset(rows) allocates rows + 1 offsets and rows cursors, 4 B each;
  // an empty pool allocates nothing.
  Csr<TaskId> csr;
  const AllocSnapshot before = alloc_snapshot();
  csr.reset(1000);
  const AllocSnapshot after = alloc_snapshot();
  EXPECT_EQ(allocations_between(before, after), 2u);
  EXPECT_EQ(after.bytes - before.bytes, (1001u + 1000u) * 4u);
}

// --- ResidencyTable -------------------------------------------------------

TEST(ResidencyTable, PairCostsTwoTenOrEightBytes) {
  if (!alloc_counting_enabled())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";
  // build() allocates each requested column once, num_sites * num_tasks
  // entries; its file index does not depend on the site count. So two
  // more sites cost exactly 2 * num_tasks pairs more, and no allocation
  // more: 2 B a pair under overlap/rest (u16 files), 10 B under combined
  // (files + u64 refs), 8 B under storage affinity and XSufferage (bytes).
  const workload::Job job =
      sched::testing::make_job({{0, 1}, {1, 2}, {2}, {0}, {1, 2}}, 3);
  using Table = sched::ResidencyTable;
  auto build = [&](std::size_t sites, unsigned columns) {
    sched::testing::FakeEngine engine(job, sites, 1);
    Table table;
    const AllocSnapshot before = alloc_snapshot();
    table.build(engine, columns, [](TaskId) { return true; });
    const AllocSnapshot after = alloc_snapshot();
    return std::pair{allocations_between(before, after),
                     after.bytes - before.bytes};
  };
  const std::pair<unsigned, std::uint64_t> cases[] = {
      {Table::kFiles, 2}, {Table::kFiles | Table::kRefs, 10},
      {Table::kBytes, 8}};
  for (const auto& [columns, pair_bytes] : cases) {
    const auto [one_allocs, one_bytes] = build(1, columns);
    const auto [three_allocs, three_bytes] = build(3, columns);
    EXPECT_EQ(three_allocs, one_allocs) << "columns " << columns;
    EXPECT_EQ(three_bytes - one_bytes, 2 * job.num_tasks() * pair_bytes)
        << "columns " << columns;
  }
}

TEST(ResidencyTable, IndexCostsEightOrTenBytesAPairPlusEightAnEntry) {
  if (!alloc_counting_enabled())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";
  // fill_index() allocates, per site, a 4 B slot and a 4 B stale-list
  // reserve for every task (the reserve is allocated up front but touched
  // only as marks arrive), a 2 B key for every task only when the index
  // has more than one key (combined), an 8 B heap entry for every filed
  // task, and a constant: the index object and one bucket (a heap
  // vector and its u64 rank total) per key. So under `rest`, where every
  // pending task is filed and there is one key, a pair allocates 16 B on
  // top of the table's 2 B column (18 B); under combined 18 B on top of
  // its 10 B (28 B). Two more sites
  // cost exactly twice that, in 3 + keys more allocations each (slots,
  // stale list, bucket array, one reserved heap per key), plus the key
  // column when there are several keys. Storage affinity's 64-bit byte
  // ranks make its entries 16 B.
  EXPECT_EQ(sizeof(sched::ShardedTaskIndex::Entry), 8u);
  EXPECT_EQ(sizeof(sched::BasicShardedTaskIndex<Bytes>::Entry), 16u);
  const workload::Job job =
      sched::testing::make_job({{0, 1}, {1, 2}, {2}, {0}, {1, 2}}, 3);
  using Table = sched::ResidencyTable;
  using Index = Table::Index;
  constexpr std::uint64_t kFiled = 4;  // every task but task 4
  auto fill = [&](std::size_t sites, std::size_t keys) {
    sched::testing::FakeEngine engine(job, sites, 1);
    Table table;
    table.build(engine, Table::kFiles, [](TaskId) { return true; });
    const AllocSnapshot before = alloc_snapshot();
    table.fill_index(
        1, keys, /*prefer_high_id=*/false,
        [](TaskId t) { return t.value() != 4; },
        [keys](std::size_t, TaskId t) {
          return std::pair<std::uint64_t, std::uint32_t>{t.value() % keys, 0};
        });
    const AllocSnapshot after = alloc_snapshot();
    return std::pair{allocations_between(before, after),
                     after.bytes - before.bytes};
  };
  for (const std::size_t keys : {std::size_t{1}, std::size_t{2}}) {
    const auto [one_allocs, one_bytes] = fill(1, keys);
    const auto [three_allocs, three_bytes] = fill(3, keys);
    const std::uint64_t pair_bytes = keys > 1 ? 10 : 8;
    const std::uint64_t per_site =
        sizeof(Index) +
        keys * (sizeof(std::vector<Index::Entry>) + sizeof(std::uint64_t));
    EXPECT_EQ(three_bytes - one_bytes,
              2 * (job.num_tasks() * pair_bytes + kFiled * 8 + per_site))
        << keys << " keys";
    EXPECT_EQ(three_allocs - one_allocs, 2 * (3 + keys + (keys > 1 ? 1 : 0)))
        << keys << " keys";
  }
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

// --- PagedTable ----------------------------------------------------------

struct Rec {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};
using Paged = PagedTable<Rec>;
constexpr std::size_t kIdsPerPage = Paged::kPageIds;

TEST(PagedTable, PagePointersStayValidAcrossChunkGrowth) {
  // A one-page first chunk: every later page forces or follows a new,
  // doubled chunk, and no earlier record moves.
  Paged t;
  t.reset(100 * kIdsPerPage, 1);
  std::vector<Rec*> first_of_page;
  for (std::size_t p = 0; p < 100; ++p) {
    Rec& r = t.touch(p * kIdsPerPage + p % kIdsPerPage);
    r.a = static_cast<std::uint32_t>(p + 1);
    first_of_page.push_back(&r);
  }
  EXPECT_EQ(t.chunks(), 7u);  // 1 + 2 + 4 + ... + 32 = 63, then 37
  for (std::size_t p = 0; p < 100; ++p) {
    const std::size_t id = p * kIdsPerPage + p % kIdsPerPage;
    EXPECT_EQ(t.find(id), first_of_page[p]);
    EXPECT_EQ(&t.touch(id), first_of_page[p]);
    EXPECT_EQ(t[id].a, p + 1);
  }
  const Paged::AuditCounts a = t.audit();
  EXPECT_EQ(a.directory_pages, 100u);
  EXPECT_EQ(a.carved_pages, 100u);
  EXPECT_EQ(a.stray_pages, 0u);
  EXPECT_EQ(a.shared_pages, 0u);
}

TEST(PagedTable, CarvedPagesReadAsZero) {
  Paged t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find(0), nullptr);  // no directory yet
  t.reset(1000, 2);
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t.find(5), nullptr);  // page never touched
  EXPECT_EQ(t.find(1000), nullptr);  // out of range
  t.touch(5).a = 7;
  // Every other record of the carved page is zero...
  for (std::size_t id = 0; id < kIdsPerPage; ++id) {
    ASSERT_NE(t.find(id), nullptr);
    EXPECT_EQ(t.find(id)->a, id == 5 ? 7u : 0u);
    EXPECT_EQ(t.find(id)->b, 0u);
  }
  // ...and so is every record of a page carved after reset(), even where
  // the allocator hands back memory the earlier pages dirtied.
  for (std::size_t id = 0; id < 1000; id += 3) t.touch(id) = Rec{9, 9};
  t.reset(1000, 2);
  for (std::size_t id = 5; id < 1000; id += kIdsPerPage) {
    EXPECT_EQ(t.find(id), nullptr);
    const Rec& r = t.touch(id);
    EXPECT_EQ(r.a, 0u);
    EXPECT_EQ(r.b, 0u);
  }
}

TEST(PagedTable, ForEachVisitsIdsInAscendingOrder) {
  // Pages carved out of id order (the carve order is 7, 2, 5, 0)
  // still come back in id order; the last page is partial.
  Paged t;
  const std::size_t ids = 7 * kIdsPerPage + 10;
  t.reset(ids, 1);
  for (std::size_t id : {7 * kIdsPerPage + 3, 2 * kIdsPerPage + 1,
                         5 * kIdsPerPage + 127, std::size_t{0}})
    t.touch(id).a = static_cast<std::uint32_t>(id);
  std::vector<std::size_t> seen;
  t.for_each([&](std::size_t id, const Rec& r) {
    seen.push_back(id);
    if (r.a != 0) {
      EXPECT_EQ(r.a, id);
    }
  });
  ASSERT_EQ(seen.size(), 3 * kIdsPerPage + 10);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  EXPECT_EQ(seen.front(), 0u);
  EXPECT_EQ(seen[kIdsPerPage], 2 * kIdsPerPage);
  EXPECT_EQ(seen.back(), ids - 1);
}

TEST(PagedTable, AllocationsGrowAsLogOfPages) {
  if (!alloc_counting_enabled())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";
  // 1M ids = 7,813 pages. reset() allocates the directory only; carving
  // every page from a one-page first chunk takes 13 doubling chunks
  // (1 + 2 + ... + 2048 = 4,095 pages, then the last 3,718), whose bytes
  // add up to exactly one page per page. Re-touching allocates nothing.
  constexpr std::size_t kIds = 1000000;
  constexpr std::size_t kPages = (kIds + kIdsPerPage - 1) / kIdsPerPage;
  Paged t;
  const AllocSnapshot start = alloc_snapshot();
  t.reset(kIds, 1);
  const AllocSnapshot directory = alloc_snapshot();
  EXPECT_EQ(allocations_between(start, directory), 1u);
  EXPECT_EQ(directory.bytes - start.bytes, kPages * sizeof(Rec*));
  std::size_t log2_pages = 0;
  while ((std::size_t{1} << log2_pages) < kPages) ++log2_pages;
  for (std::size_t id = 0; id < kIds; id += kIdsPerPage) t.touch(id);
  const AllocSnapshot carved = alloc_snapshot();
  EXPECT_EQ(allocations_between(directory, carved), 13u);
  EXPECT_LE(allocations_between(directory, carved), log2_pages + 1);
  EXPECT_EQ(carved.bytes - directory.bytes, kPages * Paged::kPageBytes);
  for (std::size_t id = 0; id < kIds; id += 97) t.touch(id).a = 1;
  EXPECT_EQ(allocations_between(carved, alloc_snapshot()), 0u);
  EXPECT_EQ(t.chunks(), 13u);
}

TEST(PagedTable, AuditFindsStrayAndSharedDirectoryEntries) {
  Paged t;
  t.reset(10 * kIdsPerPage, 1);
  for (std::size_t p = 0; p < 4; ++p) t.touch(p * kIdsPerPage);
  Rec outside[kIdsPerPage];
  // Page 1 now aliases page 0, page 2 points at a record inside page 3
  // (not a page start), and page 9 at memory no chunk holds.
  t.set_page_for_test(1 * kIdsPerPage, &t[0]);
  t.set_page_for_test(2 * kIdsPerPage, &t[3 * kIdsPerPage + 1]);
  t.set_page_for_test(9 * kIdsPerPage, outside);
  const Paged::AuditCounts a = t.audit();
  EXPECT_EQ(a.directory_pages, 5u);
  EXPECT_EQ(a.carved_pages, 4u);
  EXPECT_EQ(a.stray_pages, 2u);
  EXPECT_EQ(a.shared_pages, 1u);
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

TEST(AllocFree, JobValidationAllocationsDoNotScaleWithTasks) {
  if (!alloc_counting_enabled())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";
  auto validation_allocations = [](std::size_t tasks) {
    workload::CoaddParams p = workload::CoaddParams::paper_6000();
    p.num_tasks = tasks;
    const workload::Job job = workload::generate_coadd(p);
    const AllocSnapshot before = alloc_snapshot();
    workload::validate_job(job);
    return allocations_between(before, alloc_snapshot());
  };
  EXPECT_EQ(validation_allocations(1000), validation_allocations(10000));
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
  // The flow id index grows with every start, geometrically: after 2500
  // warm-up starts it has room for the 500 measured ones.
  churn(2500);
  const AllocSnapshot before = alloc_snapshot();
  churn(500);
  const AllocSnapshot after = alloc_snapshot();
  EXPECT_EQ(allocations_between(before, after), 0u);
  EXPECT_EQ(done, 3000u);
  EXPECT_EQ(flows.active_flows(), 0u);
  EXPECT_TRUE(flows.memory_defects().empty());
}

TEST(AllocFree, WarmEventKernelChurnAllocatesNothing) {
  if (!alloc_counting_enabled())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";
  // 256 live events, one per handle. Each firing cancels and re-arms
  // another handle, moves two more (a stale pick is refused) and re-arms
  // its own, so 256 stay live. The kernel keeps no per-event history:
  // its heap and slot table are as long as the peak live count, and
  // closures of two words fit std::function's inline buffer.
  sim::Simulator sim;
  std::vector<EventId> ids(256);
  std::uint64_t x = 88172645463325252u;  // xorshift64
  auto draw = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t fired = 0;
  std::function<void(std::size_t)> arm;
  auto fire = [&](std::size_t i) {
    ++fired;
    const std::size_t j = draw() % ids.size();
    if (sim.cancel(ids[j])) arm(j);  // i's own id is already stale
    for (int m = 0; m < 2; ++m)
      (void)sim.reschedule(ids[draw() % ids.size()],
                           sim.now() + static_cast<double>(draw() % 50));
    arm(i);
  };
  arm = [&](std::size_t i) {
    auto* f = &fire;
    ids[i] = sim.schedule_in(static_cast<double>(draw() % 50),
                             [f, i] { (*f)(i); });
  };
  for (std::size_t i = 0; i < ids.size(); ++i) arm(i);
  for (int i = 0; i < 20000; ++i) ASSERT_TRUE(sim.step());
  const std::size_t warm_peak = sim.peak_live_events();
  const AllocSnapshot before = alloc_snapshot();
  for (int i = 0; i < 20000; ++i) ASSERT_TRUE(sim.step());
  const AllocSnapshot after = alloc_snapshot();
  EXPECT_EQ(allocations_between(before, after), 0u);
  EXPECT_EQ(fired, 40000u);
  EXPECT_EQ(sim.peak_live_events(), warm_peak);
  EXPECT_EQ(sim.live_events(), ids.size());
  EXPECT_GT(sim.audit_snapshot().cancelled, 1000u);
  EXPECT_GT(sim.audit_snapshot().rescheduled, 10000u);
}

TEST(AllocFree, FileCacheAllocatesItsTablesOnceAtFirstInsert) {
  if (!alloc_counting_enabled())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";
  // The constructor allocates nothing. The first insert allocates the
  // record directory (8 B per 128 catalog files), the first chunk of
  // record pages (capacity / 128 pages, at least one 1 KiB page) and the
  // resident node pool (16 B per admissible resident), one allocation
  // each. Pages carved later come from doubling chunks; once every page
  // is carved, a warm insert / evict / access / pin cycle is free.
  const storage::BlockMap blocks{workload::FileCatalog(1000, megabytes(1)),
                                 storage::BlockStoreParams{}};
  const AllocSnapshot start = alloc_snapshot();
  storage::FileCache cache(blocks, 40, storage::EvictionPolicy::kLru);
  const AllocSnapshot constructed = alloc_snapshot();
  EXPECT_EQ(allocations_between(start, constructed), 0u);
  cache.insert(FileId(0));
  const AllocSnapshot first = alloc_snapshot();
  EXPECT_EQ(allocations_between(constructed, first), 3u);
  EXPECT_EQ(first.bytes - constructed.bytes, 8u * 8u + 1024u + 40u * 16u);
  std::uint32_t next = 1;
  auto cycle = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const FileId f(next++ % 1000);
      if (!cache.contains(f)) cache.insert(f);  // evicts once full
      cache.record_access(f);
      cache.pin(f);
      cache.unpin(f);
    }
  };
  cycle(1000);  // carves all 8 pages: chunks of 1, 2, 4 and 1 page
  EXPECT_EQ(cache.audit_snapshot("warm").carved_pages, 8u);
  const AllocSnapshot before = alloc_snapshot();
  cycle(3000);
  EXPECT_EQ(allocations_between(before, alloc_snapshot()), 0u);
  EXPECT_EQ(cache.size(), 40u);
  EXPECT_GT(cache.evictions(), 3000u);
}

TEST(FileCacheRecords, OneClusterCostsTheDirectoryPlusOneChunk) {
  if (!alloc_counting_enabled())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";
  // On a 1M-file catalog, a cache whose files all fall in one 128-id
  // page pays the directory (8 B per 128 catalog files), one 1 KiB chunk
  // and its node pool, not 8 B for every catalog file (8 MB).
  constexpr std::uint32_t kFiles = 1000000;
  const storage::BlockMap blocks{workload::FileCatalog(kFiles, megabytes(1)),
                                 storage::BlockStoreParams{}};
  storage::FileCache cache(blocks, 40, storage::EvictionPolicy::kLru);
  const AllocSnapshot before = alloc_snapshot();
  for (std::uint32_t f = 5 * 128; f < 6 * 128; ++f) {
    cache.insert(FileId(f));
    cache.record_access(FileId(f));
  }
  const AllocSnapshot after = alloc_snapshot();
  EXPECT_EQ(allocations_between(before, after), 3u);
  EXPECT_EQ(after.bytes - before.bytes,
            (kFiles + 127) / 128 * 8u + 1024u + 40u * 16u);
  EXPECT_EQ(cache.size(), 40u);
  EXPECT_EQ(cache.ref_count(FileId(5 * 128)), 1u);
  EXPECT_EQ(cache.ref_count(FileId(4 * 128)), 0u);  // page never carved
}

TEST(AllocFree, WarmDataServerCycleAllocatesNothing) {
  if (!alloc_counting_enabled())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";
  // One data server holding 50 of 300 files behind a 1 MB/s uplink. A
  // round queues one 3-file batch for each of three workers, serves them
  // in order and releases them. The batch pool, the queue chain through
  // the batches and the per-worker executing table are all reused, so a
  // warm round allocates nothing: with every file resident, and with
  // every file a miss that evicts (LRU over a 300-file cycle).
  sim::Simulator sim;
  net::Topology topo;
  const NodeId fs = topo.add_node("fs");
  const NodeId ds_node = topo.add_node("ds");
  topo.add_link(fs, ds_node, 1e6, 0.0);
  net::FlowManager flows(sim, topo);
  const storage::BlockMap blocks{workload::FileCatalog(300, megabytes(1)),
                                 storage::BlockStoreParams{}};
  storage::DataServer ds(SiteId(0), sim, flows, ds_node, fs, blocks, 50,
                         storage::EvictionPolicy::kLru);
  constexpr std::uint32_t kWorkers = 3;
  std::uint64_t served = 0;
  std::uint32_t next_task = 0;
  std::uint32_t next_file = 0;
  std::vector<FileId> batch(3);
  // `span` files are requested round-robin: 9 stay resident, 300 miss.
  auto rounds = [&](int n, std::uint32_t span) {
    for (int r = 0; r < n; ++r) {
      for (std::uint32_t w = 0; w < kWorkers; ++w) {
        for (FileId& f : batch) f = FileId(next_file++ % span);
        ds.request_batch(TaskId(next_task + w), WorkerId(w), batch,
                         [&served] { ++served; });
      }
      sim.run();
      for (std::uint32_t w = 0; w < kWorkers; ++w)
        ds.release(TaskId(next_task + w), WorkerId(w));
      next_task += kWorkers;
    }
  };
  // Misses grow the flow id index with every fetch, geometrically: after
  // the 1000 warm-up rounds it has room for the 200 measured ones.
  rounds(1000, 300);
  const storage::DataServer::Stats cold = ds.stats();
  AllocSnapshot before = alloc_snapshot();
  rounds(200, 300);
  AllocSnapshot after = alloc_snapshot();
  EXPECT_EQ(allocations_between(before, after), 0u) << "misses";
  EXPECT_EQ(ds.stats().file_transfers - cold.file_transfers, 200u * 9);
  EXPECT_EQ(ds.stats().cache_hits, cold.cache_hits);

  rounds(1, 9);
  const storage::DataServer::Stats warm = ds.stats();
  before = alloc_snapshot();
  rounds(500, 9);
  after = alloc_snapshot();
  EXPECT_EQ(allocations_between(before, after), 0u) << "hits";
  EXPECT_EQ(ds.stats().cache_hits - warm.cache_hits, 500u * 9);
  EXPECT_EQ(ds.stats().file_transfers, warm.file_transfers);

  EXPECT_EQ(served, 1701u * kWorkers);
  EXPECT_EQ(ds.queue_length(), 0u);
  EXPECT_TRUE(ds.memory_defects().empty());
}

TEST(AllocFree, StorageAffinitySubmitDoesNotAllocatePerFile) {
  if (!alloc_counting_enabled())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";
  // on_job_submitted projects every site's future cache contents while it
  // places the whole bag. Doubling the distinct files of a 300-task Coadd
  // job doubles the files each site's projection holds; with the same
  // tasks, sites and workers the submit must not allocate more, so the
  // projection costs no allocation per file.
  auto submit_allocations = [](std::size_t distinct_files) {
    workload::CoaddParams cp;
    cp.num_tasks = 300;
    cp.target_distinct_files = distinct_files;
    const workload::Job job = workload::generate_coadd(cp);
    sched::testing::FakeEngine engine(job, /*num_sites=*/4,
                                      /*workers_per_site=*/2,
                                      /*capacity=*/100000);
    sched::StorageAffinityScheduler scheduler{sched::StorageAffinityParams{}};
    scheduler.attach(engine);
    const AllocSnapshot before = alloc_snapshot();
    scheduler.on_job_submitted();
    const AllocSnapshot after = alloc_snapshot();
    EXPECT_EQ(engine.assignments.size(), cp.num_tasks);
    return allocations_between(before, after);
  };
  const std::uint64_t base = submit_allocations(2000);
  const std::uint64_t doubled = submit_allocations(4000);
  EXPECT_LE(doubled, base) << "base " << base << ", doubled " << doubled;
}

TEST(AllocFree, WarmChooseTaskAllocatesNothing) {
  if (!alloc_counting_enabled())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";
  // A decision walks the site's index into the scheduler's reused
  // candidate buffer and samples through its reused weight buffer, so
  // once each site has decided (and the walk's frontier has grown), a
  // decision allocates nothing: every metric, deterministic and
  // randomized ChooseTask(n).
  workload::CoaddParams cp;
  cp.num_tasks = 300;
  const workload::Job job = workload::generate_coadd(cp);
  constexpr std::size_t kSites = 4;
  for (sched::Metric metric : {sched::Metric::kOverlap, sched::Metric::kRest,
                               sched::Metric::kCombined}) {
    for (int n : {1, 2}) {
      SCOPED_TRACE(std::string(sched::to_string(metric)) + "." +
                   std::to_string(n));
      sched::testing::FakeEngine engine(job, kSites, /*workers_per_site=*/2);
      sched::WorkerCentricParams params;
      params.metric = metric;
      params.choose_n = n;
      sched::WorkerCentricScheduler scheduler(params);
      scheduler.attach(engine);
      scheduler.on_job_submitted();
      // Distinct cache contents per site, added after submit so the
      // first decisions also refresh marked tasks.
      for (std::size_t s = 0; s < kSites; ++s)
        for (FileId f : job.tasks()[s * 7].files)
          engine.add_file(SiteId(static_cast<SiteId::underlying_type>(s)),
                          f);
      auto decide = [&](int calls) {
        for (int i = 0; i < calls; ++i) {
          const SiteId site(static_cast<SiteId::underlying_type>(
              static_cast<std::size_t>(i) % kSites));
          EXPECT_TRUE(scheduler.peek_choice(site).valid());
        }
      };
      decide(4 * static_cast<int>(kSites));
      const AllocSnapshot before = alloc_snapshot();
      decide(1000);
      const AllocSnapshot after = alloc_snapshot();
      EXPECT_EQ(allocations_between(before, after), 0u);
    }
  }
}

TEST(AllocFree, OpenSystemRunDoesNotAllocatePerTask) {
  if (!alloc_counting_enabled())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";
  // A reduced open_dedup: three WRR tenants with Poisson arrivals over
  // blocks that half-overlap, and network-cost replication that fires.
  // Doubling the task count must add less than one in-run allocation per
  // added task: arrivals, tenant routing, ChooseTask(n) and replica
  // placement reuse their buffers, and what remains is geometric growth
  // and per-run set-up.
  workload::register_builtin_generators();
  struct Run {
    std::size_t tasks = 0;
    std::uint64_t allocations = 0;
    std::uint64_t replicated = 0;
  };
  auto run = [](std::size_t num_tasks) {
    workload::GeneratorSpec gen;
    gen.generator = "multi-tenant";
    gen.coadd.num_tasks = num_tasks;
    gen.open.process = workload::ArrivalProcess::kPoisson;
    gen.open.mean_interarrival_s = 2000.0;
    gen.open.tenants = {{"a", 3}, {"b", 1}, {"c", 2}};
    const workload::Workload wl = workload::build_workload(gen);
    grid::GridConfig c;
    c.tiers.num_sites = 4;
    c.tiers.workers_per_site = 2;
    c.capacity_files = 600;
    c.audit = false;
    c.block_store.emplace();
    c.block_store->content_overlap = 0.5;
    replication::DataReplicatorParams rp;
    rp.popularity_threshold = 3;
    rp.placement = replication::Placement::kNetworkCost;
    c.replication = rp;
    sched::SchedulerSpec spec;
    spec.algorithm = sched::Algorithm::kRest;
    spec.choose_n = 2;
    grid::GridSimulation sim(c, wl, sched::make_scheduler(spec, &wl.arrivals));
    const AllocSnapshot before = alloc_snapshot();
    const metrics::RunResult r = sim.run();
    const AllocSnapshot after = alloc_snapshot();
    EXPECT_EQ(r.tasks_completed, wl.job.num_tasks());
    return Run{wl.job.num_tasks(), allocations_between(before, after),
               r.files_replicated};
  };
  const Run base = run(240);
  const Run doubled = run(480);
  EXPECT_GT(base.replicated, 0u);
  EXPECT_GT(doubled.replicated, 0u);
  ASSERT_GT(doubled.tasks, base.tasks);
  const std::uint64_t added_tasks = doubled.tasks - base.tasks;
  EXPECT_LT(doubled.allocations, base.allocations + added_tasks)
      << base.allocations << " allocations at " << base.tasks << " tasks, "
      << doubled.allocations << " at " << doubled.tasks;
}

TEST(AllocFree, TenantsShareOneTableIndexAndBag) {
  if (!alloc_counting_enabled())
    GTEST_SKIP() << "allocation counting compiled out (sanitizer build)";
  // The tenants of a run share the scheduler's residency table, decision
  // index and pending bag: submitting a job split over four tenants (all
  // arrived at t=0) allocates what submitting it closed does, plus the
  // index's 2 B key column per (site, task) — rest has one key a tenant,
  // so four tenants need four — and state per tenant: a bucket per site,
  // an RNG stream and a pending count.
  workload::CoaddParams cp;
  cp.num_tasks = 400;
  const workload::Job job = workload::generate_coadd(cp);
  constexpr std::size_t kSites = 5;
  constexpr std::size_t kTenants = 4;
  workload::ArrivalSchedule four;
  for (std::uint32_t t = 0; t < kTenants; ++t)
    four.tenants.push_back({"t" + std::to_string(t), t + 1});
  for (std::size_t i = 0; i < job.num_tasks(); ++i)
    four.tenant_of.push_back(static_cast<std::uint32_t>(i % kTenants));
  auto submit_bytes = [&](const workload::ArrivalSchedule* schedule) {
    sched::testing::FakeEngine engine(job, kSites, /*workers_per_site=*/2);
    engine.schedule = schedule;
    sched::WorkerCentricParams params;
    params.metric = sched::Metric::kRest;
    sched::WorkerCentricScheduler scheduler(params);
    scheduler.attach(engine);
    const AllocSnapshot before = alloc_snapshot();
    scheduler.on_job_submitted();
    const AllocSnapshot after = alloc_snapshot();
    EXPECT_EQ(scheduler.pending_count(), job.num_tasks());
    return after.bytes - before.bytes;
  };
  const std::uint64_t closed = submit_bytes(nullptr);
  const std::uint64_t split = submit_bytes(&four);
  const std::uint64_t key_column = 2 * kSites * job.num_tasks();
  const std::uint64_t per_tenant =
      kSites * (sizeof(std::vector<sched::ShardedTaskIndex::Entry>) +
                sizeof(std::uint64_t)) +
      sizeof(Rng) + 2 * sizeof(std::size_t);
  ASSERT_GE(split, closed + key_column);
  EXPECT_LE(split - closed - key_column, (kTenants - 1) * per_tenant)
      << "closed " << closed << " B, four tenants " << split << " B";
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
