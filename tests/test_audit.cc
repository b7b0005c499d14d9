// Invariant-auditor tests.
//
// The checkers are pure functions over snapshot structs, so every
// detection test takes a healthy snapshot, injects one violation, and
// asserts the checker fires with a report naming the broken law — no
// live component needs to be corrupted. The integration tests then run
// real simulations with the auditor on and assert (a) clean runs stay
// clean and (b) audited results are identical to unaudited ones.
#include <gtest/gtest.h>

#include <cstdlib>

#include "audit/checkers.h"
#include "audit/invariant_auditor.h"
#include "grid/grid_simulation.h"
#include "sched/factory.h"
#include "sched/worker_centric.h"
#include "storage/file_cache.h"
#include "fake_engine.h"
#include "workload/job.h"

namespace wcs::audit {
namespace {

using sched::testing::FakeEngine;
using sched::testing::make_job;

std::vector<Violation> run_checker(
    const std::function<void(std::vector<Violation>&)>& fn) {
  std::vector<Violation> out;
  fn(out);
  return out;
}

bool mentions(const std::vector<Violation>& v, const std::string& needle) {
  for (const Violation& x : v)
    if (x.message.find(needle) != std::string::npos) return true;
  return false;
}

// --- flow conservation --------------------------------------------------

FlowAuditSnapshot healthy_flows() {
  FlowAuditSnapshot s;
  s.links.push_back(LinkUsage{"uplink0", 2e6, 1.5e6, 3});
  s.flows.push_back(FlowProgress{1, 25e6, 10e6, 1.5e6, true});
  s.bytes_started = 100e6;
  s.bytes_delivered = 75e6;
  s.flows_completed = 3;
  return s;
}

TEST(FlowConservation, HealthySnapshotIsClean) {
  auto v = run_checker(
      [](auto& out) { check_flow_conservation(healthy_flows(), out); });
  EXPECT_TRUE(v.empty());
}

TEST(FlowConservation, DetectsOversubscribedLink) {
  FlowAuditSnapshot s = healthy_flows();
  s.links[0].allocated_bps = s.links[0].capacity_bps * 1.01;
  auto v =
      run_checker([&](auto& out) { check_flow_conservation(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].checker, "flow-conservation");
  EXPECT_TRUE(mentions(v, "oversubscribed"));
}

TEST(FlowConservation, AllowsMaxMinRoundingDust) {
  FlowAuditSnapshot s = healthy_flows();
  s.links[0].allocated_bps = s.links[0].capacity_bps * (1 + 1e-9);
  auto v =
      run_checker([&](auto& out) { check_flow_conservation(s, out); });
  EXPECT_TRUE(v.empty());
}

TEST(FlowConservation, DetectsBrokenByteAccounting) {
  FlowAuditSnapshot s = healthy_flows();
  s.flows[0].remaining_bytes = s.flows[0].total_bytes + 10;
  auto v =
      run_checker([&](auto& out) { check_flow_conservation(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "byte accounting"));
}

TEST(FlowConservation, DetectsLedgerImbalance) {
  FlowAuditSnapshot s = healthy_flows();
  s.bytes_delivered = s.bytes_started + 1;  // delivered more than started
  auto v =
      run_checker([&](auto& out) { check_flow_conservation(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "out of balance"));
}

// --- cache coherence ----------------------------------------------------

TEST(CacheCoherence, DetectsOverCapacity) {
  CacheAuditSnapshot s;
  s.label = "site 3 data server";
  s.capacity = 100;
  s.occupancy = 101;
  auto v = run_checker([&](auto& out) { check_cache_coherence(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].checker, "cache-coherence");
  EXPECT_TRUE(mentions(v, "over capacity"));
  EXPECT_TRUE(mentions(v, "site 3 data server"));
}

TEST(CacheCoherence, DetectsPhantomPins) {
  CacheAuditSnapshot s;
  s.capacity = 100;
  s.occupancy = 2;
  s.pinned = 3;
  auto v = run_checker([&](auto& out) { check_cache_coherence(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "pins"));
}

TEST(CacheCoherence, ForwardsStructuralDefects) {
  CacheAuditSnapshot s;
  s.capacity = 100;
  s.occupancy = 10;
  s.structural.push_back("order list misses file 7");
  auto v = run_checker([&](auto& out) { check_cache_coherence(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "eviction structure unsound"));
}

TEST(CacheCoherence, DetectsBrokenNodeLinksInACopiedSnapshot) {
  const storage::BlockMap blocks(workload::FileCatalog(10, megabytes(25.0)),
                                 storage::BlockStoreParams{});
  storage::FileCache cache(blocks, 3, storage::EvictionPolicy::kLru);
  for (unsigned f = 0; f < 5; ++f) cache.insert(FileId(f));  // 2 evictions
  const CacheAuditSnapshot healthy = cache.audit_snapshot("site 4 cache");
  EXPECT_EQ(healthy.pool_nodes, 3u);
  EXPECT_EQ(healthy.live_nodes, 3u);
  EXPECT_EQ(healthy.free_nodes, 0u);
  EXPECT_TRUE(
      run_checker([&](auto& out) { check_cache_coherence(healthy, out); })
          .empty());

  // A node on the eviction order whose file's record points elsewhere.
  CacheAuditSnapshot s = healthy;
  s.unreferenced_live = 1;
  auto v = run_checker([&](auto& out) { check_cache_coherence(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].checker, "cache-coherence");
  EXPECT_TRUE(mentions(v, "record does not point to"));
  EXPECT_TRUE(mentions(v, "site 4 cache"));

  // A live node also chained on the free list: it is counted twice and
  // its file's record points to a free node.
  s = healthy;
  ++s.free_nodes;
  ++s.referenced_free;
  v = run_checker([&](auto& out) { check_cache_coherence(s, out); });
  ASSERT_EQ(v.size(), 2u);
  EXPECT_TRUE(mentions(v, "3 live + 1 free"));
  EXPECT_TRUE(mentions(v, "free nodes that a file record points to"));
}

TEST(CacheCoherence, DetectsBrokenRecordDirectoryInACopiedSnapshot) {
  // 1000 files = 8 record pages; inserting files of pages 0, 3 and 7
  // carves three pages.
  const storage::BlockMap blocks(workload::FileCatalog(1000, megabytes(1)),
                                 storage::BlockStoreParams{});
  storage::FileCache cache(blocks, 3, storage::EvictionPolicy::kLru);
  for (unsigned f : {1u, 400u, 999u, 2u}) cache.insert(FileId(f));
  const CacheAuditSnapshot healthy = cache.audit_snapshot("site 5 cache");
  EXPECT_EQ(healthy.directory_pages, 3u);
  EXPECT_EQ(healthy.carved_pages, 3u);
  EXPECT_EQ(healthy.stray_pages, 0u);
  EXPECT_EQ(healthy.shared_pages, 0u);
  EXPECT_TRUE(
      run_checker([&](auto& out) { check_cache_coherence(healthy, out); })
          .empty());

  // A directory entry pointing into no carved page, and another aliasing
  // a page an earlier entry holds.
  CacheAuditSnapshot s = healthy;
  s.stray_pages = 1;
  s.shared_pages = 1;
  auto v = run_checker([&](auto& out) { check_cache_coherence(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].checker, "cache-coherence");
  EXPECT_TRUE(mentions(v, "1 entries outside every carved page"));
  EXPECT_TRUE(mentions(v, "1 entries sharing a page"));
  EXPECT_TRUE(mentions(v, "site 5 cache"));

  // A carved page the directory lost.
  s = healthy;
  --s.directory_pages;
  v = run_checker([&](auto& out) { check_cache_coherence(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "holds 2 pages but 3 were carved"));
}

// --- block store --------------------------------------------------------

TEST(BlockStore, DetectsCounterDriftFromRecount) {
  BlockStoreAuditSnapshot s;
  s.label = "site 2 block store";
  s.capacity_blocks = 100;
  s.physical_blocks = 50;
  s.recount_physical = 48;  // incremental counter drifted
  s.file_block_refs = 60;
  auto v = run_checker([&](auto& out) { check_block_store(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].checker, "block-store");
  EXPECT_TRUE(mentions(v, "extent-union recount"));
  EXPECT_TRUE(mentions(v, "site 2 block store"));
}

TEST(BlockStore, DetectsPinnedExceedingPhysicalAndOverCapacity) {
  BlockStoreAuditSnapshot s;
  s.capacity_blocks = 40;
  s.physical_blocks = 50;
  s.recount_physical = 50;
  s.pinned_blocks = 60;
  s.recount_pinned = 60;
  s.file_block_refs = 50;
  auto v = run_checker([&](auto& out) { check_block_store(s, out); });
  ASSERT_EQ(v.size(), 2u);
  EXPECT_TRUE(mentions(v, "are physical"));
  EXPECT_TRUE(mentions(v, "over capacity"));
}

TEST(BlockStore, DetectsBrokenRefcountBooks) {
  BlockStoreAuditSnapshot s;
  s.capacity_blocks = 100;
  s.physical_blocks = 50;
  s.recount_physical = 50;
  s.file_block_refs = 40;  // union larger than the per-file sum
  auto v = run_checker([&](auto& out) { check_block_store(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "refcount books broken"));
}

TEST(BlockStore, ForwardsStructuralDefects) {
  BlockStoreAuditSnapshot s;
  s.capacity_blocks = 100;
  s.structural.push_back("extent of file 3 out of range");
  auto v = run_checker([&](auto& out) { check_block_store(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "page books unsound"));
}

TEST(CacheCoherence, LiveCacheSnapshotIsClean) {
  // Uniform overlap-0 map: capacity is the paper's file count.
  const storage::BlockMap blocks(workload::FileCatalog(10, megabytes(25.0)),
                                 storage::BlockStoreParams{});
  for (auto policy :
       {storage::EvictionPolicy::kLru, storage::EvictionPolicy::kFifo,
        storage::EvictionPolicy::kMinRef}) {
    storage::FileCache cache(blocks, 3, policy);
    for (unsigned f = 0; f < 5; ++f) {  // exercises eviction
      cache.insert(FileId(f));
      cache.record_access(FileId(f));
    }
    cache.pin(FileId(4));
    CacheAuditSnapshot s = cache.audit_snapshot("test cache");
    EXPECT_EQ(s.occupancy, 3u);
    EXPECT_EQ(s.capacity, 3u);
    EXPECT_EQ(s.pinned, 1u);
    EXPECT_TRUE(s.structural.empty());
    auto v =
        run_checker([&](auto& out) { check_cache_coherence(s, out); });
    EXPECT_TRUE(v.empty());
    cache.unpin(FileId(4));
  }
}

// --- index coherence ----------------------------------------------------

TEST(IndexCoherence, DetectsRefDrift) {
  IndexTotalsSnapshot s;
  s.label = "site 0";
  s.index_ref = 41;
  s.scanned_ref = 42;
  s.index_rest = s.scanned_rest = 1.5;
  auto v = run_checker([&](auto& out) { check_index_coherence(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].checker, "index-coherence");
  EXPECT_TRUE(mentions(v, "totalRef"));
}

TEST(IndexCoherence, DetectsRestDrift) {
  IndexTotalsSnapshot s;
  s.index_ref = s.scanned_ref = 42;
  s.index_rest = 1.5;
  s.scanned_rest = 1.5001;
  auto v = run_checker([&](auto& out) { check_index_coherence(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "totalRest"));
}

TEST(IndexCoherence, AllowsSummationOrderDust) {
  IndexTotalsSnapshot s;
  s.index_ref = s.scanned_ref = 42;
  s.index_rest = 1.5;
  s.scanned_rest = 1.5 * (1 + 1e-12);
  auto v = run_checker([&](auto& out) { check_index_coherence(s, out); });
  EXPECT_TRUE(v.empty());
}

// --- task lifecycle -----------------------------------------------------

TaskLifecycleSnapshot healthy_lifecycle() {
  TaskLifecycleSnapshot s;
  s.num_tasks = 4;
  s.completions = {1, 1, 0, 1};
  s.completed_count = 3;
  return s;
}

TEST(TaskLifecycle, HealthyMidRunSnapshotIsClean) {
  auto v = run_checker(
      [](auto& out) { check_task_lifecycle(healthy_lifecycle(), out); });
  EXPECT_TRUE(v.empty());
}

TEST(TaskLifecycle, DetectsDoubleCompletion) {
  TaskLifecycleSnapshot s = healthy_lifecycle();
  s.completions[1] = 2;
  s.completed_count = 4;
  auto v = run_checker([&](auto& out) { check_task_lifecycle(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].checker, "task-lifecycle");
  EXPECT_TRUE(mentions(v, "completed 2 times"));
}

TEST(TaskLifecycle, DetectsLostTaskAtDrain) {
  TaskLifecycleSnapshot s = healthy_lifecycle();
  s.at_drain = true;  // task 2 never completed
  auto v = run_checker([&](auto& out) { check_task_lifecycle(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "lost at drain"));
}

TEST(TaskLifecycle, DetectsCounterDrift) {
  TaskLifecycleSnapshot s = healthy_lifecycle();
  s.completed_count = 2;  // ledger says 3
  auto v = run_checker([&](auto& out) { check_task_lifecycle(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "observed completions"));
}

TEST(TaskLifecycle, ForwardsPlacementDefects) {
  TaskLifecycleSnapshot s = healthy_lifecycle();
  s.placement_defects.push_back("task 9 is placed on worker 1 but ...");
  auto v = run_checker([&](auto& out) { check_task_lifecycle(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].checker, "task-lifecycle");
}

// --- event kernel -------------------------------------------------------

EventKernelSnapshot healthy_kernel() {
  EventKernelSnapshot s;
  s.now = 120;
  s.previous_now = 60;
  s.live_count = s.heap_size = s.in_heap = 5;
  s.on_free_list = 3;
  s.slots = 8;
  s.cancelled = 2;
  s.fired = 93;
  s.scheduled = 100;
  s.rescheduled = 40;
  s.seqs_issued = 140;
  return s;
}

TEST(EventKernel, HealthySnapshotIsClean) {
  auto v = run_checker(
      [](auto& out) { check_event_kernel(healthy_kernel(), out); });
  EXPECT_TRUE(v.empty());
}

TEST(EventKernel, DetectsTimeRunningBackwards) {
  EventKernelSnapshot s = healthy_kernel();
  s.now = s.previous_now - 1;
  auto v = run_checker([&](auto& out) { check_event_kernel(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].checker, "event-kernel");
  EXPECT_TRUE(mentions(v, "backwards"));
}

TEST(EventKernel, DetectsSlotInNeitherHeapNorFreeList) {
  EventKernelSnapshot s = healthy_kernel();
  s.slots += 1;  // a leaked slot
  auto v = run_checker([&](auto& out) { check_event_kernel(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "slot table"));
  s = healthy_kernel();
  s.misplaced = 1;  // e.g. a free-list cycle
  v = run_checker([&](auto& out) { check_event_kernel(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "slot table"));
}

TEST(EventKernel, DetectsBrokenHeapOrder) {
  EventKernelSnapshot s = healthy_kernel();
  s.heap_order_violations = 1;
  auto v = run_checker([&](auto& out) { check_event_kernel(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "heap order"));
}

TEST(EventKernel, DetectsLiveCounterDrift) {
  EventKernelSnapshot s = healthy_kernel();
  s.live_count = s.heap_size + 1;
  auto v = run_checker([&](auto& out) { check_event_kernel(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "live-event counter"));
}

TEST(EventKernel, DetectsUnaccountedEvents) {
  EventKernelSnapshot s = healthy_kernel();
  s.scheduled += 1;
  s.seqs_issued += 1;  // keep the seq law intact: only one law breaks
  auto v = run_checker([&](auto& out) { check_event_kernel(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "unaccounted"));
}

TEST(EventKernel, DetectsUncountedReschedule) {
  EventKernelSnapshot s = healthy_kernel();
  s.seqs_issued += 1;
  auto v = run_checker([&](auto& out) { check_event_kernel(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "seq counter"));
}

// --- results ledger -----------------------------------------------------

ResultsLedgerSnapshot healthy_ledger() {
  ResultsLedgerSnapshot s;
  s.makespan_s = s.max_completion_s = 321.5;
  s.tasks_completed = s.num_tasks = 10;
  s.reported_bytes = s.delivered_bytes = 250e6;
  return s;
}

TEST(ResultsLedger, HealthySnapshotIsClean) {
  auto v = run_checker(
      [](auto& out) { check_results_ledger(healthy_ledger(), out); });
  EXPECT_TRUE(v.empty());
}

TEST(ResultsLedger, DetectsMakespanMismatch) {
  ResultsLedgerSnapshot s = healthy_ledger();
  s.max_completion_s += 0.5;
  auto v = run_checker([&](auto& out) { check_results_ledger(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].checker, "results-ledger");
  EXPECT_TRUE(mentions(v, "makespan"));
}

TEST(ResultsLedger, DetectsByteDivergence) {
  ResultsLedgerSnapshot s = healthy_ledger();
  s.reported_bytes += 1e6;  // a whole file unaccounted
  auto v = run_checker([&](auto& out) { check_results_ledger(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "diverge"));
}

// --- memory layout ------------------------------------------------------

MemoryLayoutSnapshot healthy_memory() {
  MemoryLayoutSnapshot s;
  s.label = "test";
  return s;
}

TEST(MemoryLayout, HealthySnapshotIsClean) {
  auto v = run_checker(
      [](auto& out) { check_memory_layout(healthy_memory(), out); });
  EXPECT_TRUE(v.empty());
}

TEST(MemoryLayout, ForwardsTableDefects) {
  MemoryLayoutSnapshot s = healthy_memory();
  s.table_defects.push_back(
      "batch object aliased into a second ledger (queue)");
  auto v = run_checker([&](auto& out) { check_memory_layout(s, out); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_TRUE(mentions(v, "aliased"));
}

// --- the auditor itself -------------------------------------------------

TEST(InvariantAuditor, CollectsAcrossCheckers) {
  InvariantAuditor a;
  a.add_checker("alpha", [](std::vector<Violation>& out) {
    out.push_back(Violation{"alpha", "first law broken"});
  });
  a.add_checker("beta", [](std::vector<Violation>&) {});
  a.add_checker("gamma", [](std::vector<Violation>& out) {
    out.push_back(Violation{"gamma", "third law broken"});
  });
  EXPECT_EQ(a.num_checkers(), 3u);
  auto v = a.run_checks();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].checker, "alpha");
  EXPECT_EQ(v[1].checker, "gamma");
  EXPECT_EQ(a.sweeps(), 1u);
}

TEST(InvariantAuditor, CheckThrowsWithFullReport) {
  InvariantAuditor a;
  a.add_checker("alpha", [](std::vector<Violation>& out) {
    out.push_back(Violation{"alpha", "first law broken"});
    out.push_back(Violation{"alpha", "second law broken"});
  });
  try {
    a.check("periodic sweep at t=10s");
    FAIL() << "check() must throw on violations";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.violations().size(), 2u);
    const std::string what = e.what();
    EXPECT_NE(what.find("periodic sweep at t=10s"), std::string::npos);
    EXPECT_NE(what.find("first law broken"), std::string::npos);
    EXPECT_NE(what.find("second law broken"), std::string::npos);
    EXPECT_NE(what.find("alpha"), std::string::npos);
  }
}

TEST(InvariantAuditor, CheckPassesQuietly) {
  InvariantAuditor a;
  a.add_checker("quiet", [](std::vector<Violation>&) {});
  EXPECT_NO_THROW(a.check("end of run"));
  EXPECT_NO_THROW(a.check("end of run"));
  EXPECT_EQ(a.sweeps(), 2u);
}

TEST(InvariantAuditor, EnvironmentOverridesDefault) {
  ASSERT_EQ(setenv("WCS_AUDIT", "1", 1), 0);
  EXPECT_TRUE(default_enabled());
  ASSERT_EQ(setenv("WCS_AUDIT", "0", 1), 0);
  EXPECT_FALSE(default_enabled());
  ASSERT_EQ(unsetenv("WCS_AUDIT"), 0);
#ifdef NDEBUG
  EXPECT_FALSE(default_enabled());
#else
  EXPECT_TRUE(default_enabled());
#endif
}

// --- live-scheduler audit ----------------------------------------------

TEST(SchedulerAudit, IncrementalIndexStaysCoherentUnderChurn) {
  auto job = make_job({{0, 1}, {1, 2}, {2, 3}, {0, 3}}, 4);
  // Capacity 2 so the insert sequence below also exercises evictions
  // (and the kEvicted path of the incremental index).
  FakeEngine eng(job, 2, 1, /*capacity=*/2);
  sched::WorkerCentricParams p;
  p.metric = sched::Metric::kCombined;
  sched::WorkerCentricScheduler s(p);
  s.attach(eng);
  s.on_job_submitted();
  for (unsigned f = 0; f < 4; ++f) {
    eng.add_file(SiteId(f % 2), FileId(f));
    eng.add_file(SiteId(f % 2), FileId((f + 2) % 4));
  }
  std::vector<Violation> v;
  s.audit_collect(v);
  EXPECT_TRUE(v.empty());
}

// --- full-simulation integration ---------------------------------------

grid::GridConfig audit_test_config() {
  grid::GridConfig c;
  c.tiers.num_sites = 3;
  c.tiers.workers_per_site = 2;
  c.tiers.seed = 1;
  c.capacity_files = 50;
  return c;
}

workload::Job small_job() {
  std::vector<std::vector<unsigned>> sets;
  for (unsigned i = 0; i < 30; ++i)
    sets.push_back({i % 20, (i + 7) % 20, (i + 13) % 20});
  return make_job(sets, 20);
}

TEST(AuditIntegration, AuditedRunIsCleanAndSweeps) {
  const workload::Workload wl{small_job()};
  grid::GridConfig c = audit_test_config();
  c.audit = true;
  c.audit_interval_events = 25;  // force many periodic sweeps
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  grid::GridSimulation sim(c, wl, sched::make_scheduler(spec));
  auto r = sim.run();
  EXPECT_EQ(r.tasks_completed, 30u);
  ASSERT_NE(sim.auditor(), nullptr);
  EXPECT_GT(sim.auditor()->sweeps(), 2u);
  // flow-conservation, flow-rates, cache-coherence, block-store,
  // index-coherence, task-lifecycle, event-kernel, memory-layout.
  EXPECT_EQ(sim.auditor()->num_checkers(), 8u);
}

TEST(AuditIntegration, AuditedResultsAreIdentical) {
  const workload::Workload wl{small_job()};
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kCombined;

  grid::GridConfig plain = audit_test_config();
  plain.audit = false;
  grid::GridSimulation sim_plain(plain, wl, sched::make_scheduler(spec));
  auto a = sim_plain.run();

  grid::GridConfig audited = audit_test_config();
  audited.audit = true;
  audited.audit_interval_events = 10;
  grid::GridSimulation sim_audit(audited, wl, sched::make_scheduler(spec));
  auto b = sim_audit.run();

  // Checkers are read-only: the audited run must be event-for-event
  // identical, not just statistically close.
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.total_file_transfers(), b.total_file_transfers());
  EXPECT_EQ(a.total_bytes_transferred(), b.total_bytes_transferred());
}

TEST(AuditIntegration, ObservedAndAuditedResultsAreIdentical) {
  // Auditing AND full observability together must still be read-only:
  // phase scopes and the span tracer never feed a decision.
  const workload::Workload wl{small_job()};
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kCombined;

  grid::GridConfig plain = audit_test_config();
  grid::GridSimulation sim_plain(plain, wl, sched::make_scheduler(spec));
  auto a = sim_plain.run();

  grid::GridConfig full = audit_test_config();
  full.audit = true;
  full.audit_interval_events = 10;
  full.obs = obs::Options::all();
  grid::GridSimulation sim_full(full, wl, sched::make_scheduler(spec));
  auto b = sim_full.run();

  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.total_file_transfers(), b.total_file_transfers());
  EXPECT_EQ(a.total_bytes_transferred(), b.total_bytes_transferred());

  // And the instruments actually observed the run: the audited loop
  // steps the kernel one event at a time, and every executed event is
  // one dispatch call; every completed task is one completion span.
  const obs::Observability* o = sim_full.observability();
  ASSERT_NE(o, nullptr);
  ASSERT_NE(o->profiler(), nullptr);
  EXPECT_EQ(o->profiler()->slot(obs::Phase::kEventDispatch).calls,
            b.events_executed);
  EXPECT_EQ(o->profiler()->slot(obs::Phase::kReporting).calls, 1u);
  const obs::EventTracer* tracer = o->tracer();
  ASSERT_NE(tracer, nullptr);
  ASSERT_FALSE(tracer->spans().empty());
  std::size_t completions = 0;
  std::size_t assigns = 0;
  for (const obs::TraceSpan& s : tracer->spans()) {
    completions += s.kind == obs::SpanKind::kComplete;
    assigns += s.kind == obs::SpanKind::kAssign;
  }
  EXPECT_EQ(b.tasks_completed, 30u);
  EXPECT_EQ(completions, b.tasks_completed);
  EXPECT_EQ(assigns, b.assignments);
}

TEST(AuditIntegration, AllSchedulersPassEndOfRunAudit) {
  for (auto algo :
       {sched::Algorithm::kWorkqueue, sched::Algorithm::kXSufferage,
        sched::Algorithm::kOverlap, sched::Algorithm::kRest,
        sched::Algorithm::kCombined}) {
    const workload::Workload wl{small_job()};
    grid::GridConfig c = audit_test_config();
    c.audit = true;
    c.audit_interval_events = 50;
    sched::SchedulerSpec spec;
    spec.algorithm = algo;
    grid::GridSimulation sim(c, wl, sched::make_scheduler(spec));
    EXPECT_NO_THROW({
      auto r = sim.run();
      EXPECT_EQ(r.tasks_completed, 30u);
    });
  }
}

}  // namespace
}  // namespace wcs::audit
