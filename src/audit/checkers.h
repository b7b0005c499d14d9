// The shipped invariant checkers.
//
// Each checker is a pure function over a snapshot struct: the component
// that owns the state produces the snapshot (FlowManager::audit_snapshot,
// FileCache::audit_snapshot, ...), and the checker validates its
// conservation laws. Keeping checkers pure makes violations injectable in
// unit tests without corrupting a live component.
//
// Shipped laws (DESIGN.md § Invariants & static analysis):
//   flow-conservation   per-link allocation <= capacity; per-flow byte
//                       accounting; started = delivered + in-flight +
//                       cancelled remainder
//   cache-coherence     occupancy <= capacity; pinned <= occupancy;
//                       LRU/FIFO/MinRef order<->entry structure sound
//   block-store         physical/pinned block counters == extent-union
//                       recounts; pinned <= physical <= capacity; union
//                       <= per-file block-ref sum
//   index-coherence     scheduler's incremental totals == full recompute
//   task-lifecycle      pending -> assigned -> running -> completed
//                       exactly once; placements match worker queues
//   event-kernel        fire-time monotonicity; live/tombstone counts
//   results-ledger      makespan == max completion; reported bytes ==
//                       flow-ledger bytes
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/invariant_auditor.h"

namespace wcs::audit {

// --- (a) flow conservation ----------------------------------------------

struct LinkUsage {
  std::string name;          // for the report
  double capacity_bps = 0;
  double allocated_bps = 0;  // sum of active-flow rates crossing the link
  std::size_t flows = 0;     // active flows crossing the link
};

struct FlowProgress {
  std::uint64_t id = 0;
  double total_bytes = 0;
  double remaining_bytes = 0;
  double rate_bps = 0;
  bool active = false;  // false while still in the latency phase
};

struct FlowAuditSnapshot {
  std::vector<LinkUsage> links;
  std::vector<FlowProgress> flows;  // in-progress flows
  double bytes_started = 0;         // sum of sizes of every flow started
  double bytes_delivered = 0;       // sum of sizes of completed flows
  std::uint64_t flows_completed = 0;
  std::uint64_t flows_cancelled = 0;
};

void check_flow_conservation(const FlowAuditSnapshot& snap,
                             std::vector<Violation>& out);

// Live max-min rates vs a from-scratch recompute. The FlowManager
// produces the snapshot (audit_rates_snapshot): for every
// bandwidth-sharing flow, the live stored rate next to the rate a full
// progressive-filling pass over the same pool computes. The certified-
// component reallocation contract is exact — stored rates must match the
// recompute bitwise, so the checker tolerates no drift at all.
struct FlowRateEntry {
  std::uint64_t id = 0;
  double stored_bps = 0;      // the live allocation
  double recomputed_bps = 0;  // from-scratch progressive filling
};

struct FlowRatesSnapshot {
  std::string label;  // e.g. "flow manager"
  std::vector<FlowRateEntry> flows;
};

void check_flow_rates(const FlowRatesSnapshot& snap,
                      std::vector<Violation>& out);

// --- (b) cache / index coherence ----------------------------------------

struct CacheAuditSnapshot {
  std::string label;  // e.g. "site 3 data server"
  std::size_t occupancy = 0;
  std::size_t capacity = 0;  // most resident files the block budget admits
  std::size_t pinned = 0;                // resident files with pin_count > 0
  std::vector<std::string> structural;   // defects found by the cache itself
};

void check_cache_coherence(const CacheAuditSnapshot& snap,
                           std::vector<Violation>& out);

// Block-store page accounting. The FileCache
// produces the snapshot (block_audit_snapshot): the incrementally
// maintained physical/pinned block counters next to a from-scratch
// recount over the resident files' extents (page books vs cache books),
// plus the block-ref conservation pair — the union of resident extents
// can never exceed the per-file block sum, and the gap between them is
// exactly the deduplicated (shared) block count.
struct BlockStoreAuditSnapshot {
  std::string label;  // e.g. "site 3 block store"
  std::uint64_t capacity_blocks = 0;
  std::uint64_t physical_blocks = 0;   // incremental counter
  std::uint64_t recount_physical = 0;  // union of resident extents
  std::uint64_t pinned_blocks = 0;     // incremental counter
  std::uint64_t recount_pinned = 0;    // union of pinned extents
  std::uint64_t file_block_refs = 0;   // sum of extent sizes, resident files
  std::vector<std::string> structural;  // defects found by the cache itself
};

void check_block_store(const BlockStoreAuditSnapshot& snap,
                       std::vector<Violation>& out);

struct IndexTotalsSnapshot {
  std::string label;  // e.g. "site 3"
  double incremental_ref = 0;   // the O(1) maintained aggregates
  double incremental_rest = 0;
  double scanned_ref = 0;       // the full O(|pending|) recompute
  double scanned_rest = 0;
};

void check_index_coherence(const IndexTotalsSnapshot& snap,
                           std::vector<Violation>& out);

// Sharded pending-task index (sched/sharded_index.h) vs a brute-force
// rescan. The owning scheduler produces the snapshot: `indexed`/`expected`
// are the entry count and the schedulable-set size it recomputed, and
// `defects` are per-entry mismatches (missing task, wrong key/rank,
// structural damage) it found while comparing index state against the
// live cache, plus any live decision that differs from the scheduler's
// brute-force decision oracle. The checker turns each into a violation.
struct ShardedIndexSnapshot {
  std::string label;  // e.g. "site 3 shard"
  std::size_t indexed = 0;   // entries across every bucket
  std::size_t expected = 0;  // brute-force schedulable-set size
  std::vector<std::string> defects;
};

void check_sharded_index(const ShardedIndexSnapshot& snap,
                         std::vector<Violation>& out);

// --- (c) task lifecycle -------------------------------------------------

struct TaskLifecycleSnapshot {
  std::size_t num_tasks = 0;
  std::size_t completed_count = 0;        // engine's incremental counter
  std::vector<std::uint32_t> completions; // observed completions per task
  std::vector<std::string> placement_defects;  // instance<->holder mismatches
  bool at_drain = false;  // end-of-run: every task must be completed
};

void check_task_lifecycle(const TaskLifecycleSnapshot& snap,
                          std::vector<Violation>& out);

// Per-tenant conservation over the open-system arrival/assignment
// ledgers (control plane, open runs only). Laws:
//   arrived <= tasks; completions <= arrived; assignment needs arrival;
//   assigned == completions + cancelled + live (instances still placed);
//   per-tenant sums == the engine-wide counters;
//   at drain: arrived == tasks, completions == tasks, live == 0.
struct TenantAccounting {
  std::string name;
  std::uint64_t tasks = 0;
  std::uint64_t arrived = 0;
  std::uint64_t assigned = 0;
  std::uint64_t completions = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t live = 0;  // instances currently placed, recounted
};

struct TenantAccountingSnapshot {
  std::vector<TenantAccounting> tenants;
  std::uint64_t total_tasks = 0;        // job size
  std::uint64_t total_assignments = 0;  // engine-wide assignment counter
  std::uint64_t total_completions = 0;  // engine-wide completion counter
  bool at_drain = false;
};

void check_tenant_accounting(const TenantAccountingSnapshot& snap,
                             std::vector<Violation>& out);

// --- (d) event-kernel sanity --------------------------------------------

struct EventKernelSnapshot {
  double now = 0;
  double previous_now = 0;       // clock at the previous sweep
  std::size_t live_count = 0;    // kernel's incremental live counter
  std::size_t recount_live = 0;  // recounted from the per-event states
  std::size_t recount_cancelled = 0;
  std::size_t recount_fired = 0;
  std::uint64_t scheduled_total = 0;  // events ever scheduled
};

void check_event_kernel(const EventKernelSnapshot& snap,
                        std::vector<Violation>& out);

// --- (e) results ledger -------------------------------------------------

struct ResultsLedgerSnapshot {
  double makespan_s = 0;        // as reported in metrics::RunResult
  double max_completion_s = 0;  // independently recorded completion maximum
  std::size_t tasks_completed = 0;
  std::size_t num_tasks = 0;
  double reported_bytes = 0;   // site transfer stats + replication bytes
  double delivered_bytes = 0;  // the flow manager's delivery ledger
};

void check_results_ledger(const ResultsLedgerSnapshot& snap,
                          std::vector<Violation>& out);

// --- (f) memory layout --------------------------------------------------

// Soundness of the flat hot structures (the flow manager's slot table,
// the data servers' batch ledgers). Owners contribute their own findings —
// FlowManager::memory_defects() and DataServer::memory_defects() — and
// the checker reports each one.
struct MemoryLayoutSnapshot {
  std::string label;  // e.g. "run"
  std::vector<std::string> table_defects;  // owners' self-check findings
};

void check_memory_layout(const MemoryLayoutSnapshot& snap,
                         std::vector<Violation>& out);

}  // namespace wcs::audit
