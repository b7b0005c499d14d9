#include "audit/checkers.h"

#include <cmath>
#include <sstream>

namespace wcs::audit {

namespace {

// Max-min rates are computed in doubles; allow relative dust on the
// capacity comparison but nothing that could hide a real oversubscription.
constexpr double kRateSlack = 1e-6;
// File sizes are integral byte counts summed in doubles (exact below
// 2^53), but flow remainders are fluid; allow sub-byte dust.
constexpr double kByteSlack = 0.5;

void report(std::vector<Violation>& out, const char* checker,
            const std::ostringstream& os) {
  out.push_back(Violation{checker, os.str()});
}

}  // namespace

void check_flow_conservation(const FlowAuditSnapshot& snap,
                             std::vector<Violation>& out) {
  for (const LinkUsage& l : snap.links) {
    const double slack = kRateSlack * std::max(1.0, l.capacity_bps);
    if (l.allocated_bps > l.capacity_bps + slack) {
      std::ostringstream os;
      os << "link " << l.name << " oversubscribed: " << l.flows
         << " flows allocated " << l.allocated_bps << " B/s of "
         << l.capacity_bps << " B/s capacity";
      report(out, "flow-conservation", os);
    }
    if (l.allocated_bps < 0) {
      std::ostringstream os;
      os << "link " << l.name << " has negative allocation "
         << l.allocated_bps << " B/s";
      report(out, "flow-conservation", os);
    }
  }

  double in_flight = 0;
  for (const FlowProgress& f : snap.flows) {
    if (f.remaining_bytes < -kByteSlack ||
        f.remaining_bytes > f.total_bytes + kByteSlack) {
      std::ostringstream os;
      os << "flow " << f.id << " byte accounting broken: remaining "
         << f.remaining_bytes << " outside [0, " << f.total_bytes << "]";
      report(out, "flow-conservation", os);
    }
    if (f.rate_bps < 0 || (!f.active && f.rate_bps != 0)) {
      std::ostringstream os;
      os << "flow " << f.id << " has invalid rate " << f.rate_bps
         << " B/s (active=" << f.active << ")";
      report(out, "flow-conservation", os);
    }
    in_flight += f.total_bytes - std::max(0.0, f.remaining_bytes);
  }

  // Delivered + currently-moving bytes can never exceed what was started
  // (cancelled flows keep their already-moved bytes out of `delivered`).
  if (snap.bytes_delivered + in_flight > snap.bytes_started + kByteSlack) {
    std::ostringstream os;
    os << "flow ledger out of balance: delivered " << snap.bytes_delivered
       << " B + in-flight " << in_flight << " B exceeds started "
       << snap.bytes_started << " B (" << snap.flows_completed
       << " completed, " << snap.flows_cancelled << " cancelled)";
    report(out, "flow-conservation", os);
  }
}

void check_flow_rates(const FlowRatesSnapshot& snap,
                      std::vector<Violation>& out) {
  for (const FlowRateEntry& f : snap.flows) {
    // Exact equality, not a tolerance: the component fill replays the
    // FP operations the full recompute applies to its flows, so any
    // difference at all means the certificate admitted a wrong component.
    if (f.stored_bps != f.recomputed_bps) {
      std::ostringstream os;
      os.precision(17);
      os << snap.label << " flow " << f.id << " live rate "
         << f.stored_bps << " B/s != from-scratch recompute "
         << f.recomputed_bps << " B/s (component reallocation drifted)";
      report(out, "flow-rates", os);
    }
  }
}

void check_cache_coherence(const CacheAuditSnapshot& snap,
                           std::vector<Violation>& out) {
  if (snap.occupancy > snap.capacity) {
    std::ostringstream os;
    os << snap.label << " over capacity: " << snap.occupancy
       << " resident files > capacity " << snap.capacity;
    report(out, "cache-coherence", os);
  }
  if (snap.pinned > snap.occupancy) {
    std::ostringstream os;
    os << snap.label << " pins " << snap.pinned << " files but only "
       << snap.occupancy << " are resident";
    report(out, "cache-coherence", os);
  }
  for (const std::string& defect : snap.structural) {
    std::ostringstream os;
    os << snap.label << " eviction structure unsound: " << defect;
    report(out, "cache-coherence", os);
  }
}

void check_block_store(const BlockStoreAuditSnapshot& snap,
                       std::vector<Violation>& out) {
  if (snap.physical_blocks != snap.recount_physical) {
    std::ostringstream os;
    os << snap.label << " physical-block counter " << snap.physical_blocks
       << " != extent-union recount " << snap.recount_physical;
    report(out, "block-store", os);
  }
  if (snap.pinned_blocks != snap.recount_pinned) {
    std::ostringstream os;
    os << snap.label << " pinned-block counter " << snap.pinned_blocks
       << " != pinned extent-union recount " << snap.recount_pinned;
    report(out, "block-store", os);
  }
  if (snap.pinned_blocks > snap.physical_blocks) {
    std::ostringstream os;
    os << snap.label << " pins " << snap.pinned_blocks
       << " blocks but only " << snap.physical_blocks << " are physical";
    report(out, "block-store", os);
  }
  if (snap.physical_blocks > snap.capacity_blocks) {
    std::ostringstream os;
    os << snap.label << " over capacity: " << snap.physical_blocks
       << " physical blocks > capacity " << snap.capacity_blocks;
    report(out, "block-store", os);
  }
  // Ref conservation: the deduplicated union can never exceed the
  // per-file sum of extent sizes (shared blocks only shrink it).
  if (snap.recount_physical > snap.file_block_refs) {
    std::ostringstream os;
    os << snap.label << " union of resident extents ("
       << snap.recount_physical << " blocks) exceeds the per-file block "
       << "sum (" << snap.file_block_refs << ") — refcount books broken";
    report(out, "block-store", os);
  }
  for (const std::string& defect : snap.structural) {
    std::ostringstream os;
    os << snap.label << " page books unsound: " << defect;
    report(out, "block-store", os);
  }
}

void check_index_coherence(const IndexTotalsSnapshot& snap,
                           std::vector<Violation>& out) {
  // total_ref is exact integer arithmetic on both sides; total_rest is a
  // sum of 1/m terms whose addition order differs between the histogram
  // and the scan, so it gets a relative tolerance.
  if (snap.incremental_ref != snap.scanned_ref) {
    std::ostringstream os;
    os << snap.label << " incremental totalRef " << snap.incremental_ref
       << " != full recompute " << snap.scanned_ref
       << " (SiteIndex drifted from the cache)";
    report(out, "index-coherence", os);
  }
  const double tol =
      1e-9 * std::max(1.0, std::abs(snap.scanned_rest));
  if (std::abs(snap.incremental_rest - snap.scanned_rest) > tol) {
    std::ostringstream os;
    os << snap.label << " incremental totalRest " << snap.incremental_rest
       << " != full recompute " << snap.scanned_rest
       << " (missing-count histogram drifted)";
    report(out, "index-coherence", os);
  }
}

void check_sharded_index(const ShardedIndexSnapshot& snap,
                         std::vector<Violation>& out) {
  if (snap.indexed != snap.expected) {
    std::ostringstream os;
    os << snap.label << " holds " << snap.indexed
       << " entries but the brute-force rescan finds " << snap.expected
       << " schedulable tasks";
    report(out, "sharded-index", os);
  }
  for (const std::string& defect : snap.defects) {
    std::ostringstream os;
    os << snap.label << ": " << defect;
    report(out, "sharded-index", os);
  }
}

void check_task_lifecycle(const TaskLifecycleSnapshot& snap,
                          std::vector<Violation>& out) {
  if (snap.completions.size() != snap.num_tasks) {
    std::ostringstream os;
    os << "completion ledger covers " << snap.completions.size()
       << " tasks but the job has " << snap.num_tasks;
    report(out, "task-lifecycle", os);
    return;
  }

  std::size_t total = 0;
  for (std::size_t t = 0; t < snap.completions.size(); ++t) {
    const std::uint32_t n = snap.completions[t];
    total += n;
    if (n > 1) {
      std::ostringstream os;
      os << "task " << t << " completed " << n
         << " times (must complete exactly once)";
      report(out, "task-lifecycle", os);
    } else if (snap.at_drain && n == 0) {
      std::ostringstream os;
      os << "task " << t << " never completed — lost at drain";
      report(out, "task-lifecycle", os);
    }
  }
  if (total != snap.completed_count) {
    std::ostringstream os;
    os << "completed-task counter " << snap.completed_count
       << " != observed completions " << total;
    report(out, "task-lifecycle", os);
  }
  for (const std::string& defect : snap.placement_defects)
    out.push_back(Violation{"task-lifecycle", defect});
}

void check_tenant_accounting(const TenantAccountingSnapshot& snap,
                             std::vector<Violation>& out) {
  std::uint64_t sum_tasks = 0;
  std::uint64_t sum_assigned = 0;
  std::uint64_t sum_completions = 0;
  for (const TenantAccounting& t : snap.tenants) {
    sum_tasks += t.tasks;
    sum_assigned += t.assigned;
    sum_completions += t.completions;
    if (t.arrived > t.tasks) {
      std::ostringstream os;
      os << "tenant " << t.name << ": " << t.arrived << " arrivals for "
         << t.tasks << " tasks";
      report(out, "tenant-accounting", os);
    }
    if (t.completions > t.arrived) {
      std::ostringstream os;
      os << "tenant " << t.name << ": " << t.completions
         << " completions but only " << t.arrived << " arrivals";
      report(out, "tenant-accounting", os);
    }
    if (t.assigned != t.completions + t.cancelled + t.live) {
      std::ostringstream os;
      os << "tenant " << t.name << ": assigned " << t.assigned
         << " != completions " << t.completions << " + cancelled "
         << t.cancelled << " + live " << t.live;
      report(out, "tenant-accounting", os);
    }
    if (snap.at_drain) {
      if (t.arrived != t.tasks) {
        std::ostringstream os;
        os << "tenant " << t.name << ": " << t.tasks - t.arrived
           << " tasks never arrived at drain";
        report(out, "tenant-accounting", os);
      }
      if (t.completions != t.tasks) {
        std::ostringstream os;
        os << "tenant " << t.name << ": " << t.completions << " of "
           << t.tasks << " tasks completed at drain";
        report(out, "tenant-accounting", os);
      }
      if (t.live != 0) {
        std::ostringstream os;
        os << "tenant " << t.name << ": " << t.live
           << " instances still placed at drain";
        report(out, "tenant-accounting", os);
      }
    }
  }
  if (sum_tasks != snap.total_tasks) {
    std::ostringstream os;
    os << "tenant task counts sum to " << sum_tasks << " but the job has "
       << snap.total_tasks;
    report(out, "tenant-accounting", os);
  }
  if (sum_assigned != snap.total_assignments) {
    std::ostringstream os;
    os << "tenant assignment ledgers sum to " << sum_assigned
       << " != engine assignment counter " << snap.total_assignments;
    report(out, "tenant-accounting", os);
  }
  if (sum_completions != snap.total_completions) {
    std::ostringstream os;
    os << "tenant completion ledgers sum to " << sum_completions
       << " != engine completion counter " << snap.total_completions;
    report(out, "tenant-accounting", os);
  }
}

void check_event_kernel(const EventKernelSnapshot& snap,
                        std::vector<Violation>& out) {
  if (snap.now < snap.previous_now) {
    std::ostringstream os;
    os << "simulated time ran backwards: now " << snap.now
       << "s < previous sweep " << snap.previous_now << "s";
    report(out, "event-kernel", os);
  }
  if (snap.live_count != snap.recount_live) {
    std::ostringstream os;
    os << "live-event counter " << snap.live_count
       << " != recount of per-event states " << snap.recount_live
       << " (lazy-deletion bookkeeping drifted)";
    report(out, "event-kernel", os);
  }
  const std::uint64_t accounted = snap.recount_live + snap.recount_cancelled +
                                  snap.recount_fired;
  if (accounted != snap.scheduled_total) {
    std::ostringstream os;
    os << "event states unaccounted: live " << snap.recount_live
       << " + cancelled " << snap.recount_cancelled << " + fired "
       << snap.recount_fired << " != " << snap.scheduled_total
       << " events ever scheduled";
    report(out, "event-kernel", os);
  }
}

void check_results_ledger(const ResultsLedgerSnapshot& snap,
                          std::vector<Violation>& out) {
  if (snap.makespan_s != snap.max_completion_s) {
    std::ostringstream os;
    os << "reported makespan " << snap.makespan_s
       << "s != max task completion time " << snap.max_completion_s << "s";
    report(out, "results-ledger", os);
  }
  if (snap.tasks_completed != snap.num_tasks) {
    std::ostringstream os;
    os << "result reports " << snap.tasks_completed << " completed tasks of "
       << snap.num_tasks;
    report(out, "results-ledger", os);
  }
  if (std::abs(snap.reported_bytes - snap.delivered_bytes) > kByteSlack) {
    std::ostringstream os;
    os << "transferred-byte totals diverge: metrics report "
       << snap.reported_bytes << " B but the flow ledger delivered "
       << snap.delivered_bytes << " B";
    report(out, "results-ledger", os);
  }
}

void check_memory_layout(const MemoryLayoutSnapshot& snap,
                         std::vector<Violation>& out) {
  for (const std::string& defect : snap.table_defects) {
    std::ostringstream os;
    os << snap.label << ": " << defect;
    report(out, "memory-layout", os);
  }
}

}  // namespace wcs::audit
