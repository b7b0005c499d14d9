// Result records produced by a simulation run and their aggregation
// across repetitions (the paper averages every experiment over 5
// topologies, Sec. 5.2).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "common/units.h"

namespace wcs::metrics {

// Per-tenant section of an open-system run (RunResult::tenants; empty on
// closed-batch runs). Times are simulation seconds. Sojourn = completion
// time - arrival time, per completed task. time_to_first_task_s is -1
// when the tenant never had a task assigned.
struct TenantResult {
  std::string name;
  std::uint32_t weight = 1;
  std::size_t tasks = 0;
  std::size_t completed = 0;
  double first_arrival_s = 0;
  double time_to_first_task_s = -1;  // first assignment - first arrival
  double makespan_s = 0;             // last completion - first arrival
  double sojourn_mean_s = 0;
  double sojourn_p50_s = 0;
  double sojourn_p95_s = 0;
  double sojourn_p99_s = 0;
};

// Per-site data-server accounting; mirrors storage::DataServer::Stats
// plus cache counters. waiting_s / transfer_s are the two columns of the
// paper's Table 3.
struct SiteResult {
  std::uint64_t batches_served = 0;
  std::uint64_t batches_cancelled = 0;
  double waiting_s = 0;
  double transfer_s = 0;
  std::uint64_t file_transfers = 0;
  double bytes_transferred = 0;
  // Dedup: bytes demand fetches did NOT move because shared blocks were
  // already resident (0 at content overlap 0).
  double bytes_saved = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t evictions = 0;
};

struct RunResult {
  std::string scheduler;
  double makespan_s = 0;
  std::size_t tasks_completed = 0;
  std::uint64_t assignments = 0;        // task instances handed to workers
  std::uint64_t replicas_started = 0;   // assignments beyond the first
  std::uint64_t replicas_cancelled = 0;
  std::size_t events_executed = 0;
  // Proactive data replication (0 when the subsystem is disabled).
  std::uint64_t files_replicated = 0;
  double bytes_replicated = 0;
  // Worker churn (0 when churn is disabled).
  std::uint64_t worker_failures = 0;
  std::uint64_t worker_recoveries = 0;
  std::uint64_t instances_lost = 0;
  std::vector<SiteResult> sites;
  // Per-tenant sections; empty for closed-batch runs.
  std::vector<TenantResult> tenants;

  [[nodiscard]] double makespan_minutes() const {
    return to_minutes(makespan_s);
  }

  // Jain's fairness index over the tenants' weight-normalized service
  // (completed / weight). 1.0 for closed-batch and single-tenant runs.
  [[nodiscard]] double jain_fairness() const {
    std::vector<double> shares;
    shares.reserve(tenants.size());
    for (const TenantResult& t : tenants)
      shares.push_back(static_cast<double>(t.completed) /
                       static_cast<double>(t.weight));
    return jain_fairness_index(shares);
  }

  [[nodiscard]] std::uint64_t total_file_transfers() const {
    std::uint64_t total = 0;
    for (const SiteResult& s : sites) total += s.file_transfers;
    return total;
  }

  [[nodiscard]] double total_bytes_transferred() const {
    double total = 0;
    for (const SiteResult& s : sites) total += s.bytes_transferred;
    return total;
  }

  [[nodiscard]] double total_bytes_saved() const {
    double total = 0;
    for (const SiteResult& s : sites) total += s.bytes_saved;
    return total;
  }

  // Logical demand bytes / wire bytes. 1.0 when nothing was deduplicated
  // (content overlap 0) and by convention when no demand bytes moved at
  // all.
  [[nodiscard]] double dedup_ratio() const {
    const double moved = total_bytes_transferred();
    const double saved = total_bytes_saved();
    if (moved <= 0) return 1.0;
    return (moved + saved) / moved;
  }

  // The paper's Figure 5 series: file transfers averaged per data server.
  [[nodiscard]] double transfers_per_site() const {
    WCS_CHECK(!sites.empty());
    return static_cast<double>(total_file_transfers()) /
           static_cast<double>(sites.size());
  }

  [[nodiscard]] double total_waiting_s() const {
    double total = 0;
    for (const SiteResult& s : sites) total += s.waiting_s;
    return total;
  }

  [[nodiscard]] double total_transfer_s() const {
    double total = 0;
    for (const SiteResult& s : sites) total += s.transfer_s;
    return total;
  }

  // Table 3 presentation: per-site averages, in hours.
  [[nodiscard]] double waiting_hours_per_site() const {
    WCS_CHECK(!sites.empty());
    return to_hours(total_waiting_s()) / static_cast<double>(sites.size());
  }
  [[nodiscard]] double transfer_hours_per_site() const {
    WCS_CHECK(!sites.empty());
    return to_hours(total_transfer_s()) / static_cast<double>(sites.size());
  }

  [[nodiscard]] std::uint64_t total_cache_hits() const {
    std::uint64_t total = 0;
    for (const SiteResult& s : sites) total += s.cache_hits;
    return total;
  }

  [[nodiscard]] std::uint64_t total_evictions() const {
    std::uint64_t total = 0;
    for (const SiteResult& s : sites) total += s.evictions;
    return total;
  }
};

// Mean of the headline series over repeated runs (different topology
// seeds, same workload).
struct AveragedResult {
  std::string scheduler;
  std::size_t runs = 0;
  double makespan_minutes = 0;
  double transfers_per_site = 0;
  double total_file_transfers = 0;
  double total_gigabytes = 0;
  // Dedup series (0 GB / ratio 1.0 at content overlap 0).
  double total_gigabytes_saved = 0;
  double dedup_ratio = 1.0;
  double waiting_hours_per_site = 0;
  double transfer_hours_per_site = 0;
  double replicas_started = 0;
  double replicas_cancelled = 0;
  double makespan_minutes_min = 0;
  double makespan_minutes_max = 0;
  // Open-system runs: mean Jain's index over the repetitions and the
  // positionally averaged per-tenant sections (names/weights from the
  // first run; every run must carry the same tenant roster).
  double jain_fairness = 1.0;
  std::vector<TenantResult> tenants;
};

[[nodiscard]] AveragedResult average(std::span<const RunResult> runs);

}  // namespace wcs::metrics
