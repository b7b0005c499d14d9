// Open-system workload model: tenants and simulated-time arrivals.
//
// Every run takes a Workload: a Job plus an ArrivalSchedule (per-task
// arrival times on the simulated clock and a per-task owning tenant).
// The paper's closed batch is the special case where every task arrives
// at t=0 under one tenant. Such a schedule is CLOSED and runs the
// closed-batch code path, which must reproduce the goldens byte for
// byte (tests/test_golden_run.cc).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "workload/job.h"

namespace wcs::workload {

struct TenantInfo {
  std::string name;
  std::uint32_t weight = 1;  // WRR share; must be >= 1
};

// Arrival sentinel used by per-tenant filtered views (sched/tenant_wrr):
// a task that belongs to another tenant "never arrives" for this view.
// Real run schedules must be finite (validate_arrivals rejects this).
inline constexpr double kNeverArrives = std::numeric_limits<double>::infinity();

// Per-task arrival metadata, parallel to the Job's task ids. Empty
// vectors are the compact encoding of the closed defaults (all tasks at
// t=0, one anonymous tenant) so a closed Workload costs nothing.
struct ArrivalSchedule {
  std::vector<double> arrival_s;         // per task; empty = all 0
  std::vector<std::uint32_t> tenant_of;  // per task; empty = all tenant 0
  std::vector<TenantInfo> tenants;       // empty = one anonymous tenant

  [[nodiscard]] std::size_t num_tenants() const {
    return tenants.empty() ? 1 : tenants.size();
  }
  [[nodiscard]] std::uint32_t tenant(TaskId t) const {
    return tenant_of.empty() ? 0 : tenant_of[t.value()];
  }
  [[nodiscard]] double arrival(TaskId t) const {
    return arrival_s.empty() ? 0.0 : arrival_s[t.value()];
  }
  // Any task arriving after t=0?
  [[nodiscard]] bool timed() const {
    for (double a : arrival_s)
      if (a > 0) return true;
    return false;
  }
  // Open-system semantics needed: timed arrivals or multiple tenants.
  // A !open() schedule is a closed batch: GridSimulation hands the
  // planes and the scheduler a null schedule instead.
  [[nodiscard]] bool open() const { return timed() || num_tenants() > 1; }
};

// A job plus when its tasks enter the system. The unit the generator
// registry produces and every simulation runs; `Workload{job}` is the
// closed batch.
struct Workload {
  Job job;
  // Empty by default, so `Workload{job}` is the closed batch (the `{}`
  // keeps that brace form free of -Wmissing-field-initializers).
  ArrivalSchedule arrivals{};

  [[nodiscard]] bool open() const { return arrivals.open(); }
};

// Structural soundness of a run schedule: metadata parallel to the job,
// tenant ids in range, weights positive, arrival times finite and
// non-negative. (Per-tenant WRR views relax finiteness via
// kNeverArrives and are never validated as run schedules.)
inline void validate_arrivals(const ArrivalSchedule& s, const Job& job) {
  WCS_CHECK_MSG(s.arrival_s.empty() || s.arrival_s.size() == job.num_tasks(),
                "arrival_s size " << s.arrival_s.size() << " != "
                                  << job.num_tasks() << " tasks");
  WCS_CHECK_MSG(s.tenant_of.empty() || s.tenant_of.size() == job.num_tasks(),
                "tenant_of size " << s.tenant_of.size() << " != "
                                  << job.num_tasks() << " tasks");
  for (double a : s.arrival_s)
    WCS_CHECK_MSG(a >= 0 && a < kNeverArrives, "bad arrival time " << a);
  for (std::uint32_t t : s.tenant_of)
    WCS_CHECK_MSG(t < s.num_tenants(), "tenant id " << t << " out of range");
  for (const TenantInfo& t : s.tenants)
    WCS_CHECK_MSG(t.weight >= 1,
                  "tenant " << t.name << " has zero weight (WRR would starve "
                               "it; drop the tenant instead)");
}

}  // namespace wcs::workload
