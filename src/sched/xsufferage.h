// XSufferage baseline (Casanova, Zagorodnov, Berman, Legrand — "Heuristics
// for Scheduling Parameter Sweep Applications in Grid Environments",
// HCW'00), the dynamic-information comparator referenced by the paper's
// related work (Sec. 6: storage affinity "shows improved makespan ...
// specially when compared to the XSufferage scheduling heuristic").
//
// XSufferage computes, per task, the site-level minimum estimated
// completion time (MCT) and schedules the task that would "suffer" most
// if denied its best site (largest gap between best and second-best site
// MCT). Unlike the paper's schedulers it consumes dynamic platform
// estimates — bandwidth, CPU speed, queue backlog — which GridEngine
// exposes specifically for such baselines; the paper's argument (Sec.
// 2.4) is precisely that those estimates are hard to obtain and that
// data-placement information alone does better.
//
// Adaptation to the pull engine: scheduling fires when a worker becomes
// idle. Among pending tasks whose best site IS the requester's site, the
// max-sufferage task is assigned; if no pending task prefers this site,
// the task with the smallest MCT at this site is assigned instead (the
// worker is not left idle — XSufferage never idles a free machine).
//
// Estimates per (task, site):
//   ect(t, s) = backlog(s) * avg_task_bytes / bw(s)      -- queue wait
//             + missing_bytes(t, s) / bw(s)              -- own transfer
//             + mflop(t) / mflops(s)                     -- compute
//
// missing_bytes comes from an exact per-(site, task) cached-bytes
// counter in the one residency table the worker-centric and
// storage-affinity schedulers use too (sched/residency.h; 8 B per pair),
// kept incremental from cache events, so a request costs O(T * S).
// --audit recounts every pending task's counters against residency(),
// the shared scan, through the table's audit.
// Estimate-quality sensitivity is measured in EXPERIMENTS.md ablation
// A4 (GridConfig::estimate_error skews the bandwidth/CPU numbers this
// scheduler sees; the data-aware schedulers never read them).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/pull.h"
#include "sched/residency.h"

namespace wcs::sched {

class XSufferageScheduler final : public PullScheduler {
 public:
  XSufferageScheduler() = default;

  // Rebuilds the pending set and the residency table's per-(site, task)
  // cached bytes from the engine's current cache contents; the table
  // subscribes to cache events to keep them incremental.
  void on_job_submitted() override;
  void on_task_completed(TaskId task, WorkerId worker) override;

  // Invariant audit: every pending task's cached-bytes counter at every
  // site equals residency() against the live cache.
  void audit_collect(std::vector<audit::Violation>& out) const override;

  // Estimated completion time of a pending task at a site (test hook).
  [[nodiscard]] double estimated_completion(TaskId task, SiteId site) const;

 private:
  [[nodiscard]] std::string algorithm_name() const override {
    return "xsufferage";
  }
  // XSufferage takes no arrivals, so its runs have one tenant.
  [[nodiscard]] std::size_t pending_of(std::uint32_t) const override {
    return pending_.size();
  }
  // Max-sufferage pick among tasks whose best-MCT site is the
  // requester's; falls back to the smallest local MCT so a free worker
  // is never idled while tasks remain.
  void serve(WorkerId worker, std::uint32_t tenant) override;
  // Lost tasks rejoin the pending set.
  void requeue(WorkerId worker, const std::vector<TaskId>& lost) override;

  // Bytes of t's input set resident at each site, exact for pending
  // tasks (the table tracks only those).
  ResidencyTable residency_;
  std::vector<Bytes> task_bytes_;  // total input bytes per task
  PendingBag pending_;
  double avg_task_bytes_ = 0;
};

}  // namespace wcs::sched
