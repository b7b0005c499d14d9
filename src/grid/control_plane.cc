#include "grid/control_plane.h"

#include <algorithm>
#include <sstream>

#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"

namespace wcs::grid {

ControlPlane::ControlPlane(const GridConfig& config, const workload::Job& job,
                           const workload::ArrivalSchedule* arrivals,
                           const net::GridTopology& topo, sim::Simulator& sim,
                           DataPlane& data, sched::Scheduler& scheduler,
                           std::vector<double> mflops_estimate_error,
                           Hooks hooks)
    : config_(config),
      job_(job),
      arrivals_(arrivals),
      sim_(sim),
      data_(data),
      scheduler_(scheduler),
      hooks_(std::move(hooks)),
      mflops_estimate_error_(std::move(mflops_estimate_error)) {
  Rng speed_rng(config_.effective_speed_seed());
  const auto num_sites = static_cast<std::size_t>(config_.tiers.num_sites);
  const auto per_site =
      static_cast<std::size_t>(config_.tiers.workers_per_site);
  workers_.resize(num_sites * per_site);
  for (std::size_t s = 0; s < num_sites; ++s) {
    for (std::size_t w = 0; w < per_site; ++w) {
      std::size_t idx = s * per_site + w;
      WorkerRuntime& rt = workers_[idx];
      rt.info.id = WorkerId(static_cast<WorkerId::underlying_type>(idx));
      rt.info.site = SiteId(static_cast<SiteId::underlying_type>(s));
      rt.info.node = topo.worker_nodes[s][w];
      rt.info.mflops = compute::sample_worker_mflops(speed_rng);
      rt.control_latency =
          topo.topology.path_latency(rt.info.node, topo.scheduler_node);
    }
  }

  completed_.assign(job_.num_tasks(), 0);
  instances_.assign(job_.num_tasks(), {});
  completion_counts_.assign(job_.num_tasks(), 0);

  if (arrivals_ != nullptr) {
    arrived_.assign(job_.num_tasks(), 0);
    completion_time_.assign(job_.num_tasks(), -1.0);
    tenants_.assign(arrivals_->num_tenants(), TenantLedger{});
    for (std::size_t t = 0; t < tenants_.size(); ++t)
      tenants_[t].first_arrival_s = workload::kNeverArrives;
    for (std::size_t i = 0; i < job_.num_tasks(); ++i) {
      const TaskId id(static_cast<TaskId::underlying_type>(i));
      TenantLedger& ledger = tenants_[tenant_of(id)];
      ++ledger.tasks;
      const double at = arrivals_->arrival(id);
      ledger.first_arrival_s = std::min(ledger.first_arrival_s, at);
      if (at <= 0) {
        arrived_[i] = 1;
        ++ledger.arrived;
      }
    }
  }
}

void ControlPlane::start() {
  // Open-system arrivals: one event per distinct positive arrival time,
  // delivering that time's batch (ascending task ids) to the scheduler.
  // Scheduled before the worker pull loop so same-timestamp ties resolve
  // arrival-first, deterministically.
  if (arrivals_ != nullptr) {
    std::vector<std::pair<double, TaskId>> timed;
    for (std::size_t i = 0; i < job_.num_tasks(); ++i) {
      const TaskId id(static_cast<TaskId::underlying_type>(i));
      const double at = arrivals_->arrival(id);
      if (at > 0) timed.emplace_back(at, id);
    }
    // Stable: ids stay ascending within one arrival instant.
    std::stable_sort(timed.begin(), timed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (std::size_t lo = 0; lo < timed.size();) {
      std::size_t hi = lo;
      while (hi < timed.size() && timed[hi].first == timed[lo].first) ++hi;
      std::vector<TaskId> batch;
      batch.reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) batch.push_back(timed[i].second);
      sim_.schedule_at(timed[lo].first,
                       [this, batch = std::move(batch)] { arrive(batch); });
      lo = hi;
    }
  }
  for (WorkerRuntime& rt : workers_) go_idle(rt.info.id);
}

void ControlPlane::arrive(const std::vector<TaskId>& batch) {
  for (TaskId t : batch) {
    WCS_CHECK_MSG(!arrived_[t.value()], "task " << t << " arrived twice");
    arrived_[t.value()] = 1;
    ++tenants_[tenant_of(t)].arrived;
  }
  scheduler_.on_tasks_arrived(batch);
}

SiteId ControlPlane::site_of(WorkerId worker) const {
  return workers_.at(worker.value()).info.site;
}

const compute::Worker& ControlPlane::worker_info(WorkerId worker) const {
  return workers_.at(worker.value()).info;
}

ControlPlane::WorkerPhase ControlPlane::worker_phase(WorkerId worker) const {
  return workers_.at(worker.value()).state;
}

bool ControlPlane::worker_alive(WorkerId worker) const {
  return workers_.at(worker.value()).state != WorkerPhase::kOffline;
}

std::size_t ControlPlane::worker_backlog(WorkerId worker) const {
  const WorkerRuntime& rt = workers_.at(worker.value());
  std::size_t backlog = rt.queue.size();
  if (rt.state == WorkerPhase::kFetching ||
      rt.state == WorkerPhase::kComputing)
    ++backlog;
  return backlog;
}

double ControlPlane::estimated_site_mflops(SiteId site) const {
  const auto per_site =
      static_cast<std::size_t>(config_.tiers.workers_per_site);
  double total = 0;
  for (std::size_t w = 0; w < per_site; ++w)
    total += workers_[site.value() * per_site + w].info.mflops;
  double exact = total / static_cast<double>(per_site);
  if (mflops_estimate_error_.empty()) return exact;
  return exact * mflops_estimate_error_[site.value()];
}

bool ControlPlane::has_instance(TaskId task, WorkerId worker) const {
  const auto& v = instances_.at(task.value());
  return std::find(v.begin(), v.end(), worker) != v.end();
}

void ControlPlane::assign_task(TaskId task, WorkerId worker) {
  WCS_CHECK(task.valid() && task.value() < job_.num_tasks());
  WCS_CHECK(worker.valid() && worker.value() < workers_.size());
  WCS_CHECK_MSG(!completed_[task.value()],
                "assignment of completed task " << task);
  WCS_CHECK_MSG(worker_alive(worker),
                "assignment to offline worker " << worker);
  WCS_CHECK_MSG(!has_instance(task, worker),
                "task " << task << " already placed on worker " << worker);
  if (arrivals_ != nullptr) {
    WCS_CHECK_MSG(arrived_[task.value()],
                  "task " << task << " assigned before its arrival");
    TenantLedger& ledger = tenants_[tenant_of(task)];
    ++ledger.assigned;
    if (ledger.first_assignment_s < 0) ledger.first_assignment_s = sim_.now();
  }

  if (!instances_[task.value()].empty()) ++replicas_started_;
  instances_[task.value()].push_back(worker);
  ++assignments_;
  trace(LifecycleEvent::kAssigned, task, worker);

  WorkerRuntime& rt = workers_[worker.value()];
  rt.queue.push_back(task);
  // The assignment message travels scheduler -> worker; when it lands, an
  // idle (or still-requesting) worker starts its queue head.
  sim_.schedule_in(rt.control_latency, [this, worker] {
    WorkerRuntime& w = workers_[worker.value()];
    if (w.state == WorkerPhase::kIdle || w.state == WorkerPhase::kRequesting)
      start_next(worker);
  });
}

// Cache-change notification ordering (the contract the schedulers'
// incremental indexes — overlap/ref-sum counters, cached-byte counters,
// and the sharded pending-task index — are built on): request_batch is
// the only path that mutates a site cache, and every resulting
// CacheEvent (kAdded on insert, kEvicted on a capacity eviction,
// kAccessed on the reference-count bump) fires SYNCHRONOUSLY inside the
// data-plane mutation, within this same simulation event. A scheduler
// decision only ever runs from a LATER event (on_worker_idle after the
// request latency, on_task_completed after the compute timer), so by the
// time ChooseTask walks its index every prior cache mutation has already
// been folded in. The --audit sweeps re-verify that coherence against a
// brute-force rescan between events.
void ControlPlane::start_next(WorkerId worker) {
  WorkerRuntime& rt = workers_[worker.value()];
  WCS_CHECK(rt.state == WorkerPhase::kIdle ||
            rt.state == WorkerPhase::kRequesting);
  if (rt.queue.empty()) return;
  TaskId task = rt.queue.front();
  rt.queue.pop_front();
  rt.current = task;
  rt.state = WorkerPhase::kFetching;
  trace(LifecycleEvent::kFetchStart, task, worker);
  const workload::Task& t = job_.task(task);
  data_.request_batch(rt.info.site, task, worker, t.files,
                      [this, worker, task] { files_ready(worker, task); });
}

void ControlPlane::files_ready(WorkerId worker, TaskId task) {
  WorkerRuntime& rt = workers_[worker.value()];
  WCS_CHECK(rt.state == WorkerPhase::kFetching);
  WCS_CHECK_EQ(rt.current, task);
  rt.state = WorkerPhase::kComputing;
  trace(LifecycleEvent::kExecStart, task, worker);
  SimTime compute = rt.info.compute_time_s(job_.task(task).mflop);
  rt.compute_event = sim_.schedule_in(
      compute, [this, worker, task] { finish_task(worker, task); });
}

void ControlPlane::finish_task(WorkerId worker, TaskId task) {
  WorkerRuntime& rt = workers_[worker.value()];
  WCS_CHECK(rt.state == WorkerPhase::kComputing);
  WCS_CHECK_EQ(rt.current, task);
  WCS_CHECK_MSG(!completed_[task.value()],
                "task " << task << " completed twice");
  rt.compute_event = EventId::invalid();
  data_.release(rt.info.site, task, worker);

  completed_[task.value()] = 1;
  ++completed_count_;
  last_completion_ = sim_.now();
  ++completion_counts_[task.value()];
  if (arrivals_ != nullptr) {
    completion_time_[task.value()] = sim_.now();
    TenantLedger& ledger = tenants_[tenant_of(task)];
    ++ledger.completions;
    ledger.last_completion_s = sim_.now();
  }
  audit_max_completion_ = std::max(audit_max_completion_, sim_.now());
  trace(LifecycleEvent::kCompleted, task, worker);
  if (completed_count_ == job_.num_tasks() && hooks_.on_all_tasks_completed)
    hooks_.on_all_tasks_completed();
  instances_[task.value()].erase_value(worker);

  WCS_TRACE("task " << task << " done on worker " << worker << " at "
                    << sim_.now() << "s (" << completed_count_ << "/"
                    << job_.num_tasks() << ")");
  // The scheduler may cancel sibling replicas here (storage affinity).
  scheduler_.on_task_completed(task, worker);
  go_idle(worker);
}

bool ControlPlane::cancel_task(TaskId task, WorkerId worker) {
  if (!has_instance(task, worker)) return false;
  WorkerRuntime& rt = workers_[worker.value()];
  auto& inst = instances_[task.value()];

  if (rt.current == task && rt.state == WorkerPhase::kFetching) {
    bool cancelled = data_.cancel_batch(rt.info.site, task, worker);
    WCS_CHECK_MSG(cancelled, "fetching task had no batch at the data server");
    inst.erase_value(worker);
    ++replicas_cancelled_;
    note_instance_dropped(task);
    trace(LifecycleEvent::kCancelled, task, worker);
    go_idle(worker);
    return true;
  }
  if (rt.current == task && rt.state == WorkerPhase::kComputing) {
    WCS_CHECK(sim_.cancel(rt.compute_event));
    rt.compute_event = EventId::invalid();
    data_.release(rt.info.site, task, worker);
    inst.erase_value(worker);
    ++replicas_cancelled_;
    note_instance_dropped(task);
    trace(LifecycleEvent::kCancelled, task, worker);
    go_idle(worker);
    return true;
  }
  // Still queued at the worker.
  auto qit = std::find(rt.queue.begin(), rt.queue.end(), task);
  if (qit == rt.queue.end()) return false;
  rt.queue.erase(qit);
  inst.erase_value(worker);
  ++replicas_cancelled_;
  note_instance_dropped(task);
  trace(LifecycleEvent::kCancelled, task, worker);
  return true;
}

void ControlPlane::go_idle(WorkerId worker) {
  WorkerRuntime& rt = workers_[worker.value()];
  rt.current = TaskId::invalid();
  rt.state = WorkerPhase::kIdle;
  if (!rt.queue.empty()) {
    start_next(worker);
    return;
  }
  // Pull path: ask the scheduler for work after the request latency.
  rt.state = WorkerPhase::kRequesting;
  sim_.schedule_in(rt.control_latency, [this, worker] {
    WorkerRuntime& w = workers_[worker.value()];
    // A queued assignment may have raced ahead of the request.
    if (w.state != WorkerPhase::kRequesting) return;
    scheduler_.on_worker_idle(worker);
  });
}

std::vector<TaskId> ControlPlane::withdraw_worker(WorkerId worker) {
  WorkerRuntime& rt = workers_[worker.value()];
  WCS_CHECK(rt.state != WorkerPhase::kOffline);

  // Withdraw every task instance this worker holds.
  std::vector<TaskId> lost;
  if (rt.state == WorkerPhase::kFetching) {
    bool cancelled = data_.cancel_batch(rt.info.site, rt.current, worker);
    WCS_CHECK(cancelled);
    lost.push_back(rt.current);
  } else if (rt.state == WorkerPhase::kComputing) {
    WCS_CHECK(sim_.cancel(rt.compute_event));
    rt.compute_event = EventId::invalid();
    data_.release(rt.info.site, rt.current, worker);
    lost.push_back(rt.current);
  }
  for (TaskId t : rt.queue) lost.push_back(t);
  rt.queue.clear();
  rt.current = TaskId::invalid();
  for (TaskId t : lost) {
    instances_[t.value()].erase_value(worker);
    note_instance_dropped(t);
    trace(LifecycleEvent::kCancelled, t, worker);
  }
  rt.state = WorkerPhase::kOffline;
  return lost;
}

void ControlPlane::mark_online(WorkerId worker) {
  WorkerRuntime& rt = workers_[worker.value()];
  WCS_CHECK(rt.state == WorkerPhase::kOffline);
  rt.state = WorkerPhase::kIdle;
}

void ControlPlane::resume_worker(WorkerId worker) { go_idle(worker); }

std::vector<metrics::TenantResult> ControlPlane::tenant_results() const {
  std::vector<metrics::TenantResult> out;
  if (arrivals_ == nullptr) return out;

  GroupedSamples sojourns(tenants_.size());
  for (std::size_t i = 0; i < job_.num_tasks(); ++i) {
    if (completion_time_[i] < 0) continue;
    const TaskId id(static_cast<TaskId::underlying_type>(i));
    sojourns.add(tenant_of(id), completion_time_[i] - arrivals_->arrival(id));
  }

  out.reserve(tenants_.size());
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const TenantLedger& ledger = tenants_[t];
    metrics::TenantResult r;
    if (t < arrivals_->tenants.size()) {
      r.name = arrivals_->tenants[t].name;
      r.weight = arrivals_->tenants[t].weight;
    } else {
      r.name = "tenant" + std::to_string(t);
    }
    r.tasks = ledger.tasks;
    r.completed = ledger.completions;
    r.first_arrival_s = ledger.tasks == 0 ? 0.0 : ledger.first_arrival_s;
    if (ledger.first_assignment_s >= 0)
      r.time_to_first_task_s =
          ledger.first_assignment_s - r.first_arrival_s;
    if (ledger.completions > 0)
      r.makespan_s = ledger.last_completion_s - r.first_arrival_s;
    r.sojourn_mean_s = sojourns.mean_of(t);
    r.sojourn_p50_s = sojourns.percentile_of(t, 50);
    r.sojourn_p95_s = sojourns.percentile_of(t, 95);
    r.sojourn_p99_s = sojourns.percentile_of(t, 99);
    out.push_back(std::move(r));
  }
  return out;
}

audit::TenantAccountingSnapshot ControlPlane::tenant_snapshot(
    bool at_drain) const {
  WCS_CHECK(arrivals_ != nullptr);
  audit::TenantAccountingSnapshot snap;
  snap.total_tasks = job_.num_tasks();
  snap.total_assignments = assignments_;
  snap.total_completions = completed_count_;
  snap.at_drain = at_drain;

  // Live placements recounted from the instances table, independently of
  // the ledgers the checker validates.
  std::vector<std::uint64_t> live(tenants_.size(), 0);
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const TaskId id(static_cast<TaskId::underlying_type>(i));
    live[tenant_of(id)] += instances_[i].size();
  }

  snap.tenants.reserve(tenants_.size());
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const TenantLedger& ledger = tenants_[t];
    audit::TenantAccounting acc;
    acc.name = t < arrivals_->tenants.size() ? arrivals_->tenants[t].name
                                             : "tenant" + std::to_string(t);
    acc.tasks = ledger.tasks;
    acc.arrived = ledger.arrived;
    acc.assigned = ledger.assigned;
    acc.completions = ledger.completions;
    acc.cancelled = ledger.cancelled;
    acc.live = live[t];
    snap.tenants.push_back(std::move(acc));
  }
  return snap;
}

audit::TaskLifecycleSnapshot ControlPlane::lifecycle_snapshot(
    bool at_drain) const {
  audit::TaskLifecycleSnapshot snap;
  snap.num_tasks = job_.num_tasks();
  snap.completed_count = completed_count_;
  snap.completions = completion_counts_;
  snap.at_drain = at_drain;

  // Placement coherence: instances_ and the workers' queues must describe
  // the same set of (task, worker) holdings.
  auto defect = [&snap](const std::ostringstream& os) {
    constexpr std::size_t kMaxDefects = 8;
    if (snap.placement_defects.size() < kMaxDefects)
      snap.placement_defects.push_back(os.str());
  };
  auto holds = [this](const WorkerRuntime& rt, TaskId t) {
    if (rt.current == t && (rt.state == WorkerPhase::kFetching ||
                            rt.state == WorkerPhase::kComputing))
      return true;
    return std::find(rt.queue.begin(), rt.queue.end(), t) != rt.queue.end();
  };

  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const TaskId t(static_cast<TaskId::underlying_type>(i));
    for (WorkerId w : instances_[i]) {
      const WorkerRuntime& rt = workers_[w.value()];
      if (!holds(rt, t)) {
        std::ostringstream os;
        os << "task " << t << " is placed on worker " << w
           << " but the worker does not hold it (state "
           << static_cast<int>(rt.state) << ")";
        defect(os);
      }
      if (snap.at_drain) {
        std::ostringstream os;
        os << "task " << t << " still placed on worker " << w << " at drain";
        defect(os);
      }
    }
  }
  for (const WorkerRuntime& rt : workers_) {
    const bool running = rt.state == WorkerPhase::kFetching ||
                         rt.state == WorkerPhase::kComputing;
    if (running && !rt.current.valid()) {
      std::ostringstream os;
      os << "worker " << rt.info.id << " is fetching/computing no task";
      defect(os);
    }
    if (running && !has_instance(rt.current, rt.info.id)) {
      std::ostringstream os;
      os << "worker " << rt.info.id << " runs task " << rt.current
         << " without a recorded placement";
      defect(os);
    }
    for (TaskId t : rt.queue) {
      if (!has_instance(t, rt.info.id)) {
        std::ostringstream os;
        os << "worker " << rt.info.id << " queues task " << t
           << " without a recorded placement";
        defect(os);
      }
    }
    if (rt.state == WorkerPhase::kOffline &&
        (!rt.queue.empty() || rt.current.valid())) {
      std::ostringstream os;
      os << "offline worker " << rt.info.id << " still holds work";
      defect(os);
    }
  }
  return snap;
}

}  // namespace wcs::grid
