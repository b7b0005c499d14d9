#include "sched/factory.h"

#include "common/rng.h"
#include "sched/tenant_wrr.h"

namespace wcs::sched {

std::string SchedulerSpec::name() const {
  switch (algorithm) {
    case Algorithm::kWorkqueue:
      return "workqueue";
    case Algorithm::kXSufferage:
      return "xsufferage";
    case Algorithm::kStorageAffinity:
      return "storage-affinity";
    case Algorithm::kOverlap:
    case Algorithm::kRest:
    case Algorithm::kCombined: {
      // Delegate to the scheduler's own naming for exact parity.
      WorkerCentricParams p;
      p.metric = algorithm == Algorithm::kOverlap ? Metric::kOverlap
                 : algorithm == Algorithm::kRest  ? Metric::kRest
                                                  : Metric::kCombined;
      p.choose_n = choose_n;
      p.combined_formula = combined_formula;
      p.replicate_when_idle = task_replication;
      return WorkerCentricScheduler(p).name();
    }
  }
  return "?";
}

std::vector<SchedulerSpec> SchedulerSpec::paper_algorithms() {
  std::vector<SchedulerSpec> specs;
  SchedulerSpec sa;
  sa.algorithm = Algorithm::kStorageAffinity;
  specs.push_back(sa);
  for (Algorithm a :
       {Algorithm::kOverlap, Algorithm::kRest, Algorithm::kCombined}) {
    SchedulerSpec s;
    s.algorithm = a;
    s.choose_n = 1;
    specs.push_back(s);
  }
  for (Algorithm a : {Algorithm::kRest, Algorithm::kCombined}) {
    SchedulerSpec s;
    s.algorithm = a;
    s.choose_n = 2;
    specs.push_back(s);
  }
  return specs;
}

std::unique_ptr<Scheduler> make_scheduler(
    const SchedulerSpec& spec, const workload::ArrivalSchedule* arrivals) {
  // More than one tenant implies open(): a closed schedule never wraps.
  if (arrivals != nullptr && arrivals->num_tenants() > 1) {
    WCS_CHECK_MSG(!spec.task_replication,
                  "task replication under the WRR tenant layer is not "
                  "supported (an inner bag going empty is a tenant-local "
                  "event, not a job-wide one)");
    return std::make_unique<TenantWrrScheduler>(
        *arrivals, [&spec](std::uint32_t tenant) {
          SchedulerSpec inner = spec;
          // Independent randomized-ChooseTask streams per tenant: adding
          // a tenant must not perturb the draws of the others.
          inner.seed = substream_seed(spec.seed, tenant);
          return make_scheduler(inner);
        });
  }
  switch (spec.algorithm) {
    case Algorithm::kWorkqueue:
      return std::make_unique<WorkqueueScheduler>();
    case Algorithm::kXSufferage:
      return std::make_unique<XSufferageScheduler>();
    case Algorithm::kStorageAffinity: {
      StorageAffinityParams p;
      p.max_replicas = spec.max_replicas;
      return std::make_unique<StorageAffinityScheduler>(p);
    }
    case Algorithm::kOverlap:
    case Algorithm::kRest:
    case Algorithm::kCombined: {
      WorkerCentricParams p;
      p.metric = spec.algorithm == Algorithm::kOverlap ? Metric::kOverlap
                 : spec.algorithm == Algorithm::kRest  ? Metric::kRest
                                                       : Metric::kCombined;
      p.choose_n = spec.choose_n;
      p.combined_formula = spec.combined_formula;
      p.seed = spec.seed;
      p.replicate_when_idle = spec.task_replication;
      p.max_replicas = spec.max_replicas;
      return std::make_unique<WorkerCentricScheduler>(p);
    }
  }
  WCS_CHECK(false);
  return nullptr;
}

}  // namespace wcs::sched
