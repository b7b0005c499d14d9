#include "sched/factory.h"

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
  WCS_CHECK_MSG(arrivals == nullptr || arrivals->num_tenants() == 1 ||
                    !spec.task_replication,
                "task replication under several tenants is not supported "
                "(replicas would be served outside the tenants' weighted "
                "shares)");
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
