// Scheduler specification + factory.
//
// A SchedulerSpec is a value object describing one of the algorithms of
// the paper's Sec. 5.3 (or an ablation variant); the experiment runner
// and benches construct schedulers from specs so a whole experiment is a
// plain data structure. Every field selects WHAT is scheduled.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sched/scheduler.h"
#include "sched/storage_affinity.h"
#include "sched/worker_centric.h"
#include "sched/workqueue.h"
#include "sched/xsufferage.h"

namespace wcs::sched {

enum class Algorithm {
  kWorkqueue,
  kStorageAffinity,
  kOverlap,
  kRest,
  kCombined,
  kXSufferage,  // dynamic-information baseline (related work)
};

struct SchedulerSpec {
  Algorithm algorithm = Algorithm::kRest;
  int choose_n = 1;  // ChooseTask(n); worker-centric metrics only
  CombinedFormula combined_formula = CombinedFormula::kProse;
  int max_replicas = 2;           // storage affinity + replicating variants
  bool task_replication = false;  // worker-centric: replicate when idle
  std::uint64_t seed = 7;         // randomized ChooseTask only

  // Human-readable algorithm name as used in the paper's figures and in
  // every report/CSV row (e.g. "rest.2", "combined~verbatim+repl").
  [[nodiscard]] std::string name() const;

  // The six algorithms of the paper's evaluation, in its order:
  // task-centric storage affinity, overlap, rest, combined, rest.2,
  // combined.2.
  [[nodiscard]] static std::vector<SchedulerSpec> paper_algorithms();
};

// Builds the scheduler `spec` describes for a run over `arrivals`. A
// closed run (null or !open() schedule) and a single-tenant open
// schedule build the plain scheduler; timed arrivals must then be
// supported by it (checked at run start by GridSimulation). A
// multi-tenant schedule wraps one inner pull scheduler per tenant in
// the WRR tenant layer (tenant_wrr.h), deriving each inner's
// randomized-ChooseTask seed from substream_seed(spec.seed, tenant).
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    const SchedulerSpec& spec,
    const workload::ArrivalSchedule* arrivals = nullptr);

}  // namespace wcs::sched
