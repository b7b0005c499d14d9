// Open-system end-to-end tests: the pull schedulers' WRR tenant pick and
// its deterministic service sequence, workload-aware scheduler
// construction, and full arrival-timed runs draining with per-tenant
// metrics and the tenant-accounting checker clean under --audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fake_engine.h"
#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "sched/factory.h"
#include "sched/pull.h"
#include "workload/registry.h"

namespace wcs::sched {
namespace {

workload::ArrivalSchedule three_tenant_schedule() {
  workload::ArrivalSchedule s;
  s.tenants = {{"a", 3}, {"b", 1}, {"c", 2}};
  for (std::uint32_t t = 0; t < 3; ++t)
    for (int i = 0; i < 10; ++i) s.tenant_of.push_back(t);
  return s;
}

// `n` one-file tasks.
workload::Job uniform_job(std::size_t n) {
  return testing::make_job(std::vector<std::vector<unsigned>>(n, {0}), 1);
}

TEST(TenantWrr, SmoothWrrSequenceIsDeterministic) {
  // Smooth WRR over weights {3, 1, 2} with every tenant eligible must
  // serve exactly 0 2 0 1 2 0 per cycle — the deterministic-sequence
  // contract of the pull schedulers' tenant pick.
  const workload::ArrivalSchedule schedule = three_tenant_schedule();
  const workload::Job job = uniform_job(schedule.tenant_of.size());
  testing::FakeEngine engine(job, /*num_sites=*/1, /*workers_per_site=*/2);
  engine.schedule = &schedule;
  WorkqueueScheduler wrr;
  wrr.attach(engine);
  wrr.on_job_submitted();

  for (int i = 0; i < 12; ++i) wrr.on_worker_idle(WorkerId(0));
  std::vector<std::uint32_t> order;
  for (const auto& [task, worker] : engine.assignments)
    order.push_back(schedule.tenant(task));
  const std::vector<std::uint32_t> expected = {0, 2, 0, 1, 2, 0,
                                               0, 2, 0, 1, 2, 0};
  EXPECT_EQ(order, expected);

  // Over any whole number of cycles each tenant is served exactly in
  // proportion to its weight — the fairness observable.
  ASSERT_EQ(wrr.served_counts().size(), 3u);
  EXPECT_EQ(wrr.served_counts()[0], 6u);
  EXPECT_EQ(wrr.served_counts()[1], 2u);
  EXPECT_EQ(wrr.served_counts()[2], 4u);
  EXPECT_EQ(wrr.num_tenants(), 3u);
  EXPECT_TRUE(wrr.supports_arrivals());
}

TEST(TenantWrr, ADeadStarvingWorkerStillSpendsItsPick) {
  // Two equal tenants whose tasks have not arrived: three workers starve.
  workload::ArrivalSchedule schedule;
  schedule.tenants = {{"a", 1}, {"b", 1}};
  schedule.tenant_of = {0, 1};
  schedule.arrival_s = {10.0, 10.0};
  const workload::Job job = uniform_job(2);
  testing::FakeEngine engine(job, /*num_sites=*/1, /*workers_per_site=*/3);
  engine.schedule = &schedule;
  WorkqueueScheduler wq;
  wq.attach(engine);
  wq.on_job_submitted();
  for (unsigned w = 0; w < 3; ++w) wq.on_worker_idle(WorkerId(w));
  ASSERT_TRUE(engine.assignments.empty());

  // Worker 0 dies while parked. The pick made for it (tenant a) is
  // charged before it is skipped, so tenant b serves worker 1 and
  // tenant a worker 2.
  engine.dead_workers.insert(WorkerId(0));
  wq.on_tasks_arrived({TaskId(0), TaskId(1)});
  using Assignment = std::pair<TaskId, WorkerId>;
  EXPECT_EQ(engine.assignments,
            (std::vector<Assignment>{{TaskId(1), WorkerId(1)},
                                     {TaskId(0), WorkerId(2)}}));
  EXPECT_EQ(wq.served_counts(), (std::vector<std::uint64_t>{1, 1}));
}

TEST(Factory, WorkloadAwareConstructionWrapsOnlyMultiTenant) {
  SchedulerSpec spec;
  spec.algorithm = Algorithm::kRest;

  // Closed batch: the plain scheduler, same name — whether the schedule
  // is absent, empty, or explicit all-zero arrivals with one named
  // tenant. Closed Workload runs pass their schedule, not null.
  EXPECT_EQ(make_scheduler(spec, nullptr)->name(), "rest");
  const workload::ArrivalSchedule empty;
  EXPECT_EQ(make_scheduler(spec, &empty)->name(), "rest");
  workload::ArrivalSchedule at_t0;
  at_t0.arrival_s = {0.0, 0.0, 0.0};
  at_t0.tenant_of = {0, 0, 0};
  at_t0.tenants = {workload::TenantInfo{"solo", 2}};
  ASSERT_FALSE(at_t0.open());
  EXPECT_EQ(make_scheduler(spec, &at_t0)->name(), "rest");

  // Single-tenant timed arrivals: still the plain (pull) scheduler.
  workload::ArrivalSchedule timed;
  timed.arrival_s = {0.0, 10.0, 20.0};
  EXPECT_EQ(make_scheduler(spec, &timed)->name(), "rest");

  // Multi-tenant: the same scheduler, which reads the tenants from the
  // engine it is attached to and names its tenant pick.
  const workload::ArrivalSchedule multi = three_tenant_schedule();
  const auto scheduler = make_scheduler(spec, &multi);
  EXPECT_EQ(scheduler->name(), "rest");
  const workload::Job job = uniform_job(multi.tenant_of.size());
  testing::FakeEngine engine(job, /*num_sites=*/1, /*workers_per_site=*/1);
  engine.schedule = &multi;
  scheduler->attach(engine);
  EXPECT_EQ(scheduler->name(), "rest+wrr");
  EXPECT_TRUE(scheduler->supports_arrivals());
}

}  // namespace
}  // namespace wcs::sched

namespace wcs::grid {
namespace {

GridConfig small_grid() {
  GridConfig c;
  c.tiers.num_sites = 3;
  c.tiers.workers_per_site = 3;
  c.capacity_files = 2000;
  c.audit = true;  // tenant-accounting checker must stay clean
  return c;
}

sched::SchedulerSpec pull_spec() {
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  return spec;
}

TEST(OpenSystem, SingleTenantTimedRunDrainsWithTenantMetrics) {
  workload::register_builtin_generators();
  workload::GeneratorSpec gen;
  gen.coadd.num_tasks = 80;
  gen.open.process = workload::ArrivalProcess::kPoisson;
  gen.open.mean_interarrival_s = 120.0;
  const workload::Workload wl = workload::build_workload(gen);
  ASSERT_TRUE(wl.open());

  const metrics::RunResult r = run_once(small_grid(), wl, pull_spec(), 7);
  EXPECT_EQ(r.tasks_completed, 80u);
  EXPECT_DOUBLE_EQ(r.jain_fairness(), 1.0);  // one tenant: fair by law
  ASSERT_EQ(r.tenants.size(), 1u);
  const metrics::TenantResult& t = r.tenants[0];
  EXPECT_EQ(t.tasks, 80u);
  EXPECT_EQ(t.completed, 80u);
  EXPECT_GE(t.time_to_first_task_s, 0.0);
  EXPECT_GT(t.makespan_s, 0.0);
  EXPECT_GT(t.sojourn_mean_s, 0.0);
  EXPECT_LE(t.sojourn_p50_s, t.sojourn_p95_s);
  EXPECT_LE(t.sojourn_p95_s, t.sojourn_p99_s);
  // Arrivals gate execution: the last task cannot complete before it
  // arrives, so the makespan covers the arrival horizon.
  EXPECT_GE(r.makespan_s, wl.arrivals.arrival_s.back());
}

TEST(OpenSystem, MultiTenantWrrRunDrainsAllTenants) {
  workload::register_builtin_generators();
  workload::GeneratorSpec gen;
  gen.generator = "multi-tenant";
  gen.coadd.num_tasks = 60;
  gen.open.process = workload::ArrivalProcess::kPoisson;
  gen.open.mean_interarrival_s = 150.0;
  gen.open.tenants = {{"astro", 3}, {"bio", 1}};
  const workload::Workload wl = workload::build_workload(gen);
  ASSERT_TRUE(wl.open());

  const metrics::RunResult r = run_once(small_grid(), wl, pull_spec(), 7);
  EXPECT_EQ(r.tasks_completed, wl.job.num_tasks());
  ASSERT_EQ(r.tenants.size(), 2u);
  EXPECT_EQ(r.tenants[0].name, "astro");
  EXPECT_EQ(r.tenants[0].weight, 3u);
  EXPECT_EQ(r.tenants[1].name, "bio");
  for (const metrics::TenantResult& t : r.tenants) {
    EXPECT_EQ(t.completed, t.tasks);
    EXPECT_GT(t.sojourn_mean_s, 0.0);
  }
  // Drained run: every tenant finishes everything, so the served-share
  // index is computable and in range.
  const double j = r.jain_fairness();
  EXPECT_GT(j, 0.0);
  EXPECT_LE(j, 1.0);
}

TEST(OpenSystem, OpenRunsAreDeterministic) {
  workload::register_builtin_generators();
  workload::GeneratorSpec gen;
  gen.generator = "multi-tenant";
  gen.coadd.num_tasks = 40;
  gen.open.process = workload::ArrivalProcess::kBursty;
  gen.open.mean_interarrival_s = 100.0;
  gen.open.tenants = {{"a", 2}, {"b", 1}};
  const workload::Workload wl = workload::build_workload(gen);

  const metrics::RunResult r1 = run_once(small_grid(), wl, pull_spec(), 7);
  const metrics::RunResult r2 = run_once(small_grid(), wl, pull_spec(), 7);
  EXPECT_EQ(r1.makespan_s, r2.makespan_s);
  EXPECT_EQ(r1.events_executed, r2.events_executed);
  EXPECT_EQ(r1.total_file_transfers(), r2.total_file_transfers());
  ASSERT_EQ(r1.tenants.size(), r2.tenants.size());
  for (std::size_t t = 0; t < r1.tenants.size(); ++t) {
    EXPECT_EQ(r1.tenants[t].sojourn_mean_s, r2.tenants[t].sojourn_mean_s);
    EXPECT_EQ(r1.tenants[t].makespan_s, r2.tenants[t].makespan_s);
  }
}

// Three Poisson tenants weighted {3, 1, 2} over a small Coadd bag.
workload::Workload three_tenant_workload(std::size_t tasks,
                                         double mean_interarrival_s = 150.0) {
  workload::register_builtin_generators();
  workload::GeneratorSpec gen;
  gen.generator = "multi-tenant";
  gen.coadd.num_tasks = tasks;
  gen.open.process = workload::ArrivalProcess::kPoisson;
  gen.open.mean_interarrival_s = mean_interarrival_s;
  gen.open.tenants = {{"a", 3}, {"b", 1}, {"c", 2}};
  return workload::build_workload(gen);
}

TEST(OpenSystem, ProfiledWrrRunRecordsOneDecisionPerServedRequest) {
  const workload::Workload wl = three_tenant_workload(60);
  GridConfig config = small_grid();
  config.obs = obs::Options{};
  config.obs.profile = true;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kWorkqueue;
  GridSimulation sim(config, wl, sched::make_scheduler(spec, &wl.arrivals));
  const metrics::RunResult r = sim.run();
  ASSERT_EQ(r.scheduler, "workqueue+wrr");

  const auto& pull = dynamic_cast<const sched::PullScheduler&>(sim.scheduler());
  std::uint64_t served = 0;
  for (const std::uint64_t n : pull.served_counts()) served += n;
  EXPECT_GE(served, wl.job.num_tasks());
  EXPECT_EQ(sim.observability()
                ->profiler()
                ->slot(obs::Phase::kSchedulerDecision)
                .calls,
            served);
}

TEST(OpenSystem, PushSchedulersAreRefusedAMultiTenantRunBeforeAnyEvent) {
  const workload::Workload wl = three_tenant_workload(30);
  for (const sched::Algorithm algorithm :
       {sched::Algorithm::kStorageAffinity, sched::Algorithm::kXSufferage}) {
    sched::SchedulerSpec spec;
    spec.algorithm = algorithm;
    GridSimulation sim(small_grid(), wl,
                       sched::make_scheduler(spec, &wl.arrivals));
    try {
      (void)sim.run();
      ADD_FAILURE() << spec.name() << " ran a multi-tenant workload";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("scheduler " + spec.name() +
                                           " cannot run an open-system"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(sim.simulator().executed_events(), 0u) << spec.name();
    EXPECT_EQ(sim.tasks_completed(), 0u) << spec.name();
  }
}

// --- Multi-tenant golden -------------------------------------------------

// Exact totals of a small 3-tenant (weights 3:1:2) Poisson run with
// evictions, per pull scheduler: makespan bits, events, transfers and
// each tenant's sojourn mean and makespan bits. Any diff is a behaviour
// change of the tenant path; the failing run prints its row.
struct TenantGolden {
  const char* scheduler;
  std::uint64_t makespan_bits;
  std::uint64_t events;
  std::uint64_t transfers;
  std::uint64_t sojourn_mean_bits[3];
  std::uint64_t tenant_makespan_bits[3];
};

constexpr TenantGolden kTenantGolden[] = {
    {"workqueue+wrr", 0x4112351ebae04408u, 19010u, 9262u,
     {0x40f560d96a402a74u, 0x410566a5877bededu, 0x4100216f87100c38u},
     {0x41090be0c9654843u, 0x41122fad0f2a3b8du, 0x410f5d707c0dbf8bu}},
    {"rest.2+wrr", 0x410b28964a3f6375u, 14118u, 6816u,
     {0x40eafcd55a24a40du, 0x40fdb3009915a04du, 0x40f57f371f86b170u},
     {0x4103f39aa5b3c09du, 0x410b1db2f2d35280u, 0x4107de3deca6e954u}},
    {"combined+wrr", 0x410b1cb07be8a466u, 13950u, 6732u,
     {0x40eb5a008987649eu, 0x40fd9b2283502715u, 0x40f59d3cef97f41au},
     {0x4102854336d0c07du, 0x410b11cd247c9371u, 0x410678d1548304b9u}},
};

TEST(OpenSystem, MultiTenantGoldenTotalsAreExact) {
  const workload::Workload wl = three_tenant_workload(120, 1200.0);
  std::size_t largest = 0;
  for (const workload::Task& t : wl.job.tasks())
    largest = std::max(largest, t.files.size());

  GridConfig config;
  config.tiers.num_sites = 3;
  config.tiers.workers_per_site = 2;
  // Room for both workers' pinned inputs, too little for the catalog.
  config.capacity_files = 2 * largest + 20;
  config.audit = false;
  const sched::Algorithm algorithms[] = {sched::Algorithm::kWorkqueue,
                                         sched::Algorithm::kRest,
                                         sched::Algorithm::kCombined};
  const int choose_n[] = {1, 2, 1};
  for (std::size_t i = 0; i < std::size(kTenantGolden); ++i) {
    sched::SchedulerSpec spec;
    spec.algorithm = algorithms[i];
    spec.choose_n = choose_n[i];
    const metrics::RunResult r = run_once(config, wl, spec, 7);
    const TenantGolden& g = kTenantGolden[i];
    SCOPED_TRACE(g.scheduler);
    ASSERT_EQ(r.tenants.size(), 3u);
    std::printf("    {\"%s\", 0x%016" PRIx64 "u, %zuu, %" PRIu64
                "u,\n     {0x%016" PRIx64 "u, 0x%016" PRIx64
                "u, 0x%016" PRIx64 "u},\n     {0x%016" PRIx64
                "u, 0x%016" PRIx64 "u, 0x%016" PRIx64 "u}},\n",
                r.scheduler.c_str(), std::bit_cast<std::uint64_t>(r.makespan_s),
                r.events_executed, r.total_file_transfers(),
                std::bit_cast<std::uint64_t>(r.tenants[0].sojourn_mean_s),
                std::bit_cast<std::uint64_t>(r.tenants[1].sojourn_mean_s),
                std::bit_cast<std::uint64_t>(r.tenants[2].sojourn_mean_s),
                std::bit_cast<std::uint64_t>(r.tenants[0].makespan_s),
                std::bit_cast<std::uint64_t>(r.tenants[1].makespan_s),
                std::bit_cast<std::uint64_t>(r.tenants[2].makespan_s));
    EXPECT_EQ(r.scheduler, g.scheduler);
    EXPECT_EQ(r.tasks_completed, wl.job.num_tasks());
    EXPECT_GT(r.total_evictions(), 0u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.makespan_s), g.makespan_bits);
    EXPECT_EQ(r.events_executed, g.events);
    EXPECT_EQ(r.total_file_transfers(), g.transfers);
    for (std::size_t t = 0; t < 3; ++t) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.tenants[t].sojourn_mean_s),
                g.sojourn_mean_bits[t])
          << "tenant " << t;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.tenants[t].makespan_s),
                g.tenant_makespan_bits[t])
          << "tenant " << t;
    }
  }
}

}  // namespace
}  // namespace wcs::grid
