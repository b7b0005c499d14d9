// Open-system workload plane: the generator registry, arrival-process
// draws, the multi-tenant bag-stream generator's stream hygiene, and
// the trace round-trip of arrival-timed workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "workload/open.h"
#include "workload/registry.h"
#include "workload/trace.h"

namespace wcs::workload {
namespace {

TEST(WorkloadRegistry, BuiltinsRegisterOnceAndResolve) {
  register_builtin_generators();
  register_builtin_generators();  // idempotent
  for (const char* name :
       {"coadd", "uniform", "zipf", "partitioned", "trace", "multi-tenant"}) {
    EXPECT_TRUE(has_generator(name)) << name;
    EXPECT_FALSE(generator_summary(name).empty()) << name;
  }
  EXPECT_FALSE(has_generator("no-such-generator"));
}

TEST(WorkloadRegistry, DefaultSpecBuildsClosedCoadd) {
  register_builtin_generators();
  GeneratorSpec spec;
  spec.coadd.num_tasks = 40;
  const Workload wl = build_workload(spec);
  EXPECT_EQ(wl.job.num_tasks(), 40u);
  EXPECT_FALSE(wl.open());
  EXPECT_TRUE(wl.arrivals.arrival_s.empty());
}

TEST(WorkloadRegistry, BuildWorkloadRefusesAnInvalidGeneratedJob) {
  // Builtins hand build_workload unchecked jobs and it validates once at
  // the boundary, so that one check must also catch a registered
  // generator's bad job.
  if (!has_generator("test-duplicate-file")) {
    register_generator("test-duplicate-file", "refused by validate_job",
                       [](const GeneratorSpec&) {
                         Workload wl;
                         wl.job.catalog = FileCatalog(3, 1);
                         wl.job.add_task({FileId(1), FileId(1)}, 1);
                         return wl;
                       });
  }
  GeneratorSpec spec;
  spec.generator = "test-duplicate-file";
  EXPECT_THROW((void)build_workload(spec), std::logic_error);
}

TEST(WorkloadRegistry, BuiltinsMatchTheirPublicGenerators) {
  register_builtin_generators();
  auto same = [](const Job& a, const Job& b) {
    if (a.num_tasks() != b.num_tasks() ||
        a.catalog.num_files() != b.catalog.num_files())
      return false;
    for (std::size_t t = 0; t < a.num_tasks(); ++t) {
      const TaskId id(static_cast<TaskId::underlying_type>(t));
      const Task x = a.task(id);
      const Task y = b.task(id);
      if (!std::equal(x.files.begin(), x.files.end(), y.files.begin(),
                      y.files.end()) ||
          x.mflop != y.mflop)
        return false;
    }
    return true;
  };
  GeneratorSpec spec;
  spec.coadd.num_tasks = 60;
  EXPECT_TRUE(same(build_workload(spec).job, generate_coadd(spec.coadd)));
  spec.generator = "zipf";
  EXPECT_TRUE(same(build_workload(spec).job,
                   generate_zipf(spec.synthetic, spec.zipf_exponent)));
  spec.generator = "multi-tenant";
  spec.open.tenants = {{"a", 1}, {"b", 2}};
  spec.open.process = ArrivalProcess::kPoisson;
  const Workload built = build_workload(spec);
  const Workload direct = generate_multi_tenant(spec.coadd, spec.open);
  EXPECT_TRUE(same(built.job, direct.job));
  EXPECT_EQ(built.arrivals.arrival_s, direct.arrivals.arrival_s);
  EXPECT_EQ(built.arrivals.tenant_of, direct.arrivals.tenant_of);
}

TEST(WorkloadRegistry, OpenParamsStampArrivalsOverClosedBuiltins) {
  register_builtin_generators();
  GeneratorSpec spec;
  spec.coadd.num_tasks = 40;
  spec.open.process = ArrivalProcess::kPoisson;
  spec.open.mean_interarrival_s = 100.0;
  const Workload wl = build_workload(spec);
  ASSERT_EQ(wl.arrivals.arrival_s.size(), 40u);
  EXPECT_TRUE(wl.open());
  double prev = 0;
  for (double a : wl.arrivals.arrival_s) {
    EXPECT_GE(a, prev);  // stamped in id order: nondecreasing
    prev = a;
  }
  EXPECT_GT(prev, 0.0);
}

TEST(DrawArrivals, DeterministicNondecreasingAndCalibrated) {
  OpenParams p;
  p.mean_interarrival_s = 250.0;
  p.seed = 77;
  for (ArrivalProcess process : {ArrivalProcess::kPoisson,
                                 ArrivalProcess::kDiurnal,
                                 ArrivalProcess::kBursty}) {
    SCOPED_TRACE(to_string(process));
    p.process = process;
    const std::vector<double> a = draw_arrivals(4000, p, /*tenant=*/0);
    ASSERT_EQ(a.size(), 4000u);
    EXPECT_GT(a.front(), 0.0);
    for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
    // Same (params, tenant) redraw is identical; a different tenant's
    // substream is not.
    EXPECT_EQ(a, draw_arrivals(4000, p, 0));
    EXPECT_NE(a, draw_arrivals(4000, p, 1));
    // All processes are calibrated to the same long-run mean gap, so
    // they compare at equal offered load. The bursty tail is heavy;
    // allow a loose band.
    const double mean_gap = a.back() / static_cast<double>(a.size());
    EXPECT_GT(mean_gap, 0.5 * p.mean_interarrival_s);
    EXPECT_LT(mean_gap, 2.0 * p.mean_interarrival_s);
  }
}

TEST(DrawArrivals, AtT0IsTheClosedDegenerate) {
  OpenParams p;
  const std::vector<double> a = draw_arrivals(10, p, 0);
  for (double t : a) EXPECT_EQ(t, 0.0);
}

TEST(MultiTenant, GeneratesPerTenantBlocksWithOwnArrivalStreams) {
  CoaddParams bag;
  bag.num_tasks = 90;
  OpenParams open;
  open.process = ArrivalProcess::kPoisson;
  open.mean_interarrival_s = 300.0;
  open.tenants = {{"astro", 3}, {"bio", 1}};
  const Workload wl = generate_multi_tenant(bag, open);

  // Even split of the base task count; per-task metadata parallel.
  EXPECT_EQ(wl.job.num_tasks(), 90u);
  ASSERT_EQ(wl.arrivals.arrival_s.size(), 90u);
  ASSERT_EQ(wl.arrivals.tenant_of.size(), 90u);
  ASSERT_EQ(wl.arrivals.tenants.size(), 2u);
  EXPECT_EQ(wl.arrivals.tenants[0].name, "astro");
  EXPECT_EQ(wl.arrivals.tenants[1].weight, 1u);
  EXPECT_TRUE(wl.open());

  // Task ids are per-tenant contiguous blocks in roster order.
  for (std::size_t i = 0; i < 45; ++i)
    EXPECT_EQ(wl.arrivals.tenant_of[i], 0u) << i;
  for (std::size_t i = 45; i < 90; ++i)
    EXPECT_EQ(wl.arrivals.tenant_of[i], 1u) << i;
}

TEST(MultiTenant, RosterGrowthNeverPerturbsExistingTenants) {
  // The stream-hygiene property: with explicit tasks_per_tenant, adding
  // tenant N+1 must leave tenants 1..N byte-identical — same file ids,
  // same per-task file sets and mflop, same arrival times.
  CoaddParams bag;
  bag.num_tasks = 0;  // unused when tasks_per_tenant is explicit
  OpenParams open;
  open.process = ArrivalProcess::kBursty;
  open.mean_interarrival_s = 200.0;
  open.tasks_per_tenant = 30;
  open.tenants = {{"a", 2}, {"b", 1}};
  const Workload two = generate_multi_tenant(bag, open);

  open.tenants.push_back({"c", 5});
  const Workload three = generate_multi_tenant(bag, open);

  ASSERT_EQ(two.job.num_tasks(), 60u);
  ASSERT_EQ(three.job.num_tasks(), 90u);
  for (std::size_t i = 0; i < 60; ++i) {
    const TaskId id(static_cast<TaskId::underlying_type>(i));
    const Task before = two.job.task(id);
    const Task after = three.job.task(id);
    ASSERT_EQ(before.files.size(), after.files.size()) << i;
    for (std::size_t f = 0; f < before.files.size(); ++f)
      EXPECT_EQ(before.files[f], after.files[f]) << i;
    EXPECT_EQ(before.mflop, after.mflop) << i;
    EXPECT_EQ(two.arrivals.arrival_s[i], three.arrivals.arrival_s[i]) << i;
    EXPECT_EQ(two.arrivals.tenant_of[i], three.arrivals.tenant_of[i]) << i;
  }
  // Tenant c's files occupy a fresh id range appended after a's and b's.
  for (FileId f : three.job.task(TaskId(60)).files)
    EXPECT_GE(f.value(), two.job.catalog.num_files());
}

TEST(TraceRoundTrip, ArrivalTimedWorkloadSurvivesSaveLoad) {
  CoaddParams bag;
  bag.num_tasks = 24;
  OpenParams open;
  open.process = ArrivalProcess::kPoisson;
  open.mean_interarrival_s = 150.0;
  open.tenants = {{"astro", 3}, {"bio", 1}, {"geo", 2}};
  const Workload original = generate_multi_tenant(bag, open);

  std::stringstream buf;
  save_workload(original, buf);
  const Workload loaded = load_workload(buf);

  ASSERT_EQ(loaded.job.num_tasks(), original.job.num_tasks());
  ASSERT_EQ(loaded.job.catalog.num_files(), original.job.catalog.num_files());
  for (const Task& task : original.job.tasks()) {
    const Task got = loaded.job.task(task.id);
    ASSERT_EQ(got.files.size(), task.files.size());
    for (std::size_t f = 0; f < task.files.size(); ++f)
      EXPECT_EQ(got.files[f], task.files[f]);
    EXPECT_EQ(got.mflop, task.mflop);
  }
  EXPECT_EQ(loaded.arrivals.arrival_s, original.arrivals.arrival_s);
  EXPECT_EQ(loaded.arrivals.tenant_of, original.arrivals.tenant_of);
  ASSERT_EQ(loaded.arrivals.tenants.size(), 3u);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(loaded.arrivals.tenants[t].name,
              original.arrivals.tenants[t].name);
    EXPECT_EQ(loaded.arrivals.tenants[t].weight,
              original.arrivals.tenants[t].weight);
  }
  EXPECT_TRUE(loaded.open());

  // A closed workload serializes to the legacy job-only format: no
  // tenant/arrival directives.
  Workload closed;
  closed.job = original.job;
  std::stringstream closed_buf;
  save_workload(closed, closed_buf);
  EXPECT_EQ(closed_buf.str().find("tenant "), std::string::npos);
  EXPECT_EQ(closed_buf.str().find("arrival "), std::string::npos);
  const Workload closed_loaded = load_workload(closed_buf);
  EXPECT_FALSE(closed_loaded.open());
}

}  // namespace
}  // namespace wcs::workload
