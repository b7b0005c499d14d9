// Golden-run regression suite: a fixed-seed scenario (5 sites, 500
// Coadd tasks) through every paper scheduler must reproduce these exact
// makespan / transfer / byte totals. The simulation is deterministic
// (see test_determinism), so ANY diff here is a behaviour change — if it
// is intentional, regenerate the table by running this binary and
// copying the values printed on failure.
#include <gtest/gtest.h>

#include <cstdio>

#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "workload/coadd.h"

namespace wcs::grid {
namespace {

struct Golden {
  const char* scheduler;
  double makespan_s;
  std::uint64_t file_transfers;
  double bytes_transferred;
};

// Regenerate with: test_golden_run --gtest_filter='GoldenRun.*' (failing
// expectations print actual values at full precision below).
constexpr Golden kGolden[] = {
    {"storage-affinity", 184382.32302610984, 8710u, 217750000000},
    {"overlap", 155792.45465528278, 7092u, 177300000000},
    {"rest", 156469.33802937943, 6966u, 174150000000},
    {"combined", 156963.78050540772, 7118u, 177950000000},
    {"rest.2", 161355.45056385815, 7164u, 179100000000},
    {"combined.2", 175261.69922984971, 7764u, 194100000000},
};

metrics::RunResult run_golden_scenario(const sched::SchedulerSpec& spec) {
  workload::CoaddParams cp;
  cp.num_tasks = 500;
  cp.seed = 20260805;
  const workload::Workload wl{workload::generate_coadd(cp)};

  GridConfig c;
  c.tiers.num_sites = 5;
  c.tiers.workers_per_site = 5;
  c.capacity_files = 3000;  // tight enough to exercise eviction
  return run_once(c, wl, spec, /*seed=*/7);
}

TEST(GoldenRun, FixedSeedTotalsAreExact) {
  auto specs = sched::SchedulerSpec::paper_algorithms();
  ASSERT_EQ(specs.size(), std::size(kGolden));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto r = run_golden_scenario(specs[i]);
    SCOPED_TRACE(specs[i].name());
    EXPECT_EQ(specs[i].name(), kGolden[i].scheduler);
    EXPECT_EQ(r.tasks_completed, 500u);
    // Print at copy-paste precision so intentional changes are easy to
    // re-bless.
    std::printf("    {\"%s\", %.17g, %lluu, %.17g},\n", specs[i].name().c_str(),
                r.makespan_s,
                static_cast<unsigned long long>(r.total_file_transfers()),
                r.total_bytes_transferred());
    EXPECT_EQ(r.makespan_s, kGolden[i].makespan_s);
    EXPECT_EQ(r.total_file_transfers(), kGolden[i].file_transfers);
    EXPECT_EQ(r.total_bytes_transferred(), kGolden[i].bytes_transferred);
    // Content overlap 0 (the default): the block store shares nothing,
    // so these are the paper's whole-file totals.
    EXPECT_EQ(r.total_bytes_saved(), 0.0);
    EXPECT_EQ(r.dedup_ratio(), 1.0);
  }
}

TEST(GoldenRun, ClosedWorkloadPlaneReproducesGoldensExactly) {
  // The open-system workload plane's byte-identity gate: a Workload
  // whose schedule is single-tenant arrive-at-t=0 — whether encoded as
  // the compact empty defaults or as explicit all-zero arrival times
  // with a named tenant — must take the closed-batch path and land on
  // the golden table, byte for byte, for all six schedulers.
  workload::CoaddParams cp;
  cp.num_tasks = 500;
  cp.seed = 20260805;

  workload::Workload compact;
  compact.job = workload::generate_coadd(cp);
  ASSERT_FALSE(compact.open());

  workload::Workload explicit_t0;
  explicit_t0.job = workload::generate_coadd(cp);
  explicit_t0.arrivals.arrival_s.assign(explicit_t0.job.num_tasks(), 0.0);
  explicit_t0.arrivals.tenant_of.assign(explicit_t0.job.num_tasks(), 0);
  explicit_t0.arrivals.tenants.push_back({"solo", 1});
  ASSERT_FALSE(explicit_t0.open());

  GridConfig c;
  c.tiers.num_sites = 5;
  c.tiers.workers_per_site = 5;
  c.capacity_files = 3000;

  auto specs = sched::SchedulerSpec::paper_algorithms();
  ASSERT_EQ(specs.size(), std::size(kGolden));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].name() + " (workload plane)");
    for (const workload::Workload* wl : {&compact, &explicit_t0}) {
      const auto r = run_once(c, *wl, specs[i], /*topology_seed=*/7);
      EXPECT_EQ(r.makespan_s, kGolden[i].makespan_s);
      EXPECT_EQ(r.total_file_transfers(), kGolden[i].file_transfers);
      EXPECT_EQ(r.total_bytes_transferred(), kGolden[i].bytes_transferred);
    }
  }
}

TEST(GoldenRun, ObservabilityDoesNotPerturbGoldens) {
  // The read-only instrumentation contract, enforced against the golden
  // scenario: a fully-instrumented run must land on the same totals.
  auto spec = sched::SchedulerSpec::paper_algorithms().front();
  const auto plain = run_golden_scenario(spec);

  workload::CoaddParams cp;
  cp.num_tasks = 500;
  cp.seed = 20260805;
  const workload::Workload wl{workload::generate_coadd(cp)};
  GridConfig c;
  c.tiers.num_sites = 5;
  c.tiers.workers_per_site = 5;
  c.capacity_files = 3000;
  c.obs = obs::Options::all();
  const auto instrumented = run_once(c, wl, spec, /*seed=*/7);

  EXPECT_EQ(instrumented.makespan_s, plain.makespan_s);
  EXPECT_EQ(instrumented.events_executed, plain.events_executed);
  EXPECT_EQ(instrumented.total_file_transfers(), plain.total_file_transfers());
  EXPECT_EQ(instrumented.total_bytes_transferred(),
            plain.total_bytes_transferred());
}

}  // namespace
}  // namespace wcs::grid
