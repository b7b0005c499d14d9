// Scenario-registry tests: every catalog entry builds, smoke-runs one
// seed in --fast shape, dumps as JSON the obs parser accepts, and emits
// a schema-valid run report.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/run_report.h"
#include "scenario/catalog.h"
#include "scenario/cli.h"
#include "scenario/runner.h"
#include "scenario/spec_json.h"

namespace wcs::scenario {
namespace {

const std::vector<std::string> kExpected = {
    "table2_workload",     "fig3_cdf",          "fig4_capacity",
    "fig5_transfers",      "fig6_workers",      "table3_contention",
    "fig7_sites",          "fig8_filesize",     "ablation_combined",
    "ablation_choosetask", "ablation_eviction", "ablation_baselines",
    "ext_replication",     "ext_churn",         "open_saturation",
    "open_tenant_mix",     "open_burst",        "data_block_size",
    "data_eviction_dedup", "data_replication_policy"};

BuildOptions small_build() {
  BuildOptions b;
  b.tasks = 120;
  b.fast = true;
  return b;
}

TEST(ScenarioRegistry, CatalogRegistersEveryPaperArtifact) {
  register_builtin_scenarios();
  register_builtin_scenarios();  // idempotent
  EXPECT_EQ(scenario_names(), kExpected);
  for (const std::string& name : kExpected) {
    EXPECT_TRUE(has_scenario(name));
    EXPECT_FALSE(scenario_summary(name).empty());
  }
  EXPECT_FALSE(has_scenario("fig99_bogus"));
}

TEST(ScenarioRegistry, EveryScenarioBuilds) {
  register_builtin_scenarios();
  for (const std::string& name : scenario_names()) {
    ScenarioSpec spec = build_scenario(name, small_build());
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.title.empty()) << name;
    EXPECT_FALSE(spec.metric_name.empty()) << name;
    EXPECT_EQ(spec.workload.coadd.num_tasks, 120u) << name;
    if (spec.is_stats()) {
      EXPECT_TRUE(spec.points.empty()) << name;
    } else {
      EXPECT_FALSE(spec.points.empty()) << name;
      for (const Point& pt : spec.points)
        EXPECT_FALSE(pt.label.empty()) << name;
    }
  }
}

TEST(ScenarioRegistry, UnknownScenarioIsRejected) {
  register_builtin_scenarios();
  EXPECT_THROW((void)build_scenario("fig99_bogus", small_build()),
               std::logic_error);
  EXPECT_THROW((void)scenario_summary("fig99_bogus"), std::logic_error);
}

TEST(ScenarioRegistry, FastCoarsensSweepAxes) {
  register_builtin_scenarios();
  BuildOptions full = small_build();
  full.fast = false;
  EXPECT_LT(build_scenario("fig6_workers", small_build()).points.size(),
            build_scenario("fig6_workers", full).points.size());
  EXPECT_LT(build_scenario("fig7_sites", small_build()).points.size(),
            build_scenario("fig7_sites", full).points.size());
}

TEST(ScenarioDump, EveryDumpParsesWithObsParser) {
  register_builtin_scenarios();
  for (const std::string& name : scenario_names()) {
    ScenarioSpec spec = build_scenario(name, small_build());
    std::ostringstream text;
    dump_scenario(spec, text);
    obs::JsonValue doc = obs::parse_json(text.str());
    ASSERT_TRUE(doc.is_object()) << name;
    ASSERT_TRUE(doc.has("name")) << name;
    EXPECT_EQ(doc.find("name")->string, name);
    ASSERT_TRUE(doc.has("kind")) << name;
    const std::string kind = doc.find("kind")->string;
    if (spec.is_stats()) {
      EXPECT_EQ(kind, "workload-stats") << name;
    } else {
      EXPECT_EQ(kind, "sweep") << name;
      ASSERT_TRUE(doc.find("points")->is_array()) << name;
      EXPECT_EQ(doc.find("points")->array.size(), spec.points.size()) << name;
    }
    EXPECT_TRUE(doc.find("workload")->has("num_tasks")) << name;
  }
}

TEST(ScenarioSmoke, EveryScenarioRunsOneSeedFast) {
  register_builtin_scenarios();
  for (const std::string& name : scenario_names()) {
    ScenarioSpec spec = build_scenario(name, small_build());
    RunOptions ro;
    ro.seeds = 1;
    ro.jobs = 2;
    ro.tasks = 120;
    ro.fast = true;
    std::ostringstream out, err;
    ro.out = &out;
    ro.err = &err;
    EXPECT_EQ(run_scenario(spec, ro), 0) << name;
    EXPECT_FALSE(out.str().empty()) << name;
  }
}

TEST(ScenarioReport, ReportIsSchemaValid) {
  register_builtin_scenarios();
  ScenarioSpec spec = build_scenario("table3_contention", small_build());
  RunOptions ro;
  ro.seeds = 1;
  ro.jobs = 2;
  ro.tasks = 120;
  ro.fast = true;
  const std::string path =
      testing::TempDir() + "/test_scenario_report.json";
  ro.report_path = path;
  std::ostringstream out, err;
  ro.out = &out;
  ro.err = &err;
  ASSERT_EQ(run_scenario(spec, ro), 0);
  EXPECT_TRUE(obs::validate_report_file(path).empty());
  // The report is named after the scenario it ran.
  EXPECT_EQ(obs::parse_json_file(path).find("bench")->string,
            "table3_contention");
}

// Runs scenario_main over `args` (argv[0] prepended).
int run_cli(std::vector<std::string> args) {
  args.insert(args.begin(), "wcs_bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return scenario_main(static_cast<int>(argv.size()), argv.data());
}

TEST(ScenarioCli, UnknownScenarioFailsWithUsageError) {
  EXPECT_EQ(run_cli({"--scenario", "fig99_bogus", "--no-report"}), 2);
}

TEST(ScenarioCli, ListScenariosSucceeds) {
  EXPECT_EQ(run_cli({"--list-scenarios"}), 0);
}

// The CLI's override path (flag parsing, --tasks/--seeds/--fast into the
// build and run options) for every registry entry; ScenarioSmoke calls
// the runner directly and skips it.
TEST(ScenarioCli, EveryScenarioRunsThroughTheCli) {
  register_builtin_scenarios();
  for (const std::string& name : scenario_names())
    EXPECT_EQ(run_cli({"--scenario", name, "--tasks", "120", "--seeds", "1",
                       "--jobs", "2", "--fast", "--no-report"}),
              0)
        << name;
}

TEST(ScenarioCli, WellFormedNumbersParse) {
  EXPECT_EQ(run_cli({"--tasks", "120", "--seeds", "3", "--jobs", "2",
                     "--block-size", "0.5", "--tenants", "3,1,2",
                     "--list-scenarios"}),
            0);
}

TEST(ScenarioCliDeathTest, MissingScenarioIsUsageError) {
  EXPECT_EXIT(run_cli({"--fast", "--no-report"}),
              ::testing::ExitedWithCode(2), "--scenario");
}

// Every malformed numeric value is a usage error (exit 2) naming its
// flag, never an uncaught exception or a silently wrapped value.
TEST(ScenarioCliDeathTest, NonNumericValueIsUsageError) {
  EXPECT_EXIT(run_cli({"--tasks", "abc"}), ::testing::ExitedWithCode(2),
              "--tasks");
  EXPECT_EXIT(run_cli({"--block-size", "big"}), ::testing::ExitedWithCode(2),
              "--block-size");
}

TEST(ScenarioCliDeathTest, TrailingCharactersAreUsageError) {
  EXPECT_EXIT(run_cli({"--tasks", "10x"}), ::testing::ExitedWithCode(2),
              "--tasks");
  EXPECT_EXIT(run_cli({"--jobs", " 4"}), ::testing::ExitedWithCode(2),
              "--jobs");
}

TEST(ScenarioCliDeathTest, SignedOrOverflowingValueIsUsageError) {
  EXPECT_EXIT(run_cli({"--seeds", "-1"}), ::testing::ExitedWithCode(2),
              "--seeds");
  EXPECT_EXIT(run_cli({"--seeds", "+1"}), ::testing::ExitedWithCode(2),
              "--seeds");
  EXPECT_EXIT(run_cli({"--jobs", "99999999999999999999999"}),
              ::testing::ExitedWithCode(2), "--jobs");
  EXPECT_EXIT(run_cli({"--tenants", "3,4294967296"}),
              ::testing::ExitedWithCode(2), "--tenants");
  EXPECT_EXIT(run_cli({"--block-size", "-4"}), ::testing::ExitedWithCode(2),
              "--block-size");
  EXPECT_EXIT(run_cli({"--block-size", "inf"}), ::testing::ExitedWithCode(2),
              "--block-size");
  // Rounds to 0 bytes / past 64 bits of bytes: the block map cannot use
  // either.
  EXPECT_EXIT(run_cli({"--block-size", "1e-7"}), ::testing::ExitedWithCode(2),
              "--block-size");
  EXPECT_EXIT(run_cli({"--block-size", "1e14"}), ::testing::ExitedWithCode(2),
              "--block-size");
}

TEST(ScenarioCliDeathTest, EmptyTenantWeightIsUsageError) {
  EXPECT_EXIT(run_cli({"--tenants", "3,,1"}), ::testing::ExitedWithCode(2),
              "--tenants");
  EXPECT_EXIT(run_cli({"--tenants", "3,1,"}), ::testing::ExitedWithCode(2),
              "--tenants");
  // A zero weight would starve its tenant; a zero count would silently
  // run the closed batch.
  EXPECT_EXIT(run_cli({"--tenants", "3,0,1"}), ::testing::ExitedWithCode(2),
              "--tenants");
  EXPECT_EXIT(run_cli({"--tenants", "0"}), ::testing::ExitedWithCode(2),
              "--tenants");
}

TEST(ScenarioCliDeathTest, MalformedJobsEnvironmentIsUsageError) {
  // setenv runs inside the death-test child only.
  EXPECT_EXIT(
      {
        setenv("WCS_BENCH_JOBS", "x", 1);
        run_cli({"--list-scenarios"});
      },
      ::testing::ExitedWithCode(2), "WCS_BENCH_JOBS");
}

}  // namespace
}  // namespace wcs::scenario
