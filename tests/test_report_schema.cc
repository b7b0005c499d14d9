// Run-report schema v1: the writer emits valid reports, and the
// validator (shared with tools/report_lint and CI) rejects every class
// of drift — missing keys, wrong types, out-of-range values, and
// non-monotone timestamps.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.h"
#include "obs/run_report.h"

namespace wcs::obs {
namespace {

RunReport sample_report() {
  RunReport r;
  r.bench = "bench_fig5_transfers";
  r.title = "Figure 5: file transfers";
  r.x_axis = "capacity_files";
  r.metric = "transfers per site";
  r.config.tasks = 6000;
  r.config.seeds = 5;
  r.config.jobs = 2;
  r.config.fast = false;
  r.config.audit = true;
  r.config.trace = false;
  r.total_wall_seconds = 12.5;
  for (int p = 0; p < 2; ++p) {
    ReportPoint pt;
    pt.x = 3000.0 * (p + 1);
    pt.x_label = std::to_string(3000 * (p + 1)) + " files";
    pt.wall_seconds = 5.0 * (p + 1);
    metrics::AveragedResult row;
    row.scheduler = "rest.2";
    row.runs = 5;
    row.makespan_minutes = 1234.5;
    row.transfers_per_site = 5000;
    pt.rows.push_back(row);
    r.points.push_back(std::move(pt));
  }
  return r;
}

JsonValue emit(const RunReport& r) {
  std::ostringstream out;
  r.write(out);
  return parse_json(out.str());
}

bool mentions(const std::vector<std::string>& violations,
              std::string_view needle) {
  for (const auto& v : violations)
    if (v.find(needle) != std::string::npos) return true;
  return false;
}

TEST(ReportSchema, WriterOutputValidates) {
  EXPECT_TRUE(validate_report(emit(sample_report())).empty());
}

TEST(ReportSchema, WriterWithPhasesValidates) {
  PhaseProfiler phases;
  phases.record(Phase::kSchedulerDecision, 1000000);
  RunReport r = sample_report();
  r.phases = &phases;
  JsonValue doc = emit(r);
  ASSERT_TRUE(doc.has("phases"));
  EXPECT_TRUE(validate_report(doc).empty());
}

TEST(ReportSchema, RejectsWrongVersion) {
  JsonValue doc = emit(sample_report());
  for (auto& [k, v] : doc.object)
    if (k == "schema_version") v.number = kReportSchemaVersion + 1;
  EXPECT_TRUE(mentions(validate_report(doc), "schema_version"));
  for (auto& [k, v] : doc.object)
    if (k == "schema_version") v.number = 0;
  EXPECT_TRUE(mentions(validate_report(doc), "schema_version"));
}

// v1 reports (no tenant sections) stay valid under the v2 validator.
TEST(ReportSchema, AcceptsV1Reports) {
  JsonValue doc = emit(sample_report());
  for (auto& [k, v] : doc.object)
    if (k == "schema_version") v.number = 1;
  EXPECT_TRUE(validate_report(doc).empty());
}

// A report with schema-v2 per-tenant sections on every row.
RunReport tenant_report() {
  RunReport r = sample_report();
  for (ReportPoint& pt : r.points)
    for (metrics::AveragedResult& row : pt.rows) {
      row.jain_fairness = 0.9;
      metrics::TenantResult t;
      t.name = "astro";
      t.weight = 3;
      t.tasks = 40;
      t.completed = 40;
      t.first_arrival_s = 10.0;
      t.time_to_first_task_s = 12.5;
      t.makespan_s = 1000.0;
      t.sojourn_mean_s = 50.0;
      t.sojourn_p50_s = 40.0;
      t.sojourn_p95_s = 90.0;
      t.sojourn_p99_s = 120.0;
      row.tenants.push_back(t);
      t.name = "bio";
      t.weight = 1;
      row.tenants.push_back(t);
    }
  return r;
}

TEST(ReportSchema, TenantSectionsValidateUnderV2) {
  JsonValue doc = emit(tenant_report());
  EXPECT_TRUE(validate_report(doc).empty());
}

TEST(ReportSchema, RejectsTenantSectionsUnderV1) {
  // Per-tenant sections are a v2 feature; a v1 report carrying them is
  // version drift, not a valid old report.
  JsonValue doc = emit(tenant_report());
  for (auto& [k, v] : doc.object)
    if (k == "schema_version") v.number = 1;
  EXPECT_TRUE(mentions(validate_report(doc), "schema_version >= 2"));
}

TEST(ReportSchema, RejectsBadTenantFields) {
  RunReport r = tenant_report();
  r.points[0].rows[0].jain_fairness = 1.5;
  EXPECT_TRUE(mentions(validate_report(emit(r)), "jain_fairness"));

  r = tenant_report();
  r.points[0].rows[0].tenants[0].weight = 0;
  EXPECT_TRUE(mentions(validate_report(emit(r)), "weight"));

  r = tenant_report();
  r.points[0].rows[0].tenants[1].name = "";
  EXPECT_TRUE(mentions(validate_report(emit(r)), "name"));
}

// A report with schema-v2 block-store dedup fields on every row.
RunReport dedup_report() {
  RunReport r = sample_report();
  for (ReportPoint& pt : r.points)
    for (metrics::AveragedResult& row : pt.rows) {
      row.total_gigabytes_saved = 42.5;
      row.dedup_ratio = 1.24;
    }
  return r;
}

TEST(ReportSchema, DedupFieldsValidateUnderV2) {
  JsonValue doc = emit(dedup_report());
  ASSERT_TRUE(doc.find("points")
                  ->array[0]
                  .find("schedulers")
                  ->array[0]
                  .has("dedup_ratio"));
  EXPECT_TRUE(validate_report(doc).empty());
}

TEST(ReportSchema, WholeFileRowsOmitDedupFields) {
  // bytes-saved == 0 (content overlap 0, so no block is shared) keeps
  // the exact v1 row shape — the optional fields never appear.
  JsonValue doc = emit(sample_report());
  const JsonValue& row =
      doc.find("points")->array[0].find("schedulers")->array[0];
  EXPECT_FALSE(row.has("total_gigabytes_saved"));
  EXPECT_FALSE(row.has("dedup_ratio"));
}

TEST(ReportSchema, RejectsDedupFieldsUnderV1) {
  JsonValue doc = emit(dedup_report());
  for (auto& [k, v] : doc.object)
    if (k == "schema_version") v.number = 1;
  EXPECT_TRUE(mentions(validate_report(doc), "schema_version >= 2"));
}

TEST(ReportSchema, RejectsBadDedupFields) {
  // A dedup ratio below 1 is arithmetically impossible (saved bytes are
  // non-negative), so the validator treats it as drift.
  RunReport r = dedup_report();
  r.points[0].rows[0].dedup_ratio = 0.8;
  EXPECT_TRUE(mentions(validate_report(emit(r)), "dedup_ratio"));
}

TEST(ReportSchema, RejectsMissingTopLevelKeys) {
  for (const char* key : {"bench", "config", "total_wall_seconds", "points"}) {
    JsonValue doc = emit(sample_report());
    std::erase_if(doc.object, [&](const auto& kv) { return kv.first == key; });
    EXPECT_TRUE(mentions(validate_report(doc), key)) << key;
  }
}

TEST(ReportSchema, RejectsEmptyPoints) {
  JsonValue doc = emit(sample_report());
  for (auto& [k, v] : doc.object)
    if (k == "points") v.array.clear();
  EXPECT_TRUE(mentions(validate_report(doc), "points"));
}

TEST(ReportSchema, RejectsNonMonotoneWallSeconds) {
  RunReport r = sample_report();
  r.points[1].wall_seconds = r.points[0].wall_seconds - 1;
  EXPECT_TRUE(mentions(validate_report(emit(r)), "wall_seconds"));
}

TEST(ReportSchema, RejectsNegativeMetric) {
  RunReport r = sample_report();
  r.points[0].rows[0].makespan_minutes = -1;
  EXPECT_TRUE(mentions(validate_report(emit(r)), "makespan_minutes"));
}

TEST(ReportSchema, RejectsZeroRunsAndEmptyNames) {
  RunReport r = sample_report();
  r.points[0].rows[0].runs = 0;
  EXPECT_TRUE(mentions(validate_report(emit(r)), "runs"));
  r = sample_report();
  r.points[0].rows[0].scheduler = "";
  EXPECT_TRUE(mentions(validate_report(emit(r)), "name"));
  r = sample_report();
  r.points[0].x_label = "";
  EXPECT_TRUE(mentions(validate_report(emit(r)), "x_label"));
}

TEST(ReportSchema, RejectsBadConfig) {
  RunReport r = sample_report();
  r.config.jobs = 0;
  EXPECT_TRUE(mentions(validate_report(emit(r)), "jobs"));
}

TEST(ReportSchema, RejectsNonObjectRoot) {
  JsonValue doc;
  doc.type = JsonValue::Type::kArray;
  EXPECT_FALSE(validate_report(doc).empty());
}

TEST(ReportSchema, FileRoundTripValidates) {
  const std::string path = ::testing::TempDir() + "wcs_report_schema.json";
  sample_report().write(path);
  EXPECT_TRUE(validate_report_file(path).empty());
  std::remove(path.c_str());
}

TEST(ReportSchema, FileErrorsBecomeViolations) {
  auto missing = validate_report_file("/nonexistent/wcs_report.json");
  ASSERT_EQ(missing.size(), 1u);

  const std::string path = ::testing::TempDir() + "wcs_report_garbage.json";
  std::ofstream(path) << "{ not json";
  auto garbage = validate_report_file(path);
  ASSERT_EQ(garbage.size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wcs::obs
