#include "obs/run_report.h"

#include <filesystem>
#include <fstream>

#include "common/check.h"

namespace wcs::obs {

void RunReport::write(std::ostream& out) const {
  JsonWriter w(out);
  w.begin_object();
  w.member("schema_version", kReportSchemaVersion);
  w.member("bench", bench);
  w.member("title", title);
  w.member("x_axis", x_axis);
  w.member("metric", metric);
  w.key("config");
  w.begin_object();
  w.member("tasks", config.tasks);
  w.member("seeds", config.seeds);
  w.member("jobs", config.jobs);
  w.member("fast", config.fast);
  w.member("audit", config.audit);
  w.member("trace", config.trace);
  w.end_object();
  w.member("total_wall_seconds", total_wall_seconds);
  w.key("points");
  w.begin_array();
  for (const ReportPoint& pt : points) {
    w.begin_object();
    w.member("x", pt.x);
    w.member("x_label", pt.x_label);
    w.member("wall_seconds", pt.wall_seconds);
    w.key("schedulers");
    w.begin_array();
    for (const metrics::AveragedResult& r : pt.rows) {
      w.begin_object();
      w.member("name", r.scheduler);
      w.member("runs", r.runs);
      w.member("makespan_minutes", r.makespan_minutes);
      w.member("transfers_per_site", r.transfers_per_site);
      w.member("total_file_transfers", r.total_file_transfers);
      w.member("total_gigabytes", r.total_gigabytes);
      w.member("waiting_hours_per_site", r.waiting_hours_per_site);
      w.member("transfer_hours_per_site", r.transfer_hours_per_site);
      w.member("replicas_started", r.replicas_started);
      if (r.total_gigabytes_saved > 0) {
        w.member("total_gigabytes_saved", r.total_gigabytes_saved);
        w.member("dedup_ratio", r.dedup_ratio);
      }
      if (!r.tenants.empty()) {
        w.member("jain_fairness", r.jain_fairness);
        w.key("tenants");
        w.begin_array();
        for (const metrics::TenantResult& t : r.tenants) {
          w.begin_object();
          w.member("name", t.name);
          w.member("weight", t.weight);
          w.member("tasks", t.tasks);
          w.member("completed", t.completed);
          w.member("first_arrival_s", t.first_arrival_s);
          w.member("time_to_first_task_s", t.time_to_first_task_s);
          w.member("makespan_s", t.makespan_s);
          w.member("sojourn_mean_s", t.sojourn_mean_s);
          w.member("sojourn_p50_s", t.sojourn_p50_s);
          w.member("sojourn_p95_s", t.sojourn_p95_s);
          w.member("sojourn_p99_s", t.sojourn_p99_s);
          w.end_object();
        }
        w.end_array();
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  if (phases) {
    w.key("phases");
    phases->write_json(w);
  }
  w.end_object();
}

void RunReport::write(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path);
  WCS_CHECK_MSG(out.good(), "cannot open report output " << path);
  write(out);
}

namespace {

class Validator {
 public:
  Validator(const JsonValue& doc, const std::string& label)
      : doc_(doc), label_(label) {}

  std::vector<std::string> run() {
    if (!doc_.is_object()) {
      complain("", "top level must be a JSON object");
      return std::move(errors_);
    }
    check_version();
    require_string("bench", /*non_empty=*/true);
    require_string("title", false);
    require_string("x_axis", false);
    require_string("metric", false);
    check_config();
    require_number("total_wall_seconds", doc_, 0.0);
    check_points();
    check_phases();
    return std::move(errors_);
  }

 private:
  void complain(const std::string& where, const std::string& what) {
    errors_.push_back(label_ + (where.empty() ? "" : ": " + where) + ": " +
                      what);
  }

  void check_version() {
    const JsonValue* v = doc_.find("schema_version");
    if (!v || !v->is_number()) {
      complain("schema_version", "missing or not a number");
      return;
    }
    if (v->number < kMinReportSchemaVersion ||
        v->number > kReportSchemaVersion) {
      complain("schema_version",
               "unsupported version " + json_number(v->number) + " (want " +
                   std::to_string(kMinReportSchemaVersion) + ".." +
                   std::to_string(kReportSchemaVersion) + ")");
      return;
    }
    version_ = static_cast<int>(v->number);
  }

  void require_string(const std::string& key, bool non_empty) {
    const JsonValue* v = doc_.find(key);
    if (!v || !v->is_string())
      complain(key, "missing or not a string");
    else if (non_empty && v->string.empty())
      complain(key, "must not be empty");
  }

  // key must exist in `in`, be a number, and be >= min.
  bool require_number(const std::string& key, const JsonValue& in,
                      double min, const std::string& where = "") {
    const std::string at = where.empty() ? key : where + "." + key;
    const JsonValue* v = in.find(key);
    if (!v || !v->is_number()) {
      complain(at, "missing or not a number");
      return false;
    }
    if (v->number < min) {
      complain(at, "must be >= " + json_number(min) + ", got " +
                       json_number(v->number));
      return false;
    }
    return true;
  }

  void require_bool(const std::string& key, const JsonValue& in,
                    const std::string& where) {
    const JsonValue* v = in.find(key);
    if (!v || !v->is_bool()) complain(where + "." + key, "missing or not a bool");
  }

  void check_config() {
    const JsonValue* c = doc_.find("config");
    if (!c || !c->is_object()) {
      complain("config", "missing or not an object");
      return;
    }
    require_number("tasks", *c, 1, "config");
    require_number("seeds", *c, 1, "config");
    require_number("jobs", *c, 1, "config");
    require_bool("fast", *c, "config");
    require_bool("audit", *c, "config");
    require_bool("trace", *c, "config");
  }

  void check_points() {
    const JsonValue* pts = doc_.find("points");
    if (!pts || !pts->is_array()) {
      complain("points", "missing or not an array");
      return;
    }
    if (pts->array.empty()) {
      complain("points", "must contain at least one sweep point");
      return;
    }
    double prev_wall = 0;
    for (std::size_t i = 0; i < pts->array.size(); ++i) {
      const std::string at = "points[" + std::to_string(i) + "]";
      const JsonValue& pt = pts->array[i];
      if (!pt.is_object()) {
        complain(at, "not an object");
        continue;
      }
      const JsonValue* x = pt.find("x");
      if (!x || !x->is_number()) complain(at + ".x", "missing or not a number");
      const JsonValue* label = pt.find("x_label");
      if (!label || !label->is_string() || label->string.empty())
        complain(at + ".x_label", "missing, not a string, or empty");
      if (require_number("wall_seconds", pt, 0.0, at)) {
        const double wall = pt.find("wall_seconds")->number;
        if (wall < prev_wall)
          complain(at + ".wall_seconds",
                   "timestamps must be monotone non-decreasing (" +
                       json_number(wall) + " after " + json_number(prev_wall) +
                       ")");
        prev_wall = wall;
      }
      check_schedulers(pt, at);
    }
  }

  void check_schedulers(const JsonValue& pt, const std::string& at) {
    const JsonValue* rows = pt.find("schedulers");
    if (!rows || !rows->is_array() || rows->array.empty()) {
      complain(at + ".schedulers", "missing, not an array, or empty");
      return;
    }
    static const char* kNumericKeys[] = {
        "makespan_minutes",        "transfers_per_site",
        "total_file_transfers",    "total_gigabytes",
        "waiting_hours_per_site",  "transfer_hours_per_site",
        "replicas_started",
    };
    for (std::size_t i = 0; i < rows->array.size(); ++i) {
      const std::string rat = at + ".schedulers[" + std::to_string(i) + "]";
      const JsonValue& row = rows->array[i];
      if (!row.is_object()) {
        complain(rat, "not an object");
        continue;
      }
      const JsonValue* name = row.find("name");
      if (!name || !name->is_string() || name->string.empty())
        complain(rat + ".name", "missing, not a string, or empty");
      require_number("runs", row, 1, rat);
      for (const char* key : kNumericKeys) require_number(key, row, 0.0, rat);
      check_dedup(row, rat);
      check_tenants(row, rat);
    }
  }

  // Schema-v2 block-store dedup fields (optional; emitted together, and
  // a v1 row carrying them is a violation).
  void check_dedup(const JsonValue& row, const std::string& rat) {
    const JsonValue* saved = row.find("total_gigabytes_saved");
    const JsonValue* ratio = row.find("dedup_ratio");
    if (!saved && !ratio) return;
    if (version_ < 2) {
      complain(rat, "dedup fields require schema_version >= 2");
      return;
    }
    require_number("total_gigabytes_saved", row, 0.0, rat);
    require_number("dedup_ratio", row, 1.0, rat);
  }

  // Schema-v2 per-tenant sections (optional; a v1 row carrying them is
  // a violation — the writer that emits them stamps version 2).
  void check_tenants(const JsonValue& row, const std::string& rat) {
    const JsonValue* tenants = row.find("tenants");
    const JsonValue* jain = row.find("jain_fairness");
    if (!tenants && !jain) return;
    if (version_ < 2) {
      complain(rat, "per-tenant sections require schema_version >= 2");
      return;
    }
    if (!jain || !jain->is_number() || jain->number < 0 ||
        jain->number > 1 + 1e-9)
      complain(rat + ".jain_fairness",
               "missing, not a number, or outside [0, 1]");
    if (!tenants || !tenants->is_array() || tenants->array.empty()) {
      complain(rat + ".tenants", "missing, not an array, or empty");
      return;
    }
    static const char* kTenantNumericKeys[] = {
        "tasks",          "completed",      "first_arrival_s",
        "makespan_s",     "sojourn_mean_s", "sojourn_p50_s",
        "sojourn_p95_s",  "sojourn_p99_s",
    };
    for (std::size_t i = 0; i < tenants->array.size(); ++i) {
      const std::string tat = rat + ".tenants[" + std::to_string(i) + "]";
      const JsonValue& t = tenants->array[i];
      if (!t.is_object()) {
        complain(tat, "not an object");
        continue;
      }
      const JsonValue* name = t.find("name");
      if (!name || !name->is_string() || name->string.empty())
        complain(tat + ".name", "missing, not a string, or empty");
      require_number("weight", t, 1, tat);
      for (const char* key : kTenantNumericKeys)
        require_number(key, t, 0.0, tat);
      // -1 is the "never assigned" sentinel.
      require_number("time_to_first_task_s", t, -1.0, tat);
    }
  }

  void check_phases() {
    const JsonValue* phases = doc_.find("phases");
    if (!phases) return;  // optional
    if (!phases->is_array()) {
      complain("phases", "not an array");
      return;
    }
    for (std::size_t i = 0; i < phases->array.size(); ++i) {
      const std::string at = "phases[" + std::to_string(i) + "]";
      const JsonValue& ph = phases->array[i];
      if (!ph.is_object()) {
        complain(at, "not an object");
        continue;
      }
      const JsonValue* name = ph.find("phase");
      if (!name || !name->is_string())
        complain(at + ".phase", "missing or not a string");
      require_number("calls", ph, 1, at);
      require_number("wall_ms", ph, 0.0, at);
    }
  }

  const JsonValue& doc_;
  std::string label_;
  std::vector<std::string> errors_;
  int version_ = kReportSchemaVersion;
};

}  // namespace

std::vector<std::string> validate_report(const JsonValue& doc,
                                         const std::string& label) {
  return Validator(doc, label).run();
}

std::vector<std::string> validate_report_file(const std::string& path) {
  try {
    return validate_report(parse_json_file(path), path);
  } catch (const std::exception& e) {
    return {path + ": " + e.what()};
  }
}

}  // namespace wcs::obs
