// BM_EndToEnd: the memory-lean acceptance benchmark (DESIGN.md §Memory
// layout). Runs one worker-centric ("rest") simulation over a uniform
// bag-of-tasks workload at 100k and 1M tasks (10M behind
// WCS_BENCH_10M=1) on a 100-site x 100-worker grid and reports for each
// run:
//
//   wall time, events/sec        host clock around GridSimulation::run()
//   peak RSS                     /proc/self VmHWM (reset per run when the
//                                kernel supports clear_refs), getrusage
//                                fallback
//   event-loop heap allocations  global operator-new counter delta
//                                across run() (0 under sanitizers)
//
// The acceptance gate is the allocation rate: the pooled/slotted hot
// structures must average under kMaxAllocsPerEvent event-loop heap
// allocations per executed event at every scale. (The node-based
// --legacy-layout A/B baseline this bench originally compared against
// was removed after one PR of soak; the historical ratio was >= 3x.)
//
// Unlike the figure benches this is not a scenario-catalog shim — the
// sweep axis is the task scale — but it speaks the same CLI subset
// reproduce.sh drives (--fast/--audit/--jobs/--csv) and emits a
// schema-v1 run report (results/bench_memlean.json) plus the canonical
// summary results/BENCH_memlean.json consumed by
// scripts/check_rss_budget.sh.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/alloc_stats.h"
#include "common/check.h"
#include "grid/grid_simulation.h"
#include "obs/json.h"
#include "sched/factory.h"
#include "workload/generators.h"

namespace {

// Event-loop heap-allocation budget, per executed event. The steady
// state is pooled and allocation-free; the budget covers warmup growth
// (slot tables, id indexes, callback captures) amortized over the run,
// which dominates small scales (measured: ~0.89 at 5k tasks, ~0.51 at
// 100k, falling with scale). Any per-event allocation on the hot path
// pushes the rate past 1.0 immediately, so the gate still bites.
constexpr double kMaxAllocsPerEvent = 1.0;

struct Options {
  bool fast = false;   // skip the 1M point
  bool audit = false;  // audited 100k runs (never at >= 1M; sweeps are O(n))
  std::size_t tasks_override = 0;  // replace the standard scales (CI/ASan)
  std::string csv_path = "results/bench_memlean.csv";
  std::string report_path = "results/bench_memlean.json";
  std::string summary_path = "results/BENCH_memlean.json";
};

struct Measurement {
  std::size_t tasks = 0;
  std::string scale_label;
  wcs::metrics::RunResult result;
  double wall_s = 0;
  double events_per_s = 0;
  double peak_rss_mb = 0;
  double rss_before_mb = 0;  // floor inherited from earlier runs (malloc
                             // retains freed pages), for reading peaks
  std::uint64_t event_loop_allocations = 0;  // 0 when counting disabled
};

// Best-effort reset of the kernel's peak-RSS watermark so each run
// reports its own high-water mark instead of the process maximum.
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (f) f << "5\n";
}

// One "Vm...: N kB" field of /proc/self/status, in megabytes; < 0 when
// /proc is unavailable.
double proc_status_mb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      long kb = std::atol(line.c_str() + key_len);
      if (kb > 0) return static_cast<double>(kb) / 1024.0;
    }
  }
  return -1.0;
}

// Peak RSS in megabytes: VmHWM from /proc (resettable via clear_refs),
// falling back to getrusage(RUSAGE_SELF) where /proc is unavailable.
double peak_rss_mb() {
  const double hwm = proc_status_mb("VmHWM:");
  if (hwm >= 0) return hwm;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

// Current RSS: the floor a later run inherits (malloc retains freed
// pages), recorded so peak numbers of non-first runs can be read fairly.
double current_rss_mb() {
  const double rss = proc_status_mb("VmRSS:");
  return rss >= 0 ? rss : 0.0;
}

double allocs_per_event(const Measurement& m) {
  return m.result.events_executed > 0
             ? static_cast<double>(m.event_loop_allocations) /
                   static_cast<double>(m.result.events_executed)
             : 0.0;
}

Measurement run_point(const wcs::workload::Workload& wl, std::size_t tasks,
                      const std::string& scale_label, bool audit) {
  Measurement m;
  m.tasks = tasks;
  m.scale_label = scale_label;

  wcs::grid::GridConfig config;
  config.tiers.num_sites = 100;
  config.tiers.workers_per_site = 100;
  config.tiers.seed = 17;
  config.capacity_files = 1200;  // worst-case pins 3 x 100 = 300
  config.audit = audit;
  config.obs = wcs::obs::Options{};  // measure the bare event loop

  wcs::sched::SchedulerSpec spec;  // "rest", the paper's headline metric
  auto scheduler = wcs::sched::make_scheduler(spec);

  reset_peak_rss();
  m.rss_before_mb = current_rss_mb();
  wcs::grid::GridSimulation sim(config, wl, std::move(scheduler));

  const auto alloc_before = wcs::common::alloc_snapshot();
  // detlint: nondet-source -- bench wall-clock measurement, reported as metadata only
  const auto t0 = std::chrono::steady_clock::now();
  m.result = sim.run();
  // detlint: nondet-source -- bench wall-clock measurement, reported as metadata only
  const auto t1 = std::chrono::steady_clock::now();
  const auto alloc_after = wcs::common::alloc_snapshot();

  m.wall_s = std::chrono::duration<double>(t1 - t0).count();
  m.events_per_s =
      m.wall_s > 0
          ? static_cast<double>(m.result.events_executed) / m.wall_s
          : 0;
  m.peak_rss_mb = peak_rss_mb();
  m.event_loop_allocations =
      wcs::common::allocations_between(alloc_before, alloc_after);

  WCS_CHECK_EQ(m.result.tasks_completed, tasks);
  std::printf(
      "BM_EndToEnd_%s  wall %8.2fs  %10.0f events/s  "
      "peak RSS %8.1f MB  %12llu event-loop allocs\n",
      scale_label.c_str(), m.wall_s, m.events_per_s, m.peak_rss_mb,
      static_cast<unsigned long long>(m.event_loop_allocations));
  std::fflush(stdout);
  return m;
}

void write_scheduler_row(wcs::obs::JsonWriter& w, const Measurement& m) {
  const auto& r = m.result;
  w.begin_object();
  w.member("name", "rest.flat");
  w.member("runs", std::uint64_t{1});
  w.member("makespan_minutes", r.makespan_minutes());
  w.member("transfers_per_site", r.transfers_per_site());
  w.member("total_file_transfers",
           static_cast<double>(r.total_file_transfers()));
  w.member("total_gigabytes", r.total_bytes_transferred() / 1.0e9);
  w.member("waiting_hours_per_site", r.waiting_hours_per_site());
  w.member("transfer_hours_per_site", r.transfer_hours_per_site());
  w.member("replicas_started", static_cast<double>(r.replicas_started));
  w.end_object();
}

void write_memlean_entry(wcs::obs::JsonWriter& w, const Measurement& m) {
  w.begin_object();
  w.member("scale", m.scale_label);
  w.member("tasks", static_cast<std::uint64_t>(m.tasks));
  w.member("workers", std::uint64_t{10000});
  // Constant since the node-based legacy layout was dropped; kept so
  // consumers (scripts/check_rss_budget.sh) key on a stable field.
  w.member("layout", "flat");
  w.member("wall_seconds", m.wall_s);
  w.member("events", static_cast<std::uint64_t>(m.result.events_executed));
  w.member("events_per_second", m.events_per_s);
  w.member("peak_rss_mb", m.peak_rss_mb);
  w.member("rss_before_mb", m.rss_before_mb);
  w.member("event_loop_allocations", m.event_loop_allocations);
  w.member("allocations_per_event", allocs_per_event(m));
  w.end_object();
}

// Schema-v1 run report: one point per scale, one scheduler row each,
// plus a "memlean" payload (the validator tolerates extra keys).
void write_report(const Options& opt,
                  const std::vector<Measurement>& measurements,
                  std::size_t max_tasks, double total_wall_s) {
  std::filesystem::path path(opt.report_path);
  if (path.has_parent_path())
    std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  WCS_CHECK_MSG(out.good(), "cannot write " << opt.report_path);

  wcs::obs::JsonWriter w(out);
  w.begin_object();
  w.member("schema_version", 1);
  w.member("bench", "bench_memlean");
  w.member("title", "Memory-lean end-to-end: hot-structure scaling sweep");
  w.member("x_axis", "tasks");
  w.member("metric", "events_per_second");
  w.key("config");
  w.begin_object();
  w.member("tasks", static_cast<std::uint64_t>(max_tasks));
  w.member("seeds", std::uint64_t{1});
  w.member("jobs", std::uint64_t{1});
  w.member("fast", opt.fast);
  w.member("audit", opt.audit);
  w.member("trace", false);
  w.end_object();
  w.member("total_wall_seconds", total_wall_s);

  w.key("points");
  w.begin_array();
  double cumulative_wall = 0;
  for (const Measurement& m : measurements) {
    cumulative_wall += m.wall_s;
    w.begin_object();
    w.member("x", static_cast<double>(m.tasks));
    w.member("x_label", m.scale_label);
    w.member("wall_seconds", cumulative_wall);
    w.key("schedulers");
    w.begin_array();
    write_scheduler_row(w, m);
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("memlean");
  w.begin_array();
  for (const Measurement& m : measurements) write_memlean_entry(w, m);
  w.end_array();
  w.end_object();
  out << "\n";
}

// Canonical summary (capital BENCH_ keeps it out of the report-lint
// glob): events/sec and peak RSS per scale, plus the per-event
// allocation rates. scripts/check_rss_budget.sh reads peak_rss_mb of
// the 100k entry.
void write_summary(const Options& opt,
                   const std::vector<Measurement>& measurements) {
  std::filesystem::path path(opt.summary_path);
  if (path.has_parent_path())
    std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  WCS_CHECK_MSG(out.good(), "cannot write " << opt.summary_path);

  wcs::obs::JsonWriter w(out);
  w.begin_object();
  w.member("bench", "bench_memlean");
  w.member("alloc_counting",
           wcs::common::alloc_counting_enabled());
  w.key("runs");
  w.begin_array();
  for (const Measurement& m : measurements) write_memlean_entry(w, m);
  w.end_array();
  w.key("allocs_per_event");
  w.begin_object();
  for (const Measurement& m : measurements)
    w.member(m.scale_label, allocs_per_event(m));
  w.end_object();
  w.end_object();
  out << "\n";
}

void write_csv(const Options& opt,
               const std::vector<Measurement>& measurements) {
  std::filesystem::path path(opt.csv_path);
  if (path.has_parent_path())
    std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  WCS_CHECK_MSG(out.good(), "cannot write " << opt.csv_path);
  out << "tasks,wall_seconds,events,events_per_second,peak_rss_mb,"
         "event_loop_allocations\n";
  for (const Measurement& m : measurements) {
    out << m.tasks << ',' << m.wall_s << ','
        << m.result.events_executed << ',' << m.events_per_s << ','
        << m.peak_rss_mb << ',' << m.event_loop_allocations << "\n";
  }
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      WCS_CHECK_MSG(i + 1 < argc, a << " needs an argument");
      return argv[++i];
    };
    if (a == "--fast") {
      opt.fast = true;
    } else if (a == "--audit") {
      opt.audit = true;
    } else if (a == "--jobs") {
      next();  // accepted for reproduce.sh compatibility; runs are serial
    } else if (a == "--tasks") {
      opt.tasks_override = static_cast<std::size_t>(
          std::strtoull(next().c_str(), nullptr, 10));
      WCS_CHECK_MSG(opt.tasks_override > 0, "--tasks needs a positive count");
    } else if (a == "--csv") {
      opt.csv_path = next();
    } else if (a == "--report") {
      opt.report_path = next();
    } else if (a == "--summary") {
      opt.summary_path = next();
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "bench_memlean: end-to-end memory-layout scaling bench\n"
          "  --fast            100k point only (skip the 1M runs)\n"
          "  --audit           run the invariant auditor at the 100k point\n"
          "  --jobs N          accepted, ignored (runs are serial)\n"
          "  --tasks N         single custom-scale point (CI / sanitizers)\n"
          "  --csv PATH        CSV output (default results/bench_memlean.csv)\n"
          "  --report PATH     schema-v1 report (default "
          "results/bench_memlean.json)\n"
          "  --summary PATH    canonical summary (default "
          "results/BENCH_memlean.json)\n"
          "  WCS_BENCH_10M=1   append a 10M-task smoke run\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", a.c_str());
      std::exit(2);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  // detlint: nondet-source -- bench wall-clock measurement, reported as metadata only
  const auto bench_start = std::chrono::steady_clock::now();

  struct Scale {
    std::size_t tasks;
    const char* label;
  };
  std::vector<Scale> scales = {{100'000, "100k"}};
  if (!opt.fast) scales.push_back({1'000'000, "1M"});
  // detlint: nondet-source -- WCS_BENCH_10M scale gate for the bench harness, not simulation state
  const char* env_10m = std::getenv("WCS_BENCH_10M");
  if (env_10m != nullptr && std::strcmp(env_10m, "1") == 0)
    scales.push_back({10'000'000, "10M"});
  std::string custom_label;
  if (opt.tasks_override != 0) {
    custom_label = std::to_string(opt.tasks_override);
    scales = {{opt.tasks_override, custom_label.c_str()}};
  }

  std::vector<Measurement> measurements;
  for (const Scale& scale : scales) {
    wcs::workload::GeneratorParams gp;
    gp.num_tasks = scale.tasks;
    gp.num_files = scale.tasks / 5;  // ~15x sharing at 3 files/task
    gp.files_per_task = 3;
    gp.seed = 1;
    const wcs::workload::Workload wl{wcs::workload::generate_uniform(gp)};

    const bool audit = opt.audit && scale.tasks <= 100'000;
    measurements.push_back(run_point(wl, scale.tasks, scale.label, audit));
    if (wcs::common::alloc_counting_enabled()) {
      const double rate = allocs_per_event(measurements.back());
      std::printf("  %s: %.4f event-loop allocations/event\n", scale.label,
                  rate);
      WCS_CHECK_MSG(rate <= kMaxAllocsPerEvent,
                    "event loop must average <= " << kMaxAllocsPerEvent
                        << " heap allocations per event at " << scale.label
                        << "; measured " << rate);
    }
  }

  const double total_wall_s =
      // detlint: nondet-source -- bench wall-clock measurement, reported as metadata only
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();
  const std::size_t max_tasks = scales.back().tasks;
  write_csv(opt, measurements);
  write_report(opt, measurements, max_tasks, total_wall_s);
  write_summary(opt, measurements);
  std::printf("wrote %s, %s, %s (%.1fs total)\n", opt.csv_path.c_str(),
              opt.report_path.c_str(), opt.summary_path.c_str(), total_wall_s);
  return 0;
}
