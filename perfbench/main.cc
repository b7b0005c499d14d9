// End-to-end and per-layer benchmark of the wcs simulator: one
// single-threaded process that measures one workload and prints every
// metric by name and unit, then one JSON result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//   perfbench --selftest     output check, traced/untraced agreement and
//                            the self-time identity on every workload
//   perfbench --print-pins   default-seed digests for output_check.cc
//
// A pass builds the workload from the seed and runs each of its
// simulations once. A run makes round(--seconds / pass_cost_s) passes
// (pass_cost_s is a constant per workload, so two builds measure the
// same work) and reports split-wise minima; README.md explains the
// statistics. With --trace 1, every other pass runs under the layer
// tracer (layer_trace.h) and the per-layer metrics come from the traced
// pass with the least CPU.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_stats.h"
#include "grid/grid_simulation.h"
#include "layer_trace.h"
#include "output_check.h"
#include "sched/factory.h"
#include "split_clock.h"
#include "workloads.h"

namespace perfbench {

namespace {

using wcs::grid::GridSimulation;
using wcs::obs::Phase;
using wcs::obs::PhaseProfiler;

// Safety stop: no pass starts after this much wall time, so a host many
// times slower than the reference still ends a run within the 180 s a
// run may take. It never fires at the reference speed; a run that hits
// it reports fewer passes than planned (printed with the metrics).
constexpr double kHardStopS = 140.0;
// Set-up samples (build + construct, no run) taken after each pass, so
// setup_s has many samples spread over the whole run.
constexpr std::size_t kSetupsPerPass = 8;
// Splits per simulation run for cpu_s (split_clock.h).
constexpr std::size_t kSplitsPerSim = 256;
// Spans kept in memory per traced simulation for --trace-out.
constexpr std::size_t kKeepSpansPerSim = 5000;

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process peak resident set (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::atof(line.c_str() + 6) / 1024.0;
  return 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Totals over a pass's simulations of what the simulator reports.
// Deterministic for a given seed.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t peak_live_events = 0;  // max over the simulations
  double sim_s = 0;
  std::uint64_t flows = 0;
  double bytes_delivered = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t file_transfers = 0;
  double bytes_moved = 0;
  double bytes_saved = 0;
  double waiting_s = 0;
  std::uint64_t evictions = 0;
  std::uint64_t replicated_files = 0;
  double replicated_bytes = 0;
  std::uint64_t assignments = 0;
  std::uint64_t replicas_started = 0;
  std::uint64_t replicas_cancelled = 0;

  void add(GridSimulation& sim, const wcs::metrics::RunResult& r) {
    events += r.events_executed;
    peak_live_events = std::max<std::uint64_t>(
        peak_live_events, sim.simulator().peak_live_events());
    sim_s += sim.simulator().now();
    const wcs::net::FlowManager& flows_mgr = sim.data_plane().flows();
    flows += flows_mgr.completed_flows() + flows_mgr.cancelled_flows();
    bytes_delivered += flows_mgr.bytes_delivered();
    cache_hits += r.total_cache_hits();
    file_transfers += r.total_file_transfers();
    bytes_moved += r.total_bytes_transferred();
    bytes_saved += r.total_bytes_saved();
    waiting_s += r.total_waiting_s();
    evictions += r.total_evictions();
    replicated_files += r.files_replicated;
    replicated_bytes += r.bytes_replicated;
    assignments += r.assignments;
    replicas_started += r.replicas_started;
    replicas_cancelled += r.replicas_cancelled;
  }
};

// Self times of a traced pass, in seconds, summed over its simulations.
struct Layers {
  double submit_s = 0;
  double decide_s = 0;
  double index_s = 0;
  double assign_s = 0;
  double dirty_s = 0;
  double rebalance_s = 0;
  double evict_s = 0;
  std::uint64_t decide_calls = 0;
  std::uint64_t index_calls = 0;
  std::uint64_t assign_calls = 0;
  std::uint64_t realloc_calls = 0;
  std::array<double, kNumCacheEvents> index_by_event_s{};
  std::array<std::uint64_t, kNumCacheEvents> index_by_event_calls{};

  [[nodiscard]] double self_sum_s() const {
    return submit_s + decide_s + index_s + assign_s + dirty_s + rebalance_s +
           evict_s;
  }
  [[nodiscard]] double min_self_s() const {
    return std::min({submit_s, decide_s, index_s, assign_s, dirty_s,
                     rebalance_s, evict_s});
  }

  void add(const LayerTotals& t, const PhaseProfiler& profiler) {
    auto s = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-9; };
    auto layer = [&t](Layer l) {
      return t.self_ns[static_cast<std::size_t>(l)];
    };
    submit_s += s(layer(Layer::kSubmit));
    decide_s += s(layer(Layer::kDecide));
    index_s += s(layer(Layer::kIndex));
    assign_s += s(layer(Layer::kAssign));
    decide_calls += t.calls[static_cast<std::size_t>(Layer::kDecide)];
    index_calls += t.calls[static_cast<std::size_t>(Layer::kIndex)];
    assign_calls += t.calls[static_cast<std::size_t>(Layer::kAssign)];
    for (std::size_t e = 0; e < kNumCacheEvents; ++e) {
      index_by_event_s[e] += s(t.index_self_ns[e]);
      index_by_event_calls[e] += t.index_calls[e];
    }
    auto phase_ns = [&profiler](Phase p) {
      return static_cast<std::int64_t>(profiler.slot(p).wall_ns);
    };
    dirty_s += s(phase_ns(Phase::kFlowDirtySet));
    rebalance_s += s(phase_ns(Phase::kFlowRebalance));
    realloc_calls += profiler.slot(Phase::kFlowRebalance).calls;
    evict_s += s(phase_ns(Phase::kCacheEviction) - t.evicted_listener_ns);
  }
};

struct TaggedSpan {
  std::size_t sim = 0;
  Span span;
};

// One pass: build the workload, then construct and run each simulation.
struct Pass {
  bool traced = false;
  std::vector<double> run_s;  // CPU of run(), per simulation (NaN: failed)
  // Untraced passes: per simulation, the CPU of each split of run().
  std::vector<std::vector<double>> splits;
  double run_total_s = 0;
  double run_wall_s = 0;
  std::uint64_t allocations = 0;  // heap allocations inside run()
  Counts counts;
  Layers layers;  // traced passes only
  std::vector<TaggedSpan> spans;
  std::vector<Digest> digests;
};

wcs::grid::GridConfig pinned_config(const SimCase& sc, bool traced) {
  wcs::grid::GridConfig c = sc.config;
  // Both default to the environment (WCS_AUDIT, WCS_OBS, WCS_TRACE) and
  // the build type; a measurement must depend on neither.
  c.audit = false;
  c.obs = wcs::obs::Options{};
  c.obs.profile = traced;
  return c;
}

void run_simulation(const SimCase& sc, const wcs::workload::Workload& work,
                    std::size_t index, Pass& pass, RunCheck& check) {
  const wcs::grid::GridConfig config = pinned_config(sc, pass.traced);
  std::unique_ptr<SpanRecorder> recorder;  // outlives the simulation
  std::vector<double> marks;               // split boundaries, CPU seconds

  std::unique_ptr<wcs::sched::Scheduler> scheduler =
      wcs::sched::make_scheduler(sc.scheduler, &work.arrivals);
  if (pass.traced) {
    recorder = std::make_unique<SpanRecorder>(kKeepSpansPerSim);
    scheduler =
        std::make_unique<TracedScheduler>(std::move(scheduler), *recorder);
  } else {
    marks.reserve(kSplitsPerSim + 2);
    const std::size_t every =
        std::max<std::size_t>(1, work.job.num_tasks() / kSplitsPerSim);
    scheduler =
        std::make_unique<SplitClock>(std::move(scheduler), every, marks);
  }
  GridSimulation sim(config, work, std::move(scheduler));
  const PhaseProfiler* profiler =
      pass.traced ? sim.observability()->profiler() : nullptr;
  if (recorder) recorder->set_profiler(profiler);

  const wcs::common::AllocSnapshot a0 = wcs::common::alloc_snapshot();
  const double w0 = wall_seconds();
  const double r0 = process_cpu_s();
  marks.push_back(r0);
  const wcs::metrics::RunResult result = sim.run();
  const double r1 = process_cpu_s();
  const double run_s = r1 - r0;
  pass.run_wall_s += wall_seconds() - w0;
  const wcs::common::AllocSnapshot a1 = wcs::common::alloc_snapshot();

  if (!pass.traced) {
    marks.push_back(r1);
    std::vector<double>& splits = pass.splits[index];
    for (std::size_t k = 1; k < marks.size(); ++k)
      splits.push_back(marks[k] - marks[k - 1]);
  }
  pass.run_s[index] = run_s;
  pass.run_total_s += run_s;
  pass.allocations += wcs::common::allocations_between(a0, a1);
  pass.counts.add(sim, result);
  pass.digests[index] = digest_of(result);
  check.record(index, work.job.num_tasks(), pass.digests[index]);
  if (recorder) {
    pass.layers.add(recorder->totals(), *profiler);
    for (const Span& s : recorder->take_spans())
      pass.spans.push_back({index, s});
  }
}

Pass run_pass(const WorkloadCase& wl, bool traced, RunCheck& check) {
  Pass pass;
  pass.traced = traced;
  pass.run_s.assign(wl.sims.size(),
                    std::numeric_limits<double>::quiet_NaN());
  pass.splits.resize(wl.sims.size());
  pass.digests.resize(wl.sims.size());
  try {
    const wcs::workload::Workload work =
        wcs::workload::build_workload(wl.generator);
    for (std::size_t i = 0; i < wl.sims.size(); ++i) {
      try {
        run_simulation(wl.sims[i], work, i, pass, check);
      } catch (const std::exception& e) {
        check.record_failure(i, e.what());
      }
    }
  } catch (const std::exception& e) {
    for (std::size_t i = 0; i < wl.sims.size(); ++i)
      check.record_failure(i, std::string("workload build: ") + e.what());
  }
  return pass;
}

struct SetupSample {
  double build_s = 0;
  double construct_s = 0;
  [[nodiscard]] double total_s() const { return build_s + construct_s; }
};

// Build the workload and construct every simulation without running
// them; destruction falls outside the measured intervals.
SetupSample setup_sample(const WorkloadCase& wl) {
  SetupSample s;
  const double b0 = process_cpu_s();
  const wcs::workload::Workload work =
      wcs::workload::build_workload(wl.generator);
  s.build_s = process_cpu_s() - b0;
  for (const SimCase& sc : wl.sims) {
    const double c0 = process_cpu_s();
    auto sim = std::make_unique<GridSimulation>(
        pinned_config(sc, false), work,
        wcs::sched::make_scheduler(sc.scheduler, &work.arrivals));
    s.construct_s += process_cpu_s() - c0;
  }
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Sum over simulations and their splits of each split's least CPU over
// the untraced passes, with `group` adjacent splits taken as one (0: the
// whole run as one, i.e. each simulation's least run() CPU). A
// simulation whose split counts differ between passes falls back to its
// least whole-run CPU.
double sum_of_split_minima(const std::vector<Pass>& passes,
                           std::size_t num_sims, std::size_t group) {
  double total = 0;
  for (std::size_t i = 0; i < num_sims; ++i) {
    std::vector<const std::vector<double>*> runs;
    for (const Pass& p : passes)
      if (!p.traced && !std::isnan(p.run_s[i])) runs.push_back(&p.splits[i]);
    if (runs.empty()) continue;
    const std::size_t n = runs.front()->size();
    bool aligned = n > 0;
    for (const std::vector<double>* r : runs) aligned = aligned && r->size() == n;
    if (!aligned) {
      double best = std::numeric_limits<double>::infinity();
      for (const Pass& p : passes)
        if (!p.traced && !std::isnan(p.run_s[i])) best = std::min(best, p.run_s[i]);
      total += best;
      continue;
    }
    const std::size_t width = group == 0 ? n : group;
    for (std::size_t k = 0; k < n; k += width) {
      double best = std::numeric_limits<double>::infinity();
      for (const std::vector<double>* r : runs) {
        double t = 0;
        for (std::size_t j = k; j < std::min(n, k + width); ++j) t += (*r)[j];
        best = std::min(best, t);
      }
      total += best;
    }
  }
  return total;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void print_result(const RunCheck& check, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-24s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              check.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(check.attempted()),
              static_cast<unsigned long long>(check.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Chrome trace_event JSON of the kept spans (timestamps in microseconds;
// one pid per simulation).
void write_spans(const std::string& path, const std::vector<TaggedSpan>& spans) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  static const char* const kEvents[kNumCacheEvents] = {"added", "evicted",
                                                       "accessed"};
  std::uint64_t t0 = spans.empty() ? 0 : spans.front().span.start_ns;
  for (const TaggedSpan& s : spans) t0 = std::min(t0, s.span.start_ns);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i].span;
    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":%zu,\"tid\":0,\"args\":{\"id\":%u,"
        "\"parent\":%u}}",
        i == 0 ? "" : ",\n", layer_name(s.layer),
        s.layer == Layer::kIndex ? kEvents[s.tag] : "hook",
        static_cast<double>(s.start_ns - t0) * 1e-3,
        static_cast<double>(s.end_ns - s.start_ns) * 1e-3, spans[i].sim,
        static_cast<unsigned>(s.id), static_cast<unsigned>(s.parent));
    out << buf;
  }
  out << "]}\n";
}

struct Args {
  enum class Mode { kRun, kSelftest, kPrintPins } mode = Mode::kRun;
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n"
               "       perfbench --selftest | --print-pins\n"
               "workloads: paper_closed wide_flows open_dedup\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage((flag + " needs a value").c_str());
      return argv[++i];
    };
    auto number = [&](const std::string& text) {
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0' || !(v >= 0))
        usage((flag + " needs a non-negative number").c_str());
      return v;
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      const std::string text = value();
      char* end = nullptr;
      a.seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || text[0] == '-' || *end != '\0')
        usage("--seed needs a non-negative integer");
    } else if (flag == "--seconds") {
      a.seconds = number(value());
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--selftest") {
      a.mode = Args::Mode::kSelftest;
    } else if (flag == "--print-pins") {
      a.mode = Args::Mode::kPrintPins;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.mode == Args::Mode::kRun) {
    if (!have_workload) usage("--workload is required");
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
      usage(("unknown workload " + a.workload).c_str());
  }
  return a;
}

const Pass* least_cpu(const std::vector<Pass>& passes, bool traced) {
  const Pass* best = nullptr;
  for (const Pass& p : passes)
    if (p.traced == traced && (best == nullptr || p.run_total_s < best->run_total_s))
      best = &p;
  return best;
}

std::vector<Metric> end_to_end_metrics(const WorkloadCase& wl,
                                       const std::vector<Pass>& passes,
                                       const std::vector<SetupSample>& setups) {
  const Pass& last = passes.back();
  std::vector<double> setup_s;
  for (const SetupSample& s : setups) setup_s.push_back(s.total_s());
  return {
      {"cpu_s", sum_of_split_minima(passes, wl.sims.size(), 1), "s"},
      {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"allocs_per_event",
       ratio(static_cast<double>(last.allocations),
             static_cast<double>(last.counts.events)),
       "ratio"},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<Pass>& passes,
                                      const std::vector<SetupSample>& setups) {
  const Pass& t = *least_cpu(passes, true);
  const Pass& u = *least_cpu(passes, false);
  double build_s = std::numeric_limits<double>::infinity();
  double construct_s = build_s;
  for (const SetupSample& s : setups) {
    build_s = std::min(build_s, s.build_s);
    construct_s = std::min(construct_s, s.construct_s);
  }
  const Layers& l = t.layers;
  const Counts& c = t.counts;
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"workload.build_s", build_s, "s"},
      {"grid.construct_s", construct_s, "s"},
      {"sched.submit_s", l.submit_s, "s"},
      {"sched.decide_s", l.decide_s, "s"},
      {"sched.decide_calls", count(l.decide_calls), "count"},
      {"sched.index_s", l.index_s, "s"},
      {"sched.index_calls", count(l.index_calls), "count"},
      {"grid.assign_s", l.assign_s, "s"},
      {"grid.assign_calls", count(l.assign_calls), "count"},
      {"net.dirty_s", l.dirty_s, "s"},
      {"net.rebalance_s", l.rebalance_s, "s"},
      {"net.realloc_calls", count(l.realloc_calls), "count"},
      {"storage.evict_s", l.evict_s, "s"},
      {"storage.evictions", count(c.evictions), "count"},
      {"grid.other_s", t.run_total_s - l.self_sum_s(), "s"},
      {"trace.overhead", ratio(t.run_total_s, u.run_total_s) - 1, "ratio"},
      {"sim.events", count(c.events), "count"},
      {"sim.peak_live_events", count(c.peak_live_events), "count"},
      {"sim.sim_s", c.sim_s, "s"},
      {"net.flows", count(c.flows), "count"},
      {"net.gb_delivered", c.bytes_delivered / 1e9, "GB"},
      {"storage.hit_ratio",
       ratio(count(c.cache_hits), count(c.cache_hits + c.file_transfers)),
       "ratio"},
      {"storage.dedup_ratio",
       c.bytes_moved > 0 ? (c.bytes_moved + c.bytes_saved) / c.bytes_moved : 1,
       "ratio"},
      {"storage.wait_h", c.waiting_s / 3600.0, "h"},
      {"replication.files", count(c.replicated_files), "count"},
      {"replication.gb", c.replicated_bytes / 1e9, "GB"},
      {"grid.assignments", count(c.assignments), "count"},
      {"grid.replica_waste",
       ratio(count(c.replicas_cancelled), count(c.replicas_started)), "ratio"},
  };
}

void print_layer_breakdown(const Pass& t) {
  static const char* const kEvents[kNumCacheEvents] = {"added", "evicted",
                                                       "accessed"};
  for (std::size_t e = 0; e < kNumCacheEvents; ++e)
    std::printf("  sched.index[%s] %.6f s over %llu calls\n", kEvents[e],
                t.layers.index_by_event_s[e],
                static_cast<unsigned long long>(t.layers.index_by_event_calls[e]));
  // Spans and phases are timed on the wall clock, the total is process
  // CPU: wall - CPU shows how much preemption can skew the split.
  std::printf("  traced pass: run CPU %.6f s, run wall - CPU %.6f s, layer "
              "self times %.6f s\n",
              t.run_total_s, t.run_wall_s - t.run_total_s,
              t.layers.self_sum_s());
}

int run(const Args& args) {
  if (!wcs::common::alloc_counting_enabled()) {
    std::fprintf(stderr,
                 "perfbench: heap-allocation counting is compiled out "
                 "(sanitizer build); allocs_per_event cannot be measured\n");
    return 3;
  }
  const WorkloadCase wl = make_workload(args.workload, args.seed);
  std::size_t passes = static_cast<std::size_t>(
      std::lround(args.seconds / wl.pass_cost_s));
  passes = std::max<std::size_t>(passes, args.trace ? 4 : 3);
  if (args.trace) passes += passes % 2;  // as many traced as untraced

  RunCheck check(wl.name, args.seed, wl.sims.size());
  std::vector<Pass> done;
  std::vector<SetupSample> setups;
  const double start = wall_seconds();
  for (std::size_t k = 0; k < passes; ++k) {
    if (wall_seconds() - start > kHardStopS && k >= (args.trace ? 2 : 1) &&
        (!args.trace || k % 2 == 0))
      break;
    done.push_back(run_pass(wl, args.trace && k % 2 == 1, check));
    for (std::size_t e = 0; e < kSetupsPerPass; ++e)
      setups.push_back(setup_sample(wl));
  }
  std::printf("%s seed %llu: %zu of %zu passes, %zu set-up samples, %.1f s "
              "wall\n",
              wl.name.c_str(), static_cast<unsigned long long>(args.seed),
              done.size(), passes, setups.size(), wall_seconds() - start);
  std::printf("run CPU per pass (s):");
  for (const Pass& p : done)
    std::printf(" %.4f%s", p.run_total_s, p.traced ? "t" : "");
  std::vector<double> setup_s;
  for (const SetupSample& s : setups) setup_s.push_back(s.total_s());
  std::sort(setup_s.begin(), setup_s.end());
  std::printf("\nset-up samples (s): min %.5f median %.5f max %.5f\n",
              setup_s.front(), median(setup_s), setup_s.back());
  if (!args.trace) {
    std::printf("cpu_s over whole runs instead of splits: %.4f s\n",
                sum_of_split_minima(done, wl.sims.size(), 0));
    print_result(check, end_to_end_metrics(wl, done, setups));
    return 0;
  }
  const Pass& traced = *least_cpu(done, true);
  print_layer_breakdown(traced);
  if (!args.trace_out.empty()) write_spans(args.trace_out, traced.spans);
  print_result(check, per_layer_metrics(done, setups));
  return 0;
}

int print_pins() {
  for (const std::string& name : workload_names()) {
    const WorkloadCase wl = make_workload(name, kDefaultSeed);
    RunCheck check(wl.name, kDefaultSeed, wl.sims.size());
    const Pass pass = run_pass(wl, false, check);
    for (std::size_t i = 0; i < wl.sims.size(); ++i)
      std::printf("%s  // %s\n", pin_line(name, i, pass.digests[i]).c_str(),
                  wl.sims[i].scheduler.name().c_str());
  }
  return 0;
}

int selftest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    std::fflush(stdout);
    if (!ok) ++failures;
  };
  expect(wcs::common::alloc_counting_enabled(),
         "heap-allocation counting is compiled in");
  for (const std::string& name : workload_names()) {
    const WorkloadCase wl = make_workload(name, kDefaultSeed);
    RunCheck check(wl.name, kDefaultSeed, wl.sims.size());
    const Pass plain = run_pass(wl, false, check);
    const Pass traced = run_pass(wl, true, check);
    bool pinned = true;
    for (std::size_t i = 0; i < wl.sims.size(); ++i)
      pinned = pinned && pinned_digest(name, i) != nullptr;
    expect(pinned, name + ": every simulation has a pinned result");
    expect(check.attempted() == 2 * wl.sims.size() && check.failed() == 0,
           name + ": untraced and traced passes both match the pinned "
                  "results");
    const Layers& l = traced.layers;
    expect(l.decide_calls > 0 && l.assign_calls > 0 && l.index_calls > 0,
           name + ": decorator, proxy and listener spans all recorded");
    expect(l.min_self_s() >= 0, name + ": every layer self time is >= 0");
    // Spans and phases use the wall clock, so their self times must fit
    // in the traced wall time exactly. grid.other_s is the traced CPU
    // minus those self times; it must not be negative, up to a slack for
    // the two clocks (1% of the CPU plus 2 ms). Preemption inside a span
    // (wall - CPU, printed) can break this bound, not a correct tracer.
    const double other = traced.run_total_s - l.self_sum_s();
    const double slack = 0.01 * traced.run_total_s + 0.002;
    char what[240];
    std::snprintf(what, sizeof what,
                  ": layer self times %.4f s fit in the traced run's wall "
                  "time %.4f s",
                  l.self_sum_s(), traced.run_wall_s);
    expect(l.self_sum_s() <= traced.run_wall_s, name + what);
    std::snprintf(what, sizeof what,
                  ": grid.other_s %.4f s >= -%.4f s (traced CPU %.4f s, "
                  "wall - CPU %.4f s)",
                  other, slack, traced.run_total_s,
                  traced.run_wall_s - traced.run_total_s);
    expect(other >= -slack, name + what);
    expect(plain.counts.events == traced.counts.events &&
               plain.counts.flows == traced.counts.flows &&
               plain.counts.replicated_files == traced.counts.replicated_files,
           name + ": tracing leaves event, flow and replication counts "
                  "unchanged");
  }

  const Digest* pin = pinned_digest("paper_closed", 0);
  expect(pin != nullptr && check_output(*pin, 6000, pin, pin).empty(),
         "output check accepts the pinned result");
  if (pin != nullptr) {
    const auto rejects = [&](Digest d, const char* field) {
      expect(!check_output(d, 6000, pin, nullptr).empty(),
             std::string("output check rejects a perturbed ") + field);
    };
    Digest d = *pin;
    d.makespan_bits ^= 1;  // one ulp
    rejects(d, "makespan");
    d = *pin;
    d.events += 1;
    rejects(d, "event count");
    d = *pin;
    d.file_transfers -= 1;
    rejects(d, "transfer count");
    d = *pin;
    d.bytes_bits ^= 1;
    rejects(d, "byte total");
    d = *pin;
    d.tasks_completed -= 1;
    expect(!check_output(d, 6000, nullptr, nullptr).empty(),
           "output check rejects an incomplete run on any seed");
    expect(!check_output(*pin, 6000, nullptr, &d).empty(),
           "output check rejects a result that differs from an earlier "
           "pass");
  }
  if (failures == 0) {
    std::printf("selftest ok\n");
    return 0;
  }
  std::printf("selftest FAILED (%d)\n", failures);
  return 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  wcs::workload::register_builtin_generators();
  try {
    switch (args.mode) {
      case perfbench::Args::Mode::kSelftest: return perfbench::selftest();
      case perfbench::Args::Mode::kPrintPins: return perfbench::print_pins();
      case perfbench::Args::Mode::kRun: return perfbench::run(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  return 1;
}
