#include "scenario/cli.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <type_traits>

#include "scenario/catalog.h"
#include "scenario/runner.h"
#include "scenario/spec_json.h"
#include "workload/registry.h"

namespace wcs::scenario {

namespace {

struct CliOptions {
  std::string scenario;
  std::string bench_name = "bench";  // argv[0] basename
  std::size_t tasks = 6000;
  bool fast = false;
  RunOptions run;
  bool list = false;
  bool dump = false;
  double block_size_mb = 0;   // --block-size: override, MB (0 = spec's)
  std::string replication;    // --replication-policy: none|random|...
  // Open-system workload-plane overrides (empty = leave the spec alone).
  std::string workload;  // --workload: generator name
  // --tenants roster (count or comma-separated weights); empty = unset.
  std::vector<wcs::workload::TenantInfo> tenants;
  std::string arrival;   // --arrival: t0|poisson|diurnal|bursty
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << message << '\n';
  std::exit(2);
}

// The one parser for every numeric flag and environment value: the whole
// of `text` must be an unsigned decimal (no sign, no surrounding
// characters) that fits T, and finite for a floating-point T. Anything
// else is a usage error naming `flag`.
template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [end, ec] = std::from_chars(first, last, value);
  bool ok = first != last && *first != '-' && ec == std::errc() &&
            end == last;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok)
    usage_error(flag + " wants an unsigned number that fits its field, " +
                "got '" + text + "'");
  return value;
}

// --tenants accepts a count ("3": three equal-weight tenants) or an
// explicit comma-separated weight list ("3,1,2"). A zero count or a zero
// weight is a usage error: the roster must name at least one tenant and
// WRR would starve a zero-weight one.
std::vector<wcs::workload::TenantInfo> parse_tenants(const std::string& arg) {
  std::vector<wcs::workload::TenantInfo> tenants;
  if (arg.find(',') == std::string::npos) {
    tenants.resize(parse_number<std::uint32_t>("--tenants", arg));
    if (tenants.empty())
      usage_error("--tenants count must be >= 1, got '" + arg + "'");
    return tenants;
  }
  std::size_t pos = 0;
  while (pos <= arg.size()) {
    std::size_t comma = arg.find(',', pos);
    if (comma == std::string::npos) comma = arg.size();
    wcs::workload::TenantInfo t;
    t.weight = parse_number<std::uint32_t>("--tenants",
                                           arg.substr(pos, comma - pos));
    if (t.weight == 0)
      usage_error("--tenants weights must be >= 1, got '" + arg + "'");
    tenants.push_back(t);
    pos = comma + 1;
  }
  return tenants;
}

CliOptions parse(const std::string& default_scenario, int argc, char** argv) {
  CliOptions opt;
  opt.scenario = default_scenario;
  if (argc > 0 && argv[0] != nullptr && *argv[0] != '\0') {
    std::string self = argv[0];
    std::size_t slash = self.find_last_of('/');
    opt.bench_name =
        slash == std::string::npos ? self : self.substr(slash + 1);
  }
  bool no_report = false;
  if (const char* env = std::getenv("WCS_BENCH_FAST"); env && *env == '1')
    opt.fast = true;
  if (const char* env = std::getenv("WCS_BENCH_JOBS"); env && *env)
    opt.run.jobs = parse_number<std::size_t>("WCS_BENCH_JOBS", env);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--scenario") {
      opt.scenario = next();
    } else if (arg == "--list-scenarios") {
      opt.list = true;
    } else if (arg == "--dump-scenario") {
      opt.dump = true;
      // Optional value: --dump-scenario NAME selects like --scenario.
      if (i + 1 < argc && argv[i + 1][0] != '-') opt.scenario = argv[++i];
    } else if (arg == "--tasks") {
      opt.tasks = parse_number<std::size_t>(arg, next());
    } else if (arg == "--seeds") {
      opt.run.seeds = parse_number<std::size_t>(arg, next());
    } else if (arg == "--jobs") {
      opt.run.jobs = parse_number<std::size_t>(arg, next());
    } else if (arg == "--csv") {
      opt.run.csv_path = next();
    } else if (arg == "--fast") {
      opt.fast = true;
    } else if (arg == "--audit") {
      opt.run.audit = true;
    } else if (arg == "--report") {
      opt.run.report_path = next();
    } else if (arg == "--no-report") {
      no_report = true;
    } else if (arg == "--trace-out") {
      opt.run.trace_out = next();
    } else if (arg == "--block-size") {
      const std::string value = next();
      opt.block_size_mb = parse_number<double>(arg, value);
      // megabytes() truncates to whole bytes; the block map needs at
      // least one, and the count must fit 64 bits.
      const double bytes = opt.block_size_mb * 1e6;
      if (!(bytes >= 1.0 && bytes < 0x1p64))
        usage_error("--block-size must be from 1e-6 MB (one byte) to "
                    "1.8e13 MB, got '" + value + "'");
    } else if (arg == "--replication-policy") {
      opt.replication = next();
    } else if (arg == "--workload") {
      opt.workload = next();
    } else if (arg == "--tenants") {
      opt.tenants = parse_tenants(next());
    } else if (arg == "--arrival") {
      opt.arrival = next();
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "options: --help --scenario NAME --list-scenarios "
                   "--dump-scenario [NAME]\n         --tasks N --seeds K "
                   "--jobs N --csv PATH --fast --audit\n         --report "
                   "PATH --no-report --trace-out PATH --block-size MB\n"
                   "         --replication-policy none|random|least-loaded|"
                   "hierarchical|network-cost\n"
                   "         --workload NAME --tenants N|W1,W2,... "
                   "--arrival t0|poisson|diurnal|bursty\n";
      std::exit(0);
    } else {
      usage_error("unknown option " + arg);
    }
  }
  if (opt.tasks == 0)
    usage_error("--tasks must be >= 1 (0 would produce an empty sweep)");
  if (opt.run.seeds == 0)
    usage_error("--seeds must be >= 1 (0 would produce an empty sweep)");
  if (opt.run.jobs == 0) opt.run.jobs = 1;
  if (opt.fast) {
    opt.tasks = std::min<std::size_t>(opt.tasks, 1500);
    opt.run.seeds = std::min<std::size_t>(opt.run.seeds, 2);
  }

  // The report keeps the binary's artifact name when the shim runs its
  // own scenario (CI consumes results/<bench>.json); a --scenario
  // override reports under the scenario's name instead.
  opt.run.report_name =
      opt.scenario == default_scenario ? opt.bench_name : opt.scenario;
  if (!opt.run.report_path)
    opt.run.report_path = "results/" + opt.run.report_name + ".json";
  if (no_report) opt.run.report_path.reset();
  opt.run.tasks = opt.tasks;
  opt.run.fast = opt.fast;
  return opt;
}

}  // namespace

int scenario_main(const std::string& default_scenario, int argc,
                  char** argv) {
  register_builtin_scenarios();
  CliOptions opt = parse(default_scenario, argc, argv);

  if (opt.list) {
    for (const std::string& name : scenario_names())
      std::cout << name << (name == default_scenario ? " (default)" : "")
                << "\n    " << scenario_summary(name) << '\n';
    return 0;
  }
  if (!has_scenario(opt.scenario)) {
    std::cerr << "unknown scenario " << opt.scenario
              << " (try --list-scenarios)\n";
    return 2;
  }

  BuildOptions build;
  build.tasks = opt.tasks;
  build.fast = opt.fast;
  ScenarioSpec spec = build_scenario(opt.scenario, build);

  // --block-size resizes the block grid of every point.
  if (opt.block_size_mb > 0) {
    auto resize = [&](grid::GridConfig& c) {
      if (!c.block_store) c.block_store.emplace();
      c.block_store->block_size = megabytes(opt.block_size_mb);
    };
    resize(spec.base_config);
    for (Point& pt : spec.points) resize(pt.config);
  }

  // --replication-policy: engage (or disable) the proactive replicator
  // with the named placement, overriding whatever the scenario chose.
  if (!opt.replication.empty()) {
    if (opt.replication == "none") {
      spec.base_config.replication.reset();
      for (Point& pt : spec.points) pt.config.replication.reset();
    } else {
      replication::Placement placement;
      if (!replication::parse_placement(opt.replication, &placement))
        usage_error("unknown replication policy " + opt.replication +
                    " (want none|random|least-loaded|hierarchical|"
                    "network-cost)");
      auto engage = [&](grid::GridConfig& c) {
        if (!c.replication) c.replication.emplace();
        c.replication->placement = placement;
      };
      engage(spec.base_config);
      for (Point& pt : spec.points) engage(pt.config);
    }
  }

  // Open-system workload-plane overrides. --tenants/--arrival on the
  // default coadd generator switch to the multi-tenant/stamped-arrival
  // paths; an explicit --workload always wins.
  if (!opt.tenants.empty()) {
    spec.workload.open.tenants = opt.tenants;
    if (opt.workload.empty() && spec.workload.open.tenants.size() > 1 &&
        spec.workload.generator == "coadd")
      spec.workload.generator = "multi-tenant";
  }
  if (!opt.arrival.empty())
    spec.workload.open.process = workload::parse_arrival_process(opt.arrival);
  if (!opt.workload.empty()) {
    workload::register_builtin_generators();
    if (!workload::has_generator(opt.workload)) {
      std::cerr << "unknown workload generator " << opt.workload << " (have:";
      for (const std::string& g : workload::generator_names())
        std::cerr << ' ' << g;
      std::cerr << ")\n";
      return 2;
    }
    spec.workload.generator = opt.workload;
  }

  // An open workload (timed arrivals and/or a tenant roster) can only
  // run pull schedulers — task-centric push placement would act on
  // tasks that have not arrived. Drop the incompatible rows with a
  // notice instead of aborting mid-run.
  const bool open_requested =
      spec.workload.open.process != workload::ArrivalProcess::kAtT0 ||
      spec.workload.open.tenants.size() > 1;
  if (open_requested && (!opt.tenants.empty() || !opt.arrival.empty() ||
                         !opt.workload.empty())) {
    auto drop_push = [](std::vector<sched::SchedulerSpec>& specs) {
      const std::size_t before = specs.size();
      std::erase_if(specs, [](const sched::SchedulerSpec& s) {
        const bool pull = sched::make_scheduler(s)->supports_arrivals();
        if (!pull)
          std::cerr << "  [dropping " << s.name()
                    << ": task-centric, cannot take timed arrivals]\n";
        return !pull;
      });
      return specs.size() != before;
    };
    drop_push(spec.schedulers);
    for (Point& pt : spec.points)
      // Row labels are parallel to the per-point scheduler list; once
      // rows are dropped the renames no longer line up, so fall back to
      // the specs' own names.
      if (drop_push(pt.schedulers)) pt.row_labels.clear();
    if (spec.schedulers.empty() &&
        (spec.points.empty() || spec.points.front().schedulers.empty())) {
      std::cerr << "no scheduler in this scenario supports open-system "
                   "arrivals (pull schedulers: workqueue, overlap, rest, "
                   "combined)\n";
      return 2;
    }
  }

  if (opt.dump) {
    dump_scenario(spec, std::cout);
    return 0;
  }
  return run_scenario(spec, opt.run);
}

}  // namespace wcs::scenario
