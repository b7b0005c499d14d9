// google-benchmark microbenchmarks for the hot paths: event kernel
// throughput, max-min reallocation, scheduler weight scans, cache churn.
// These guard the "6,000-task experiment in seconds" property the figure
// benches rely on.
#include <benchmark/benchmark.h>

#include <memory>
#include <optional>

#include "common/thread_pool.h"
#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "net/flow_manager.h"
#include "net/tiers.h"
#include "obs/observability.h"
#include "sched/factory.h"
#include "sched/worker_centric.h"
#include "sim/simulator.h"
#include "storage/block_store.h"
#include "storage/file_cache.h"
#include "workload/coadd.h"

namespace {

using namespace wcs;

void BM_EventKernel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 10000; ++i)
      sim.schedule_in((i * 37) % 1000, [] {});
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventKernel);

void BM_FlowReallocation(benchmark::State& state) {
  const int kFlows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    net::TiersParams tp;
    tp.num_sites = 10;
    net::GridTopology g = net::build_tiers_topology(tp);
    net::FlowManager flows(sim, g.topology);
    for (int i = 0; i < kFlows; ++i)
      flows.start_flow(g.file_server_node,
                       g.data_server_nodes[i % g.data_server_nodes.size()],
                       megabytes(25), [](FlowId) {});
    sim.run();
    benchmark::DoNotOptimize(flows.completed_flows());
  }
  state.SetItemsProcessed(state.iterations() * kFlows);
}
BENCHMARK(BM_FlowReallocation)->Arg(16)->Arg(64)->Arg(256);

void BM_Reallocate(benchmark::State& state) {
  // Steady-state reallocation cost at N concurrent flows on the wide
  // grid's sharing pattern: every flow leaves one source through a shared
  // core link that never binds (capacity 4x the flows' total), then runs
  // alone on its own thin site link, its bottleneck. The core link joins
  // every flow into one connected component, but a join changes only the
  // new flow's rate and a leave changes none, so the certified component
  // stays one flow. Each iteration churns one flow (cancel, start,
  // activate) — two reallocations. Flow sizes are effectively infinite,
  // so no completion ever interferes.
  const int kFlows = static_cast<int>(state.range(0));
  constexpr double kSiteBw = 1e6;
  sim::Simulator sim;
  net::Topology topo;
  NodeId source = topo.add_node("file-server");
  NodeId core = topo.add_node("core");
  topo.add_link(source, core, 4.0 * kSiteBw * kFlows, 0.0);
  std::vector<NodeId> sites;
  for (int s = 0; s < kFlows; ++s) {
    sites.push_back(topo.add_node("site"));
    topo.add_link(core, sites.back(), kSiteBw, 0.0);
  }
  net::FlowManager flows(sim, topo);
  std::vector<FlowId> ids;
  ids.reserve(static_cast<std::size_t>(kFlows));
  for (int i = 0; i < kFlows; ++i)
    ids.push_back(flows.start_flow(source, sites[static_cast<std::size_t>(i)],
                                   megabytes(1e9), [](FlowId) {}));
  for (int i = 0; i < kFlows; ++i) sim.step();  // t=0 activations

  std::size_t victim = 0;
  for (auto _ : state) {
    flows.cancel(ids[victim]);
    ids[victim] = flows.start_flow(source, sites[victim], megabytes(1e9),
                                   [](FlowId) {});
    sim.step();  // the replacement's activation -> second reallocation
    victim = (victim + 1) % static_cast<std::size_t>(kFlows);
  }
  benchmark::DoNotOptimize(flows.cancelled_flows());
  state.SetItemsProcessed(state.iterations() * 2);  // reallocations
}
BENCHMARK(BM_Reallocate)->Arg(10)->Arg(100)->Arg(1000);

void BM_CacheChurn(benchmark::State& state) {
  // Paper-sized files at overlap 0: capacity is a file count (Table 1).
  const storage::BlockMap map(workload::FileCatalog(20000, megabytes(25.0)),
                              storage::BlockStoreParams{});
  storage::FileCache cache(map, 6000, storage::EvictionPolicy::kLru);
  unsigned i = 0;
  for (auto _ : state) {
    FileId f(i % 20000);
    if (!cache.contains(f)) cache.insert(f);
    cache.record_access(f);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheChurn);

// Cost of the pin -> insert -> unpin cycle (one per scheduled task) over
// a catalog of N overlapping coadd-window files: each transition walks
// the nearest resident neighbours to keep the block counters exact. The
// `bytes_saved` counter reports the dedup savings banked over the run.
// (The whole-file A/B baseline this replaced is on record in
// results/perf_pr10.md.)
void BM_BlockPin(benchmark::State& state) {
  const std::size_t kFiles = static_cast<std::size_t>(state.range(0));
  workload::FileCatalog catalog(kFiles, megabytes(25.0));
  storage::BlockStoreParams bp;
  bp.content_overlap = 0.5;  // adjacent coadd windows share half their blocks
  storage::BlockMap map(catalog, bp);

  storage::FileCache cache(map, kFiles / 4, storage::EvictionPolicy::kLru);

  // Cyclic sweep over a catalog 4x the cache: every touch past the first
  // lap misses (a scan defeats LRU), so each op pays insert + eviction +
  // pin + unpin, and the freshly-evicted neighbour's shared blocks are
  // re-covered by the adjacent resident on the next insert.
  double saved = 0;
  unsigned i = 0;
  for (auto _ : state) {
    FileId f(static_cast<FileId::underlying_type>(i % kFiles));
    if (!cache.contains(f)) {
      saved += static_cast<double>(cache.file_bytes(f)) -
               static_cast<double>(cache.missing_bytes(f));
      cache.insert(f);
    }
    cache.pin(f);
    cache.record_access(f);
    cache.unpin(f);
    ++i;
  }
  benchmark::DoNotOptimize(cache.size());
  state.SetItemsProcessed(state.iterations());
  state.counters["bytes_saved"] =
      benchmark::Counter(saved, benchmark::Counter::kDefaults);
}
BENCHMARK(BM_BlockPin)->Arg(10000)->Arg(100000);

void BM_SchedulerWeightScan(benchmark::State& state) {
  // Full worker-centric request cycle cost on a paper-scale pending set.
  workload::CoaddParams cp;
  cp.num_tasks = static_cast<std::size_t>(state.range(0));
  const workload::Workload wl{workload::generate_coadd(cp)};
  grid::GridConfig config;
  config.tiers.num_sites = 10;
  config.capacity_files = 6000;
  for (auto _ : state) {
    state.PauseTiming();
    sched::SchedulerSpec spec;
    spec.algorithm = sched::Algorithm::kCombined;
    grid::GridSimulation sim(config, wl, sched::make_scheduler(spec));
    state.ResumeTiming();
    benchmark::DoNotOptimize(sim.run().makespan_s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerWeightScan)->Unit(benchmark::kMillisecond)->Arg(1000);

void BM_EventKernelWithCancellation(benchmark::State& state) {
  // Schedule/cancel churn: every other event is cancelled before firing,
  // the pattern worker timeouts and replica cancellations produce. A
  // cancel takes its key out of the heap at once, so the run pops only
  // live events.
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<EventId> ids;
    ids.reserve(10000);
    for (int i = 0; i < 10000; ++i)
      ids.push_back(sim.schedule_in((i * 37) % 1000, [] {}));
    for (int i = 0; i < 10000; i += 2) sim.cancel(ids[i]);
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventKernelWithCancellation);

// A steady heap of N live events; each firing moves k others to a new
// time and re-arms itself, the pattern of flow completions under rate
// changes. One iteration is one step.
class RescheduleChurn {
 public:
  RescheduleChurn(std::size_t n, std::size_t k) : ids_(n), k_(k) {
    for (std::size_t i = 0; i < n; ++i) arm(i);
  }
  sim::Simulator& sim() { return sim_; }

 private:
  double delay() {
    x_ ^= x_ << 13;  // xorshift64
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return static_cast<double>(x_ % 1000);
  }
  void arm(std::size_t i) {
    ids_[i] = sim_.schedule_in(delay(), [this, i] { fire(i); });
  }
  void fire(std::size_t i) {
    for (std::size_t m = 0; m < k_; ++m)
      (void)sim_.reschedule(ids_[static_cast<std::size_t>(x_ % ids_.size())],
                            sim_.now() + delay());
    arm(i);
  }

  sim::Simulator sim_;
  std::vector<EventId> ids_;
  std::size_t k_;
  std::uint64_t x_ = 88172645463325252u;
};

void BM_EventKernelReschedule(benchmark::State& state) {
  RescheduleChurn churn(static_cast<std::size_t>(state.range(0)),
                        static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) benchmark::DoNotOptimize(churn.sim().step());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventKernelReschedule)
    ->Args({1000, 1})
    ->Args({1000, 4})
    ->Args({100000, 4});

void BM_ChooseTaskCombined(benchmark::State& state) {
  // Per-decision cost of the combined metric at a paper-scale pending
  // bag: weight() runs the totals query (read off the index) plus one
  // weight evaluation — the per-task unit of the choose_task scan.
  workload::CoaddParams cp;
  cp.num_tasks = static_cast<std::size_t>(state.range(0));
  const workload::Workload wl{workload::generate_coadd(cp)};
  grid::GridConfig config;
  config.tiers.num_sites = 10;
  config.capacity_files = 6000;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kWorkqueue;  // engine substrate only
  grid::GridSimulation engine(config, wl, sched::make_scheduler(spec));
  sched::WorkerCentricParams params;
  params.metric = sched::Metric::kCombined;
  sched::WorkerCentricScheduler scheduler(params);
  scheduler.attach(engine);
  scheduler.on_job_submitted();
  unsigned i = 0;
  for (auto _ : state) {
    TaskId t(i % static_cast<unsigned>(state.range(0)));
    benchmark::DoNotOptimize(scheduler.weight(SiteId(i % 10), t));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChooseTaskCombined)->Arg(1000)->Arg(6000);

void BM_ChooseTask(benchmark::State& state) {
  // Full ChooseTask(n) request cost at a large pending bag: the sharded
  // index (sched/sharded_index.h) walks its heaps best-first and ends
  // each walk at the first entry that misses the top n, so a request
  // visits O(B * n) entries (B buckets) instead of scanning the bag. The
  // combined metric with n = 2 is the most expensive configuration: it
  // walks every one of its B <= max |t| + 1 missing-count heaps. The
  // flat O(|pending|) scan it replaced is on record in
  // results/perf_pr5.md. The
  // workqueue spec only provides the engine substrate; the measured
  // scheduler is standalone, and peek_choice resolves a decision without
  // consuming a task, so the bag stays at full size for every iteration.
  workload::CoaddParams cp;
  cp.num_tasks = static_cast<std::size_t>(state.range(0));
  const workload::Workload wl{workload::generate_coadd(cp)};
  grid::GridConfig config;
  config.tiers.num_sites = 4;
  config.capacity_files = 6000;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kWorkqueue;  // engine substrate only
  grid::GridSimulation engine(config, wl, sched::make_scheduler(spec));
  sched::WorkerCentricParams params;
  params.metric = sched::Metric::kCombined;
  params.choose_n = 2;
  sched::WorkerCentricScheduler scheduler(params);
  scheduler.attach(engine);
  scheduler.on_job_submitted();
  unsigned site = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.peek_choice(SiteId(site)));
    site = (site + 1) % 4;
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_ChooseTask)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

// A one-site GridEngine over a FileCache the benchmark drives itself,
// so cache events fire without simulating transfers.
class UpkeepEngine final : public sched::GridEngine {
 public:
  UpkeepEngine(const workload::Job& job, std::size_t capacity_files)
      : job_(job),
        blocks_(job.catalog, storage::BlockStoreParams{}),
        cache_(blocks_, capacity_files, storage::EvictionPolicy::kLru) {}

  const workload::Job& job() const override { return job_; }
  std::size_t num_sites() const override { return 1; }
  std::size_t num_workers() const override { return 1; }
  SiteId site_of(WorkerId) const override { return SiteId(0u); }
  const storage::FileCache& site_cache(SiteId) const override {
    return cache_;
  }
  void set_cache_listener(SiteId, storage::CacheListener l) override {
    cache_.set_listener(std::move(l));
  }
  void assign_task(TaskId, WorkerId) override {}
  bool cancel_task(TaskId, WorkerId) override { return false; }
  bool worker_alive(WorkerId) const override { return true; }
  std::size_t worker_backlog(WorkerId) const override { return 0; }

  // What a worker's data server does per input file: stage it when
  // absent (kAdded, plus kEvicted once the cache is full), then
  // reference it (kAccessed).
  void fetch(FileId file) {
    if (!cache_.contains(file)) cache_.insert(file);
    cache_.record_access(file);
  }

 private:
  const workload::Job& job_;
  storage::BlockMap blocks_;
  storage::FileCache cache_;
};

void BM_IndexUpkeep(benchmark::State& state) {
  // Sharded-index upkeep of one combined site: the kAdded / kAccessed
  // (and kEvicted) stream a worker fetching the 6,000-task Coadd bag in
  // task order produces at the paper's 6,000-file capacity, then one
  // ChooseTask decision. Every event updates the counters of each
  // pending task that shares the file and marks it; the decision
  // re-files the marked tasks once. Nothing is assigned, so the bag
  // stays full. One iteration is one task's fetches and one decision.
  const workload::Job job = workload::generate_coadd({});
  UpkeepEngine engine(job, /*capacity_files=*/6000);
  sched::WorkerCentricParams params;
  params.metric = sched::Metric::kCombined;
  sched::WorkerCentricScheduler scheduler(params);
  scheduler.attach(engine);
  scheduler.on_job_submitted();
  std::size_t task = 0;
  std::int64_t fetches = 0;
  for (auto _ : state) {
    const auto& files = job.task(TaskId(static_cast<unsigned>(task))).files;
    for (FileId f : files) engine.fetch(f);
    benchmark::DoNotOptimize(scheduler.peek_choice(SiteId(0u)));
    fetches += static_cast<std::int64_t>(files.size());
    task = (task + 1) % job.num_tasks();
  }
  benchmark::DoNotOptimize(scheduler.pending_count());
  state.SetItemsProcessed(fetches);
}
BENCHMARK(BM_IndexUpkeep)->Unit(benchmark::kMicrosecond);

void BM_RunMatrix(benchmark::State& state) {
  // Wall-clock of a 6-algorithm x 4-seed figure matrix, serial
  // (jobs = 1) vs fanned out over the thread pool (jobs = 4). The
  // acceptance bar for the parallel runner: identical output, and on
  // multi-core hardware ~jobs x less wall-clock.
  const auto jobs = static_cast<std::size_t>(state.range(0));
  workload::CoaddParams cp;
  cp.num_tasks = 300;
  const workload::Workload wl{workload::generate_coadd(cp)};
  grid::GridConfig config;
  config.tiers.num_sites = 10;
  config.capacity_files = 6000;
  auto specs = sched::SchedulerSpec::paper_algorithms();
  const std::vector<std::uint64_t> seeds{1, 2, 3, 4};
  for (auto _ : state) {
    auto rows = grid::run_matrix(config, wl, specs, seeds, {}, jobs);
    benchmark::DoNotOptimize(rows.front().makespan_minutes);
  }
  state.SetItemsProcessed(state.iterations() * specs.size() * seeds.size());
}
BENCHMARK(BM_RunMatrix)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_ObsOverhead(benchmark::State& state) {
  // The observability contract (DESIGN.md §Observability): with obs
  // disabled the instrumented build must cost < 2% over the seed — every
  // hook is one null-pointer branch. Arg encodes the obs mode:
  //   0 = disabled, 1 = profiler, 2 = profiler + trace.
  workload::CoaddParams cp;
  cp.num_tasks = 300;
  const workload::Workload wl{workload::generate_coadd(cp)};
  grid::GridConfig config;
  config.tiers.num_sites = 10;
  config.capacity_files = 6000;
  config.obs = {};
  if (state.range(0) >= 1) config.obs.profile = true;
  if (state.range(0) >= 2) config.obs.trace = true;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  spec.choose_n = 2;
  for (auto _ : state) {
    grid::GridSimulation sim(config, wl, sched::make_scheduler(spec));
    benchmark::DoNotOptimize(sim.run().makespan_s);
  }
  state.SetItemsProcessed(state.iterations() * 300);
}
BENCHMARK(BM_ObsOverhead)
    ->Unit(benchmark::kMillisecond)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2);

void BM_CoaddGeneration(benchmark::State& state) {
  workload::CoaddParams cp;
  cp.num_tasks = 6000;
  for (auto _ : state) {
    auto job = workload::generate_coadd(cp);
    benchmark::DoNotOptimize(job.num_tasks());
  }
  state.SetItemsProcessed(state.iterations() * 6000);
}
BENCHMARK(BM_CoaddGeneration)->Unit(benchmark::kMillisecond);

void BM_GridConstruct(benchmark::State& state) {
  // Set-up cost of one simulation on a 40-site x 8-worker Tiers grid:
  // topology, worker latencies, data plane, scheduler and its indexes.
  // Tear-down is not timed.
  workload::CoaddParams cp;
  cp.num_tasks = 4000;
  const workload::Workload wl{workload::generate_coadd(cp)};
  grid::GridConfig config;
  config.tiers.num_sites = 40;
  config.tiers.workers_per_site = 8;
  config.capacity_files = 2000;
  config.audit = false;
  config.obs = {};
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  for (auto _ : state) {
    std::optional<grid::GridSimulation> sim;
    sim.emplace(config, wl, sched::make_scheduler(spec));
    benchmark::DoNotOptimize(&*sim);
    state.PauseTiming();
    sim.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GridConstruct)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
