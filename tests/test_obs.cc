// Unit tests for the observability layer: event tracer and the task
// lifecycle it records (unit + through the engine), phase profiler,
// JSON writer/parser, and the env gates.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "grid/experiment.h"
#include "grid/grid_simulation.h"
#include "obs/json.h"
#include "obs/observability.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "workload/coadd.h"

namespace wcs::obs {
namespace {

TraceSpan lifecycle_span(SimTime start, SpanKind kind, std::uint32_t task,
                         std::uint32_t worker, double duration_s = 0) {
  TraceSpan s;
  s.start = start;
  s.duration_s = duration_s;
  s.kind = kind;
  s.track = worker;
  s.task = TaskId(task);
  return s;
}

TEST(EventTracer, RecordsInOrder) {
  EventTracer t;
  t.record(lifecycle_span(1.0, SpanKind::kAssign, 0, 0));
  t.record(lifecycle_span(2.0, SpanKind::kCancelled, 0, 0));
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].kind, SpanKind::kAssign);
  EXPECT_DOUBLE_EQ(t.spans()[1].start, 2.0);
}

TEST(TaskLifecycle, SpanPhases) {
  EventTracer t;
  t.record(lifecycle_span(10, SpanKind::kAssign, 3, 1));
  t.record(lifecycle_span(12, SpanKind::kFetch, 3, 1, 18));
  t.record(lifecycle_span(30, SpanKind::kCompute, 3, 1, 12));
  t.record(lifecycle_span(42, SpanKind::kComplete, 3, 1));
  LifecycleSummary summary = task_lifecycle(t);
  ASSERT_EQ(summary.completed.size(), 1u);
  const TaskPhases& p = summary.completed[0];
  EXPECT_EQ(p.task, TaskId(3));
  EXPECT_EQ(p.worker, WorkerId(1));
  EXPECT_DOUBLE_EQ(p.queue_wait_s(), 2.0);
  EXPECT_DOUBLE_EQ(p.data_wait_s(), 18.0);
  EXPECT_DOUBLE_EQ(p.exec_s(), 12.0);
  EXPECT_DOUBLE_EQ(p.total_s(), 32.0);
  EXPECT_EQ(summary.exec.count(), 1u);
  EXPECT_DOUBLE_EQ(summary.queue_wait.mean(), 2.0);
  EXPECT_DOUBLE_EQ(summary.data_wait.mean(), 18.0);
}

TEST(TaskLifecycle, CancelledInstancesProduceNoSpan) {
  // Two concurrent instances: worker 0's is cancelled while fetching
  // (so it never records a fetch span), the winning replica on worker 1
  // completes. Other tracks' spans (a transfer) are ignored.
  EventTracer t;
  t.record(lifecycle_span(1, SpanKind::kAssign, 0, 0));
  t.record(lifecycle_span(1, SpanKind::kAssign, 0, 1));
  t.record(lifecycle_span(3, SpanKind::kCancelled, 0, 0));
  t.record(lifecycle_span(2, SpanKind::kFetch, 0, 1, 2));
  t.record(lifecycle_span(3, SpanKind::kTransfer, 0, 0, 1));
  t.record(lifecycle_span(4, SpanKind::kCompute, 0, 1, 1));
  t.record(lifecycle_span(5, SpanKind::kComplete, 0, 1));
  LifecycleSummary summary = task_lifecycle(t);
  ASSERT_EQ(summary.completed.size(), 1u);
  EXPECT_EQ(summary.completed[0].worker, WorkerId(1));
  EXPECT_DOUBLE_EQ(summary.completed[0].fetch_start, 2.0);
}

TEST(EventTracer, ChromeTraceIsValidJson) {
  EventTracer t;
  TraceSpan span;
  span.start = 1.5;
  span.duration_s = 0.5;
  span.kind = SpanKind::kCompute;
  span.track = 7;
  span.task = TaskId(3);
  t.record(span);
  TraceSpan instant;
  instant.start = 2.0;
  instant.kind = SpanKind::kComplete;
  t.record(instant);

  std::ostringstream out;
  t.write_chrome_trace(out);
  JsonValue doc = parse_json(out.str());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 2u);
  const JsonValue& x = events->array[0];
  EXPECT_EQ(x.find("ph")->string, "X");
  EXPECT_DOUBLE_EQ(x.find("ts")->number, 1.5e6);   // simulated µs
  EXPECT_DOUBLE_EQ(x.find("dur")->number, 0.5e6);
  EXPECT_DOUBLE_EQ(x.find("tid")->number, 7.0);
  EXPECT_EQ(events->array[1].find("ph")->string, "i");
}

TEST(SpanKind, InstantClassification) {
  EXPECT_FALSE(is_instant(SpanKind::kFetch));
  EXPECT_FALSE(is_instant(SpanKind::kCompute));
  EXPECT_FALSE(is_instant(SpanKind::kTransfer));
  EXPECT_TRUE(is_instant(SpanKind::kAssign));
  EXPECT_TRUE(is_instant(SpanKind::kEviction));
}

TEST(PhaseProfiler, AccumulatesPerPhase) {
  PhaseProfiler p;
  p.record(Phase::kSchedulerDecision, 100);
  p.record(Phase::kSchedulerDecision, 50);
  p.record(Phase::kReporting, 10);
  EXPECT_EQ(p.slot(Phase::kSchedulerDecision).calls, 2u);
  EXPECT_EQ(p.slot(Phase::kSchedulerDecision).wall_ns, 150u);
  EXPECT_EQ(p.slot(Phase::kReporting).wall_ns, 10u);
}

TEST(PhaseProfiler, ScopedPhaseNullSafeAndRecords) {
  { ScopedPhase noop(nullptr, Phase::kReporting); }  // must not crash
  PhaseProfiler p;
  { ScopedPhase scope(&p, Phase::kCacheEviction); }
  EXPECT_EQ(p.slot(Phase::kCacheEviction).calls, 1u);
}

TEST(PhaseProfiler, PhaseSequenceChargesSectionsAndResumesCalls) {
  {
    PhaseSequence noop(nullptr);  // must not crash
    noop.enter(Phase::kFlowDirtySet);
  }
  PhaseProfiler p;
  {
    PhaseSequence seq(&p);
    seq.enter(Phase::kFlowDirtySet);
    seq.enter(Phase::kFlowRebalance);
    seq.enter(Phase::kFlowDirtySet, /*new_call=*/false);
    seq.enter(Phase::kFlowRebalance, /*new_call=*/false);
  }  // the destructor ends the last section
  EXPECT_EQ(p.slot(Phase::kFlowDirtySet).calls, 1u);
  EXPECT_EQ(p.slot(Phase::kFlowRebalance).calls, 1u);
  // Resumed sections add time without adding calls.
  p.record(Phase::kFlowRebalance, 5, /*new_call=*/false);
  EXPECT_EQ(p.slot(Phase::kFlowRebalance).calls, 1u);
  EXPECT_GE(p.slot(Phase::kFlowRebalance).wall_ns, 5u);
}

TEST(JsonWriter, EscapesAndRoundTripsNumbers) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json_number(0.1), "0.1");  // shortest round-trip form
  std::ostringstream out;
  JsonWriter w(out, 0);
  w.begin_object();
  w.member("pi", 3.141592653589793);
  w.member("n", static_cast<std::uint64_t>(1) << 60);
  w.end_object();
  JsonValue doc = parse_json(out.str());
  EXPECT_DOUBLE_EQ(doc.find("pi")->number, 3.141592653589793);
}

TEST(ObsOptions, EnvGates) {
  ::unsetenv("WCS_OBS");
  ::unsetenv("WCS_TRACE");
  Options off = Options::from_env();
  EXPECT_FALSE(off.any());

  ::setenv("WCS_OBS", "1", 1);
  Options obs = Options::from_env();
  EXPECT_TRUE(obs.profile);
  EXPECT_FALSE(obs.trace);
  EXPECT_TRUE(obs.trace_path.empty());  // env never sets a path

  ::setenv("WCS_TRACE", "1", 1);
  Options trace = Options::from_env();
  EXPECT_TRUE(trace.trace);
  ::unsetenv("WCS_OBS");
  ::unsetenv("WCS_TRACE");
}

TEST(Observability, BundleRespectsOptions) {
  Options o;
  o.profile = true;
  Observability bundle(o);
  EXPECT_NE(bundle.profiler(), nullptr);
  EXPECT_EQ(bundle.tracer(), nullptr);

  Options traced;
  traced.trace_path = "unused.trace";  // a path implies the tracer
  EXPECT_TRUE(traced.any());
  Observability with_path(traced);
  EXPECT_EQ(with_path.profiler(), nullptr);
  ASSERT_NE(with_path.tracer(), nullptr);
  EXPECT_TRUE(with_path.tracer()->spans().empty());

  Observability all(Options::all());
  EXPECT_NE(all.profiler(), nullptr);
  EXPECT_NE(all.tracer(), nullptr);
  all.finish();  // no path configured: must be a no-op
}

// --- Through the engine ----------------------------------------------------

grid::GridConfig traced_config(int sites, int workers_per_site) {
  grid::GridConfig c;
  c.tiers.num_sites = sites;
  c.tiers.workers_per_site = workers_per_site;
  c.capacity_files = 300;
  c.obs.trace = true;
  return c;
}

std::size_t count_kind(const EventTracer& tracer, SpanKind kind) {
  std::size_t n = 0;
  for (const TraceSpan& s : tracer.spans()) n += s.kind == kind;
  return n;
}

TEST(TimelineIntegration, DisabledByDefault) {
  workload::CoaddParams cp;
  cp.num_tasks = 10;
  const workload::Workload wl{workload::generate_coadd(cp)};
  grid::GridConfig c = traced_config(1, 1);
  c.obs = Options{};
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  grid::GridSimulation sim(c, wl, sched::make_scheduler(spec));
  (void)sim.run();
  EXPECT_EQ(sim.observability(), nullptr);
}

TEST(TimelineIntegration, CompleteLifecyclePerTask) {
  workload::CoaddParams cp;
  cp.num_tasks = 30;
  const workload::Workload wl{workload::generate_coadd(cp)};
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  grid::GridSimulation sim(traced_config(2, 1), wl,
                           sched::make_scheduler(spec));
  auto r = sim.run();
  ASSERT_NE(sim.observability(), nullptr);
  LifecycleSummary summary = task_lifecycle(*sim.observability()->tracer());
  ASSERT_EQ(summary.completed.size(), 30u);
  for (const TaskPhases& p : summary.completed) {
    EXPECT_GE(p.queue_wait_s(), 0.0);
    EXPECT_GT(p.data_wait_s(), 0.0);  // at least one transfer or hit walk
    EXPECT_GT(p.exec_s(), 0.0);
    EXPECT_LE(p.completed, r.makespan_s + 1e-9);
  }
  // Phase totals are internally consistent with the makespan.
  EXPECT_EQ(summary.exec.count(), 30u);
  EXPECT_GT(summary.data_wait.mean(), 0.0);
}

TEST(TimelineIntegration, ChurnEventsAppear) {
  workload::CoaddParams cp;
  cp.num_tasks = 40;
  const workload::Workload wl{workload::generate_coadd(cp)};
  grid::GridConfig c = traced_config(2, 2);
  grid::GridConfig::ChurnParams churn;
  churn.mean_uptime_s = 15000;
  churn.mean_downtime_s = 4000;
  c.churn = churn;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  grid::GridSimulation sim(c, wl, sched::make_scheduler(spec));
  auto r = sim.run();
  EXPECT_EQ(r.tasks_completed, 40u);
  const EventTracer& tracer = *sim.observability()->tracer();
  EXPECT_GT(count_kind(tracer, SpanKind::kWorkerFailed), 0u);
  EXPECT_EQ(task_lifecycle(tracer).completed.size(), 40u);
}

TEST(TimelineIntegration, PaperScaleTraceKeepsEverySpan) {
  // One 6,000-task Coadd run on the Table 1 platform logs ~87k spans;
  // every lifecycle record of it must be kept.
  const workload::Workload wl{
      workload::generate_coadd(workload::CoaddParams::paper_6000())};
  grid::GridConfig c;
  c.audit = false;
  c.obs.trace = true;
  sched::SchedulerSpec spec;
  spec.algorithm = sched::Algorithm::kRest;
  grid::GridSimulation sim(c, wl, sched::make_scheduler(spec));
  auto r = sim.run();
  ASSERT_EQ(r.tasks_completed, 6000u);
  const EventTracer& tracer = *sim.observability()->tracer();
  EXPECT_EQ(count_kind(tracer, SpanKind::kComplete), r.tasks_completed);
  EXPECT_EQ(count_kind(tracer, SpanKind::kAssign), r.assignments);
  EXPECT_EQ(task_lifecycle(tracer).completed.size(), r.tasks_completed);
}

}  // namespace
}  // namespace wcs::obs
