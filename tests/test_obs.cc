// Unit tests for the observability layer: metrics registry, event
// tracer, phase profiler, JSON writer/parser, and the env gates.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace wcs::obs {
namespace {

TEST(Counter, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST(FixedHistogram, BucketsUnderAndOverflow) {
  FixedHistogram h(0, 10, 5);  // buckets of width 2
  h.add(-1);                   // underflow
  h.add(0);                    // bucket 0
  h.add(3);                    // bucket 1
  h.add(9.99);                 // bucket 4
  h.add(10);                   // overflow (hi is exclusive)
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(4), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.bucket_lower(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(1), 4.0);
}

TEST(FixedHistogram, QuantileEdges) {
  FixedHistogram h(0, 100, 10);
  for (int i = 0; i < 100; ++i) h.add(i);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);  // empty prefix: the lower bound
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
}

TEST(FixedHistogram, QuantileUnderOverflowMapToBounds) {
  FixedHistogram h(10, 20, 2);
  h.add(0);   // underflow
  h.add(99);  // overflow
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
}

TEST(FixedHistogram, MergeSumsBuckets) {
  FixedHistogram a(0, 10, 5);
  FixedHistogram b(0, 10, 5);
  a.add(1);
  b.add(1);
  b.add(5);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.bucket(0), 2u);
  EXPECT_EQ(a.bucket(2), 1u);
  EXPECT_DOUBLE_EQ(a.sum(), 7.0);
}

TEST(MetricsRegistry, InstrumentsAreStableAndNamed) {
  MetricsRegistry r;
  Counter& c = r.counter("a.count");
  c.add(3);
  EXPECT_EQ(&r.counter("a.count"), &c);  // same instrument on re-lookup
  EXPECT_EQ(r.find_counter("a.count")->value(), 3u);
  EXPECT_EQ(r.find_counter("missing"), nullptr);
  r.gauge("b.gauge").set(1.0);
  (void)r.histogram("c.hist", 0, 1, 4);
  EXPECT_EQ(r.size(), 3u);
}

TEST(MetricsRegistry, JsonDumpParses) {
  MetricsRegistry r;
  r.counter("events").add(7);
  r.gauge("makespan_s").set(123.5);
  r.histogram("flow_s", 0, 10, 2).add(4);
  std::ostringstream out;
  JsonWriter w(out);
  r.write_json(w);
  JsonValue doc = parse_json(out.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.find("counters")->find("events")->number, 7.0);
  EXPECT_DOUBLE_EQ(doc.find("gauges")->find("makespan_s")->number, 123.5);
  EXPECT_TRUE(doc.find("histograms")->find("flow_s")->is_object());
}

TEST(EventTracer, RingOverwritesOldest) {
  EventTracer t(3);
  for (std::uint32_t i = 0; i < 5; ++i) {
    TraceSpan s;
    s.start = i;
    s.kind = SpanKind::kAssign;
    t.record(s);
  }
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.recorded(), 5u);
  EXPECT_EQ(t.dropped(), 2u);
  EXPECT_DOUBLE_EQ(t.span(0).start, 2.0);  // oldest retained
  EXPECT_DOUBLE_EQ(t.span(2).start, 4.0);
}

TEST(EventTracer, ChromeTraceIsValidJson) {
  EventTracer t(16);
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
  EXPECT_TRUE(obs.metrics);
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
  o.metrics = true;
  Observability bundle(o);
  EXPECT_NE(bundle.metrics(), nullptr);
  EXPECT_EQ(bundle.profiler(), nullptr);
  EXPECT_EQ(bundle.tracer(), nullptr);

  Observability all(Options::all());
  EXPECT_NE(all.metrics(), nullptr);
  EXPECT_NE(all.profiler(), nullptr);
  EXPECT_NE(all.tracer(), nullptr);
  all.finish();  // no path configured: must be a no-op
}

}  // namespace
}  // namespace wcs::obs
