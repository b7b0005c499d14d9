// Unit tests for the observability layer: event tracer, phase profiler,
// JSON writer/parser, and the env gates.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "obs/json.h"
#include "obs/observability.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace wcs::obs {
namespace {

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
  EXPECT_EQ(with_path.tracer()->capacity(), kTraceCapacity);

  Observability all(Options::all());
  EXPECT_NE(all.profiler(), nullptr);
  EXPECT_NE(all.tracer(), nullptr);
  all.finish();  // no path configured: must be a no-op
}

}  // namespace
}  // namespace wcs::obs
