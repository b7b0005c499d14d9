#include "grid/telemetry.h"

namespace wcs::grid {

EngineTelemetry::EngineTelemetry(const GridConfig& config,
                                 std::size_t num_workers) {
  if (config.record_timeline)
    timeline_ = std::make_unique<metrics::TimelineRecorder>();
  if (config.obs.any()) {
    obs_ = std::make_unique<obs::Observability>(config.obs);
    tracer_ = obs_->tracer();
  }
  if (tracer_ != nullptr) spans_.resize(num_workers);
}

void EngineTelemetry::record(SimTime now, metrics::TimelineEventKind kind,
                             TaskId task, WorkerId worker) {
  if (timeline_) timeline_->record(now, kind, task, worker);
  if (tracer_) record_span(now, kind, task, worker);
}

void EngineTelemetry::record_span(SimTime now,
                                  metrics::TimelineEventKind kind,
                                  TaskId task, WorkerId worker) {
  WorkerSpans& ws = spans_[worker.value()];
  obs::TraceSpan span;
  span.start = now;
  span.track = worker.value();
  span.task = task;
  switch (kind) {
    case metrics::TimelineEventKind::kAssigned:
      span.kind = obs::SpanKind::kAssign;
      break;
    case metrics::TimelineEventKind::kFetchStart:
      // Opens the fetch span; closed (and recorded) at exec-start.
      ws.fetch_started = now;
      return;
    case metrics::TimelineEventKind::kExecStart:
      span.kind = obs::SpanKind::kFetch;
      span.start = ws.fetch_started;
      span.duration_s = now - ws.fetch_started;
      ws.exec_started = now;
      break;
    case metrics::TimelineEventKind::kCompleted: {
      obs::TraceSpan compute;
      compute.start = ws.exec_started;
      compute.duration_s = now - ws.exec_started;
      compute.kind = obs::SpanKind::kCompute;
      compute.track = worker.value();
      compute.task = task;
      tracer_->record(compute);
      span.kind = obs::SpanKind::kComplete;
      break;
    }
    case metrics::TimelineEventKind::kCancelled:
      span.kind = obs::SpanKind::kCancelled;
      break;
    case metrics::TimelineEventKind::kWorkerFailed:
      span.kind = obs::SpanKind::kWorkerFailed;
      break;
    case metrics::TimelineEventKind::kWorkerRecovered:
      span.kind = obs::SpanKind::kWorkerRecovered;
      break;
  }
  tracer_->record(span);
}

void EngineTelemetry::finish() {
  if (!obs_) return;
  obs::ScopedPhase phase(obs_->profiler(), obs::Phase::kReporting);
  obs_->finish();
}

}  // namespace wcs::grid
