#include "grid/telemetry.h"

namespace wcs::grid {

EngineTelemetry::EngineTelemetry(const GridConfig& config,
                                 std::size_t num_workers) {
  if (config.obs.any()) {
    obs_ = std::make_unique<obs::Observability>(config.obs);
    tracer_ = obs_->tracer();
  }
  if (tracer_ != nullptr) spans_.resize(num_workers);
}

void EngineTelemetry::record(SimTime now, LifecycleEvent kind, TaskId task,
                             WorkerId worker) {
  WorkerSpans& ws = spans_[worker.value()];
  obs::TraceSpan span;
  span.start = now;
  span.track = worker.value();
  span.task = task;
  switch (kind) {
    case LifecycleEvent::kAssigned:
      span.kind = obs::SpanKind::kAssign;
      break;
    case LifecycleEvent::kFetchStart:
      // Opens the fetch span; closed (and recorded) at exec-start.
      ws.fetch_started = now;
      return;
    case LifecycleEvent::kExecStart:
      span.kind = obs::SpanKind::kFetch;
      span.start = ws.fetch_started;
      span.duration_s = now - ws.fetch_started;
      ws.exec_started = now;
      break;
    case LifecycleEvent::kCompleted: {
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
    case LifecycleEvent::kCancelled:
      span.kind = obs::SpanKind::kCancelled;
      break;
    case LifecycleEvent::kWorkerFailed:
      span.kind = obs::SpanKind::kWorkerFailed;
      break;
    case LifecycleEvent::kWorkerRecovered:
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
