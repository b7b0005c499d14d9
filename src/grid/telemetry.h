// Engine telemetry: the read-only recording side of a run.
//
// Owns the optional per-task lifecycle timeline (metrics::TimelineRecorder)
// and the optional observability stack (obs::Observability: phase
// profiler, event tracer), and maps worker-lifecycle transitions onto
// trace spans (fetch and compute become [start, now] spans; the rest are
// instants). Everything here observes and never steers: a run with
// telemetry attached is byte-identical to one without (pinned by
// test_golden_run).
#pragma once

#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "grid/config.h"
#include "metrics/timeline.h"
#include "obs/observability.h"

namespace wcs::grid {

class EngineTelemetry {
 public:
  // Instantiates the recorder/observability objects GridConfig asks for
  // (either may be absent); `num_workers` sizes the span-tracking state.
  EngineTelemetry(const GridConfig& config, std::size_t num_workers);

  EngineTelemetry(const EngineTelemetry&) = delete;
  EngineTelemetry& operator=(const EngineTelemetry&) = delete;

  // True if record() has anywhere to write — lets the engine skip the
  // callback entirely on uninstrumented runs.
  [[nodiscard]] bool recording() const {
    return timeline_ != nullptr || tracer_ != nullptr;
  }

  // One worker-lifecycle transition at simulated time `now`.
  void record(SimTime now, metrics::TimelineEventKind kind, TaskId task,
              WorkerId worker);

  // End-of-run: flush the trace sink, timed as Phase::kReporting. No-op
  // without observability.
  void finish();

  [[nodiscard]] const metrics::TimelineRecorder* timeline() const {
    return timeline_.get();
  }
  [[nodiscard]] obs::Observability* observability() { return obs_.get(); }
  [[nodiscard]] const obs::Observability* observability() const {
    return obs_.get();
  }

 private:
  void record_span(SimTime now, metrics::TimelineEventKind kind, TaskId task,
                   WorkerId worker);

  struct WorkerSpans {
    SimTime fetch_started = 0;  // current fetch span start
    SimTime exec_started = 0;   // current compute span start
  };

  std::unique_ptr<metrics::TimelineRecorder> timeline_;
  std::unique_ptr<obs::Observability> obs_;
  obs::EventTracer* tracer_ = nullptr;  // cached obs_->tracer()
  std::vector<WorkerSpans> spans_;
};

}  // namespace wcs::grid
