// Engine telemetry: the read-only recording side of a run.
//
// Owns the optional observability stack (obs::Observability: phase
// profiler, event tracer) and maps worker-lifecycle transitions onto
// trace spans (fetch and compute become [start, now] spans; the rest are
// instants). The tracer is the one record of a run; obs::task_lifecycle
// rebuilds per-task phases from it. Everything here observes and never
// steers: a run with telemetry attached is byte-identical to one without
// (pinned by test_golden_run).
#pragma once

#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "grid/config.h"
#include "obs/observability.h"

namespace wcs::grid {

// Worker-lifecycle transitions the control and fault planes report:
//
//   assigned -> fetch-start -> exec-start -> completed
//                          \-> cancelled (losing replicas, crashes)
//
// plus worker failures/recoveries.
enum class LifecycleEvent {
  kAssigned,    // placed on a worker's queue
  kFetchStart,  // batch request handed to the data server
  kExecStart,   // all files resident; compute begins
  kCompleted,   // task finished (winning instance)
  kCancelled,   // instance cancelled (replica lost the race, or crash)
  kWorkerFailed,
  kWorkerRecovered,
};

class EngineTelemetry {
 public:
  // Instantiates the observability objects GridConfig asks for (possibly
  // none); `num_workers` sizes the span-tracking state.
  EngineTelemetry(const GridConfig& config, std::size_t num_workers);

  EngineTelemetry(const EngineTelemetry&) = delete;
  EngineTelemetry& operator=(const EngineTelemetry&) = delete;

  // True if record() has anywhere to write — lets the engine skip the
  // callback entirely on untraced runs.
  [[nodiscard]] bool recording() const { return tracer_ != nullptr; }

  // One worker-lifecycle transition at simulated time `now`; requires
  // recording().
  void record(SimTime now, LifecycleEvent kind, TaskId task, WorkerId worker);

  // End-of-run: flush the trace sink, timed as Phase::kReporting. No-op
  // without observability.
  void finish();

  [[nodiscard]] obs::Observability* observability() { return obs_.get(); }
  [[nodiscard]] const obs::Observability* observability() const {
    return obs_.get();
  }

 private:
  struct WorkerSpans {
    SimTime fetch_started = 0;  // current fetch span start
    SimTime exec_started = 0;   // current compute span start
  };

  std::unique_ptr<obs::Observability> obs_;
  obs::EventTracer* tracer_ = nullptr;  // cached obs_->tracer()
  std::vector<WorkerSpans> spans_;
};

}  // namespace wcs::grid
