// Structured event tracer: the one record of a run — an append-only log
// of simulation spans, dumpable as Chrome trace_event JSON
// (chrome://tracing, https://ui.perfetto.dev).
//
// The engine records the task lifecycle (assign -> fetch -> compute ->
// complete), the flow layer records transfers, and the storage layer
// records evictions. Each record is a 40-byte POD appended in amortised
// O(1) and nothing is ever dropped: the 6,000-task fig6_workers
// scenario run logs ~130k spans (~5 MB). The tracer is opt-in (WCS_TRACE,
// --trace-out).
//
// Timestamps are SIMULATED time (exported as microseconds, the
// trace_event unit), so traces are deterministic and diffable across
// hosts. Tracks ("tid") are worker ids for lifecycle spans, node ids for
// transfers, and site ids for evictions.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/stats.h"
#include "common/units.h"

namespace wcs::obs {

enum class SpanKind : std::uint8_t {
  kAssign,     // instant: task handed to a worker's queue
  kFetch,      // span: batch request at the data server until all resident
  kCompute,    // span: task execution on the worker
  kComplete,   // instant: task finished (winning instance)
  kCancelled,  // instant: instance cancelled (lost race or crash)
  kTransfer,   // span: one network flow, latency phase included
  kEviction,   // instant: a file evicted from a site cache
  kWorkerFailed,
  kWorkerRecovered,
};

[[nodiscard]] const char* to_string(SpanKind kind);
// Instants render as trace_event phase "i", spans as complete events "X".
[[nodiscard]] bool is_instant(SpanKind kind);

struct TraceSpan {
  SimTime start = 0;      // simulated seconds
  double duration_s = 0;  // 0 for instants
  SpanKind kind{};
  std::uint32_t track = 0;  // worker / node / site id (trace "tid")
  TaskId task;              // invalid when not task-scoped
  double bytes = 0;         // payload, transfers only
};

class EventTracer {
 public:
  void record(const TraceSpan& span) { spans_.push_back(span); }

  // Every span ever recorded, in record order.
  [[nodiscard]] const std::vector<TraceSpan>& spans() const { return spans_; }

  // Chrome trace_event JSON object: {"traceEvents": [...], ...}. ts/dur
  // are simulated microseconds; pid 0 names the simulation process.
  void write_chrome_trace(std::ostream& out) const;
  void write_chrome_trace(const std::string& path) const;

 private:
  std::vector<TraceSpan> spans_;
};

// One completed task instance's phases, rebuilt from its lifecycle spans.
struct TaskPhases {
  TaskId task;
  WorkerId worker;
  SimTime assigned = 0;
  SimTime fetch_start = 0;  // batch request handed to the data server
  SimTime exec_start = 0;   // all files resident; compute begins
  SimTime completed = 0;

  [[nodiscard]] double queue_wait_s() const { return fetch_start - assigned; }
  [[nodiscard]] double data_wait_s() const { return exec_start - fetch_start; }
  [[nodiscard]] double exec_s() const { return completed - exec_start; }
  [[nodiscard]] double total_s() const { return completed - assigned; }
};

struct LifecycleSummary {
  std::vector<TaskPhases> completed;  // completion order
  RunningStats queue_wait;
  RunningStats data_wait;
  RunningStats exec;
};

// Per-instance phase breakdown of every COMPLETED task instance: the
// per-task view of the queue and data waits Table 3 aggregates per data
// server. Reads the assign instants, fetch and compute spans, complete
// and cancel instants, keyed by (task, track = worker); instances that
// were cancelled (lost replica races, crashes) produce no entry.
[[nodiscard]] LifecycleSummary task_lifecycle(const EventTracer& tracer);

}  // namespace wcs::obs
