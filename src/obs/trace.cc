#include "obs/trace.h"

#include <fstream>
#include <map>
#include <utility>

#include "common/check.h"
#include "obs/json.h"

namespace wcs::obs {

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kAssign: return "assign";
    case SpanKind::kFetch: return "fetch";
    case SpanKind::kCompute: return "compute";
    case SpanKind::kComplete: return "complete";
    case SpanKind::kCancelled: return "cancelled";
    case SpanKind::kTransfer: return "transfer";
    case SpanKind::kEviction: return "eviction";
    case SpanKind::kWorkerFailed: return "worker-failed";
    case SpanKind::kWorkerRecovered: return "worker-recovered";
  }
  return "?";
}

bool is_instant(SpanKind kind) {
  switch (kind) {
    case SpanKind::kFetch:
    case SpanKind::kCompute:
    case SpanKind::kTransfer: return false;
    default: return true;
  }
}

void EventTracer::write_chrome_trace(std::ostream& out) const {
  JsonWriter w(out, /*indent=*/0);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const TraceSpan& s : spans_) {
    w.begin_object();
    w.member("name", to_string(s.kind));
    w.member("cat", "sim");
    w.member("ph", is_instant(s.kind) ? "i" : "X");
    w.member("ts", s.start * 1e6);  // simulated µs
    if (!is_instant(s.kind)) w.member("dur", s.duration_s * 1e6);
    w.member("pid", std::uint64_t{0});
    w.member("tid", std::uint64_t{s.track});
    if (is_instant(s.kind)) w.member("s", "t");  // thread-scoped instant
    w.key("args");
    w.begin_object();
    if (s.task.valid()) w.member("task", std::uint64_t{s.task.value()});
    if (s.bytes > 0) w.member("bytes", s.bytes);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.member("displayTimeUnit", "ms");
  w.key("otherData");
  w.begin_object();
  w.member("recorded", std::uint64_t{spans_.size()});
  w.end_object();
  w.end_object();
}

void EventTracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  WCS_CHECK_MSG(out.good(), "cannot open trace output " << path);
  write_chrome_trace(out);
}

LifecycleSummary task_lifecycle(const EventTracer& tracer) {
  LifecycleSummary summary;
  // Phases so far of every live instance. Each timestamp is taken from
  // the span that starts at it (a span's end is start + duration, which
  // need not round back to the recorded time).
  std::map<std::pair<TaskId, std::uint32_t>, TaskPhases> open;
  for (const TraceSpan& s : tracer.spans()) {
    const std::pair<TaskId, std::uint32_t> key{s.task, s.track};
    switch (s.kind) {
      case SpanKind::kAssign: {
        TaskPhases phases;
        phases.task = s.task;
        phases.worker = WorkerId(s.track);
        phases.assigned = s.start;
        open[key] = phases;
        break;
      }
      case SpanKind::kFetch:
        if (auto it = open.find(key); it != open.end())
          it->second.fetch_start = s.start;
        break;
      case SpanKind::kCompute:
        if (auto it = open.find(key); it != open.end())
          it->second.exec_start = s.start;
        break;
      case SpanKind::kComplete:
        if (auto it = open.find(key); it != open.end()) {
          TaskPhases& phases = it->second;
          phases.completed = s.start;
          summary.queue_wait.add(phases.queue_wait_s());
          summary.data_wait.add(phases.data_wait_s());
          summary.exec.add(phases.exec_s());
          summary.completed.push_back(phases);
          open.erase(it);
        }
        break;
      case SpanKind::kCancelled:
        open.erase(key);
        break;
      default:  // transfers, evictions, worker failures
        break;
    }
  }
  return summary;
}

}  // namespace wcs::obs
