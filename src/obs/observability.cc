#include "obs/observability.h"

#include <cstdlib>

namespace wcs::obs {

Options Options::all() {
  Options o;
  o.profile = o.trace = true;
  return o;
}

Options Options::from_env() {
  Options o;
  // detlint: nondet-source -- WCS_OBS run-config gate, read once at startup; instrumentation is read-only
  if (const char* env = std::getenv("WCS_OBS"); env && *env && *env != '0')
    o.profile = true;
  // detlint: nondet-source -- WCS_TRACE run-config gate, read once at startup; tracing is read-only
  if (const char* env = std::getenv("WCS_TRACE"); env && *env && *env != '0')
    o.trace = true;
  return o;
}

Observability::Observability(const Options& options)
    : trace_path_(options.trace_path) {
  if (options.profile) profiler_ = std::make_unique<PhaseProfiler>();
  if (options.trace || !trace_path_.empty())
    tracer_ = std::make_unique<EventTracer>();
}

void Observability::finish() {
  if (tracer_ && !trace_path_.empty()) tracer_->write_chrome_trace(trace_path_);
}

}  // namespace wcs::obs
