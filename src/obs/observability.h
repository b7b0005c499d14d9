// Observability bundle: one per simulation, owning the event tracer and
// the phase profiler (each individually optional).
//
// Instrumentation contract (mirrors src/audit): every instrument is
// READ-ONLY over simulation state and never feeds a simulation decision,
// so an instrumented run is byte-identical to an uninstrumented one; with
// everything disabled the hooks reduce to null-pointer branches
// (overhead budget: < 2% on bench_micro, see DESIGN.md § Observability).
// Run totals live in metrics::RunResult, not here.
//
// Environment gates (read by Options::from_env(), the GridConfig
// default):
//   WCS_OBS=1    enable the phase profiler
//   WCS_TRACE=1  enable the in-memory event tracer
// Traces are only written to disk when a trace_path is set explicitly
// (benches: --trace-out; the env never sets a path, so parallel runs
// sharing a config cannot clobber one file).
#pragma once

#include <memory>
#include <string>

#include "obs/profiler.h"
#include "obs/trace.h"

namespace wcs::obs {

struct Options {
  bool profile = false;  // wall-clock phase profiler
  bool trace = false;    // append-only event tracer
  // Dump the Chrome trace here at end of run; empty = keep in memory.
  // Implies trace when non-empty.
  std::string trace_path;

  [[nodiscard]] bool any() const {
    return profile || trace || !trace_path.empty();
  }

  // Both instruments on (reports want everything).
  [[nodiscard]] static Options all();
  // WCS_OBS / WCS_TRACE, see the header comment.
  [[nodiscard]] static Options from_env();
};

class Observability {
 public:
  explicit Observability(const Options& options);

  // Null when the corresponding instrument is disabled — components hold
  // these pointers and branch on them (their only disabled-mode cost).
  [[nodiscard]] PhaseProfiler* profiler() { return profiler_.get(); }
  [[nodiscard]] const PhaseProfiler* profiler() const {
    return profiler_.get();
  }
  [[nodiscard]] EventTracer* tracer() { return tracer_.get(); }
  [[nodiscard]] const EventTracer* tracer() const { return tracer_.get(); }

  // End-of-run hook: writes the Chrome trace if a path was configured.
  void finish();

 private:
  std::string trace_path_;
  std::unique_ptr<PhaseProfiler> profiler_;
  std::unique_ptr<EventTracer> tracer_;
};

}  // namespace wcs::obs
