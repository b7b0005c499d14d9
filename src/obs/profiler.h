// Phase profiler: where does a run spend its host (wall-clock) time?
//
// Components bracket their hot sections with ScopedPhase; the profiler
// accumulates call counts and wall nanoseconds per phase so a run report
// can attribute host time to scheduler decisions vs flow reallocation vs
// cache eviction vs everything else the event loop dispatches
// (DESIGN.md § Observability). ScopedPhase on a null profiler costs one
// branch and never reads the clock, so profiling off is effectively free.
//
// Wall time is host-machine measurement and therefore NOT deterministic;
// it feeds run reports and never any simulation decision, keeping
// instrumented results byte-identical to uninstrumented ones.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

namespace wcs::obs {

class JsonWriter;

enum class Phase : std::uint8_t {
  kEventDispatch,      // event-kernel callback execution (everything)
  kSchedulerDecision,  // scheduler hooks: choose/assign/replicate
  kFlowDirtySet,       // flow churn: flood through saturated links,
                       // widening, slack certification of dropped links
  kFlowRebalance,      // max-min progressive filling over the component
                       // + settling and rescheduling changed flows
  kCacheEviction,      // victim selection + eviction bookkeeping
  kReporting,          // end-of-run trace flush
};
inline constexpr std::size_t kNumPhases = 6;

[[nodiscard]] const char* to_string(Phase phase);

class PhaseProfiler {
 public:
  struct Slot {
    std::uint64_t calls = 0;
    std::uint64_t wall_ns = 0;
  };

  // Adds `wall_ns` to the phase. new_call = false resumes the phase's
  // current call: a section re-entered after an interleaved phase adds
  // time but is not a new call (see PhaseSequence).
  void record(Phase phase, std::uint64_t wall_ns, bool new_call = true) {
    Slot& s = slots_[static_cast<std::size_t>(phase)];
    if (new_call) ++s.calls;
    s.wall_ns += wall_ns;
  }

  [[nodiscard]] const Slot& slot(Phase phase) const {
    return slots_[static_cast<std::size_t>(phase)];
  }

  // [{"phase": ..., "calls": ..., "wall_ms": ...}, ...] for every phase
  // with at least one call.
  void write_json(JsonWriter& w) const;

 private:
  std::array<Slot, kNumPhases> slots_{};
};

// RAII phase scope. Null-safe: with a null profiler the constructor and
// destructor are a single branch each.
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfiler* profiler, Phase phase)
      : profiler_(profiler), phase_(phase) {
    // detlint: nondet-source -- wall-clock phase profiling; measurements never feed back into simulation state
    if (profiler_) start_ = std::chrono::steady_clock::now();
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  ~ScopedPhase() {
    if (!profiler_) return;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() -  // detlint: nondet-source -- wall-clock phase profiling; never feeds back into simulation state
                  start_)
                  .count();
    profiler_->record(phase_, static_cast<std::uint64_t>(ns));
  }

 private:
  PhaseProfiler* profiler_ = nullptr;
  Phase phase_ = Phase::kEventDispatch;
  // detlint: nondet-source -- wall-clock profiling state, not simulation state
  std::chrono::steady_clock::time_point start_{};
};

// Times a run of back-to-back sections, each charged to one phase, with
// one clock read per boundary where a ScopedPhase per section would read
// it twice (the flow allocator alternates its two phases up to four
// times per reallocation round). Sections do not nest: enter() ends the
// current one. Null-safe like ScopedPhase; the destructor ends the last
// section.
class PhaseSequence {
 public:
  explicit PhaseSequence(PhaseProfiler* profiler) : profiler_(profiler) {}

  PhaseSequence(const PhaseSequence&) = delete;
  PhaseSequence& operator=(const PhaseSequence&) = delete;

  ~PhaseSequence() {
    if (profiler_ && open_) close(clock::now());  // detlint: nondet-source -- wall-clock phase profiling; never feeds back into simulation state
  }

  // End the current section and start one charged to `phase`.
  // new_call = false resumes the phase's current call.
  void enter(Phase phase, bool new_call = true) {
    if (!profiler_) return;
    // detlint: nondet-source -- wall-clock phase profiling; measurements never feed back into simulation state
    const clock::time_point now = clock::now();
    if (open_) close(now);
    open_ = true;
    phase_ = phase;
    new_call_ = new_call;
    start_ = now;
  }

 private:
  // detlint: nondet-source -- wall-clock profiling state, not simulation state
  using clock = std::chrono::steady_clock;

  void close(clock::time_point now) {
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_)
            .count();
    profiler_->record(phase_, static_cast<std::uint64_t>(ns), new_call_);
  }

  PhaseProfiler* profiler_ = nullptr;
  bool open_ = false;
  Phase phase_ = Phase::kEventDispatch;
  bool new_call_ = true;
  clock::time_point start_{};
};

}  // namespace wcs::obs
