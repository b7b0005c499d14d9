// Per-layer attribution of host time, measured from outside the program.
//
// The traced benchmark pass wraps the simulator's public boundaries:
//
//   TracedScheduler  decorator around the run's sched::Scheduler; every
//                    hook becomes a sched.submit or sched.decide span
//   TracedEngine     the sched::GridEngine the wrapped scheduler sees;
//                    assign_task / cancel_task become grid.assign spans
//                    and each cache listener it registers is wrapped in a
//                    sched.index span tagged with its storage::CacheEvent
//
// Spans nest on one stack, so a span's self time is its duration minus
// its child spans and minus the in-program PhaseProfiler phases (flow
// dirty-set, flow rebalance, cache eviction) that completed inside it
// and not inside a child. An eviction fires its kEvicted listener from
// inside the kCacheEviction phase (storage/file_cache.cc evict_one), so
// those listener spans are charged to sched.index and subtracted from
// the eviction phase instead of from the enclosing span. Each interval
// of traced time is therefore counted once; what no span or phase covers
// (event kernel, control-plane FSM, data servers, block store,
// replication) is the caller's grid.other_s.
//
// Every clock read is std::chrono::steady_clock, the clock the
// PhaseProfiler uses, so span and phase durations subtract cleanly.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "sched/scheduler.h"
#include "storage/file_cache.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kSubmit,  // Scheduler::on_job_submitted
  kDecide,  // on_worker_idle / on_task_completed / on_tasks_arrived /
            // on_worker_failed
  kAssign,  // GridEngine::assign_task / cancel_task
  kIndex,   // cache-listener callbacks (scheduler index upkeep)
};
inline constexpr std::size_t kNumLayers = 4;
inline constexpr std::size_t kNumCacheEvents = 3;

[[nodiscard]] const char* layer_name(Layer layer);

// One closed span. Ids start at 1; parent 0 means no enclosing span.
// `tag` is the storage::CacheEvent of a kIndex span, 0 otherwise.
struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  Layer layer = Layer::kSubmit;
  std::uint8_t tag = 0;
};

// Exact per-layer totals of one traced simulation.
struct LayerTotals {
  std::array<std::int64_t, kNumLayers> self_ns{};
  std::array<std::uint64_t, kNumLayers> calls{};
  // sched.index split by CacheEvent (kAdded, kEvicted, kAccessed).
  std::array<std::int64_t, kNumCacheEvents> index_self_ns{};
  std::array<std::uint64_t, kNumCacheEvents> index_calls{};
  // Duration of the kEvicted listener spans, all nested in the
  // profiler's kCacheEviction phase.
  std::int64_t evicted_listener_ns = 0;
};

// The span stack. Keeps every span's contribution in LayerTotals and the
// first `keep_spans` spans themselves in memory for the trace file.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t keep_spans);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // The profiler whose flow and eviction phases nest inside spans; set
  // once the simulation that owns it is constructed.
  void set_profiler(const wcs::obs::PhaseProfiler* profiler) {
    profiler_ = profiler;
  }

  void begin(Layer layer, std::uint8_t tag);
  void end();

  [[nodiscard]] const LayerTotals& totals() const { return totals_; }
  [[nodiscard]] std::vector<Span> take_spans() { return std::move(spans_); }

 private:
  struct Frame {
    std::uint64_t start_ns = 0;
    std::uint64_t phase_ns_at_start = 0;
    std::int64_t child_ns = 0;        // durations of child spans
    std::int64_t child_phase_ns = 0;  // phase time inside those children
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    Layer layer = Layer::kSubmit;
    std::uint8_t tag = 0;
  };

  // Flow dirty-set + flow rebalance + cache eviction time recorded so far.
  [[nodiscard]] std::uint64_t nested_phase_ns() const;

  const wcs::obs::PhaseProfiler* profiler_ = nullptr;
  std::size_t keep_spans_ = 0;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::uint32_t next_id_ = 0;
  LayerTotals totals_;
};

class SpanScope {
 public:
  SpanScope(SpanRecorder& recorder, Layer layer, std::uint8_t tag = 0)
      : recorder_(recorder) {
    recorder_.begin(layer, tag);
  }
  ~SpanScope() { recorder_.end(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& recorder_;
};

class TracedEngine;

// Forwards every Scheduler member to `inner` inside a span. `recorder`
// must outlive the decorator and every cache listener it registers, i.e.
// the GridSimulation that owns the decorator.
class TracedScheduler final : public wcs::sched::Scheduler {
 public:
  TracedScheduler(std::unique_ptr<wcs::sched::Scheduler> inner,
                  SpanRecorder& recorder);
  ~TracedScheduler() override;

  void attach(wcs::sched::GridEngine& engine) override;
  void on_job_submitted() override;
  void on_tasks_arrived(const std::vector<wcs::TaskId>& tasks) override;
  [[nodiscard]] bool supports_arrivals() const override;
  [[nodiscard]] std::size_t pending_count() const override;
  void on_worker_idle(wcs::WorkerId worker) override;
  void on_task_completed(wcs::TaskId task, wcs::WorkerId worker) override;
  void on_worker_failed(wcs::WorkerId worker,
                        const std::vector<wcs::TaskId>& lost) override;
  [[nodiscard]] std::string name() const override;
  void audit_collect(std::vector<wcs::audit::Violation>& out) const override;

 private:
  SpanRecorder& recorder_;
  // Declared before inner_ so the inner scheduler, which holds a
  // reference to the proxy, is destroyed first.
  std::unique_ptr<TracedEngine> proxy_;
  std::unique_ptr<wcs::sched::Scheduler> inner_;
};

}  // namespace perfbench
