#include "layer_trace.h"

#include <chrono>
#include <utility>

namespace perfbench {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr auto kEvictedTag =
    static_cast<std::uint8_t>(wcs::storage::CacheEvent::kEvicted);

}  // namespace

// The sched::GridEngine a traced scheduler attaches to: forwards every
// member to the real engine, timing the mutating calls and the cache
// listeners it registers.
class TracedEngine final : public wcs::sched::GridEngine {
 public:
  TracedEngine(wcs::sched::GridEngine& engine, SpanRecorder& recorder)
      : engine_(engine), recorder_(recorder) {}

  [[nodiscard]] const wcs::workload::Job& job() const override {
    return engine_.job();
  }
  [[nodiscard]] const wcs::workload::ArrivalSchedule* arrivals()
      const override {
    return engine_.arrivals();
  }
  [[nodiscard]] std::size_t num_sites() const override {
    return engine_.num_sites();
  }
  [[nodiscard]] std::size_t num_workers() const override {
    return engine_.num_workers();
  }
  [[nodiscard]] wcs::SiteId site_of(wcs::WorkerId worker) const override {
    return engine_.site_of(worker);
  }
  [[nodiscard]] const wcs::storage::FileCache& site_cache(
      wcs::SiteId site) const override {
    return engine_.site_cache(site);
  }
  void set_cache_listener(wcs::SiteId site,
                          wcs::storage::CacheListener listener) override {
    if (!listener) {
      engine_.set_cache_listener(site, std::move(listener));
      return;
    }
    engine_.set_cache_listener(
        site, [&recorder = recorder_, inner = std::move(listener)](
                  wcs::storage::CacheEvent event, wcs::FileId file) {
          SpanScope span(recorder, Layer::kIndex,
                         static_cast<std::uint8_t>(event));
          inner(event, file);
        });
  }
  void assign_task(wcs::TaskId task, wcs::WorkerId worker) override {
    SpanScope span(recorder_, Layer::kAssign);
    engine_.assign_task(task, worker);
  }
  bool cancel_task(wcs::TaskId task, wcs::WorkerId worker) override {
    SpanScope span(recorder_, Layer::kAssign);
    return engine_.cancel_task(task, worker);
  }
  [[nodiscard]] bool worker_alive(wcs::WorkerId worker) const override {
    return engine_.worker_alive(worker);
  }
  [[nodiscard]] std::size_t worker_backlog(
      wcs::WorkerId worker) const override {
    return engine_.worker_backlog(worker);
  }
  [[nodiscard]] double estimated_uplink_bandwidth(
      wcs::SiteId site) const override {
    return engine_.estimated_uplink_bandwidth(site);
  }
  [[nodiscard]] double estimated_site_mflops(wcs::SiteId site) const override {
    return engine_.estimated_site_mflops(site);
  }
  [[nodiscard]] std::size_t data_server_backlog(
      wcs::SiteId site) const override {
    return engine_.data_server_backlog(site);
  }

 private:
  wcs::sched::GridEngine& engine_;
  SpanRecorder& recorder_;
};

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSubmit: return "sched.submit";
    case Layer::kDecide: return "sched.decide";
    case Layer::kAssign: return "grid.assign";
    case Layer::kIndex: return "sched.index";
  }
  return "unknown";
}

SpanRecorder::SpanRecorder(std::size_t keep_spans) : keep_spans_(keep_spans) {
  spans_.reserve(keep_spans_);
  stack_.reserve(16);
}

std::uint64_t SpanRecorder::nested_phase_ns() const {
  if (profiler_ == nullptr) return 0;
  using wcs::obs::Phase;
  return profiler_->slot(Phase::kFlowDirtySet).wall_ns +
         profiler_->slot(Phase::kFlowRebalance).wall_ns +
         profiler_->slot(Phase::kCacheEviction).wall_ns;
}

void SpanRecorder::begin(Layer layer, std::uint8_t tag) {
  Frame& f = stack_.emplace_back();
  f.id = ++next_id_;
  f.parent = stack_.size() > 1 ? stack_[stack_.size() - 2].id : 0;
  f.layer = layer;
  f.tag = tag;
  f.phase_ns_at_start = nested_phase_ns();
  f.start_ns = now_ns();  // last, so the bookkeeping stays outside
}

void SpanRecorder::end() {
  const std::uint64_t end_ns = now_ns();  // first, for the same reason
  const Frame f = stack_.back();
  stack_.pop_back();
  const auto duration = static_cast<std::int64_t>(end_ns - f.start_ns);
  const auto phase =
      static_cast<std::int64_t>(nested_phase_ns() - f.phase_ns_at_start);
  const std::int64_t self = duration - f.child_ns - (phase - f.child_phase_ns);

  const auto layer = static_cast<std::size_t>(f.layer);
  totals_.self_ns[layer] += self;
  ++totals_.calls[layer];
  if (f.layer == Layer::kIndex) {
    totals_.index_self_ns[f.tag] += self;
    ++totals_.index_calls[f.tag];
  }
  if (f.layer == Layer::kIndex && f.tag == kEvictedTag) {
    // Runs inside a kCacheEviction phase; the enclosing span subtracts
    // that phase whole, and the eviction total gives this time back.
    totals_.evicted_listener_ns += duration;
  } else if (!stack_.empty()) {
    stack_.back().child_ns += duration;
    stack_.back().child_phase_ns += phase;
  }
  if (spans_.size() < keep_spans_)
    spans_.push_back({f.start_ns, end_ns, f.id, f.parent, f.layer, f.tag});
}

TracedScheduler::TracedScheduler(std::unique_ptr<wcs::sched::Scheduler> inner,
                                 SpanRecorder& recorder)
    : recorder_(recorder), inner_(std::move(inner)) {}

TracedScheduler::~TracedScheduler() = default;

void TracedScheduler::attach(wcs::sched::GridEngine& engine) {
  Scheduler::attach(engine);
  proxy_ = std::make_unique<TracedEngine>(engine, recorder_);
  inner_->attach(*proxy_);
}

void TracedScheduler::on_job_submitted() {
  SpanScope span(recorder_, Layer::kSubmit);
  inner_->on_job_submitted();
}

void TracedScheduler::on_tasks_arrived(const std::vector<wcs::TaskId>& tasks) {
  SpanScope span(recorder_, Layer::kDecide);
  inner_->on_tasks_arrived(tasks);
}

bool TracedScheduler::supports_arrivals() const {
  return inner_->supports_arrivals();
}

std::size_t TracedScheduler::pending_count() const {
  return inner_->pending_count();
}

void TracedScheduler::on_worker_idle(wcs::WorkerId worker) {
  SpanScope span(recorder_, Layer::kDecide);
  inner_->on_worker_idle(worker);
}

void TracedScheduler::on_task_completed(wcs::TaskId task,
                                        wcs::WorkerId worker) {
  SpanScope span(recorder_, Layer::kDecide);
  inner_->on_task_completed(task, worker);
}

void TracedScheduler::on_worker_failed(wcs::WorkerId worker,
                                       const std::vector<wcs::TaskId>& lost) {
  SpanScope span(recorder_, Layer::kDecide);
  inner_->on_worker_failed(worker, lost);
}

std::string TracedScheduler::name() const { return inner_->name(); }

void TracedScheduler::audit_collect(
    std::vector<wcs::audit::Violation>& out) const {
  inner_->audit_collect(out);
}

}  // namespace perfbench
