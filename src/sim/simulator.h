// Discrete-event simulation kernel.
//
// This is the SimGrid-equivalent substrate the paper's evaluation runs on
// (see DESIGN.md §2). It is a classic event-queue kernel: callbacks are
// scheduled at absolute simulated times; `run()` pops events in
// (time, insertion-sequence) order, so simultaneous events execute in the
// deterministic order they were scheduled. Everything above (network
// flows, data servers, workers, schedulers) is driven from these events.
//
// Layout: an indexed binary heap of small POD keys (time, seq, slot) and
// a slot table holding each event's callback, its heap position and a
// generation. Sifts move 24-byte keys, never callbacks. A fired or
// cancelled event's slot goes on a free list threaded through the slots'
// position field, so the kernel owns exactly two vectors, neither
// longer than the peak number of live events.
//
// An EventId is (generation << 32) | slot. The generation advances when
// the event fires or is cancelled, so a stale id (fired, cancelled, or
// its slot reused) is refused by cancel/reschedule. Cancel removes the
// key from the heap at once; `reschedule` moves a live event in place
// under the same id and gives it a fresh seq, so the FIFO tie-break is
// exactly that of a cancel followed by a schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "audit/checkers.h"
#include "common/check.h"
#include "common/ids.h"
#include "common/units.h"
#include "obs/profiler.h"

namespace wcs::sim {

using EventCallback = std::function<void()>;

class Simulator {
 public:
  Simulator() = default;

  // Non-copyable, non-movable: entities capture `this` in callbacks.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  // Attach a wall-clock phase profiler (nullptr detaches). Profiling is
  // read-only over kernel state: it never alters event order or timing.
  void set_profiler(obs::PhaseProfiler* profiler) { profiler_ = profiler; }

  // Schedule `cb` to run at now() + delay. delay must be >= 0.
  EventId schedule_in(SimTime delay, EventCallback cb) {
    WCS_CHECK_MSG(delay >= 0, "negative delay " << delay);
    return schedule_at(now_ + delay, std::move(cb));
  }

  // Schedule `cb` at the absolute simulated time `at` (>= now()).
  EventId schedule_at(SimTime at, EventCallback cb) {
    WCS_CHECK_MSG(at >= now_, "event in the past: " << at << " < " << now_);
    std::uint32_t s = free_head_;
    if (s == kNone) {
      s = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      free_head_ = slots_[s].pos;
    }
    Slot& slot = slots_[s];
    slot.cb = std::move(cb);
    ++scheduled_;
    ++live_count_;
    if (live_count_ > peak_live_) peak_live_ = live_count_;
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Key{at, next_seq_++, s});
    return EventId((std::uint64_t{slot.generation} << 32) | s);
  }

  // Cancel a pending event and drop its callback. Cancelling a fired,
  // cancelled or otherwise stale id is a no-op (returns false).
  bool cancel(EventId id) {
    const std::uint32_t s = live_slot(id);
    if (s == kNone) return false;
    remove_at(slots_[s].pos);
    slots_[s].cb = nullptr;
    release(s);
    ++cancelled_;
    return true;
  }

  // Move the live event `id` to the absolute time `at` (>= now()),
  // keeping its callback and id. It takes a fresh seq, so among events at
  // `at` it runs after every one scheduled before this call. Returns
  // false (and changes nothing) when `id` is stale.
  bool reschedule(EventId id, SimTime at) {
    WCS_CHECK_MSG(at >= now_, "event in the past: " << at << " < " << now_);
    const std::uint32_t s = live_slot(id);
    if (s == kNone) return false;
    ++rescheduled_;
    place(slots_[s].pos, Key{at, next_seq_++, s});
    return true;
  }

  // Run a single event. Returns false if no live event remains.
  bool step() {
    if (heap_.empty()) return false;
    const Key top = heap_.front();
    remove_at(0);
    // Move the callback out first: it may schedule, growing slots_, and
    // its own slot is free for reuse while it runs.
    EventCallback cb = std::move(slots_[top.slot].cb);
    release(top.slot);
    now_ = top.time;
    ++executed_;
    {
      obs::ScopedPhase phase(profiler_, obs::Phase::kEventDispatch);
      cb();
    }
    return true;
  }

  // Run until the queue drains.
  void run() {
    while (step()) {
    }
  }

  // Run events with time <= deadline, then set the clock to the deadline
  // (if it has not already passed it).
  void run_until(SimTime deadline) {
    while (!heap_.empty() && heap_.front().time <= deadline) step();
    if (now_ < deadline) now_ = deadline;
  }

  // True when no live (scheduled, uncancelled, unfired) events remain.
  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t executed_events() const { return executed_; }
  // High-water mark of simultaneously live events (queue pressure).
  [[nodiscard]] std::size_t peak_live_events() const { return peak_live_; }

  // --- Audit introspection ----------------------------------------------
  // The incrementally-maintained live counter (O(1)), and a recount of
  // the heap and slot table (O(peak live events)) with the lifetime
  // counters. The invariant auditor cross-checks one against the other.
  [[nodiscard]] std::size_t live_events() const { return live_count_; }

  // Everything but previous_now, which only the auditor knows.
  [[nodiscard]] audit::EventKernelSnapshot audit_snapshot() const {
    audit::EventKernelSnapshot r;
    r.now = now_;
    r.live_count = live_count_;
    r.slots = slots_.size();
    r.heap_size = heap_.size();
    r.scheduled = scheduled_;
    r.cancelled = cancelled_;
    r.fired = executed_;
    r.rescheduled = rescheduled_;
    r.seqs_issued = next_seq_;
    std::vector<bool> seen(slots_.size(), false);
    for (std::size_t i = 0; i < heap_.size(); ++i) {
      const std::uint32_t s = heap_[i].slot;
      if (s >= slots_.size() || seen[s] || slots_[s].pos != i) {
        ++r.misplaced;
      } else {
        seen[s] = true;
        ++r.in_heap;
      }
      if (i > 0 && before(heap_[i], heap_[(i - 1) / 2]))
        ++r.heap_order_violations;
    }
    for (std::uint32_t s = free_head_; s != kNone; s = slots_[s].pos) {
      if (s >= slots_.size() || seen[s]) {
        ++r.misplaced;  // also ends a cycle
        break;
      }
      seen[s] = true;
      ++r.on_free_list;
    }
    return r;
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  struct Key {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  struct Slot {
    EventCallback cb;
    // Heap position while live; the next free slot while free.
    std::uint32_t pos = kNone;
    std::uint32_t generation = 0;
  };

  // FIFO among simultaneous events: seq breaks time ties.
  static bool before(const Key& a, const Key& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  // The slot of a live event, or kNone for an invalid or stale id.
  [[nodiscard]] std::uint32_t live_slot(EventId id) const {
    if (!id.valid()) return kNone;
    const auto s = static_cast<std::uint32_t>(id.value());
    if (s >= slots_.size() ||
        slots_[s].generation != static_cast<std::uint32_t>(id.value() >> 32))
      return kNone;
    return s;
  }

  // Retire a fired or cancelled event's slot: stale its ids and push it
  // on the free list.
  void release(std::uint32_t s) {
    Slot& slot = slots_[s];
    ++slot.generation;
    slot.pos = free_head_;
    free_head_ = s;
    --live_count_;
  }

  void set(std::size_t i, const Key& k) {
    heap_[i] = k;
    slots_[k.slot].pos = static_cast<std::uint32_t>(i);
  }

  // Fill the hole at `i` with `k`, moving it toward the root.
  void sift_up(std::size_t i, const Key& k) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(k, heap_[parent])) break;
      set(i, heap_[parent]);
      i = parent;
    }
    set(i, k);
  }

  // Fill the hole at `i` with `k`, moving it toward the leaves.
  void sift_down(std::size_t i, const Key& k) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], k)) break;
      set(i, heap_[child]);
      i = child;
    }
    set(i, k);
  }

  // Put `k` at position `i` and restore the heap order around it.
  void place(std::size_t i, const Key& k) {
    if (i > 0 && before(k, heap_[(i - 1) / 2]))
      sift_up(i, k);
    else
      sift_down(i, k);
  }

  // Remove the key at position `i`; the last key fills the hole.
  void remove_at(std::size_t i) {
    const Key last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) place(i, last);
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNone;
  std::size_t live_count_ = 0;
  std::size_t peak_live_ = 0;
  std::size_t executed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t rescheduled_ = 0;
  obs::PhaseProfiler* profiler_ = nullptr;
};

}  // namespace wcs::sim
