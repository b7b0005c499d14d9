// Unit tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/checkers.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace wcs::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
  EXPECT_TRUE(s.empty());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_in(3.0, [&] { order.push_back(3); });
  s.schedule_in(1.0, [&] { order.push_back(1); });
  s.schedule_in(2.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Simulator, SimultaneousEventsRunFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    s.schedule_in(5.0, [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator s;
  double seen = -1;
  s.schedule_in(2.5, [&] { seen = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(seen, 2.5);
}

TEST(Simulator, SchedulingInsideCallbacks) {
  Simulator s;
  std::vector<double> times;
  s.schedule_in(1.0, [&] {
    times.push_back(s.now());
    s.schedule_in(1.0, [&] { times.push_back(s.now()); });
  });
  s.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
  Simulator s;
  bool inner = false;
  s.schedule_in(1.0, [&] {
    s.schedule_in(0.0, [&] {
      inner = true;
      EXPECT_DOUBLE_EQ(s.now(), 1.0);
    });
  });
  s.run();
  EXPECT_TRUE(inner);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator s;
  EXPECT_THROW(s.schedule_in(-1.0, [] {}), std::logic_error);
}

TEST(Simulator, ScheduleAtPastThrows) {
  Simulator s;
  s.schedule_in(5.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(1.0, [] {}), std::logic_error);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  EventId id = s.schedule_in(1.0, [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelTwiceReturnsFalse) {
  Simulator s;
  EventId id = s.schedule_in(1.0, [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator s;
  EventId id = s.schedule_in(1.0, [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));
}

TEST(Simulator, CancelInvalidIdReturnsFalse) {
  Simulator s;
  EXPECT_FALSE(s.cancel(EventId::invalid()));
}

TEST(Simulator, CancelledEventDoesNotAdvanceClock) {
  Simulator s;
  EventId id = s.schedule_in(10.0, [] {});
  s.schedule_in(1.0, [] {});
  s.cancel(id);
  s.run();
  EXPECT_DOUBLE_EQ(s.now(), 1.0);
}

TEST(Simulator, CancelFromInsideCallback) {
  Simulator s;
  bool ran = false;
  EventId victim = s.schedule_in(2.0, [&] { ran = true; });
  s.schedule_in(1.0, [&] { EXPECT_TRUE(s.cancel(victim)); });
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator s;
  EXPECT_FALSE(s.step());
  s.schedule_in(1.0, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  std::vector<double> times;
  for (double t : {1.0, 2.0, 3.0, 4.0})
    s.schedule_in(t, [&times, &s] { times.push_back(s.now()); });
  s.run_until(2.5);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(s.now(), 2.5);
  s.run();
  EXPECT_EQ(times.size(), 4u);
}

TEST(Simulator, RunUntilIncludesDeadlineEvents) {
  Simulator s;
  int count = 0;
  s.schedule_in(2.0, [&] { ++count; });
  s.run_until(2.0);
  EXPECT_EQ(count, 1);
}

TEST(Simulator, EmptyReflectsLiveEvents) {
  Simulator s;
  EventId id = s.schedule_in(1.0, [] {});
  EXPECT_FALSE(s.empty());
  s.cancel(id);
  EXPECT_TRUE(s.empty());
}

TEST(Simulator, ExecutedEventsCountsOnlyFired) {
  Simulator s;
  s.schedule_in(1.0, [] {});
  EventId id = s.schedule_in(2.0, [] {});
  s.cancel(id);
  s.run();
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST(Simulator, CancellationStress) {
  // Heavy cancellation: half the events are cancelled before they fire.
  // A cancel takes the key out of the heap at once, so the live count,
  // the heap and the slot table agree after every call, and an id is
  // refused once its event fired or was cancelled.
  Simulator s;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 5000; ++i)
    ids.push_back(s.schedule_in((i * 131) % 997, [&] { ++fired; }));
  for (int i = 0; i < 5000; i += 2) EXPECT_TRUE(s.cancel(ids[i]));
  EXPECT_EQ(s.live_events(), 2500u);
  EXPECT_EQ(s.audit_snapshot().heap_size, 2500u);
  s.run();
  EXPECT_EQ(fired, 2500);
  EXPECT_EQ(s.executed_events(), 2500u);
  EXPECT_TRUE(s.empty());
  for (EventId id : ids) {
    EXPECT_FALSE(s.cancel(id));
    EXPECT_FALSE(s.reschedule(id, s.now()));
  }
  // Every slot is back on the free list; nothing else is kept.
  const audit::EventKernelSnapshot snap = s.audit_snapshot();
  EXPECT_EQ(snap.slots, 5000u);
  EXPECT_EQ(snap.on_free_list, 5000u);
  EXPECT_EQ(snap.cancelled, 2500u);
  EXPECT_EQ(snap.fired, 2500u);
}

TEST(Simulator, RunUntilIgnoresCancelledEventsAtTheTop) {
  // A cancelled event before the deadline must not cause run_until to
  // execute a live event that lies beyond the deadline.
  Simulator s;
  bool late_ran = false;
  EventId early = s.schedule_in(1.0, [] {});
  s.schedule_in(10.0, [&] { late_ran = true; });
  EXPECT_TRUE(s.cancel(early));
  EXPECT_EQ(s.audit_snapshot().heap_size, 1u);  // no tombstone left
  s.run_until(5.0);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(s.executed_events(), 0u);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  s.run();
  EXPECT_TRUE(late_ran);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator s;
  double last = -1;
  int count = 0;
  for (int i = 0; i < 10000; ++i) {
    double t = (i * 7919) % 1000;  // scrambled insertion order
    s.schedule_in(t, [&, t] {
      EXPECT_LE(last, s.now());
      EXPECT_DOUBLE_EQ(s.now(), t);
      last = s.now();
      ++count;
    });
  }
  s.run();
  EXPECT_EQ(count, 10000);
}

// --- reschedule and the id lifecycle -------------------------------------

TEST(Simulator, IdStaysValidAcrossReschedule) {
  Simulator s;
  double seen = -1;
  const EventId id = s.schedule_in(5.0, [&] { seen = s.now(); });
  EXPECT_TRUE(s.reschedule(id, 8.0));
  EXPECT_TRUE(s.reschedule(id, 2.0));
  EXPECT_EQ(s.live_events(), 1u);
  s.run();
  EXPECT_DOUBLE_EQ(seen, 2.0);
  EXPECT_EQ(s.executed_events(), 1u);

  const EventId again = s.schedule_in(1.0, [] {});
  EXPECT_TRUE(s.reschedule(again, 4.0));
  EXPECT_TRUE(s.cancel(again));  // the same id cancels after a move
  EXPECT_TRUE(s.empty());
}

TEST(Simulator, RescheduleTakesAFreshSeq) {
  // Equal times: a moved event runs after every event scheduled before
  // the move, exactly as a cancel followed by a schedule would.
  Simulator s;
  std::vector<int> order;
  const EventId a = s.schedule_in(5.0, [&] { order.push_back(0); });
  s.schedule_in(5.0, [&] { order.push_back(1); });
  s.schedule_in(3.0, [&] { order.push_back(2); });
  EXPECT_TRUE(s.reschedule(a, 5.0));
  s.schedule_in(5.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0, 3}));
}

TEST(Simulator, StaleIdRefusedAfterFire) {
  Simulator s;
  const EventId id = s.schedule_in(1.0, [] {});
  s.run();
  EXPECT_FALSE(s.reschedule(id, 3.0));
  EXPECT_FALSE(s.cancel(id));
  EXPECT_TRUE(s.empty());
}

TEST(Simulator, StaleIdRefusedAfterCancel) {
  Simulator s;
  const EventId id = s.schedule_in(1.0, [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.reschedule(id, 3.0));
  EXPECT_TRUE(s.empty());
}

TEST(Simulator, StaleIdRefusedAfterSlotReuse) {
  Simulator s;
  bool ran = false;
  const EventId old_id = s.schedule_in(1.0, [] {});
  EXPECT_TRUE(s.cancel(old_id));
  const EventId new_id = s.schedule_in(2.0, [&] { ran = true; });
  // The freed slot serves the new event under a new generation.
  EXPECT_EQ(static_cast<std::uint32_t>(new_id.value()),
            static_cast<std::uint32_t>(old_id.value()));
  EXPECT_NE(new_id, old_id);
  EXPECT_FALSE(s.cancel(old_id));
  EXPECT_FALSE(s.reschedule(old_id, 9.0));
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(Simulator, RescheduleIntoThePastThrows) {
  Simulator s;
  const EventId id = s.schedule_in(10.0, [] {});
  s.schedule_in(5.0, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_THROW((void)s.reschedule(id, 4.0), std::logic_error);
  EXPECT_TRUE(s.reschedule(id, 5.0));  // now() itself is allowed
}

TEST(Simulator, OwnIdIsStaleInsideItsCallback) {
  // A firing event's slot is already free: the callback can neither
  // cancel nor move itself, and an event it schedules may reuse the slot.
  Simulator s;
  EventId self;
  EventId child;
  self = s.schedule_in(1.0, [&] {
    EXPECT_FALSE(s.cancel(self));
    EXPECT_FALSE(s.reschedule(self, 2.0));
    child = s.schedule_in(1.0, [] {});
  });
  s.run();
  EXPECT_NE(child, self);
  EXPECT_EQ(s.executed_events(), 2u);
}

// --- reference model -------------------------------------------------------

// A brute-force kernel: every event ever scheduled in one list, the next
// one found by a linear scan for the least (time, seq) among live ones.
class ReferenceKernel {
 public:
  using Id = std::size_t;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t live_events() const {
    std::size_t n = 0;
    for (const Event& e : events_) n += e.live ? 1 : 0;
    return n;
  }

  Id schedule_at(SimTime at, std::function<void()> cb) {
    if (at < now_) throw std::logic_error("event in the past");
    events_.push_back(Event{at, seq_++, std::move(cb), true});
    return events_.size() - 1;
  }
  bool cancel(Id id) {
    if (!events_[id].live) return false;
    events_[id].live = false;
    return true;
  }
  bool reschedule(Id id, SimTime at) {
    if (at < now_) throw std::logic_error("event in the past");
    if (!events_[id].live) return false;
    events_[id].time = at;
    events_[id].seq = seq_++;
    return true;
  }
  bool step() {
    const std::size_t next = earliest();
    if (next == events_.size()) return false;
    events_[next].live = false;
    now_ = events_[next].time;
    std::function<void()> cb = std::move(events_[next].cb);
    cb();
    return true;
  }
  void run_until(SimTime deadline) {
    for (std::size_t e = earliest();
         e != events_.size() && events_[e].time <= deadline; e = earliest())
      step();
    if (now_ < deadline) now_ = deadline;
  }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> cb;
    bool live;
  };

  [[nodiscard]] std::size_t earliest() const {
    std::size_t best = events_.size();
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      if (!e.live) continue;
      if (best == events_.size() || e.time < events_[best].time ||
          (e.time == events_[best].time && e.seq < events_[best].seq))
        best = i;
    }
    return best;
  }

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::vector<Event> events_;
};

// Drives `kernel` with a seeded random stream of schedule / cancel /
// reschedule / step / run_until calls, some made from inside callbacks,
// and logs every return value, firing and clock reading. Cancel and
// reschedule pick any id handed out so far, fired and cancelled ones
// included. Delays are small integers, so equal times (and the FIFO
// tie-break) are common.
template <typename Kernel>
class Script {
 public:
  explicit Script(std::uint64_t seed) : rng_(seed) {}

  std::string run(int top_level_ops) {
    for (int i = 0; i < top_level_ops; ++i) {
      switch (rng_.index(6)) {
        case 0:
        case 1: schedule(); break;
        case 2: cancel(); break;
        case 3: reschedule(); break;
        case 4: log_ << "step " << kernel_.step() << '\n'; break;
        default: {
          const SimTime deadline = kernel_.now() + delay();
          kernel_.run_until(deadline);
          log_ << "run_until " << deadline << '\n';
        }
      }
      log_ << "now " << kernel_.now() << " live " << kernel_.live_events()
           << '\n';
    }
    while (kernel_.step()) {
    }
    log_ << "drained at " << kernel_.now() << '\n';
    return log_.str();
  }

  Kernel& kernel() { return kernel_; }

 private:
  SimTime delay() { return static_cast<SimTime>(rng_.index(4)); }

  void schedule() {
    const int tag = next_tag_++;
    ids_.push_back(kernel_.schedule_at(kernel_.now() + delay(),
                                       [this, tag] { fire(tag); }));
    log_ << "schedule " << tag << '\n';
  }
  void cancel() {
    if (ids_.empty()) return;
    const std::size_t pick = rng_.index(ids_.size());
    log_ << "cancel " << pick << ' ' << kernel_.cancel(ids_[pick]) << '\n';
  }
  void reschedule() {
    if (ids_.empty()) return;
    const std::size_t pick = rng_.index(ids_.size());
    const SimTime at = kernel_.now() + delay();
    log_ << "reschedule " << pick << ' ' << at << ' '
         << kernel_.reschedule(ids_[pick], at) << '\n';
  }
  // A firing event logs itself, then makes up to two nested calls.
  void fire(int tag) {
    log_ << "fire " << tag << " at " << kernel_.now() << '\n';
    for (std::size_t n = rng_.index(3); n > 0; --n) {
      switch (rng_.index(4)) {
        case 0:
          if (next_tag_ < 4000) schedule();
          break;
        case 1: cancel(); break;
        default: reschedule();
      }
    }
  }

  Kernel kernel_;
  Rng rng_;
  std::vector<decltype(std::declval<Kernel&>().schedule_at(
      0, std::function<void()>{}))> ids_;
  std::ostringstream log_;
  int next_tag_ = 0;
};

TEST(Simulator, MatchesSortedListReferenceModel) {
  for (std::uint64_t seed : {3u, 17u, 29u, 101u}) {
    SCOPED_TRACE(seed);
    Script<Simulator> real(seed);
    Script<ReferenceKernel> model(seed);
    const std::string got = real.run(1500);
    const std::string want = model.run(1500);
    EXPECT_EQ(got, want);
    EXPECT_GT(got.size(), 10000u);
    std::vector<audit::Violation> out;
    audit::check_event_kernel(real.kernel().audit_snapshot(), out);
    EXPECT_TRUE(out.empty());
  }
}

}  // namespace
}  // namespace wcs::sim
