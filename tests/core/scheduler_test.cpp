#include "avsec/core/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "avsec/core/rng.hpp"

namespace avsec::core {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sim;
  std::vector<int> order;
  sim.schedule_at(nanoseconds(30), [&] { order.push_back(3); });
  sim.schedule_at(nanoseconds(10), [&] { order.push_back(1); });
  sim.schedule_at(nanoseconds(20), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), nanoseconds(30));
}

TEST(Scheduler, SameTimeEventsFireInScheduleOrder) {
  Scheduler sim;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sim.schedule_at(microseconds(5), [&, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ScheduleInUsesCurrentTime) {
  Scheduler sim;
  SimTime fired_at = -1;
  sim.schedule_in(nanoseconds(5), [&] {
    sim.schedule_in(nanoseconds(7), [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, nanoseconds(12));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sim;
  bool ran = false;
  auto h = sim.schedule_in(nanoseconds(1), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelTwiceReturnsFalse) {
  Scheduler sim;
  auto h = sim.schedule_in(nanoseconds(1), [] {});
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
  sim.run();
}

TEST(Scheduler, CancelInvalidHandleReturnsFalse) {
  Scheduler sim;
  EventHandle h;
  EXPECT_FALSE(sim.cancel(h));
}

TEST(Scheduler, CancelAfterExecutionIsNoOp) {
  Scheduler sim;
  bool ran = false;
  auto h = sim.schedule_in(nanoseconds(1), [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(sim.cancel(h));  // already executed
  // Bookkeeping stays consistent: nothing pending, later events still run.
  EXPECT_EQ(sim.pending(), 0u);
  int count = 0;
  sim.schedule_in(nanoseconds(1), [&] { ++count; });
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(count, 1);
}

TEST(Scheduler, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler sim;
  int count = 0;
  sim.schedule_at(nanoseconds(10), [&] { ++count; });
  sim.schedule_at(nanoseconds(20), [&] { ++count; });
  sim.schedule_at(nanoseconds(30), [&] { ++count; });
  EXPECT_EQ(sim.run_until(nanoseconds(20)), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), nanoseconds(20));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_in(nanoseconds(1), recurse);
  };
  sim.schedule_in(nanoseconds(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), nanoseconds(100));
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler sim;
  int count = 0;
  sim.schedule_in(nanoseconds(1), [&] { ++count; });
  sim.schedule_in(nanoseconds(2), [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, CancelFromEarlierEventPreventsSameTimeFire) {
  // An event that fires first at time T can cancel another event also
  // scheduled at T (the watchdog-disarm pattern).
  Scheduler sim;
  bool late_ran = false;
  EventHandle late = sim.schedule_at(nanoseconds(10), [&] { late_ran = true; });
  sim.schedule_at(nanoseconds(5), [&] { EXPECT_TRUE(sim.cancel(late)); });
  sim.run();
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Scheduler, CancelDuringRunSkipsLaterEvent) {
  Scheduler sim;
  std::vector<int> order;
  EventHandle victim =
      sim.schedule_at(nanoseconds(30), [&] { order.push_back(3); });
  sim.schedule_at(nanoseconds(10), [&] {
    order.push_back(1);
    sim.cancel(victim);
  });
  sim.schedule_at(nanoseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, SelfCancelInsideCallbackReturnsFalse) {
  // By the time a callback runs, its own handle is already spent.
  Scheduler sim;
  EventHandle self;
  bool result = true;
  self = sim.schedule_in(nanoseconds(1), [&] { result = sim.cancel(self); });
  sim.run();
  EXPECT_FALSE(result);
}

TEST(Scheduler, PendingExcludesLazilyCancelledEvents) {
  Scheduler sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(sim.schedule_at(nanoseconds(10 + i), [] {}));
  }
  EXPECT_EQ(sim.pending(), 10u);
  for (int i = 0; i < 10; i += 2) sim.cancel(handles[i]);
  // Cancelled events sit in the queue until popped, but pending() reports
  // only live work.
  EXPECT_EQ(sim.pending(), 5u);
  EXPECT_EQ(sim.run(), 5u);  // run() counts only executed callbacks
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Scheduler, StaleHandleDoesNotCancelNewerEvent) {
  // The cancel-then-rearm pattern (bus-off recovery, retransmit timers):
  // a handle left over from a cancelled timer must never hit its
  // replacement.
  Scheduler sim;
  int fired = 0;
  EventHandle old_timer = sim.schedule_in(nanoseconds(10), [&] { ++fired; });
  ASSERT_TRUE(sim.cancel(old_timer));
  EventHandle new_timer = sim.schedule_in(nanoseconds(10), [&] { ++fired; });
  EXPECT_FALSE(sim.cancel(old_timer));  // stale: ids are never reused
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.cancel(new_timer));  // already executed
}

TEST(Scheduler, CancelAllPendingThenRunExecutesNothing) {
  Scheduler sim;
  int fired = 0;
  std::vector<EventHandle> handles;
  for (int i = 1; i <= 5; ++i) {
    handles.push_back(sim.schedule_at(nanoseconds(i), [&] { ++fired; }));
  }
  for (auto& h : handles) EXPECT_TRUE(sim.cancel(h));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 0);  // cancelled events do not advance the clock
}

TEST(Scheduler, RepeatedCancelCannotDoubleCountPending) {
  // Regression: cancelling the same handle twice (or after the event fired)
  // must count the cancellation at most once, or pending() under-reports
  // and run_until() terminates early.
  Scheduler sim;
  auto a = sim.schedule_at(nanoseconds(10), [] {});
  sim.schedule_at(nanoseconds(20), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_EQ(sim.pending(), 1u);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(sim.cancel(a));
  EXPECT_EQ(sim.pending(), 1u);  // still exactly one live event
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Scheduler, CancelAfterFireDoesNotCorruptPending) {
  Scheduler sim;
  auto a = sim.schedule_at(nanoseconds(1), [] {});
  sim.run();
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(sim.cancel(a));
  sim.schedule_at(nanoseconds(5), [] {});
  sim.schedule_at(nanoseconds(6), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Scheduler, RunUntilIgnoresCancelledTombstoneInsideWindow) {
  // A cancelled event inside the window must not let run_until execute a
  // live event scheduled beyond the boundary.
  Scheduler sim;
  int fired = 0;
  auto victim = sim.schedule_at(nanoseconds(10), [&] { ++fired; });
  sim.schedule_at(nanoseconds(30), [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(victim));
  EXPECT_EQ(sim.run_until(nanoseconds(20)), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), nanoseconds(20));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, ManyCancellationsStayConsistentUnderChurn) {
  // Mixed schedule/cancel/run churn: pending() must always equal the count
  // of events that eventually fire.
  Scheduler sim;
  int fired = 0;
  std::vector<EventHandle> handles;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 10; ++i) {
      handles.push_back(
          sim.schedule_in(nanoseconds(1 + (round * 10 + i) % 7), [&] { ++fired; }));
    }
    // Cancel every third handle, some of them twice.
    for (std::size_t i = 0; i < handles.size(); i += 3) {
      sim.cancel(handles[i]);
      sim.cancel(handles[i]);
    }
    const std::size_t live = sim.pending();
    EXPECT_EQ(sim.run(), live);
    handles.clear();
  }
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_GT(fired, 0);
}

// --- reset-determinism: fresh vs reset-and-reused ----------------------

// One pseudo-random scheduling workload, heavy on cancellation so the
// settled bits and lazy-removal paths are exercised: a fraction of events
// get cancelled (some before running, some doubly), and every dispatch
// appends (time, tag) to the log. The log is the run's full observable
// behavior.
std::vector<std::pair<SimTime, int>> drive(Scheduler& sim,
                                           std::uint64_t seed) {
  std::vector<std::pair<SimTime, int>> log;
  Rng rng(seed);
  std::vector<EventHandle> handles;
  for (int tag = 0; tag < 200; ++tag) {
    const SimTime at = static_cast<SimTime>(rng.next() % 10'000);
    handles.push_back(sim.schedule_at(at, [&log, &sim, tag] {
      log.emplace_back(sim.now(), tag);
    }));
  }
  // Cancel ~a third, with repeats (double-cancel must stay a no-op).
  for (int i = 0; i < 100; ++i) {
    const std::size_t k = rng.next() % handles.size();
    sim.cancel(handles[k]);
  }
  // Mid-run rescheduling, interleaved with a bounded run_until so
  // cancelled tombstones are drained at window boundaries too.
  sim.run_until(5'000);
  for (int tag = 200; tag < 260; ++tag) {
    const SimTime at =
        sim.now() + static_cast<SimTime>(rng.next() % 5'000);
    handles.push_back(sim.schedule_at(at, [&log, &sim, tag] {
      log.emplace_back(sim.now(), tag);
    }));
  }
  for (int i = 0; i < 30; ++i) {
    const std::size_t k = rng.next() % handles.size();
    sim.cancel(handles[k]);
  }
  sim.run();
  return log;
}

TEST(Scheduler, ReuseAfterResetIsBitIdentical) {
  Scheduler fresh;
  const auto expected = drive(fresh, 7);
  ASSERT_FALSE(expected.empty());

  // Three rounds over one scheduler: each reset must restore the exact
  // fresh state (ids, clock, settled bits, tombstone count), so every
  // round reproduces the fresh log bit for bit.
  Scheduler reused;
  for (int round = 0; round < 3; ++round) {
    reused.reset();
    EXPECT_EQ(drive(reused, 7), expected) << "round " << round;
  }
}

TEST(Scheduler, ResetRestoresFreshObservableState) {
  Scheduler sim;
  sim.schedule_at(10, [] {});
  auto h = sim.schedule_at(20, [] {});
  sim.cancel(h);
  sim.schedule_at(30, [] {});
  sim.run_until(15);
  EXPECT_GT(sim.dispatched(), 0u);
  EXPECT_GT(sim.now(), 0);
  EXPECT_EQ(sim.pending(), 1u);

  sim.reset();
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.dispatched(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.dispatch_observer(), nullptr);
}

TEST(Scheduler, BoxedBodiesAreReleasedExactlyOnce) {
  // Each body holds a copy of `token`, which makes it boxed (a
  // shared_ptr is not trivially copyable). A body that is never released
  // leaves the use count above 1; one released twice frees its box twice,
  // which the sanitizer builds report.
  const auto token = std::make_shared<int>(0);

  {  // dispatched
    Scheduler sim;
    sim.schedule_at(10, [token] {});
    EXPECT_EQ(token.use_count(), 2);
    sim.run();
    EXPECT_EQ(token.use_count(), 1);
  }
  {  // cancelled: released when the tombstone is dropped, not before
    Scheduler sim;
    sim.cancel(sim.schedule_at(10, [token] {}));
    sim.schedule_at(20, [] {});
    EXPECT_EQ(token.use_count(), 2);
    sim.run();
    EXPECT_EQ(token.use_count(), 1);
  }
  {  // pending and cancelled bodies at reset()
    Scheduler sim;
    sim.schedule_at(10, [token] {});
    sim.cancel(sim.schedule_at(20, [token] {}));
    EXPECT_EQ(token.use_count(), 3);
    sim.reset();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(sim.run(), 0u);
  }
  {  // pending and cancelled bodies at destruction
    Scheduler sim;
    sim.schedule_at(10, [token] {});
    sim.cancel(sim.schedule_at(20, [token] {}));
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
  {  // a body that throws
    Scheduler sim;
    sim.schedule_at(10, [token] { throw std::runtime_error("body"); });
    EXPECT_THROW(sim.run(), std::runtime_error);
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(sim.pending(), 0u);
  }
}

TEST(Time, BitTimeRoundsToNearestPicosecond) {
  EXPECT_EQ(bit_time(1'000'000), 1'000'000);          // 1 Mbit/s -> 1 us
  EXPECT_EQ(bit_time(500'000), 2'000'000);            // 500 kbit/s -> 2 us
  EXPECT_EQ(bit_time(10'000'000), 100'000);           // 10 Mbit/s -> 100 ns
  EXPECT_EQ(bit_time(1'000'000'000), 1'000);          // 1 Gbit/s -> 1 ns
  EXPECT_EQ(bit_time(3), 333'333'333'333);            // rounds down
}

TEST(Time, TransmissionTimeScalesWithBits) {
  EXPECT_EQ(transmission_time(8, 1'000'000), 8 * kMicrosecond);
  EXPECT_EQ(transmission_time(1500 * 8, 100'000'000),
            1500 * 8 * bit_time(100'000'000));
}

}  // namespace
}  // namespace avsec::core
