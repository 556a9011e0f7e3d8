// Discrete-event simulation kernel.
//
// A Scheduler owns a binary heap of (time, id, callback) events. Ids are
// handed out in scheduling order, so they double as the tie-breaker:
// events scheduled for the same instant fire in scheduling order, which
// keeps runs bit-reproducible across platforms.
//
// Cancellation is lazy: cancel() only marks the event settled (one bit in
// a vector indexed by id — campaigns cancel thousands of retransmit and
// watchdog timers per run, so cancellation must be O(1)) and counts it as
// a tombstone; the event body is dropped when it reaches the front of the
// heap. Popping moves the event out of the heap storage instead of
// copying it, so a pop never copy-constructs the std::function payload.
//
// Memory: the settled bits grow by one bit per scheduled event until
// reset() — about 250 KB at serve's 2M-event `busy-loop` budget. reset()
// clears both vectors without releasing their capacity, so a pooled
// scheduler (fault::SimContext) runs every seed after the first on warm
// storage. reset() restores the exact freshly-constructed state, which is
// what makes pooled-context reuse byte-identical to building a new
// scheduler per run.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "avsec/core/sync.hpp"
#include "avsec/core/time.hpp"

namespace avsec::core {

/// Handle to a scheduled event, usable for cancellation. A handle belongs
/// to one run: reset() restarts ids, so do not keep handles across it.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const { return id_ != 0; }

 private:
  friend class Scheduler;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

/// Single-threaded discrete-event scheduler.
///
/// Usage:
///   Scheduler sim;
///   sim.schedule_in(nanoseconds(10), [&]{ ... });
///   sim.run();
///
/// Thread confinement: a Scheduler is not a shared object — campaign
/// sweeps give every run its own Scheduler on its own pool thread, and
/// that confinement (not a lock) is the thread-safety story. The embedded
/// ThreadAffinity checker enforces it in debug / AVSEC_AFFINITY_CHECKS
/// builds: the scheduler binds to the first thread that mutates it and
/// aborts if a second thread ever does. reset() rebinds it to the calling
/// thread, which is the build-on-one-thread / run-on-another handoff.
class Scheduler {
 public:
  using Callback = std::function<void()>;

  /// Telemetry tap on event dispatch (implemented by avsec::obs — core
  /// cannot depend on obs, so the scheduler only sees this interface).
  /// on_dispatch fires immediately before each event body executes, so
  /// trace events emitted inside the body appear after the dispatch mark.
  class DispatchObserver {
   public:
    virtual ~DispatchObserver() = default;
    virtual void on_dispatch(SimTime now, std::uint64_t dispatched) = 0;
  };

  /// Installs (or, with nullptr, removes) the dispatch observer.
  void set_dispatch_observer(DispatchObserver* observer) {
    observer_ = observer;
  }

  /// Currently installed dispatch observer (nullptr when none). Observers
  /// that want to stack — e.g. a run-supervision guard over a tracer —
  /// read the current one and forward to it from their own on_dispatch.
  DispatchObserver* dispatch_observer() const { return observer_; }

  /// Total events executed since construction or the last reset().
  std::uint64_t dispatched() const { return dispatched_; }

  /// Current simulation time. Starts at 0.
  SimTime now() const { return now_; }

  /// Schedules `cb` to run at absolute time `at` (must be >= now()).
  EventHandle schedule_at(SimTime at, Callback cb);

  /// Schedules `cb` to run `delay` after the current time.
  EventHandle schedule_in(SimTime delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event. Returns false if it already ran or was
  /// cancelled. The callback is dropped lazily when popped; repeated
  /// cancellation of the same handle is a counted-once no-op.
  bool cancel(EventHandle h);

  /// Runs events until the queue is empty. Returns the number executed.
  std::size_t run();

  /// Runs events with time <= `until`; afterwards now() == until.
  std::size_t run_until(SimTime until);

  /// Executes exactly one event if any is pending. Returns true if one ran.
  bool step();

  /// Number of genuinely pending events (cancelled-but-unpopped excluded).
  std::size_t pending() const { return heap_.size() - cancelled_; }

  /// Restores the exact freshly-constructed state: queue emptied, clock,
  /// ids and counters rewound, observer removed, affinity rebound to the
  /// calling thread. The vectors keep their capacity.
  void reset();

 private:
  struct Event {
    SimTime time = 0;
    std::uint64_t id = 0;  // 1, 2, 3, ... in scheduling order
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;  // FIFO among equal times
    }
  };

  bool pop_one();
  /// Drops cancelled events from the front of the heap.
  void drop_cancelled_front();

  ThreadAffinity affinity_;  // single-thread confinement (see class docs)
  DispatchObserver* observer_ = nullptr;
  std::uint64_t dispatched_ = 0;
  SimTime now_ = 0;
  std::vector<Event> heap_;  // std::push_heap/pop_heap with Later
  /// settled_[id - 1] is set once event `id` is dispatched or cancelled;
  /// its size is the last id handed out.
  std::vector<bool> settled_;
  std::size_t cancelled_ = 0;  // cancelled events still in heap_
};

}  // namespace avsec::core
