// Discrete-event simulation kernel.
//
// A Scheduler owns a binary heap of (time, id, body) events. Ids are
// handed out in scheduling order, so they double as the tie-breaker:
// events scheduled for the same instant fire in scheduling order, which
// keeps runs bit-reproducible across platforms.
//
// Cancellation is lazy: cancel() only marks the event settled (one bit in
// a vector indexed by id — campaigns cancel thousands of retransmit and
// watchdog timers per run, so cancellation must be O(1)) and counts it as
// a tombstone; the event body is released when it reaches the front of
// the heap.
//
// Event bodies are core::Callback, a move-only std::function<void()>
// without the copy. A closure that is trivially copyable, at most two
// pointers wide and pointer-aligned — `[this]`, `[this, node]`, a
// function pointer — is stored in place; any other closure is boxed on
// the heap, as std::function boxed it too. Either way the heap's Event is
// trivially copyable, so its sifts move plain bytes and the body runs
// through one indirect call. The scheduler releases each body
// exactly once: after it runs (or throws), when its tombstone is dropped,
// in reset() and in ~Scheduler.
//
// A self-rescheduling std::function should not be passed by name: that
// boxes a copy of it on every schedule. Schedule a pointer to it instead,
// which is stored in place:
//   std::function<void()> tick = [&] {
//     ...
//     sim.schedule_in(period, [f = &tick] { (*f)(); });
//   };
//
// Memory: the settled bits grow by one bit per scheduled event until
// reset() — about 250 KB at serve's 2M-event `busy-loop` budget. reset()
// clears both vectors without releasing their capacity, so a pooled
// scheduler (fault::SimContext) runs every seed after the first on warm
// storage. reset() restores the exact freshly-constructed state, which is
// what makes pooled-context reuse byte-identical to building a new
// scheduler per run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "avsec/core/sync.hpp"
#include "avsec/core/time.hpp"

namespace avsec::core {

namespace detail {

/// A released event body: trivially copyable, so the heap moves it as
/// bytes. `ops` is null once released; whoever holds a live Thunk calls
/// release() exactly once.
struct Thunk {
  struct Ops {
    void (*invoke)(void* body);
    void (*destroy)(void* body);  // nullptr: nothing to release
  };
  static constexpr std::size_t kInPlaceBytes = 2 * sizeof(void*);

  const Ops* ops = nullptr;
  alignas(void*) unsigned char body[kInPlaceBytes] = {};

  void invoke() { ops->invoke(body); }
  void release() {
    if (ops != nullptr && ops->destroy != nullptr) ops->destroy(body);
    ops = nullptr;
  }
};

template <class F>
struct InPlace {
  static void invoke(void* body) { (*std::launder(static_cast<F*>(body)))(); }
  static constexpr Thunk::Ops kOps{&invoke, nullptr};
};

template <class F>
struct Boxed {
  static F* box(void* body) { return *std::launder(static_cast<F**>(body)); }
  static void invoke(void* body) { (*box(body))(); }
  static void destroy(void* body) { delete box(body); }
  static constexpr Thunk::Ops kOps{&invoke, &destroy};
};

}  // namespace detail

/// Move-only event body: any callable with no arguments (its result is
/// discarded). Stored in place when trivially copyable and at most two
/// pointers wide and pointer-aligned, boxed on the heap otherwise (see the
/// file comment).
class Callback {
 public:
  template <class F, class Fn = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<Fn, Callback> &&
                                     std::is_invocable_v<Fn&>>>
  Callback(F&& f) {
    if constexpr (std::is_trivially_copyable_v<Fn> &&
                  sizeof(Fn) <= detail::Thunk::kInPlaceBytes &&
                  alignof(Fn) <= alignof(void*)) {
      ::new (static_cast<void*>(thunk_.body)) Fn(std::forward<F>(f));
      thunk_.ops = &detail::InPlace<Fn>::kOps;
    } else {
      ::new (static_cast<void*>(thunk_.body)) Fn*(new Fn(std::forward<F>(f)));
      thunk_.ops = &detail::Boxed<Fn>::kOps;
    }
  }
  Callback(Callback&& other) noexcept : thunk_(other.thunk_) {
    other.thunk_.ops = nullptr;
  }
  ~Callback() { thunk_.release(); }

 private:
  friend class Scheduler;
  /// Adopts a released body (the scheduler's dispatch path).
  explicit Callback(detail::Thunk thunk) : thunk_(thunk) {}
  detail::Thunk thunk_;
};

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
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  /// Releases every pending body, cancelled ones included.
  ~Scheduler() { release_pending(); }

  /// Tap on event dispatch, implemented by the run supervisor
  /// (fault::run_supervised; core cannot depend on fault, so the scheduler
  /// only sees this interface). on_dispatch fires immediately before each
  /// event body executes, with `dispatched` already counting that event;
  /// a throw from it aborts the run before the body runs.
  class DispatchObserver {
   public:
    virtual ~DispatchObserver() = default;
    virtual void on_dispatch(SimTime now, std::uint64_t dispatched) = 0;
  };

  /// Installs (or, with nullptr, removes) the one dispatch observer.
  void set_dispatch_observer(DispatchObserver* observer) {
    observer_ = observer;
  }

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
  /// cancelled. The body is released lazily when popped; repeated
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
  /// calling thread. Pending bodies are released; the vectors keep their
  /// capacity.
  void reset();

 private:
  /// 40 bytes on 64-bit hosts. The heap owns `body` until the event is
  /// dispatched or its tombstone dropped.
  struct Event {
    SimTime time = 0;
    std::uint64_t id = 0;  // 1, 2, 3, ... in scheduling order
    detail::Thunk body;
  };
  static_assert(std::is_trivially_copyable_v<Event>,
                "heap sifts must move events as plain bytes");
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;  // FIFO among equal times
    }
  };

  bool pop_one();
  /// Drops cancelled events from the front of the heap.
  void drop_cancelled_front();
  /// Releases the body of every event still in the heap.
  void release_pending();

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
