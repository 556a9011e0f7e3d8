// Differential oracle for core::Scheduler: seeded random operation mixes
// run on the heap scheduler and on the sorted-vector reference
// (reference_scheduler.hpp) must leave identical logs. The log records
// every dispatch (tag and time), every cancel() return value, every
// run_until()/step() result, and now()/pending()/dispatched() after each
// operation, so any divergence in ordering or bookkeeping shows. Every mix
// runs once per closure shape, so both of core::Callback's storage paths
// (in place and boxed) go through it.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "avsec/core/rng.hpp"
#include "avsec/core/scheduler.hpp"
#include "reference_scheduler.hpp"

namespace avsec::core {
namespace {

template <class S>
using HandleOf = decltype(std::declval<S&>().schedule_at(
    SimTime{}, std::function<void()>{}));

/// The closure an event body is scheduled as.
enum class Shape {
  kInPlace,  // one pointer: stored in the event itself
  kBoxed,    // holds a std::shared_ptr: not trivially copyable, so boxed
};

/// Drives one scheduler through seeded operations and logs what it sees.
/// Event times are now() plus a multiple of 10 below `slots * 10`: a few
/// slots make same-time ties common, many spread the times wide. Bodies
/// log their tag and now(), and at random schedule a child or cancel a
/// handle themselves. Cancels pick any handle ever issued, so they hit
/// pending, dispatched, already-cancelled and (after reset()) stale
/// handles alike. finish() ends the log with the use count of the token
/// every boxed body holds: after the final run() every body must have
/// been released, so it reads 1.
template <class S>
class Driver {
 public:
  Driver(S& sim, std::uint64_t seed, Shape shape, std::uint64_t slots)
      : sim_(sim), rng_(seed), shape_(shape), slots_(slots) {}
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  void schedule() {
    const std::int64_t tag = next_tag_++;
    const SimTime at =
        sim_.now() + static_cast<SimTime>(rng_.next() % slots_) * 10;
    if (shape_ == Shape::kInPlace) {
      handles_.push_back(sim_.schedule_at(
          at, [b = &bodies_.emplace_back(Body{this, tag})] {
            b->driver->fire(b->tag);
          }));
    } else {
      handles_.push_back(
          sim_.schedule_at(at, [this, tag, t = token_] { fire(tag); }));
    }
  }

  void cancel(HandleOf<S> h) { log_.push_back(sim_.cancel(h) ? -1 : -2); }
  HandleOf<S> pick() { return handles_[rng_.next() % handles_.size()]; }
  /// The handle of the i-th schedule() call.
  HandleOf<S> handle(std::size_t i) const { return handles_[i]; }
  std::size_t issued() const { return handles_.size(); }
  std::uint64_t draw() { return rng_.next(); }
  void record(std::int64_t v) { log_.push_back(v); }

  void record_state() {
    log_.push_back(sim_.now());
    log_.push_back(static_cast<std::int64_t>(sim_.pending()));
    log_.push_back(static_cast<std::int64_t>(sim_.dispatched()));
  }

  std::vector<std::int64_t> finish() {
    log_.push_back(static_cast<std::int64_t>(sim_.run()));
    record_state();
    log_.push_back(token_.use_count());
    return std::move(log_);
  }

 private:
  struct Body {
    Driver* driver;
    std::int64_t tag;
  };

  void fire(std::int64_t tag) {
    log_.push_back(tag);
    log_.push_back(sim_.now());
    const std::uint64_t r = rng_.next() % 8;
    if (r < 2) schedule();
    if (r == 2) cancel(pick());
  }

  S& sim_;
  Rng rng_;
  const Shape shape_;
  const std::uint64_t slots_;
  std::vector<std::int64_t> log_;
  std::vector<HandleOf<S>> handles_;
  std::int64_t next_tag_ = 0;
  std::deque<Body> bodies_;  // stable addresses for the in-place closures
  const std::shared_ptr<int> token_ = std::make_shared<int>(0);
};

/// `ops` random operations on coarse times (8 slots): schedule, cancel,
/// double cancel, run_until, step and, rarely, reset().
template <class S>
std::vector<std::int64_t> drive_mix(S& sim, std::uint64_t seed, int ops,
                                    Shape shape) {
  Driver<S> d(sim, seed, shape, 8);
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t r = d.draw() % 100;
    if (r < 40 || d.issued() == 0) {
      d.schedule();
    } else if (r < 55) {
      d.cancel(d.pick());
    } else if (r < 62) {
      const auto h = d.pick();
      d.cancel(h);
      d.cancel(h);
    } else if (r < 77) {
      const SimTime until = sim.now() + static_cast<SimTime>(d.draw() % 40);
      d.record(static_cast<std::int64_t>(sim.run_until(until)));
    } else if (r < 97) {
      d.record(sim.step() ? 1 : 0);
    } else {
      sim.reset();
      d.record(-3);
    }
    d.record_state();
  }
  return d.finish();
}

/// A deep heap: `events` schedules over a wide range of times (100,000
/// slots) with about one cancel in ten before anything runs, then a drain
/// in random run_until() windows and single steps, during which bodies
/// keep scheduling and cancelling.
template <class S>
std::vector<std::int64_t> drive_deep(S& sim, std::uint64_t seed, int events,
                                     Shape shape) {
  Driver<S> d(sim, seed, shape, 100'000);
  for (int i = 0; i < events; ++i) {
    d.schedule();
    if (d.draw() % 10 == 0) d.cancel(d.pick());
  }
  EXPECT_GE(sim.pending(), 4096u) << "pending before the first dispatch";
  d.record_state();
  while (sim.pending() > 0) {
    if (d.draw() % 2 == 0) {
      const SimTime until =
          sim.now() + static_cast<SimTime>(d.draw() % 20'000);
      d.record(static_cast<std::int64_t>(sim.run_until(until)));
    } else {
      d.record(sim.step() ? 1 : 0);
    }
    d.record_state();
  }
  return d.finish();
}

/// The settled bits' word boundaries: schedule `first` events, run half
/// of the time window, reset(), schedule `first` more, and then cancel the
/// handles of both rounds at ids 1, 62–66, 126–130 and `first` ± 1 — the
/// ids on both sides of each 64-bit word boundary. First-round handles
/// are stale: after reset() their ids name second-round events or none.
template <class S>
std::vector<std::int64_t> drive_boundary(S& sim, int first, Shape shape) {
  Driver<S> d(sim, static_cast<std::uint64_t>(first), shape, 8);
  const std::vector<std::size_t> ids = {
      1,   62,  63,  64,  65,  66,
      126, 127, 128, 129, 130, static_cast<std::size_t>(first) - 1,
      static_cast<std::size_t>(first), static_cast<std::size_t>(first) + 1};
  auto cancel_around = [&](std::size_t round_start) {
    for (const std::size_t id : ids) {
      const std::size_t i = round_start + id - 1;
      if (i < d.issued()) d.cancel(d.handle(i));
    }
  };
  for (int i = 0; i < first; ++i) d.schedule();
  d.record(static_cast<std::int64_t>(sim.run_until(sim.now() + 40)));
  d.record_state();
  cancel_around(0);
  d.record_state();
  sim.reset();
  const std::size_t second = d.issued();
  for (int i = 0; i < first; ++i) d.schedule();
  cancel_around(0);  // stale handles
  d.record_state();
  cancel_around(second);
  d.record_state();
  d.record(static_cast<std::int64_t>(sim.run_until(sim.now() + 40)));
  cancel_around(second);
  d.record_state();
  return d.finish();
}

constexpr Shape kShapes[] = {Shape::kInPlace, Shape::kBoxed};

TEST(SchedulerDifferential, MatchesSortedVectorReferenceOnRandomMixes) {
  for (const Shape shape : kShapes) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      Scheduler fast;
      reference::SortedVectorScheduler ref;
      const auto want = drive_mix(ref, seed, 400, shape);
      ASSERT_EQ(want.back(), 1) << "seed " << seed;
      ASSERT_EQ(drive_mix(fast, seed, 400, shape), want)
          << "seed " << seed << " shape " << static_cast<int>(shape);
    }
  }
}

TEST(SchedulerDifferential, ReusedSchedulerMatchesReferenceEveryRound) {
  // One heap scheduler reset between rounds against a fresh reference per
  // round: warm storage from the last round must never leak into the next.
  for (const Shape shape : kShapes) {
    Scheduler fast;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      fast.reset();
      reference::SortedVectorScheduler ref;
      ASSERT_EQ(drive_mix(fast, seed, 400, shape),
                drive_mix(ref, seed, 400, shape))
          << "seed " << seed << " shape " << static_cast<int>(shape);
    }
  }
}

TEST(SchedulerDifferential, DeepHeapMatchesReference) {
  // Thousands of pending events: sift paths of a dozen levels, where a
  // wrong child pick or tie-break in the sifts cannot hide.
  for (const Shape shape : kShapes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Scheduler fast;
      reference::SortedVectorScheduler ref;
      const auto want = drive_deep(ref, seed, 4600, shape);
      ASSERT_EQ(want.back(), 1) << "seed " << seed;
      ASSERT_EQ(drive_deep(fast, seed, 4600, shape), want)
          << "seed " << seed << " shape " << static_cast<int>(shape);
    }
  }
}

TEST(SchedulerDifferential, SettledWordBoundariesMatchReference) {
  // One heap scheduler reused across every case, so each reset() leaves
  // set bits in the words' kept capacity.
  for (const Shape shape : kShapes) {
    Scheduler fast;
    for (const int first : {63, 64, 65, 127, 128}) {
      fast.reset();
      reference::SortedVectorScheduler ref;
      const auto want = drive_boundary(ref, first, shape);
      ASSERT_EQ(want.back(), 1) << "first " << first;
      ASSERT_EQ(drive_boundary(fast, first, shape), want)
          << "first " << first << " shape " << static_cast<int>(shape);
    }
  }
}

}  // namespace
}  // namespace avsec::core
