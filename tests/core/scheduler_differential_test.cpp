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

/// Drives `sim` through `ops` random operations drawn from `seed`. Times
/// are coarse (multiples of 10) so same-time ties are common; callbacks
/// schedule children and cancel handles themselves; cancels pick any
/// handle ever issued, so they hit pending, dispatched, already-cancelled
/// and (after reset()) stale handles alike. The log ends with the use
/// count of the token every boxed body holds: after the final run() every
/// body must have been released, so it reads 1.
template <class S>
std::vector<std::int64_t> drive_mix(S& sim, std::uint64_t seed, int ops,
                                    Shape shape) {
  std::vector<std::int64_t> log;
  std::vector<HandleOf<S>> handles;
  Rng rng(seed);
  std::int64_t next_tag = 0;
  auto pick = [&] { return handles[rng.next() % handles.size()]; };
  auto log_cancel = [&](HandleOf<S> h) {
    log.push_back(sim.cancel(h) ? -1 : -2);
  };
  std::function<void()> schedule;
  const std::function<void(std::int64_t)> fire = [&](std::int64_t tag) {
    log.push_back(tag);
    log.push_back(sim.now());
    const std::uint64_t r = rng.next() % 8;
    if (r < 2) schedule();
    if (r == 2) log_cancel(pick());
  };
  struct Body {
    const std::function<void(std::int64_t)>* fire;
    std::int64_t tag;
  };
  std::deque<Body> bodies;  // stable addresses for the in-place closures
  const auto token = std::make_shared<int>(0);
  schedule = [&] {
    const std::int64_t tag = next_tag++;
    const SimTime at = sim.now() + static_cast<SimTime>(rng.next() % 8) * 10;
    if (shape == Shape::kInPlace) {
      handles.push_back(sim.schedule_at(
          at, [b = &bodies.emplace_back(Body{&fire, tag})] {
            (*b->fire)(b->tag);
          }));
    } else {
      handles.push_back(
          sim.schedule_at(at, [&fire, tag, token] { fire(tag); }));
    }
  };

  for (int op = 0; op < ops; ++op) {
    const std::uint64_t r = rng.next() % 100;
    if (r < 40 || handles.empty()) {
      schedule();
    } else if (r < 55) {
      log_cancel(pick());
    } else if (r < 62) {
      const auto h = pick();
      log_cancel(h);
      log_cancel(h);
    } else if (r < 77) {
      const SimTime until = sim.now() + static_cast<SimTime>(rng.next() % 40);
      log.push_back(static_cast<std::int64_t>(sim.run_until(until)));
    } else if (r < 97) {
      log.push_back(sim.step() ? 1 : 0);
    } else {
      sim.reset();
      log.push_back(-3);
    }
    log.push_back(sim.now());
    log.push_back(static_cast<std::int64_t>(sim.pending()));
    log.push_back(static_cast<std::int64_t>(sim.dispatched()));
  }
  log.push_back(static_cast<std::int64_t>(sim.run()));
  log.push_back(sim.now());
  log.push_back(static_cast<std::int64_t>(sim.pending()));
  log.push_back(static_cast<std::int64_t>(sim.dispatched()));
  log.push_back(token.use_count());
  return log;
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

}  // namespace
}  // namespace avsec::core
