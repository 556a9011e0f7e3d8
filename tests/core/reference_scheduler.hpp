// Test-only reference for core::Scheduler: the simplest scheduler that
// honours the same contract — a vector kept sorted by (time, id), cancel
// as a linear search and erase. It is slow on purpose and obviously
// correct, so scheduler_differential_test.cpp can hold the fast heap with
// its lazy tombstones to it on random operation mixes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "avsec/core/time.hpp"

namespace avsec::core::reference {

class SortedVectorScheduler {
 public:
  using Callback = std::function<void()>;
  using Handle = std::uint64_t;  // 0 is never handed out

  Handle schedule_at(SimTime at, Callback cb) {
    Event ev{std::max(at, now_), next_id_++, std::move(cb)};
    const Handle h = ev.id;
    // Ids grow, so the upper bound on time is the FIFO slot among ties.
    const auto pos = std::upper_bound(
        queue_.begin(), queue_.end(), ev.time,
        [](SimTime t, const Event& e) { return t < e.time; });
    queue_.insert(pos, std::move(ev));
    return h;
  }

  bool cancel(Handle h) {
    const auto it = std::find_if(queue_.begin(), queue_.end(),
                                 [h](const Event& e) { return e.id == h; });
    if (it == queue_.end()) return false;
    queue_.erase(it);
    return true;
  }

  bool step() {
    if (queue_.empty()) return false;
    Event ev = std::move(queue_.front());
    queue_.erase(queue_.begin());
    now_ = ev.time;
    ++dispatched_;
    ev.cb();
    return true;
  }

  std::size_t run_until(SimTime until) {
    std::size_t n = 0;
    while (!queue_.empty() && queue_.front().time <= until) {
      step();
      ++n;
    }
    now_ = std::max(now_, until);
    return n;
  }

  std::size_t run() {
    std::size_t n = 0;
    while (step()) ++n;
    return n;
  }

  void reset() { *this = SortedVectorScheduler(); }

  SimTime now() const { return now_; }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t dispatched() const { return dispatched_; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t id;
    Callback cb;
  };
  std::vector<Event> queue_;
  SimTime now_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t dispatched_ = 0;
};

}  // namespace avsec::core::reference
