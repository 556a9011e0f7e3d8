#include "avsec/core/scheduler.hpp"

#include <algorithm>
#include <cassert>

namespace avsec::core {

EventHandle Scheduler::schedule_at(SimTime at, Callback cb) {
  affinity_.check();
  assert(at >= now_ && "cannot schedule into the past");
  settled_.push_back(false);
  const std::uint64_t id = settled_.size();
  heap_.push_back(Event{std::max(at, now_), id, cb.thunk_});
  cb.thunk_.ops = nullptr;  // the heap owns the body now
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle(id);
}

bool Scheduler::cancel(EventHandle h) {
  affinity_.check();
  // Only genuinely pending events can be cancelled: a handle whose event
  // already ran (or was already cancelled) is a no-op, so a tombstone is
  // counted at most once and pending() never under-reports.
  if (!h.valid() || h.id_ > settled_.size() || settled_[h.id_ - 1]) {
    return false;
  }
  settled_[h.id_ - 1] = true;
  ++cancelled_;
  return true;
}

void Scheduler::drop_cancelled_front() {
  // An unsettled event at the front is live; a settled one can only be a
  // tombstone, because dispatch pops before it settles.
  while (!heap_.empty() && settled_[heap_.front().id - 1]) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.back().body.release();
    heap_.pop_back();
    --cancelled_;
  }
}

bool Scheduler::pop_one() {
  affinity_.check();
  drop_cancelled_front();
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event ev = heap_.back();
  heap_.pop_back();
  // Owns the body from here: released after it runs, or when the observer
  // or the body throws.
  Callback body(ev.body);
  settled_[ev.id - 1] = true;
  now_ = ev.time;
  ++dispatched_;
  if (observer_ != nullptr) observer_->on_dispatch(now_, dispatched_);
  body.thunk_.invoke();
  return true;
}

std::size_t Scheduler::run() {
  std::size_t n = 0;
  while (pop_one()) ++n;
  return n;
}

std::size_t Scheduler::run_until(SimTime until) {
  affinity_.check();
  std::size_t n = 0;
  for (;;) {
    // The boundary check must see the earliest *live* event, otherwise a
    // cancelled event inside the window would let pop_one() execute a
    // live event beyond `until`.
    drop_cancelled_front();
    if (heap_.empty() || heap_.front().time > until) break;
    if (pop_one()) ++n;
  }
  now_ = std::max(now_, until);
  return n;
}

bool Scheduler::step() { return pop_one(); }

void Scheduler::release_pending() {
  for (Event& ev : heap_) ev.body.release();
}

void Scheduler::reset() {
  affinity_.rebind();
  release_pending();
  heap_.clear();
  settled_.clear();
  cancelled_ = 0;
  observer_ = nullptr;
  dispatched_ = 0;
  now_ = 0;
}

}  // namespace avsec::core
