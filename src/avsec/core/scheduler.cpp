#include "avsec/core/scheduler.hpp"

#include <algorithm>
#include <cassert>

namespace avsec::core {

EventHandle Scheduler::schedule_at(SimTime at, Callback cb) {
  affinity_.check();
  assert(at >= now_ && "cannot schedule into the past");
  if (last_id_ % 64 == 0) settled_.push_back(0);  // the id opens a new word
  const std::uint64_t id = ++last_id_;
  const SimTime time = std::max(at, now_);
  // Sift a hole up from the new leaf. The new id is the largest handed
  // out, so a parent at an equal time already orders first: the climb
  // stops there, which keeps equal times FIFO.
  std::size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (heap_[parent].time <= time) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = Event{time, id, cb.thunk_};
  cb.thunk_.ops = nullptr;  // the heap owns the body now
  return EventHandle(id);
}

bool Scheduler::cancel(EventHandle h) {
  affinity_.check();
  // Only genuinely pending events can be cancelled: a handle whose event
  // already ran (or was already cancelled) is a no-op, so a tombstone is
  // counted at most once and pending() never under-reports.
  if (!h.valid() || h.id_ > last_id_ || settled(h.id_)) return false;
  settle(h.id_);
  ++cancelled_;
  return true;
}

Scheduler::Event Scheduler::pop_front() {
  const Event front = heap_.front();
  const Event last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return front;
  // Sift `last` down from the root's hole: the earlier child moves up
  // until `last` orders before both children.
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], last)) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = last;
  return front;
}

void Scheduler::drop_cancelled_front() {
  // An unsettled event at the front is live; a settled one can only be a
  // tombstone, because dispatch pops before it settles.
  while (!heap_.empty() && settled(heap_.front().id)) {
    pop_front().body.release();
    --cancelled_;
  }
}

void Scheduler::dispatch_front() {
  const Event ev = pop_front();
  // Owns the body from here: released after it runs, or when the observer
  // or the body throws.
  Callback body(ev.body);
  settle(ev.id);
  now_ = ev.time;
  ++dispatched_;
  if (observer_ != nullptr) observer_->on_dispatch(now_, dispatched_);
  body.thunk_.invoke();
}

bool Scheduler::pop_one() {
  affinity_.check();
  drop_cancelled_front();
  if (heap_.empty()) return false;
  dispatch_front();
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
    dispatch_front();
    ++n;
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
  last_id_ = 0;
  cancelled_ = 0;
  observer_ = nullptr;
  dispatched_ = 0;
  now_ = 0;
}

}  // namespace avsec::core
