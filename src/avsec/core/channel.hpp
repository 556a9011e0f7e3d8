// Bounded MPMC channel: the producer–consumer spine of the serving layer.
//
// A Channel<T> is a fixed-capacity FIFO with a blocking push and pop and a
// non-blocking push, built on the annotated core::Mutex/CondVar so the
// clang thread-safety CI build checks every access. The capacity bound is
// the robustness contract: a service built on a Channel can never buffer
// without limit — when the queue is full the producer learns immediately
// (try_push), and admission control turns that into a structured
// "overloaded" reply instead of latent memory growth.
//
// close() wakes every blocked producer and consumer: pushes fail, pops
// drain the remaining items and then fail, so worker loops written as
// `while (ch.pop(item)) { ... }` shut down cleanly.
//
// Channels belong to the serving layer (thread to thread), never inside a
// simulated world.
#pragma once

#include <cstddef>
#include <deque>
#include <utility>

#include "avsec/core/annotations.hpp"
#include "avsec/core/sync.hpp"

namespace avsec::core {

template <class T>
class Channel {
 public:
  /// A channel holds at most `capacity` items; capacity 0 is pinned to 1
  /// (a zero-capacity rendezvous channel is not supported).
  explicit Channel(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Items currently queued (racy by nature; use for load sampling only).
  std::size_t size() const {
    MutexLock lock(mu_);
    return items_.size();
  }

  /// Blocks until there is room, then enqueues. False iff closed.
  bool push(T item) {
    MutexLock lock(mu_);
    while (items_.size() >= capacity_ && !closed_) not_full_.wait(mu_);
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Enqueues iff there is room right now. False when full or closed —
  /// the admission-control primitive: a full channel is an answer, not a
  /// reason to wait.
  bool try_push(T item) {
    MutexLock lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available and moves it into `out`. False iff
  /// the channel is closed and drained.
  bool pop(T& out) {
    MutexLock lock(mu_);
    while (items_.empty() && !closed_) not_empty_.wait(mu_);
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return true;
  }

  /// Closes the channel: pending pushes and all future pushes fail;
  /// queued items remain poppable until drained. Idempotent.
  void close() {
    MutexLock lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  const std::size_t capacity_;
  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ AVSEC_GUARDED_BY(mu_);
  bool closed_ AVSEC_GUARDED_BY(mu_) = false;
};

}  // namespace avsec::core
