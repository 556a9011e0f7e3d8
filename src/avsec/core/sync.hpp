// Annotated synchronization primitives and single-thread confinement.
//
// std::mutex carries no capability attributes on libstdc++, so clang's
// thread-safety analysis cannot see through it. These thin wrappers add
// the attributes (zero overhead — every method is an inlined forward) so
// that AVSEC_GUARDED_BY members are actually checked in the CI clang
// `-Wthread-safety -Werror` build.
//
// ThreadAffinity covers the other confinement model used in this repo:
// classes like core::Scheduler are single-threaded *by design* — campaign
// sweeps run one whole world per worker thread — so the invariant is not
// "hold a lock" but "never touch from a second thread". The checker binds
// to the first thread that touches it and aborts (debug builds, or any
// build with AVSEC_AFFINITY_CHECKS defined) if another thread shows up.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "avsec/core/annotations.hpp"

#if !defined(NDEBUG) || defined(AVSEC_AFFINITY_CHECKS)
#define AVSEC_AFFINITY_CHECKS_ENABLED 1
#else
#define AVSEC_AFFINITY_CHECKS_ENABLED 0
#endif

namespace avsec::core {

/// std::mutex with clang capability attributes.
class AVSEC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() AVSEC_ACQUIRE() { mu_.lock(); }
  void unlock() AVSEC_RELEASE() { mu_.unlock(); }
  bool try_lock() AVSEC_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Underlying mutex, for CondVar's adopt/release dance only.
  std::mutex& native_handle() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII lock; the scoped-capability attribute tells the analysis the
/// capability is held for exactly this object's lifetime.
class AVSEC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) AVSEC_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() AVSEC_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable usable with core::Mutex. wait() requires the caller
/// to hold the mutex, which is exactly what the analysis verifies.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires `mu` before
  /// returning. Spurious wakeups are possible; loop on the condition.
  void wait(Mutex& mu) AVSEC_REQUIRES(mu) {
    // Adopt the already-held mutex for the duration of the wait, then
    // release the guard so ownership stays with the caller's MutexLock.
    std::unique_lock<std::mutex> inner(mu.native_handle(), std::adopt_lock);
    cv_.wait(inner);
    inner.release();
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Binds to the first thread that calls check() and aborts if any other
/// thread ever does. Compiled to nothing in NDEBUG builds unless
/// AVSEC_AFFINITY_CHECKS is defined (the CI tsan job defines it).
class ThreadAffinity {
 public:
  void check() const {
#if AVSEC_AFFINITY_CHECKS_ENABLED
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};
    if (!owner_.compare_exchange_strong(expected, self,
                                        std::memory_order_relaxed) &&
        expected != self) {
      std::fputs(
          "avsec: single-threaded object touched from a second thread "
          "(scheduler state must stay confined to one thread)\n",
          stderr);
      std::abort();
    }
#endif
  }

  /// Transfers ownership to the calling thread — for objects that are
  /// built on one thread and then handed off wholesale.
  void rebind() {
#if AVSEC_AFFINITY_CHECKS_ENABLED
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }

 private:
#if AVSEC_AFFINITY_CHECKS_ENABLED
  mutable std::atomic<std::thread::id> owner_{};
#endif
};

}  // namespace avsec::core
