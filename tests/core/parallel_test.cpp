// core::parallel_for: the fork-join fan-out under campaign sweeps and the
// linter's file scan. Both rely on every index running exactly once, on a
// slot that names one thread, and on no call running on the caller once
// more than one worker is asked for.
#include "avsec/core/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace avsec::core {
namespace {

// Holds each arriving call until `expected` calls have arrived, or for
// about 10 s. A fan-out that runs its calls one after another fails the
// test at the deadline instead of hanging it.
class Rendezvous {
 public:
  explicit Rendezvous(std::size_t expected) : expected_(expected) {}

  bool arrive_and_wait() {
    arrived_.fetch_add(1);
    for (int ms = 0; ms < 10'000 && arrived_.load() < expected_; ++ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return arrived_.load() >= expected_;
  }

 private:
  const std::size_t expected_;
  std::atomic<std::size_t> arrived_{0};
};

TEST(ParallelFor, DefaultWorkersIsAtLeastOne) {
  EXPECT_GE(default_workers(), 1u);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
  for (std::size_t n : {0u, 1u, 3u, 100u}) {
    for (std::size_t workers : {1u, 2u, 8u}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " workers=" + std::to_string(workers));
      const std::size_t slots = std::max<std::size_t>(std::min(workers, n), 1);
      std::vector<std::atomic<int>> hits(n);
      parallel_for(workers, n, [&](std::size_t slot, std::size_t i) {
        EXPECT_LT(slot, slots);
        hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
    }
  }
}

TEST(ParallelFor, SlotsAreDenseWithOneSlotPerThread) {
  // As many items as workers, each held until all have arrived: every
  // thread claims exactly one item, so every slot must show up.
  constexpr std::size_t kWorkers = 8;
  Rendezvous all(kWorkers);
  std::mutex mu;
  std::map<std::size_t, std::thread::id> thread_of;
  parallel_for(kWorkers, kWorkers, [&](std::size_t slot, std::size_t) {
    EXPECT_TRUE(all.arrive_and_wait());
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(thread_of.emplace(slot, std::this_thread::get_id()).second)
        << "slot " << slot << " ran twice";
  });
  ASSERT_EQ(thread_of.size(), kWorkers);
  std::set<std::thread::id> threads;
  for (const auto& [slot, id] : thread_of) {
    EXPECT_LT(slot, kWorkers);
    threads.insert(id);
  }
  EXPECT_EQ(threads.size(), kWorkers);

  // Many items per thread: a slot never moves between threads, and no two
  // threads share one.
  std::map<std::size_t, std::set<std::thread::id>> threads_of;
  parallel_for(4, 200, [&](std::size_t slot, std::size_t) {
    std::lock_guard<std::mutex> lock(mu);
    threads_of[slot].insert(std::this_thread::get_id());
  });
  std::set<std::thread::id> distinct;
  for (const auto& [slot, ids] : threads_of) {
    EXPECT_LT(slot, 4u);
    EXPECT_EQ(ids.size(), 1u) << "slot " << slot;
    distinct.insert(ids.begin(), ids.end());
  }
  EXPECT_EQ(distinct.size(), threads_of.size());
}

TEST(ParallelFor, OneWorkerRunsOnTheCallerAndMoreNeverDo) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  std::atomic<int> calls{0};
  const auto count = [&](std::size_t, std::size_t) {
    calls.fetch_add(1);
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
  };
  parallel_for(1, 20, count);
  EXPECT_EQ(on_caller.load(), 20);
  // One item caps the fan-out at one worker, whatever was asked for.
  parallel_for(8, 1, count);
  EXPECT_EQ(on_caller.load(), 21);
  for (std::size_t workers : {2u, 8u}) {
    on_caller = 0;
    calls = 0;
    parallel_for(workers, 50, count);
    EXPECT_EQ(calls.load(), 50);
    EXPECT_EQ(on_caller.load(), 0) << workers << " workers";
  }
}

TEST(ParallelFor, TwoWorkersRunConcurrently) {
  Rendezvous both(2);
  std::atomic<int> met{0};
  parallel_for(2, 2, [&](std::size_t, std::size_t) {
    if (both.arrive_and_wait()) met.fetch_add(1);
  });
  EXPECT_EQ(met.load(), 2);
}

TEST(ParallelFor, FirstExceptionIsRethrownAndALaterCallWorks) {
  for (std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    try {
      parallel_for(workers, 50, [](std::size_t, std::size_t i) {
        if (i == 7) throw std::runtime_error("item 7");
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "item 7");
    }
    // Every item throws: exactly one exception comes back.
    EXPECT_THROW(parallel_for(workers, 100,
                              [](std::size_t, std::size_t) {
                                throw std::logic_error("every item");
                              }),
                 std::logic_error);
    std::atomic<int> calls{0};
    parallel_for(workers, 10,
                 [&](std::size_t, std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 10);
  }
}

// The cases below keep the names they had when this fan-out was
// ThreadPool::for_each_index, so their history carries across the rename.

TEST(ThreadPool, ForEachIndexCoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(500);
  parallel_for(8, hits.size(),
               [&](std::size_t, std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ForEachIndexZeroIsNoOp) {
  parallel_for(2, 0, [](std::size_t, std::size_t) {
    FAIL() << "must not be called";
  });
}

TEST(ThreadPool, ForEachIndexWithMoreWorkersThanItems) {
  std::atomic<int> count{0};
  parallel_for(8, 3, [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, ForEachIndexPropagatesFirstException) {
  EXPECT_THROW(parallel_for(4, 50,
                            [](std::size_t, std::size_t i) {
                              if (i == 7) throw std::runtime_error("index 7");
                            }),
               std::runtime_error);
}

TEST(ThreadPool, FirstErrorModeStillAbortsWhenManyTasksThrow) {
  std::atomic<int> executed{0};
  // Concurrent throwers: one exception is rethrown, and the next call
  // still runs every index.
  EXPECT_THROW(parallel_for(4, 100,
                            [&](std::size_t, std::size_t) {
                              executed.fetch_add(1);
                              throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  EXPECT_GE(executed.load(), 1);
  std::atomic<int> count{0};
  parallel_for(4, 10, [&](std::size_t, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  std::vector<double> xs(1000);
  std::iota(xs.begin(), xs.end(), 1.0);
  std::vector<double> squares(xs.size(), 0.0);
  parallel_for(4, xs.size(), [&](std::size_t, std::size_t i) {
    squares[i] = xs[i] * xs[i];  // disjoint writes, no sync needed
  });
  double parallel = 0.0;
  for (double s : squares) parallel += s;
  double serial = 0.0;
  for (double x : xs) serial += x * x;
  EXPECT_EQ(parallel, serial);
}

}  // namespace
}  // namespace avsec::core
