#include "avsec/core/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace avsec::core {
namespace {

TEST(ThreadPool, DefaultWorkersIsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_workers(), 1u);
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::default_workers());
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { count.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait();
  pool.wait();
}

TEST(ThreadPool, ForEachIndexCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(500);
  pool.for_each_index(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ForEachIndexZeroIsNoOp) {
  ThreadPool pool(2);
  pool.for_each_index(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ForEachIndexWithMoreWorkersThanItems) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.for_each_index(3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.for_each_index(20, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, TaskExceptionPropagatesFromWait) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The pool stays usable after a failed batch.
  std::atomic<int> count{0};
  pool.submit([&] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ForEachIndexPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.for_each_index(50,
                          [&](std::size_t i) {
                            if (i == 7) throw std::runtime_error("index 7");
                          }),
      std::runtime_error);
}

TEST(ThreadPool, FirstErrorModeStillAbortsWhenManyTasksThrow) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  // Concurrent throwers in the default mode: wait() rethrows one of them
  // and the pool survives for the next batch.
  EXPECT_THROW(pool.for_each_index(100,
                                   [&](std::size_t) {
                                     executed.fetch_add(1);
                                     throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  EXPECT_GE(executed.load(), 1);
  std::atomic<int> count{0};
  pool.for_each_index(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) pool.submit([&] { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ForEachChunkCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(503);  // deliberately not chunk-aligned
  pool.for_each_chunk(hits.size(), 64,
                      [&](std::size_t, std::size_t lo, std::size_t hi) {
                        ASSERT_LT(lo, hi);
                        ASSERT_LE(hi, hits.size());
                        for (std::size_t i = lo; i < hi; ++i) {
                          hits[i].fetch_add(1);
                        }
                      });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ForEachChunkRangesAreContiguousAndChunkSized) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  pool.for_each_chunk(100, 16,
                      [&](std::size_t, std::size_t lo, std::size_t hi) {
                        std::lock_guard<std::mutex> lk(mu);
                        ranges.emplace_back(lo, hi);
                      });
  std::sort(ranges.begin(), ranges.end());
  ASSERT_EQ(ranges.size(), 7u);  // ceil(100 / 16)
  std::size_t expect_lo = 0;
  for (const auto& [lo, hi] : ranges) {
    EXPECT_EQ(lo, expect_lo);
    EXPECT_EQ(hi, std::min(lo + 16, std::size_t{100}));
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, 100u);
}

TEST(ThreadPool, ForEachChunkSlotsAreDenseAndStablePerPuller) {
  ThreadPool pool(4);
  std::mutex mu;
  std::map<std::size_t, std::vector<std::size_t>> chunks_by_slot;
  pool.for_each_chunk(64, 4,
                      [&](std::size_t slot, std::size_t lo, std::size_t) {
                        std::lock_guard<std::mutex> lk(mu);
                        chunks_by_slot[slot].push_back(lo / 4);
                      });
  // Slots are bounded by min(pool size, chunk count); every claimed chunk
  // belongs to exactly one slot (coverage is checked elsewhere).
  std::size_t total = 0;
  for (const auto& [slot, chunks] : chunks_by_slot) {
    EXPECT_LT(slot, pool.size());
    total += chunks.size();
  }
  EXPECT_EQ(total, 16u);
}

TEST(ThreadPool, ForEachChunkZeroItemsIsNoOp) {
  ThreadPool pool(2);
  pool.for_each_chunk(0, 8, [](std::size_t, std::size_t, std::size_t) {
    FAIL() << "must not be called";
  });
}

TEST(ThreadPool, ForEachChunkZeroChunkBehavesLikeOne) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(17);
  pool.for_each_chunk(hits.size(), 0,
                      [&](std::size_t, std::size_t lo, std::size_t hi) {
                        EXPECT_EQ(hi, lo + 1);
                        for (std::size_t i = lo; i < hi; ++i) {
                          hits[i].fetch_add(1);
                        }
                      });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ForEachChunkOneGiantChunkRunsSerially) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.for_each_chunk(10, 1000,
                      [&](std::size_t slot, std::size_t lo, std::size_t hi) {
                        EXPECT_EQ(slot, 0u);
                        EXPECT_EQ(lo, 0u);
                        EXPECT_EQ(hi, 10u);
                        count.fetch_add(1);
                      });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ForEachChunkPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.for_each_chunk(50, 5,
                          [&](std::size_t, std::size_t lo, std::size_t) {
                            if (lo == 25) throw std::runtime_error("chunk 5");
                          }),
      std::runtime_error);
  // The pool stays usable after a failed batch.
  std::atomic<int> count{0};
  pool.for_each_index(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  std::vector<double> xs(1000);
  std::iota(xs.begin(), xs.end(), 1.0);
  std::vector<double> squares(xs.size(), 0.0);
  ThreadPool pool(4);
  pool.for_each_index(xs.size(), [&](std::size_t i) {
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
