// core::Channel: the bounded MPMC queue under the serving layer. The
// capacity bound and the close-then-drain shutdown contract are what the
// server's admission control and worker loops are built on, so both are
// pinned here.
#include "avsec/core/channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <thread>
#include <vector>

namespace {

using avsec::core::Channel;

TEST(Channel, ZeroCapacityIsPinnedToOne) {
  Channel<int> ch(0);
  EXPECT_TRUE(ch.try_push(1));
  EXPECT_FALSE(ch.try_push(2));
}

TEST(Channel, FifoOrder) {
  Channel<int> ch(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ch.try_push(i));
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ch.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(ch.size(), 0u);
}

TEST(Channel, TryPushRefusesWhenFull) {
  Channel<int> ch(2);
  EXPECT_TRUE(ch.try_push(1));
  EXPECT_TRUE(ch.try_push(2));
  EXPECT_EQ(ch.size(), 2u);
  // Full is an answer, not a wait: this is the admission-control primitive.
  EXPECT_FALSE(ch.try_push(3));
  int out = 0;
  ASSERT_TRUE(ch.pop(out));
  EXPECT_TRUE(ch.try_push(3));
}

TEST(Channel, CloseDrainsThenFails) {
  Channel<int> ch(4);
  ASSERT_TRUE(ch.push(1));
  ASSERT_TRUE(ch.push(2));
  ch.close();
  EXPECT_FALSE(ch.push(3));
  EXPECT_FALSE(ch.try_push(3));
  int out = 0;
  EXPECT_TRUE(ch.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ch.pop(out));
  EXPECT_EQ(out, 2);
  // Drained and closed: the worker-loop exit condition.
  EXPECT_FALSE(ch.pop(out));
}

TEST(Channel, CloseWakesBlockedConsumer) {
  Channel<int> ch(1);
  std::thread consumer([&ch] {
    int out = 0;
    EXPECT_FALSE(ch.pop(out));  // blocks until close, then fails
  });
  ch.close();
  consumer.join();
}

TEST(Channel, CloseWakesBlockedProducer) {
  Channel<int> ch(1);
  ASSERT_TRUE(ch.try_push(1));
  std::thread producer([&ch] {
    EXPECT_FALSE(ch.push(2));  // blocks on the full queue until close
  });
  ch.close();
  producer.join();
}

TEST(Channel, MpmcDeliversEveryItemExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 250;
  Channel<int> ch(8);
  std::vector<std::thread> threads;
  std::vector<std::vector<int>> received(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&ch, &received, c] {
      int v = 0;
      while (ch.pop(v)) received[c].push_back(v);
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&ch, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ch.push(p * kPerProducer + i));
      }
    });
  }
  for (std::size_t t = kConsumers; t < threads.size(); ++t) threads[t].join();
  ch.close();
  for (int c = 0; c < kConsumers; ++c) threads[c].join();

  std::vector<int> all;
  for (const auto& r : received) all.insert(all.end(), r.begin(), r.end());
  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(all.begin(), all.end());
  std::vector<int> expected(kProducers * kPerProducer);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(all, expected);
}

}  // namespace
