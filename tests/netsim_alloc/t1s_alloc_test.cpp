// Allocation counts of the event core and the 10BASE-T1S frame path. This
// binary replaces the global operator new with a counting one, so it is
// kept apart from netsim_tests: no other test runs under the replacement.
//
// A warmed core::Scheduler dispatches in-place event bodies without
// allocating, and boxes any other body with exactly one allocation.
//
// Once its queues have grown, T1sBus must carry a frame moved into send()
// to every receiver without allocating: the frame on the wire lives in the
// bus, and the end-of-frame event captures only the bus. A bus whose
// event closure captured the frame would allocate once per frame.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "avsec/core/scheduler.hpp"
#include "avsec/netsim/t1s.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace avsec::netsim {
namespace {

/// A scheduler whose heap and settled-id bits have grown well past what
/// the tests below use; reset() keeps the capacity.
void warm(core::Scheduler& sim) {
  for (int k = 0; k < 16 * 1024; ++k) sim.schedule_at(0, [] {});
  sim.run();
  sim.reset();
}

TEST(SchedulerAllocation, InPlaceBodiesNeverAllocateAndBoxedOnesOnce) {
  core::Scheduler sim;
  warm(sim);

  // 10k self-rescheduling one-pointer closures: stored in the event.
  struct Ticker {
    core::Scheduler& sim;
    int left;
    void tick() {
      if (--left > 0) sim.schedule_in(1, [p = this] { p->tick(); });
    }
  };
  Ticker ticker{sim, 10'000};
  std::uint64_t before = g_allocations.load();
  sim.schedule_at(0, [p = &ticker] { p->tick(); });
  sim.run();
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(sim.dispatched(), 10'000u);

  // Three pointers are one too many for in-place storage: one box each.
  sim.reset();
  int fired = 0;
  int* a = &fired;
  int* b = &fired;
  int* c = &fired;
  before = g_allocations.load();
  for (int k = 0; k < 1000; ++k) {
    sim.schedule_at(k, [a, b, c] { *a += (b == c) ? 1 : 0; });
  }
  EXPECT_EQ(g_allocations.load() - before, 1000u);
  sim.run();
  EXPECT_EQ(g_allocations.load() - before, 1000u);
  EXPECT_EQ(fired, 1000);
}

constexpr int kNodes = 4;

std::vector<EthFrame> frames(std::size_t count) {
  std::vector<EthFrame> out(count);
  for (std::size_t k = 0; k < count; ++k) {
    out[k].dst.fill(0xFF);
    out[k].payload = core::Bytes(64 + k % 200, static_cast<std::uint8_t>(k));
  }
  return out;
}

/// Moves `batch` round-robin into the bus and runs until all of it is
/// delivered. Returns the operator new calls made meanwhile.
std::uint64_t carry(core::Scheduler& sim, T1sBus& bus,
                    std::vector<EthFrame>& batch) {
  const std::uint64_t before = g_allocations.load();
  for (std::size_t k = 0; k < batch.size(); ++k) {
    bus.send(static_cast<int>(k % kNodes), std::move(batch[k]));
  }
  sim.run();
  return g_allocations.load() - before;
}

TEST(T1sAllocation, DeliveryDoesNotAllocatePerFrame) {
  constexpr std::size_t kFrames = 256;
  core::Scheduler sim;
  warm(sim);

  T1sBus bus(sim, {});
  std::uint64_t bytes_seen = 0;
  for (int i = 0; i < kNodes; ++i) {
    bus.attach("n", [&bytes_seen](int, const EthFrame& f, core::SimTime) {
      bytes_seen += f.payload.size();
    });
  }
  bus.start();

  // Warm with batches as large as the measured one: the node queues grow
  // to hold it, and the latency samples until it fits in their spare
  // capacity.
  const auto& latency = bus.access_latency().values();
  while (latency.capacity() - latency.size() < kFrames) {
    std::vector<EthFrame> warm = frames(kFrames);
    carry(sim, bus, warm);
  }

  std::vector<EthFrame> batch = frames(kFrames);
  const std::uint64_t delivered_before = bus.frames_delivered();
  bytes_seen = 0;
  EXPECT_EQ(carry(sim, bus, batch), 0u);
  EXPECT_EQ(bus.frames_delivered() - delivered_before, kFrames);
  // Every frame reached the three other nodes with its whole payload.
  std::uint64_t bytes_sent = 0;
  for (const EthFrame& f : frames(kFrames)) bytes_sent += f.payload.size();
  EXPECT_EQ(bytes_seen, (kNodes - 1) * bytes_sent);
}

}  // namespace
}  // namespace avsec::netsim
