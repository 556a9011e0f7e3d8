// Differential oracle for netsim::T1sBus: seeded random send schedules
// run on the parked bus and on the stepped reference (reference_t1s.hpp)
// must leave identical per-receiver delivery logs (source, frame tag,
// payload size, time), access-latency samples, frame counts and bus load.
// The size catches a delivered frame whose buffer was reused or moved
// from before every receiver saw it.
//
// Schedules draw 1-6 nodes, the TO and beacon lengths, frame sizes from
// the minimum to the maximum payload, and sends at random times, in
// bursts, chained after a reception at random lags, and straight from rx
// callbacks. Every send not made inside an rx callback lands off the
// 100 ns bit-time grid, so it never ties with the start of a TO (the one
// place the two buses differ, pinned below). A send inside an rx callback
// lands on the grid at a frame's end; both buses dispatch the delivery
// before the TO that starts then, so they agree on it.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "avsec/core/rng.hpp"
#include "avsec/core/scheduler.hpp"
#include "avsec/netsim/t1s.hpp"
#include "reference_t1s.hpp"

namespace avsec::netsim {
namespace {

using core::SimTime;

constexpr SimTime kGrid = core::nanoseconds(100);  // one bit at 10 Mbit/s

struct Delivery {
  int src;
  std::uint32_t tag;
  std::size_t size;
  SimTime at;
  bool operator==(const Delivery&) const = default;
};

struct Log {
  std::vector<std::vector<Delivery>> rx;  // per receiving node
  std::vector<double> latency_us;
  std::uint64_t delivered = 0;
  double load = 0.0;
  bool operator==(const Log&) const = default;
};

/// A random time strictly between two grid points, `grid_steps` on.
SimTime off_grid(core::Rng& rng, std::int64_t grid_steps) {
  return rng.uniform_int(0, grid_steps) * kGrid + rng.uniform_int(1, kGrid - 1);
}

template <class Bus>
Log drive(std::uint64_t seed) {
  core::Rng rng(seed);
  core::Scheduler sim;
  T1sConfig cfg;
  cfg.to_timer_bits = rng.uniform_int(1, 40);
  cfg.beacon_bits = rng.uniform_int(0, 30);
  Bus bus(sim, cfg);
  const int nodes = static_cast<int>(rng.uniform_int(1, 6));
  const int budget = static_cast<int>(rng.uniform_int(5, 60));
  int sent = 0;
  std::uint32_t next_tag = 0;
  Log log;
  log.rx.resize(static_cast<std::size_t>(nodes));

  const auto send = [&](int node) {
    if (sent++ >= budget) return;
    EthFrame f;
    f.dst.fill(0xFF);
    // Padding edges and the extremes as often as sizes in between.
    static constexpr std::int64_t kSizes[] = {4, 46, 47, 200, 1500};
    const std::int64_t size = rng.chance(0.5)
                                  ? kSizes[rng.uniform_int(0, 4)]
                                  : rng.uniform_int(4, 1500);
    core::append_be(f.payload, next_tag++, 4);
    f.payload.resize(static_cast<std::size_t>(size), 0);
    bus.send(node, std::move(f));
  };
  const auto burst = [&](int node) {
    for (int k = static_cast<int>(rng.uniform_int(1, 3)); k > 0; --k) {
      send(node);
    }
  };

  for (int i = 0; i < nodes; ++i) {
    bus.attach("n" + std::to_string(i),
               [&, i](int src, const EthFrame& f, SimTime now) {
                 log.rx[static_cast<std::size_t>(i)].push_back(
                     {src,
                      static_cast<std::uint32_t>(
                          core::read_be(f.payload, 0, 4)),
                      f.payload.size(), now});
                 const std::uint64_t r = rng.next() % 8;
                 if (r == 0) burst(i);  // from the rx callback, on the grid
                 if (r == 1 || r == 2) {
                   // Lags from under one bit time to about two rounds.
                   const std::int64_t steps = r == 1 ? 0 : 400;
                   sim.schedule_in(off_grid(rng, steps), [&, i] { burst(i); });
                 }
               });
  }

  if (rng.chance(0.3)) burst(static_cast<int>(rng.uniform_int(0, nodes - 1)));
  bus.start();
  for (int k = static_cast<int>(rng.uniform_int(1, 12)); k > 0; --k) {
    const int node = static_cast<int>(rng.uniform_int(0, nodes - 1));
    sim.schedule_at(off_grid(rng, 30'000), [&, node] { burst(node); });
  }

  sim.run_until(core::milliseconds(rng.uniform_int(2, 40)) +
                off_grid(rng, 0));
  log.latency_us = bus.access_latency().values();
  log.delivered = bus.frames_delivered();
  log.load = bus.bus_load();
  return log;
}

TEST(T1sDifferential, MatchesSteppedBusOnRandomSchedules) {
  std::uint64_t frames = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Log want = drive<reference::SteppedT1sBus>(seed);
    ASSERT_EQ(drive<T1sBus>(seed), want) << "seed " << seed;
    frames += want.delivered;
  }
  // The schedules must exercise the bus, not just idle it.
  EXPECT_GT(frames, 3000u);
}

/// Two nodes on the default config: node 0's TOs start at 2.0, 10.4,
/// 18.8 us (round 2·3.2 + 2.0 us), node 1's at 5.2 us. A frame queued at
/// 10.4 us by an event scheduled at `scheduled_at`: returns when node 1
/// receives it.
template <class Bus>
SimTime delivery_of_frame_queued_at_to_start(SimTime scheduled_at) {
  core::Scheduler sim;
  Bus bus(sim, {});
  const int a = bus.attach("a", nullptr);
  SimTime got = -1;
  bus.attach("b", [&](int, const EthFrame&, SimTime now) { got = now; });
  bus.start();
  sim.schedule_at(scheduled_at, [&] {
    sim.schedule_at(core::nanoseconds(10'400), [&] {
      EthFrame f;
      f.payload = core::Bytes(10, 0);  // padded: 672 bits, 67.2 us
      bus.send(a, f);
    });
  });
  sim.run_until(core::microseconds(200));
  return got;
}

TEST(T1sDifferential, SteppedBusDefersAFrameQueuedAtItsTOStartByEventOrder) {
  const SimTime in_that_to = core::nanoseconds(77'600);  // 10.4 + 67.2 us
  const SimTime a_round_on = core::nanoseconds(86'000);  // 18.8 + 67.2 us
  for (const std::int64_t ns : {0, 5'000, 6'000, 10'000}) {
    const SimTime at = core::nanoseconds(ns);
    // The parked bus follows the rule: queued when its TO starts, sent in
    // that TO.
    EXPECT_EQ(delivery_of_frame_queued_at_to_start<T1sBus>(at), in_that_to)
        << ns << " ns";
    // The stepped bus sends it in that TO only if the queuing event was
    // scheduled before node 1's TO began at 5.2 us and scheduled node 0's.
    EXPECT_EQ(
        delivery_of_frame_queued_at_to_start<reference::SteppedT1sBus>(at),
        ns <= 5'000 ? in_that_to : a_round_on)
        << ns << " ns";
  }
}

}  // namespace
}  // namespace avsec::netsim
