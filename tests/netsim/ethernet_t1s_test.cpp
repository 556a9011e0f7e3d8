#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "avsec/netsim/ethernet.hpp"
#include "avsec/netsim/t1s.hpp"
#include "avsec/netsim/topology.hpp"

namespace avsec::netsim {
namespace {

TEST(EthFrame, WireBitsIncludeMinimumPadding) {
  EthFrame small;
  small.payload = Bytes(1, 0);
  EthFrame at_min;
  at_min.payload = Bytes(46, 0);
  EXPECT_EQ(small.wire_bits(), at_min.wire_bits());
  EXPECT_EQ(at_min.wire_bits(), 8 * (14 + 46 + 4 + 8 + 12));

  EthFrame big;
  big.payload = Bytes(1000, 0);
  EXPECT_EQ(big.wire_bits(), 8 * (14 + 1000 + 4 + 8 + 12));
}

TEST(Mac, FormattingAndBroadcast) {
  const auto mac = mac_from_index(0x0102);
  EXPECT_EQ(mac, (MacAddress{0x02, 0xa5, 0x5e, 0x00, 0x01, 0x02}));
  EXPECT_FALSE(is_broadcast(mac));
  MacAddress bcast;
  bcast.fill(0xFF);
  EXPECT_TRUE(is_broadcast(bcast));
}

TEST(EthLink, DeliversWithSerializationAndPropagation) {
  core::Scheduler sim;
  EthNic a("a", mac_from_index(1)), b("b", mac_from_index(2));
  EthLink link(sim, 100'000'000, core::nanoseconds(500));
  link.connect(&a, &b);
  a.attach_link(&link);
  b.attach_link(&link);

  core::SimTime rx_time = -1;
  b.set_rx([&](const EthFrame&, core::SimTime now) { rx_time = now; });

  EthFrame f;
  f.dst = b.mac();
  f.payload = Bytes(100, 0xAB);
  const auto expected =
      core::transmission_time(f.wire_bits(), 100'000'000) +
      core::nanoseconds(500);
  a.send(f);
  sim.run();
  EXPECT_EQ(rx_time, expected);
  EXPECT_EQ(b.rx_frames(), 1u);
}

TEST(EthLink, BackToBackFramesQueueOnSerializer) {
  core::Scheduler sim;
  EthNic a("a", mac_from_index(1)), b("b", mac_from_index(2));
  EthLink link(sim, 10'000'000, 0);
  link.connect(&a, &b);
  a.attach_link(&link);
  b.attach_link(&link);
  std::vector<core::SimTime> arrivals;
  b.set_rx([&](const EthFrame&, core::SimTime now) { arrivals.push_back(now); });

  EthFrame f;
  f.dst = b.mac();
  f.payload = Bytes(100, 1);
  a.send(f);
  a.send(f);
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const auto ser = core::transmission_time(f.wire_bits(), 10'000'000);
  EXPECT_EQ(arrivals[0], ser);
  EXPECT_EQ(arrivals[1], 2 * ser);
}

TEST(EthNic, FiltersFramesForOtherHosts) {
  core::Scheduler sim;
  EthNic a("a", mac_from_index(1)), b("b", mac_from_index(2));
  EthLink link(sim, 100'000'000, 0);
  link.connect(&a, &b);
  a.attach_link(&link);
  int rx = 0;
  b.set_rx([&](const EthFrame&, core::SimTime) { ++rx; });

  EthFrame f;
  f.dst = mac_from_index(99);  // not b
  a.send(f);
  sim.run();
  EXPECT_EQ(rx, 0);

  f.dst.fill(0xFF);  // broadcast reaches b
  a.send(f);
  sim.run();
  EXPECT_EQ(rx, 1);
}

TEST(EthSwitch, LearnsAndForwardsUnicast) {
  core::Scheduler sim;
  EthSwitch sw(sim, "sw");
  EthNic a("a", mac_from_index(1)), b("b", mac_from_index(2)),
      c("c", mac_from_index(3));
  std::vector<std::unique_ptr<EthLink>> links;
  for (EthNic* nic : {&a, &b, &c}) {
    links.push_back(std::make_unique<EthLink>(sim, 100'000'000,
                                              core::nanoseconds(100)));
    auto* port = sw.add_port(links.back().get());
    links.back()->connect(nic, port);
    nic->attach_link(links.back().get());
  }
  int rx_b = 0, rx_c = 0;
  b.set_rx([&](const EthFrame&, core::SimTime) { ++rx_b; });
  c.set_rx([&](const EthFrame&, core::SimTime) { ++rx_c; });

  // First frame a->b floods (b unknown); b's reply teaches the switch.
  EthFrame f;
  f.dst = b.mac();
  a.send(f);
  sim.run();
  EXPECT_EQ(rx_b, 1);
  EXPECT_EQ(sw.flooded(), 1u);

  EthFrame r;
  r.dst = a.mac();
  b.send(r);
  sim.run();

  // Now a->b is a learned unicast; c must not see it.
  a.send(f);
  sim.run();
  EXPECT_EQ(rx_b, 2);
  EXPECT_EQ(rx_c, 0);
  EXPECT_GE(sw.forwarded(), 1u);
}

TEST(T1s, RoundRobinDeliversAllFrames) {
  core::Scheduler sim;
  T1sBus bus(sim, {});
  const int a = bus.attach("a", nullptr);
  const int b = bus.attach("b", nullptr);
  int rx = 0;
  bus.attach("sink", [&](int, const EthFrame&, core::SimTime) { ++rx; });
  bus.start();

  EthFrame f;
  f.dst.fill(0xFF);
  f.payload = Bytes(64, 1);
  for (int i = 0; i < 5; ++i) {
    bus.send(a, f);
    bus.send(b, f);
  }
  sim.run_until(core::milliseconds(10));
  EXPECT_EQ(rx, 10);
  EXPECT_EQ(bus.frames_delivered(), 10u);
}

TEST(T1s, AccessLatencyIsBoundedUnderContention) {
  core::Scheduler sim;
  T1sConfig cfg;
  T1sBus bus(sim, cfg);
  constexpr int kNodes = 8;
  std::vector<int> ids;
  for (int i = 0; i < kNodes; ++i) {
    ids.push_back(bus.attach("n" + std::to_string(i), nullptr));
  }
  bus.start();

  EthFrame f;
  f.dst.fill(0xFF);
  f.payload = Bytes(100, 2);
  for (int id : ids) bus.send(id, f);
  sim.run_until(core::milliseconds(5));

  // Worst-case wait: everyone else's frame plus yield windows — all of
  // which fits well under 8 full frame times at 10 Mbit/s.
  const double frame_us = static_cast<double>(f.wire_bits()) / 10.0;
  EXPECT_LE(bus.access_latency().max(), kNodes * frame_us + 100.0);
  EXPECT_EQ(bus.frames_delivered(), static_cast<std::uint64_t>(kNodes));
}

TEST(T1s, IdleBusHasZeroLoad) {
  core::Scheduler sim;
  T1sBus bus(sim, {});
  bus.attach("a", nullptr);
  bus.attach("b", nullptr);
  bus.start();
  sim.run_until(core::milliseconds(1));
  EXPECT_DOUBLE_EQ(bus.bus_load(), 0.0);
}

TEST(T1s, RejectsConfigsWithoutATimeBase) {
  core::Scheduler sim;
  const auto with = [](auto edit) {
    T1sConfig cfg;
    edit(cfg);
    return cfg;
  };
  EXPECT_THROW(T1sBus(sim, with([](T1sConfig& c) { c.bitrate = 0; })),
               std::invalid_argument);
  EXPECT_THROW(T1sBus(sim, with([](T1sConfig& c) { c.bitrate = -1; })),
               std::invalid_argument);
  EXPECT_THROW(T1sBus(sim, with([](T1sConfig& c) { c.to_timer_bits = 0; })),
               std::invalid_argument);
  EXPECT_THROW(T1sBus(sim, with([](T1sConfig& c) { c.beacon_bits = -1; })),
               std::invalid_argument);
  // Faster than 2 Tbit/s a bit rounds to 0 ps: a zero-length round.
  EXPECT_THROW(
      T1sBus(sim, with([](T1sConfig& c) { c.bitrate = 3'000'000'000'000; })),
      std::invalid_argument);
  EXPECT_NO_THROW(T1sBus(sim, with([](T1sConfig& c) { c.beacon_bits = 0; })));
}

TEST(T1s, AttachAfterStartThrows) {
  core::Scheduler sim;
  T1sBus bus(sim, {});
  EXPECT_THROW(bus.start(), std::logic_error);  // no nodes yet
  bus.attach("a", nullptr);
  bus.start();
  EXPECT_THROW(bus.attach("late", nullptr), std::logic_error);
  EXPECT_THROW(bus.start(), std::logic_error);
}

TEST(T1s, SendFromUnknownNodeThrows) {
  core::Scheduler sim;
  T1sBus bus(sim, {});
  bus.attach("a", nullptr);
  bus.attach("b", nullptr);
  bus.start();
  EXPECT_THROW(bus.send(-1, EthFrame{}), std::out_of_range);
  EXPECT_THROW(bus.send(2, EthFrame{}), std::out_of_range);
  EXPECT_NO_THROW(bus.send(1, EthFrame{}));
}

// Two nodes on the default config: node 0's TOs start at 2.0, 10.4 and
// 18.8 us. A frame queued at 10.4 us goes in the TO that starts then,
// whenever the queuing event was scheduled; 672 bits take 67.2 us.
TEST(T1s, FrameQueuedAtItsTOStartGoesInThatTO) {
  for (const std::int64_t ns : {0, 5'000, 6'000, 10'000, 10'400}) {
    core::Scheduler sim;
    T1sBus bus(sim, {});
    const int a = bus.attach("a", nullptr);
    core::SimTime got = -1;
    bus.attach("b", [&](int, const EthFrame&, core::SimTime now) {
      got = now;
    });
    bus.start();
    sim.schedule_at(core::nanoseconds(ns), [&] {
      sim.schedule_at(core::nanoseconds(10'400), [&] {
        bus.send(a, EthFrame{});
      });
    });
    sim.run_until(core::microseconds(200));
    EXPECT_EQ(got, core::nanoseconds(77'600)) << ns << " ns";
    EXPECT_EQ(bus.access_latency().max(), 0.0) << ns << " ns";
  }
}

TEST(T1s, SendFromRxCallbackAtFrameEndGoesInTheTOThatStartsThen) {
  // Node 0's frame ends at 2.0 + 67.2 = 69.2 us, where node 1's TO
  // starts; node 1 answers from its rx callback and goes at once.
  core::Scheduler sim;
  T1sBus bus(sim, {});
  const int a = bus.attach("a", nullptr);
  const int b = bus.attach("b", nullptr);
  std::vector<std::pair<int, core::SimTime>> at_c;
  bus.attach("c", [&](int src, const EthFrame&, core::SimTime now) {
    at_c.emplace_back(src, now);
  });
  bus.set_rx(b, [&](int src, const EthFrame&, core::SimTime now) {
    EXPECT_EQ(src, a);
    EXPECT_EQ(now, core::nanoseconds(69'200));
    bus.send(b, EthFrame{});
  });
  bus.send(a, EthFrame{});
  bus.start();
  sim.run_until(core::microseconds(500));
  const std::vector<std::pair<int, core::SimTime>> want = {
      {a, core::nanoseconds(69'200)}, {b, core::nanoseconds(136'400)}};
  EXPECT_EQ(at_c, want);
  EXPECT_EQ(bus.access_latency().values(), (std::vector<double>{2.0, 0.0}));
}

TEST(T1s, IdleBusDispatchesNoEvents) {
  core::Scheduler sim;
  T1sBus bus(sim, {});
  for (int i = 0; i < 8; ++i) bus.attach("n" + std::to_string(i), nullptr);
  bus.start();
  sim.run_until(core::seconds(1));
  EXPECT_EQ(sim.dispatched(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(T1s, EachDeliveredFrameCostsAtMostTwoDispatches) {
  core::Scheduler sim;
  T1sBus bus(sim, {});
  std::vector<int> nodes;
  for (int i = 0; i < 6; ++i) {
    nodes.push_back(bus.attach("n" + std::to_string(i), nullptr));
  }
  bus.start();
  // Senders at co-prime periods, so sends land in every phase of a round
  // and often move the wake earlier.
  std::uint64_t source_events = 0;
  std::vector<std::function<void()>> ticks(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    ticks[i] = [&, i] {
      ++source_events;
      EthFrame f;
      f.payload = Bytes(46 + 97 * i, 0x5A);
      bus.send(nodes[i], f);
      sim.schedule_in(core::microseconds(700 + 311 * std::int64_t(i)),
                      ticks[i]);
    };
    sim.schedule_at(core::nanoseconds(1'234 * std::int64_t(i)), ticks[i]);
  }
  sim.run_until(core::milliseconds(400));
  ASSERT_GT(bus.frames_delivered(), 1000u);
  EXPECT_LE(sim.dispatched() - source_events, 2 * bus.frames_delivered());
}

TEST(ZonalTopology, BuildsFig3Structure) {
  core::Scheduler sim;
  ZonalTopologyConfig cfg;
  cfg.can_endpoints = 4;
  cfg.t1s_endpoints = 2;
  ZonalTopology topo(sim, cfg);

  EXPECT_EQ(topo.can_endpoint_count(), 4);
  EXPECT_EQ(topo.t1s_endpoint_count(), 2);
  EXPECT_NE(topo.cc_mac(), topo.zc1_mac());
  EXPECT_NE(topo.zc1_mac(), topo.zc2_mac());
}

TEST(ZonalTopology, BackboneConnectsZcToCc) {
  core::Scheduler sim;
  ZonalTopology topo(sim, {});
  int rx_cc = 0;
  topo.cc_nic().set_rx([&](const EthFrame&, core::SimTime) { ++rx_cc; });

  EthFrame f;
  f.dst = topo.cc_mac();
  f.payload = Bytes(64, 3);
  topo.zc1_nic().send(f);
  sim.run_until(core::milliseconds(1));
  EXPECT_EQ(rx_cc, 1);

  topo.zc2_nic().send(f);
  sim.run_until(core::milliseconds(2));
  EXPECT_EQ(rx_cc, 2);
}

TEST(ZonalTopology, CanEndpointsReachZonalController) {
  core::Scheduler sim;
  ZonalTopology topo(sim, {});
  int rx = 0;
  topo.can_bus().set_rx(topo.zc1_can_node(),
                        [&](int, const CanFrame&, core::SimTime) { ++rx; });
  CanFrame f;
  f.id = 0x55;
  f.protocol = CanProtocol::kFd;
  f.payload = Bytes(16, 9);
  topo.can_bus().send(topo.can_endpoint_node(0), f);
  sim.run_until(core::milliseconds(1));
  EXPECT_EQ(rx, 1);
}

}  // namespace
}  // namespace avsec::netsim
