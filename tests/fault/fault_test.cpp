#include "avsec/fault/fault.hpp"

#include <gtest/gtest.h>

#include "avsec/fault/campaign.hpp"

namespace avsec::fault {
namespace {

TEST(FaultPlan, EventsSortedByTime) {
  FaultPlan plan;
  plan.add({core::milliseconds(30), FaultKind::kNodeCrash, "a"})
      .add({core::milliseconds(10), FaultKind::kLinkDrop, "l"})
      .add({core::milliseconds(20), FaultKind::kNodeRestart, "a"});
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].at, core::milliseconds(10));
  EXPECT_EQ(plan.events()[1].at, core::milliseconds(20));
  EXPECT_EQ(plan.events()[2].at, core::milliseconds(30));
}

TEST(FaultPlan, RandomPlansAreSeedDeterministic) {
  FaultPlan::RandomConfig cfg;
  cfg.count = 8;
  cfg.targets = {"a", "b", "link"};
  cfg.kinds = {FaultKind::kNodeCrash, FaultKind::kLinkDrop,
               FaultKind::kBabblingIdiot};
  const auto p1 = FaultPlan::random(cfg, 42);
  const auto p2 = FaultPlan::random(cfg, 42);
  const auto p3 = FaultPlan::random(cfg, 43);
  ASSERT_EQ(p1.size(), 8u);
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1.events()[i].at, p2.events()[i].at);
    EXPECT_EQ(p1.events()[i].kind, p2.events()[i].kind);
    EXPECT_EQ(p1.events()[i].target, p2.events()[i].target);
  }
  // Different seed yields a different plan (at least one field differs).
  bool differs = false;
  for (std::size_t i = 0; i < p1.size(); ++i) {
    differs |= p1.events()[i].at != p3.events()[i].at ||
               p1.events()[i].target != p3.events()[i].target;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, CrashWithDurationAutoRestarts) {
  core::Scheduler sim;
  netsim::CanBus bus(sim, {});
  const int a = bus.attach("a", nullptr);
  bus.attach("b", nullptr);
  CanNodeFault node_a(sim, bus, a);

  FaultInjector injector(sim);
  injector.add_target("a", &node_a);
  FaultPlan plan;
  plan.add({core::milliseconds(10), FaultKind::kNodeCrash, "a",
            core::milliseconds(20)});
  injector.arm(plan);

  sim.run_until(core::milliseconds(15));
  EXPECT_TRUE(bus.is_down(a));
  sim.run_until(core::milliseconds(40));
  EXPECT_FALSE(bus.is_down(a));
  EXPECT_EQ(injector.applied(), 1u);
  ASSERT_EQ(injector.log().size(), 2u);
  EXPECT_FALSE(injector.log()[0].reverted);
  EXPECT_TRUE(injector.log()[1].reverted);
}

TEST(FaultInjector, UnknownTargetThrows) {
  core::Scheduler sim;
  FaultInjector injector(sim);
  FaultPlan plan;
  plan.add({0, FaultKind::kNodeCrash, "ghost"});
  EXPECT_THROW(injector.arm(plan), std::out_of_range);
}

TEST(FaultInjector, CancelPendingStopsFutureFaults) {
  core::Scheduler sim;
  netsim::CanBus bus(sim, {});
  const int a = bus.attach("a", nullptr);
  CanNodeFault node_a(sim, bus, a);
  FaultInjector injector(sim);
  injector.add_target("a", &node_a);
  FaultPlan plan;
  plan.add({core::milliseconds(10), FaultKind::kNodeCrash, "a"});
  plan.add({core::milliseconds(30), FaultKind::kNodeCrash, "a"});
  injector.arm(plan);

  sim.run_until(core::milliseconds(20));
  EXPECT_TRUE(bus.is_down(a));
  bus.set_node_down(a, false);
  EXPECT_EQ(injector.cancel_pending(), 1u);  // the t=30ms crash
  sim.run();
  EXPECT_FALSE(bus.is_down(a));
  EXPECT_EQ(injector.applied(), 1u);
}

TEST(ChannelFaultAdapter, PartitionAndHealRoundTrip) {
  core::Scheduler sim;
  netsim::FlakyChannel link(sim, {});
  int received = 0;
  link.bind(netsim::FlakyChannel::End::kB,
            [&](const core::Bytes&, core::SimTime) { ++received; });
  ChannelFault adapter(link);
  FaultInjector injector(sim);
  injector.add_target("link", &adapter);
  FaultPlan plan;
  plan.add({core::milliseconds(10), FaultKind::kLinkPartition, "link",
            core::milliseconds(20)});
  injector.arm(plan);

  // One datagram before, one during, one after the partition.
  sim.schedule_at(core::milliseconds(5), [&] {
    link.send(netsim::FlakyChannel::End::kA, core::Bytes{1});
  });
  sim.schedule_at(core::milliseconds(15), [&] {
    link.send(netsim::FlakyChannel::End::kA, core::Bytes{2});
  });
  sim.schedule_at(core::milliseconds(40), [&] {
    link.send(netsim::FlakyChannel::End::kA, core::Bytes{3});
  });
  sim.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(link.dropped(), 1u);
}

TEST(SkewedClock, SkewAndOffsetCompose) {
  core::Scheduler sim;
  SkewedClock clock(sim);
  sim.schedule_at(core::seconds(1), [&] {
    EXPECT_EQ(clock.local_now(), core::seconds(1));
    clock.set_skew_ppm(1000.0);  // +0.1%
  });
  sim.schedule_at(core::seconds(2), [&] {
    // One skewed second elapsed: 1s * 1.001 on top of the 1s base.
    const core::SimTime expected = core::seconds(1) +
                                   core::kSecond + core::kSecond / 1000;
    EXPECT_NEAR(static_cast<double>(clock.local_now()),
                static_cast<double>(expected), 1e3);
    clock.set_offset(core::milliseconds(5));
  });
  sim.schedule_at(core::seconds(3), [&] {
    EXPECT_GT(clock.local_now(), sim.now());  // drift + offset ahead
  });
  sim.run();
}

TEST(BabblingIdiot, DrivesItselfBusOffAndBusLoadSpikes) {
  core::Scheduler sim;
  netsim::CanBusConfig cfg;
  cfg.auto_bus_off_recovery = false;
  netsim::CanBus bus(sim, cfg);
  const int victim = bus.attach("victim", nullptr);
  const int babbler = bus.attach("babbler", nullptr);
  bus.attach("listener", nullptr);

  CanNodeFault babbler_fault(sim, bus, babbler, /*seed=*/3);
  FaultInjector injector(sim);
  injector.add_target("babbler", &babbler_fault);
  FaultPlan plan;
  plan.add({core::milliseconds(10), FaultKind::kBabblingIdiot, "babbler",
            /*duration=*/core::milliseconds(200), /*magnitude=*/1.0});
  injector.arm(plan);

  // Victim keeps periodic traffic flowing the whole time.
  netsim::CanFrame vf;
  vf.id = 0x200;
  vf.payload = core::Bytes(4, 1);
  std::function<void()> tick = [&] {
    bus.send(victim, vf);
    if (sim.now() < core::milliseconds(300)) {
      sim.schedule_in(core::milliseconds(5), tick);
    }
  };
  sim.schedule_at(0, tick);
  sim.run();

  // Fully-corrupting babbler: TEC +8 per attempt minus nothing (every
  // frame errors until the injected error budget of 1/frame is spent,
  // then +7 net per frame) -> bus-off well within the babble window.
  EXPECT_TRUE(bus.is_bus_off(babbler));
  EXPECT_GT(bus.error_frames(), 10u);
  EXPECT_GT(babbler_fault.babble_frames(), 0u);
}

TEST(Campaign, InvariantsEvaluatedPerSeededRun) {
  CampaignConfig config;
  config.runs = 5;
  config.base_seed = 9;
  Campaign campaign(config);
  campaign.require("delivered>=1",
                   [](const Metrics& m) { return m.at("delivered") >= 1.0; });
  campaign.require("never-ten",
                   [](const Metrics& m) { return m.at("delivered") != 10.0; });

  std::vector<std::uint64_t> seeds_seen;
  const auto report = campaign.sweep([&](SimContext&, std::uint64_t seed) {
    seeds_seen.push_back(seed);
    Metrics m;
    m["delivered"] = seeds_seen.size() == 3 ? 10.0 : 2.0;  // 3rd run "fails"
    return m;
  });

  EXPECT_EQ(report.runs, 5u);
  EXPECT_EQ(report.failed_runs, 1u);
  EXPECT_EQ(report.violations.at("never-ten"), 1u);
  EXPECT_EQ(report.violations.count("delivered>=1"), 0u);
  ASSERT_EQ(report.failing_seeds().size(), 1u);
  EXPECT_EQ(report.failing_seeds()[0], seeds_seen[2]);
  // Seeds are deterministic and replayable.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(campaign.seed_for_run(i), seeds_seen[i]);
  }
  EXPECT_EQ(report.aggregate.at("delivered").count(), 5u);
}

}  // namespace
}  // namespace avsec::fault
