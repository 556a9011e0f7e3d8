// fault::ReplicaWorld, the 2oo3 replica world shared by the health chaos
// example, its acceptance test and bench_campaign_parallel: the fixed
// escalation ladder the example prints.
#include <gtest/gtest.h>

#include <vector>

#include "avsec/fault/replica_world.hpp"

namespace avsec::fault {
namespace {

struct Transition {
  core::SimTime at;
  health::SafetyState to;
};

TEST(ReplicaWorld, TwoPersistentMutesWalkToSafeStop) {
  core::Scheduler sim;
  ReplicaWorld w(sim, 1);
  FaultPlan plan;
  plan.add({core::milliseconds(100), FaultKind::kReplicaMute, "replica-0"});
  plan.add({core::milliseconds(700), FaultKind::kReplicaMute, "replica-1"});
  const Metrics m = w.run(plan);

  std::vector<Transition> ladder;
  for (const auto& ev : w.supervisor().events()) {
    if (ev.kind == health::SupervisorEventKind::kTransition) {
      ladder.push_back({ev.time, ev.to});
    }
  }
  ASSERT_EQ(ladder.size(), 3u);
  EXPECT_EQ(ladder[0].at, core::milliseconds(130));
  EXPECT_EQ(ladder[0].to, health::SafetyState::kDegraded);
  EXPECT_EQ(ladder[1].at, core::milliseconds(530));
  EXPECT_EQ(ladder[1].to, health::SafetyState::kLimpHome);
  EXPECT_EQ(ladder[2].at, core::milliseconds(1130));
  EXPECT_EQ(ladder[2].to, health::SafetyState::kSafeStop);

  EXPECT_EQ(w.supervisor().state(), health::SafetyState::kSafeStop);
  EXPECT_EQ(w.correlator().incidents().size(), 2u);
  EXPECT_EQ(m.at("safe_stop"), 1.0);
  EXPECT_EQ(m.at("nominal_at_end"), 0.0);
  EXPECT_EQ(m.at("faults_applied"), 2.0);
}

}  // namespace
}  // namespace avsec::fault
