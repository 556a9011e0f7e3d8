#include "avsec/fault/replica_world.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <utility>

namespace avsec::fault {
namespace {

constexpr double kTruth = 25.0;
constexpr core::SimTime kRunEnd = core::seconds(2);
constexpr core::SimTime kTick = core::milliseconds(10);

health::VoterConfig voter_config() {
  health::VoterConfig v;
  v.tolerance = 0.5;
  v.quorum = 2;
  v.max_age = core::milliseconds(25);
  return v;
}

health::HeartbeatConfig heartbeat_config() {
  health::HeartbeatConfig h;
  h.check_period = kTick;
  h.deadline = core::milliseconds(25);
  h.miss_budget = 2;
  return h;
}

health::SupervisorConfig supervisor_config() {
  health::SupervisorConfig s;
  s.tick_period = kTick;
  s.clear_after = core::milliseconds(50);
  s.recovery_deadline = core::milliseconds(400);
  s.repeats_to_escalate = 3;
  s.escalate_window = core::milliseconds(250);
  return s;
}

}  // namespace

ReplicaWorld::ReplicaWorld(core::Scheduler& sim, std::uint64_t seed)
    : sim_(sim),
      rng_(seed),
      voter_(voter_config(), 3),
      monitor_(sim, heartbeat_config()),
      supervisor_(sim, supervisor_config(), &dm_),
      injector_(sim) {
  voter_.bind_correlator(&correlator_, 0x400);
  dm_.register_service({"speed-feed", 0x400, ids::Criticality::kSafety,
                        {"replica-0", "replica-1", "replica-2"}});
  supervisor_.set_restart_handler([](const std::string&) { return true; });
  monitor_.on_down([this](const std::string& s, core::SimTime t) {
    supervisor_.on_source_down(s, t);
  });
  monitor_.on_recovered([this](const std::string& s, core::SimTime t) {
    supervisor_.on_source_recovered(s, t);
  });
  ports_.reserve(3);
  targets_.reserve(3);
  for (int r = 0; r < 3; ++r) {
    ports_.emplace_back("replica-" + std::to_string(r), r);
    monitor_.register_source(ports_.back().name());
    ports_.back().connect_voter(&voter_);
    ports_.back().connect_monitor(&monitor_);
  }
  for (auto& p : ports_) {
    targets_.emplace_back(p);
    injector_.add_target(p.name(), &targets_.back());
  }
  monitor_.start();
  supervisor_.start();
}

FaultPlan ReplicaWorld::chaos_plan() {
  FaultPlan plan;
  for (int win = 0; win < 4; ++win) {
    FaultEvent ev;
    ev.at = core::milliseconds(100 + 350 * win);
    ev.target = "replica-" + std::to_string(rng_.uniform_int(0, 2));
    ev.kind = rng_.chance(0.5) ? FaultKind::kByzantineValue
                               : FaultKind::kReplicaMute;
    ev.duration = core::milliseconds(rng_.uniform_int(50, 250));
    ev.magnitude = rng_.uniform(5.0, 50.0);
    plan.add(std::move(ev));
  }
  return plan;
}

Metrics ReplicaWorld::run(const FaultPlan& plan) {
  std::function<void()> publish = [&] {
    for (auto& p : ports_) {
      p.publish(kTruth + rng_.normal(0.0, 0.05), sim_.now());
    }
    if (sim_.now() < kRunEnd) {
      sim_.schedule_in(kTick, [f = &publish] { (*f)(); });
    }
  };
  sim_.schedule_at(0, [f = &publish] { (*f)(); });

  double max_fused_err = 0.0;
  std::uint64_t quorum_losses = 0;
  std::function<void()> vote = [&] {
    const health::VoteOutcome out = voter_.vote(sim_.now());
    supervisor_.on_vote(out, sim_.now());
    if (out.quorum_met) {
      max_fused_err = std::max(max_fused_err, std::abs(out.value - kTruth));
    } else {
      ++quorum_losses;
    }
    if (sim_.now() < kRunEnd) {
      sim_.schedule_in(kTick, [f = &vote] { (*f)(); });
    }
  };
  sim_.schedule_at(core::milliseconds(35), [f = &vote] { (*f)(); });

  injector_.arm(plan);
  // The monitor and supervisor ticks reschedule themselves; stopping them
  // lets the queue drain so run() returns.
  sim_.schedule_at(kRunEnd + core::milliseconds(1), [this] {
    monitor_.stop();
    supervisor_.stop();
  });
  sim_.run();

  const health::SafetyState end = supervisor_.state();
  Metrics m;
  m["max_fused_err"] = max_fused_err;
  m["quorum_losses"] = static_cast<double>(quorum_losses);
  m["nominal_at_end"] = end == health::SafetyState::kNominal ? 1.0 : 0.0;
  m["safe_stop"] = end == health::SafetyState::kSafeStop ? 1.0 : 0.0;
  m["recoveries"] = static_cast<double>(supervisor_.recoveries());
  m["escalations"] = static_cast<double>(supervisor_.escalations());
  m["faults_applied"] = static_cast<double>(injector_.applied());
  m["suspect_incidents"] =
      static_cast<double>(correlator_.incidents().size());
  return m;
}

}  // namespace avsec::fault
