// Health-supervision chaos campaign: three redundant replicas behind a
// 2oo3 voter, a heartbeat watchdog, and the safety supervisor, swept
// across seeded fault schedules of lying (Byzantine-value) and dead
// (mute) replicas.
//
// Two parts:
//  - a deterministic escalation showcase: one persistent mute walks the
//    supervisor NOMINAL -> DEGRADED -> LIMP_HOME; a second concurrent
//    mute forces SAFE_STOP — the full ladder, event by event;
//  - a seeded chaos campaign (runs and base seed from argv, so CI can pin
//    them) checking the resilience invariants: the voter masks every
//    single-replica lie, the supervisor always walks back to NOMINAL, and
//    nothing ever escalates to SAFE_STOP under transient single faults.
#include <cmath>
#include <cstdio>
#include <vector>

#include "avsec/core/table.hpp"
#include "avsec/fault/cli.hpp"
#include "avsec/fault/fault.hpp"
#include "avsec/health/replica.hpp"
#include "avsec/health/supervisor.hpp"
#include "avsec/ids/correlation.hpp"

using namespace avsec;

namespace {

// Three replicas + voter + monitor + supervisor, shared by both parts.
struct World {
  core::Scheduler& sim;
  health::RedundancyVoter voter;
  ids::AlertCorrelator correlator;
  health::HeartbeatMonitor monitor;
  ids::DegradationManager dm;
  health::SafetySupervisor supervisor;
  std::vector<health::ReplicaPort> ports;
  std::vector<fault::ReplicaFault> targets;
  fault::FaultInjector injector;

  explicit World(core::Scheduler& scheduler)
      : sim(scheduler),
        voter(
            [] {
              health::VoterConfig v;
              v.tolerance = 0.5;
              v.quorum = 2;
              v.max_age = core::milliseconds(25);
              return v;
            }(),
            3),
        monitor(sim,
                [] {
                  health::HeartbeatConfig h;
                  h.check_period = core::milliseconds(10);
                  h.deadline = core::milliseconds(25);
                  h.miss_budget = 2;
                  return h;
                }()),
        supervisor(sim,
                   [] {
                     health::SupervisorConfig s;
                     s.tick_period = core::milliseconds(10);
                     s.clear_after = core::milliseconds(50);
                     s.recovery_deadline = core::milliseconds(400);
                     s.repeats_to_escalate = 3;
                     s.escalate_window = core::milliseconds(250);
                     return s;
                   }(),
                   &dm),
        injector(sim) {
    voter.bind_correlator(&correlator, 0x400);
    dm.register_service({"speed-feed", 0x400, ids::Criticality::kSafety,
                         {"replica-0", "replica-1", "replica-2"}});
    supervisor.set_restart_handler([](const std::string&) { return true; });
    monitor.on_down([this](const std::string& s, core::SimTime t) {
      supervisor.on_source_down(s, t);
    });
    monitor.on_recovered([this](const std::string& s, core::SimTime t) {
      supervisor.on_source_recovered(s, t);
    });
    ports.reserve(3);
    targets.reserve(3);
    for (int r = 0; r < 3; ++r) {
      ports.emplace_back("replica-" + std::to_string(r), r);
      monitor.register_source(ports.back().name());
      ports.back().connect_voter(&voter);
      ports.back().connect_monitor(&monitor);
    }
    for (auto& p : ports) {
      targets.emplace_back(p);
      injector.add_target(p.name(), &targets.back());
    }
    monitor.start();
    supervisor.start();
  }
};

void escalation_ladder() {
  core::Scheduler sim;
  World w(sim);
  core::Rng rng(1);
  constexpr core::SimTime kEnd = core::seconds(2);
  std::function<void()> publish = [&] {
    for (auto& p : w.ports) p.publish(25.0 + rng.normal(0.0, 0.05), w.sim.now());
    if (w.sim.now() < kEnd) w.sim.schedule_in(core::milliseconds(10), publish);
  };
  w.sim.schedule_at(0, publish);
  std::function<void()> vote = [&] {
    w.supervisor.on_vote(w.voter.vote(w.sim.now()), w.sim.now());
    if (w.sim.now() < kEnd) w.sim.schedule_in(core::milliseconds(10), vote);
  };
  w.sim.schedule_at(core::milliseconds(35), vote);
  w.sim.schedule_at(kEnd + core::milliseconds(1), [&] {
    w.monitor.stop();
    w.supervisor.stop();
  });

  // replica-0 goes permanently mute at 100 ms: detected, restart attempted,
  // recovery deadline (400 ms) expires -> LIMP_HOME. replica-1 goes mute at
  // 700 ms and also never returns -> SAFE_STOP.
  fault::FaultPlan plan;
  plan.add({core::milliseconds(100), fault::FaultKind::kReplicaMute,
            "replica-0"});
  plan.add({core::milliseconds(700), fault::FaultKind::kReplicaMute,
            "replica-1"});
  w.injector.arm(plan);
  w.sim.run();

  core::Table t({"Time (ms)", "Event", "From", "To", "Detail"});
  for (const auto& ev : w.supervisor.events()) {
    const bool transition =
        ev.kind == health::SupervisorEventKind::kTransition;
    t.add_row({core::Table::num(core::to_microseconds(ev.time) / 1000.0, 0),
               health::supervisor_event_kind_name(ev.kind),
               transition ? health::safety_state_name(ev.from) : "",
               transition ? health::safety_state_name(ev.to) : "",
               ev.detail});
  }
  t.print("Escalation ladder: persistent mute -> LIMP_HOME, "
          "second mute -> SAFE_STOP");
  std::printf("final state: %s, correlator incidents: %zu\n\n",
              health::safety_state_name(w.supervisor.state()),
              w.correlator.incidents().size());
}

fault::Metrics run_chaos(fault::SimContext& ctx, std::uint64_t seed) {
  World w(ctx.sim());
  // Chain the campaign's supervision guard (if any) onto this world's
  // scheduler; a no-op when the scenario runs standalone.
  fault::supervise(w.sim);
  core::Rng rng(seed);
  constexpr core::SimTime kEnd = core::seconds(2);

  double max_fused_err = 0.0;
  std::uint64_t quorum_losses = 0;
  const double truth = 25.0;
  std::function<void()> publish = [&] {
    for (auto& p : w.ports) {
      p.publish(truth + rng.normal(0.0, 0.05), w.sim.now());
    }
    if (w.sim.now() < kEnd) {
      w.sim.schedule_in(core::milliseconds(10), publish);
    }
  };
  w.sim.schedule_at(0, publish);
  std::function<void()> vote = [&] {
    const health::VoteOutcome out = w.voter.vote(w.sim.now());
    w.supervisor.on_vote(out, w.sim.now());
    if (out.quorum_met) {
      max_fused_err = std::max(max_fused_err, std::abs(out.value - truth));
    } else {
      ++quorum_losses;
    }
    if (w.sim.now() < kEnd) {
      w.sim.schedule_in(core::milliseconds(10), vote);
    }
  };
  w.sim.schedule_at(core::milliseconds(35), vote);

  // Sequential single-replica fault windows: 2oo3 masking is claimed for
  // one faulty replica at a time, so windows never overlap.
  fault::FaultPlan plan;
  for (int win = 0; win < 4; ++win) {
    fault::FaultEvent ev;
    ev.at = core::milliseconds(100 + 350 * win);
    ev.target = "replica-" + std::to_string(rng.uniform_int(0, 2));
    ev.kind = rng.chance(0.5) ? fault::FaultKind::kByzantineValue
                              : fault::FaultKind::kReplicaMute;
    ev.duration = core::milliseconds(rng.uniform_int(50, 250));
    ev.magnitude = rng.uniform(5.0, 50.0);
    plan.add(std::move(ev));
  }
  w.injector.arm(plan);
  w.sim.schedule_at(kEnd + core::milliseconds(1), [&] {
    w.monitor.stop();
    w.supervisor.stop();
  });
  w.sim.run();

  fault::Metrics m;
  m["max_fused_err"] = max_fused_err;
  m["quorum_losses"] = static_cast<double>(quorum_losses);
  m["nominal_at_end"] =
      w.supervisor.state() == health::SafetyState::kNominal ? 1.0 : 0.0;
  m["safe_stop"] =
      w.supervisor.state() == health::SafetyState::kSafeStop ? 1.0 : 0.0;
  m["recoveries"] = static_cast<double>(w.supervisor.recoveries());
  m["escalations"] = static_cast<double>(w.supervisor.escalations());
  m["faults_applied"] = static_cast<double>(w.injector.applied());
  m["suspect_incidents"] =
      static_cast<double>(w.correlator.incidents().size());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  fault::cli::CampaignMain campaign;
  campaign.title = "avsec health chaos: supervision, voting & recovery";
  campaign.config.runs = 20;
  campaign.config.base_seed = 2026;
  // Crashing/runaway seeds are quarantined instead of aborting the chaos
  // campaign. Wall deadline off for determinism.
  campaign.config.supervision.max_events = 50'000'000;
  campaign.config.supervision.retry.max_retries = 1;
  campaign.invariants = {
      {"2oo3 voter masks single-replica faults",
       [](const fault::Metrics& m) { return m.at("max_fused_err") <= 0.5; }},
      {"supervisor back to NOMINAL at end",
       [](const fault::Metrics& m) { return m.at("nominal_at_end") == 1.0; }},
      {"no spurious SAFE_STOP",
       [](const fault::Metrics& m) { return m.at("safe_stop") == 0.0; }},
  };
  campaign.run = run_chaos;
  campaign.prologue = escalation_ladder;
  return fault::cli::campaign_main(argc, argv, campaign);
}
