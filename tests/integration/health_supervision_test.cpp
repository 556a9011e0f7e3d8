// Acceptance: chaos campaign over the health subsystem. Across >= 20
// seeded runs:
//  - a 2oo3 RedundancyVoter masks any single Byzantine replica (fused
//    output stays within tolerance of ground truth),
//  - the SafetySupervisor returns to NOMINAL within a bounded number of
//    scheduler ticks after a transient watchdog miss,
//  - quorum fusion with f malicious peers out of 3f+1 stays within the
//    documented error bound.
// Any failing seed is printed for replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "avsec/collab/byzantine.hpp"
#include "avsec/fault/campaign.hpp"
#include "avsec/fault/fault.hpp"
#include "avsec/health/replica.hpp"
#include "avsec/health/supervisor.hpp"
#include "avsec/ids/correlation.hpp"

namespace avsec {
namespace {

constexpr double kVoteTolerance = 0.5;
constexpr core::SimTime kRunEnd = core::seconds(2);

// One replicated-sensor world per seed: three replicas publish a ground-
// truth signal; a seeded chaos schedule makes one replica lie or go mute
// per fault window (single-fault-at-a-time, which is what 2oo3 masks).
fault::Metrics run_scenario(fault::SimContext& ctx, std::uint64_t seed) {
  core::Scheduler& sim = ctx.sim();
  core::Rng rng(seed);

  health::VoterConfig vcfg;
  vcfg.policy = health::VotePolicy::kToleranceBand;
  vcfg.tolerance = kVoteTolerance;
  vcfg.quorum = 2;
  vcfg.max_age = core::milliseconds(25);
  health::RedundancyVoter voter(vcfg, 3);
  ids::AlertCorrelator correlator;
  voter.bind_correlator(&correlator, 0x400);

  health::HeartbeatConfig hcfg;
  hcfg.check_period = core::milliseconds(10);
  hcfg.deadline = core::milliseconds(25);
  hcfg.miss_budget = 2;
  health::HeartbeatMonitor monitor(sim, hcfg);

  ids::DegradationManager dm;
  dm.register_service({"speed-feed", 0x400, ids::Criticality::kSafety,
                       {"replica-0", "replica-1", "replica-2"}});

  health::SupervisorConfig scfg;
  scfg.tick_period = core::milliseconds(10);
  scfg.clear_after = core::milliseconds(50);
  scfg.recovery_deadline = core::milliseconds(400);
  scfg.repeats_to_escalate = 3;
  scfg.escalate_window = core::milliseconds(250);
  health::SafetySupervisor supervisor(sim, scfg, &dm);
  supervisor.set_restart_handler([](const std::string&) { return true; });
  monitor.on_down([&](const std::string& s, core::SimTime t) {
    supervisor.on_source_down(s, t);
  });
  monitor.on_recovered([&](const std::string& s, core::SimTime t) {
    supervisor.on_source_recovered(s, t);
  });

  std::vector<health::ReplicaPort> ports;
  std::vector<fault::ReplicaFault> targets;
  ports.reserve(3);
  targets.reserve(3);
  for (int r = 0; r < 3; ++r) {
    ports.emplace_back("replica-" + std::to_string(r), r);
    monitor.register_source(ports.back().name());
    ports.back().connect_voter(&voter);
    ports.back().connect_monitor(&monitor);
  }
  for (int r = 0; r < 3; ++r) targets.emplace_back(ports[std::size_t(r)]);

  monitor.start();
  supervisor.start();

  const double truth = 25.0;
  std::function<void()> publish = [&] {
    for (auto& p : ports) {
      p.publish(truth + rng.normal(0.0, 0.05), sim.now());
    }
    if (sim.now() < kRunEnd) sim.schedule_in(core::milliseconds(10), publish);
  };
  sim.schedule_at(0, publish);

  double max_fused_err = 0.0;
  std::uint64_t votes = 0, quorum_losses = 0;
  std::function<void()> vote_tick = [&] {
    const health::VoteOutcome out = voter.vote(sim.now());
    supervisor.on_vote(out, sim.now());
    ++votes;
    if (out.quorum_met) {
      max_fused_err = std::max(max_fused_err, std::abs(out.value - truth));
    } else {
      ++quorum_losses;
    }
    if (sim.now() < kRunEnd) {
      sim.schedule_in(core::milliseconds(10), vote_tick);
    }
  };
  sim.schedule_at(core::milliseconds(35), vote_tick);

  // Chaos: sequential fault windows (one faulty replica at a time — the
  // condition under which 2oo3 masking is claimed), kind and replica drawn
  // per window from the run's seed.
  fault::FaultInjector injector(sim);
  injector.add_target("replica-0", &targets[0]);
  injector.add_target("replica-1", &targets[1]);
  injector.add_target("replica-2", &targets[2]);
  fault::FaultPlan plan;
  for (int w = 0; w < 4; ++w) {
    fault::FaultEvent ev;
    ev.at = core::milliseconds(100 + 350 * w);
    ev.target = "replica-" + std::to_string(rng.uniform_int(0, 2));
    ev.kind = rng.chance(0.5) ? fault::FaultKind::kByzantineValue
                              : fault::FaultKind::kReplicaMute;
    ev.duration = core::milliseconds(rng.uniform_int(50, 250));
    ev.magnitude = rng.uniform(5.0, 50.0);  // bias: far outside tolerance
    plan.add(std::move(ev));
  }
  injector.arm(plan);

  // The monitor/supervisor ticks self-reschedule; stop them so the event
  // queue drains and sim.run() terminates.
  sim.schedule_at(kRunEnd + core::milliseconds(1), [&] {
    monitor.stop();
    supervisor.stop();
  });
  sim.run();

  // Longest NOMINAL -> ... -> NOMINAL supervisor episode.
  core::SimTime episode_start = -1, max_episode = 0;
  for (const auto& ev : supervisor.events()) {
    if (ev.kind != health::SupervisorEventKind::kTransition) continue;
    if (ev.from == health::SafetyState::kNominal && episode_start < 0) {
      episode_start = ev.time;
    } else if (ev.to == health::SafetyState::kNominal && episode_start >= 0) {
      max_episode = std::max(max_episode, ev.time - episode_start);
      episode_start = -1;
    }
  }
  if (episode_start >= 0) max_episode = kRunEnd;  // never returned

  fault::Metrics m;
  m["max_fused_err"] = max_fused_err;
  m["votes"] = static_cast<double>(votes);
  m["quorum_losses"] = static_cast<double>(quorum_losses);
  m["nominal_at_end"] =
      supervisor.state() == health::SafetyState::kNominal ? 1.0 : 0.0;
  m["safe_stop"] =
      supervisor.state() == health::SafetyState::kSafeStop ? 1.0 : 0.0;
  m["max_episode_ms"] = core::to_microseconds(max_episode) / 1000.0;
  m["recoveries"] = static_cast<double>(supervisor.recoveries());
  m["faults_applied"] = static_cast<double>(injector.applied());
  m["suspect_incidents"] =
      static_cast<double>(correlator.incidents().size());
  return m;
}

// Pure per-seed check of the collaborative-fusion bound: f=2 colluding
// liars among n=7 reports; fused error must stay within sqrt(2) x the
// worst honest per-coordinate deviation.
double byzantine_fusion_excess(std::uint64_t seed) {
  core::Rng rng(seed ^ 0xB12A);
  collab::RobustFusionConfig cfg;
  cfg.f = 2;
  double worst_excess = 0.0;
  for (int round = 0; round < 20; ++round) {
    const collab::Vec2 truth{rng.uniform(0.0, 100.0),
                             rng.uniform(0.0, 100.0)};
    std::vector<collab::SharedObject> reports;
    double max_dev = 0.0;
    for (int i = 0; i < 5; ++i) {
      const collab::Vec2 p{truth.x + rng.normal(0.0, 0.5),
                           truth.y + rng.normal(0.0, 0.5)};
      max_dev = std::max({max_dev, std::abs(p.x - truth.x),
                          std::abs(p.y - truth.y)});
      reports.push_back({p, i});
    }
    const double mag = rng.uniform(2.0, 1000.0);
    const double ang = rng.uniform(0.0, 6.283185307179586);
    const collab::Vec2 lie{truth.x + mag * std::cos(ang),
                           truth.y + mag * std::sin(ang)};
    reports.push_back({lie, 5});
    reports.push_back({lie, 6});
    const collab::FusionResult r = collab::robust_fuse(reports, cfg);
    if (!r.quorum_met) return 1e18;  // must never happen with n = 7
    const double bound = std::sqrt(2.0) * max_dev + 1e-9;
    worst_excess =
        std::max(worst_excess, collab::dist(r.fused, truth) - bound);
  }
  return worst_excess;
}

TEST(HealthSupervisionAcceptance, CampaignInvariantsHoldAcross24Seeds) {
  fault::Campaign campaign({/*runs=*/24, /*base_seed=*/2026});
  campaign
      .require("2oo3 voter masks single Byzantine replica",
               [](const fault::Metrics& m) {
                 return m.at("max_fused_err") <= kVoteTolerance;
               })
      .require("supervisor nominal at end",
               [](const fault::Metrics& m) {
                 return m.at("nominal_at_end") == 1.0;
               })
      .require("no spurious safe-stop",
               [](const fault::Metrics& m) {
                 return m.at("safe_stop") == 0.0;
               })
      .require("bounded return to NOMINAL (episode <= 700 ms)",
               [](const fault::Metrics& m) {
                 return m.at("max_episode_ms") <= 700.0;
               })
      .require("byzantine quorum fusion within documented bound",
               [](const fault::Metrics& m) {
                 return m.at("byz_excess") <= 0.0;
               });

  const auto report = campaign.sweep([](fault::SimContext& ctx,
                                       std::uint64_t seed) {
    fault::Metrics m = run_scenario(ctx, seed);
    m["byz_excess"] = byzantine_fusion_excess(seed);
    return m;
  });

  if (!report.all_passed()) {
    for (const auto& [name, count] : report.violations) {
      std::printf("violated %zux: %s\n", count, name.c_str());
    }
    std::printf("replay failing seeds:");
    for (auto s : report.failing_seeds()) {
      std::printf(" %llu", static_cast<unsigned long long>(s));
    }
    std::printf("\n");
  }
  EXPECT_TRUE(report.all_passed());

  // The chaos actually exercised the system: faults were applied on every
  // run and the voter reported suspects to the correlation engine in at
  // least the Byzantine runs.
  EXPECT_EQ(report.aggregate.at("faults_applied").min(), 4.0);
  EXPECT_GT(report.aggregate.at("suspect_incidents").max(), 0.0);
}

TEST(HealthSupervisionAcceptance, ParallelSweepIsByteIdenticalToSerial) {
  // The determinism contract of the parallel campaign engine, checked on
  // the real chaos scenario: every run builds a private world (scheduler,
  // RNG stream, replicas), so worker count must not change a single bit of
  // the report — failing seeds, violation counts, or aggregate stats.
  auto make = [](std::size_t workers) {
    fault::Campaign campaign({/*runs=*/12, /*base_seed=*/2026, workers});
    campaign
        .require("2oo3 voter masks single Byzantine replica",
                 [](const fault::Metrics& m) {
                   return m.at("max_fused_err") <= kVoteTolerance;
                 })
        .require("supervisor nominal at end",
                 [](const fault::Metrics& m) {
                   return m.at("nominal_at_end") == 1.0;
                 })
        .require("no spurious safe-stop", [](const fault::Metrics& m) {
          return m.at("safe_stop") == 0.0;
        });
    return campaign;
  };

  const auto serial = make(1).sweep(run_scenario);
  for (std::size_t workers : {2u, 8u}) {
    const auto parallel = make(workers).sweep(run_scenario);
    EXPECT_TRUE(fault::identical(serial, parallel))
        << "report diverged at " << workers << " workers";
    EXPECT_EQ(parallel.failing_seeds(), serial.failing_seeds());
    EXPECT_EQ(parallel.violations, serial.violations);
    for (const auto& [name, acc] : serial.aggregate) {
      EXPECT_TRUE(parallel.aggregate.at(name).identical(acc)) << name;
    }
  }
}

}  // namespace
}  // namespace avsec
