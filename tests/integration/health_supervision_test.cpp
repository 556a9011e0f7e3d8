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
#include "avsec/fault/replica_world.hpp"

namespace avsec {
namespace {

constexpr double kVoteTolerance = 0.5;

// One replicated-sensor world per seed (fault::ReplicaWorld): three
// replicas publish a ground-truth signal; a seeded chaos plan makes one
// replica lie or go mute per fault window (single-fault-at-a-time, which
// is what 2oo3 masks). Adds the longest NOMINAL -> ... -> NOMINAL
// supervisor episode, in ms, to the world's metrics.
fault::Metrics run_scenario(fault::SimContext& ctx, std::uint64_t seed) {
  fault::ReplicaWorld w(ctx.sim(), seed);
  fault::Metrics m = w.run(w.chaos_plan());

  core::SimTime episode_start = -1, max_episode = 0;
  for (const auto& ev : w.supervisor().events()) {
    if (ev.kind != health::SupervisorEventKind::kTransition) continue;
    if (ev.from == health::SafetyState::kNominal && episode_start < 0) {
      episode_start = ev.time;
    } else if (ev.to == health::SafetyState::kNominal && episode_start >= 0) {
      max_episode = std::max(max_episode, ev.time - episode_start);
      episode_start = -1;
    }
  }
  // Never returned: count the whole 2 s run.
  if (episode_start >= 0) max_episode = core::seconds(2);
  m["max_episode_ms"] = core::to_microseconds(max_episode) / 1000.0;
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
  fault::CampaignConfig config;
  config.runs = 24;
  config.base_seed = 2026;
  fault::Campaign campaign(config);
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
    fault::CampaignConfig config;
    config.runs = 12;
    config.base_seed = 2026;
    config.workers = workers;
    fault::Campaign campaign(config);
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
