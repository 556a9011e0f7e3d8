// Run-level supervision: event budgets, wall deadlines, crash capture,
// retry accounting and poison-seed quarantine — and the contract that a
// supervised sweep's report stays byte-identical at any worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

#include "avsec/core/rng.hpp"
#include "avsec/core/scheduler.hpp"
#include "avsec/fault/campaign.hpp"
#include "avsec/fault/resilience.hpp"

namespace avsec::fault {
namespace {

// A seed-deterministic scenario that opts in to supervision. Seeds
// divisible by kCrashMod throw; seeds divisible by kRunawayMod schedule
// events forever (only a budget stops them).
constexpr std::uint64_t kCrashMod = 5;
constexpr std::uint64_t kRunawayMod = 7;

Metrics hazardous_scenario(SimContext& ctx, std::uint64_t seed) {
  core::Scheduler& sim = ctx.sim();
  supervise(sim);
  if (seed % kCrashMod == 0) {
    throw std::runtime_error("seed " + std::to_string(seed) + " exploded");
  }
  const bool runaway = seed % kRunawayMod == 0;
  core::Rng rng(seed);
  double level = 0.0;
  std::function<void()> tick = [&] {
    level += rng.normal(0.0, 1.0);
    if (runaway || sim.now() < core::milliseconds(1)) {
      sim.schedule_in(core::microseconds(50), tick);
    }
  };
  sim.schedule_at(0, tick);
  sim.run();
  Metrics m;
  m["final_level"] = level;
  m["seed_parity"] = static_cast<double>(seed % 2);
  return m;
}

CampaignConfig supervised_config(std::size_t runs, std::size_t workers) {
  CampaignConfig cfg;
  cfg.runs = runs;
  cfg.base_seed = 99;
  cfg.workers = workers;
  cfg.supervision.enabled = true;
  cfg.supervision.max_events = 5000;  // plenty for 1 ms of 50 us ticks
  cfg.supervision.retry.max_retries = 1;
  cfg.supervision.retry.initial_timeout = 0;  // no backoff pause in tests
  return cfg;
}

TEST(Resilience, CrashesAndRunawaysBecomeQuarantinedOutcomes) {
  Campaign c(supervised_config(24, 1));
  c.require("parity", [](const Metrics& m) {
    return m.at("seed_parity") == 0.0;
  });
  const auto report = c.sweep(hazardous_scenario);

  ASSERT_EQ(report.outcomes.size(), 24u);
  std::size_t crashed = 0, budget = 0, completed = 0;
  for (const auto& o : report.outcomes) {
    if (o.seed % kCrashMod == 0) {
      EXPECT_EQ(o.status, RunStatus::kCrashed);
      EXPECT_NE(o.error.find("exploded"), std::string::npos);
      EXPECT_TRUE(o.metrics.empty());
      EXPECT_EQ(o.attempts, 2u);  // retried once, then quarantined
      ++crashed;
    } else if (o.seed % kRunawayMod == 0) {
      EXPECT_EQ(o.status, RunStatus::kBudgetExhausted);
      EXPECT_NE(o.error.find("budget"), std::string::npos);
      EXPECT_EQ(o.attempts, 2u);
      ++budget;
    } else {
      EXPECT_TRUE(o.status == RunStatus::kPassed ||
                  o.status == RunStatus::kViolated);
      EXPECT_FALSE(o.metrics.empty());
      EXPECT_EQ(o.attempts, 1u);
      ++completed;
    }
  }
  EXPECT_GT(crashed, 0u);
  EXPECT_GT(budget, 0u);
  EXPECT_GT(completed, 0u);
  EXPECT_EQ(report.quarantined_runs, crashed + budget);
  EXPECT_EQ(report.quarantined_seeds().size(), crashed + budget);
  EXPECT_EQ(report.runs_retried, crashed + budget);
  EXPECT_FALSE(report.all_passed());
  // Quarantined seeds are enumerated, never silently dropped: every seed
  // in the report appears exactly once across the three populations.
  EXPECT_EQ(crashed + budget + completed, report.runs);
}

TEST(Resilience, SupervisedReportIdenticalAtAnyWorkerCount) {
  Campaign serial(supervised_config(24, 1));
  const auto reference = serial.sweep(hazardous_scenario);
  for (std::size_t workers : {2u, 8u}) {
    Campaign parallel(supervised_config(24, workers));
    const auto report = parallel.sweep(hazardous_scenario);
    EXPECT_TRUE(identical(reference, report)) << workers << " workers";
  }
}

TEST(Resilience, TransientFailureRecoversOnRetry) {
  // Fails each seed's first attempt only: the retry must succeed and the
  // outcome must record both attempts without quarantining.
  std::mutex mu;
  std::map<std::uint64_t, int> tries;
  CampaignConfig cfg = supervised_config(6, 1);
  Campaign c(cfg);
  const auto report = c.sweep([&](SimContext&, std::uint64_t seed) -> Metrics {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (++tries[seed] == 1) throw std::runtime_error("transient");
    }
    return {{"ok", 1.0}};
  });
  EXPECT_TRUE(report.all_passed());
  EXPECT_EQ(report.quarantined_runs, 0u);
  EXPECT_EQ(report.runs_retried, report.runs);
  for (const auto& o : report.outcomes) {
    EXPECT_EQ(o.status, RunStatus::kPassed);
    EXPECT_EQ(o.attempts, 2u);
    EXPECT_TRUE(o.error.empty());  // the transient error did not stick
  }
}

TEST(Resilience, WallDeadlineAbortsWedgedRun) {
  CampaignConfig cfg = supervised_config(1, 1);
  cfg.supervision.max_events = 0;  // no event budget: only the deadline
  cfg.supervision.wall_deadline_ms = 25;
  cfg.supervision.retry.max_retries = 0;
  Campaign c(cfg);
  const auto report = c.sweep([](SimContext& ctx, std::uint64_t) -> Metrics {
    core::Scheduler& sim = ctx.sim();
    supervise(sim);
    std::function<void()> forever = [&] {
      sim.schedule_in(core::microseconds(1), forever);
    };
    sim.schedule_at(0, forever);
    sim.run();  // never returns on its own
    return {};
  });
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].status, RunStatus::kTimedOut);
  EXPECT_NE(report.outcomes[0].error.find("deadline"), std::string::npos);
  EXPECT_EQ(report.quarantined_runs, 1u);
}

TEST(Resilience, UnsupervisedSweepStillPropagates) {
  // Supervision off (the default) preserves the original contract.
  CampaignConfig cfg;
  cfg.runs = 8;
  cfg.base_seed = 3;
  cfg.workers = 2;
  Campaign c(cfg);
  EXPECT_THROW(c.sweep([](SimContext&, std::uint64_t seed) -> Metrics {
    if (seed % 2 == 0) throw std::runtime_error("boom");
    return {{"ok", 1.0}};
  }),
               std::runtime_error);
}

TEST(Resilience, SuperviseIsNoOpOutsideCampaign) {
  // Standalone replay: no ambient guard, supervise() must not install one
  // or perturb the scheduler.
  core::Scheduler sim;
  EXPECT_EQ(current_guard(), nullptr);
  supervise(sim);
  EXPECT_EQ(sim.dispatch_observer(), nullptr);
  int fired = 0;
  sim.schedule_at(0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Resilience, GuardStacksOverExistingObserverAndForwards) {
  // A RunGuard attached over another observer must keep forwarding
  // dispatches to it while enforcing its own budget.
  struct Counter : core::Scheduler::DispatchObserver {
    std::uint64_t seen = 0;
    void on_dispatch(core::SimTime, std::uint64_t) override { ++seen; }
  };
  core::Scheduler sim;
  Counter under;
  sim.set_dispatch_observer(&under);

  SupervisionConfig sup;
  sup.max_events = 3;
  RunGuard guard(sup);
  guard.attach(sim);

  std::function<void()> tick = [&] {
    sim.schedule_in(core::microseconds(1), tick);
  };
  sim.schedule_at(0, tick);
  EXPECT_THROW(sim.run(), RunAborted);
  EXPECT_EQ(guard.events(), 4u);  // 4th dispatch tripped the budget of 3
  EXPECT_EQ(under.seen, 3u);      // the throw happens before forwarding
}

TEST(Resilience, RunAbortedCarriesKindAndMessage) {
  const RunAborted e(RunStatus::kBudgetExhausted, "out of events");
  EXPECT_EQ(e.kind(), RunStatus::kBudgetExhausted);
  EXPECT_STREQ(e.what(), "out of events");
}

TEST(Resilience, RunStatusNamesRoundTrip) {
  for (RunStatus s : {RunStatus::kPassed, RunStatus::kViolated,
                      RunStatus::kCrashed, RunStatus::kTimedOut,
                      RunStatus::kBudgetExhausted}) {
    RunStatus parsed{};
    ASSERT_TRUE(parse_run_status(run_status_name(s), parsed));
    EXPECT_EQ(parsed, s);
  }
  RunStatus ignored{};
  EXPECT_FALSE(parse_run_status("definitely-not-a-status", ignored));
  EXPECT_FALSE(parse_run_status("", ignored));
}

TEST(Resilience, RetryPolicyBackoffIsCappedAndMonotonic) {
  core::RetryPolicy policy;
  policy.initial_timeout = core::milliseconds(10);
  policy.backoff_factor = 2.0;
  policy.max_timeout = core::milliseconds(35);
  policy.jitter = 0.0;
  EXPECT_EQ(policy.timeout_for(0), core::milliseconds(10));
  EXPECT_EQ(policy.timeout_for(1), core::milliseconds(20));
  EXPECT_EQ(policy.timeout_for(2), core::milliseconds(35));  // capped
  EXPECT_EQ(policy.timeout_for(5), core::milliseconds(35));
}

}  // namespace
}  // namespace avsec::fault
