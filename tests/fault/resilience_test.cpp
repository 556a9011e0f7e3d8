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

// A seed-deterministic scenario on the supervised context. Seeds
// divisible by kCrashMod throw; seeds divisible by kRunawayMod schedule
// events forever (only a budget stops them).
constexpr std::uint64_t kCrashMod = 5;
constexpr std::uint64_t kRunawayMod = 7;

Metrics hazardous_scenario(SimContext& ctx, std::uint64_t seed) {
  core::Scheduler& sim = ctx.sim();
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

TEST(Resilience, DefaultSweepQuarantinesThrowingRuns) {
  // Supervision is not optional: under a default config a throwing run is
  // a quarantined kCrashed outcome, never a throw out of sweep(), and the
  // report is the same at any worker count.
  const auto throwing = [](SimContext&, std::uint64_t seed) -> Metrics {
    if (seed % 2 == 0) throw std::runtime_error("boom");
    return {{"ok", 1.0}};
  };
  CampaignConfig cfg;
  cfg.runs = 8;
  cfg.base_seed = 3;
  const auto serial = Campaign(cfg).sweep(throwing);
  cfg.workers = 4;
  const auto parallel = Campaign(cfg).sweep(throwing);
  EXPECT_TRUE(identical(serial, parallel));

  std::size_t crashed = 0;
  for (const auto& o : serial.outcomes) {
    if (o.seed % 2 != 0) {
      EXPECT_EQ(o.status, RunStatus::kPassed);
      continue;
    }
    EXPECT_EQ(o.status, RunStatus::kCrashed);
    EXPECT_EQ(o.error, "boom");
    EXPECT_TRUE(o.metrics.empty());
    EXPECT_EQ(o.attempts, 2u);  // the default policy retries once
    ++crashed;
  }
  EXPECT_GT(crashed, 0u);
  EXPECT_EQ(serial.quarantined_runs, crashed);
  EXPECT_EQ(serial.quarantined_seeds().size(), crashed);
}

TEST(Resilience, BudgetBindsRunsThatNeverNameSupervision) {
  // The run only spins 1000 events on ctx.sim() and never mentions
  // supervision: a budget of 100 binds it all the same.
  const auto spin = [](SimContext& ctx, std::uint64_t) -> Metrics {
    core::Scheduler& sim = ctx.sim();
    std::function<void()> step = [&] {
      if (sim.dispatched() < 1000) {
        sim.schedule_in(core::microseconds(1), [f = &step] { (*f)(); });
      }
    };
    sim.schedule_at(0, [f = &step] { (*f)(); });
    sim.run();
    return {{"events", static_cast<double>(sim.dispatched())}};
  };
  CampaignConfig cfg = supervised_config(4, 2);
  cfg.supervision.max_events = 100;
  const auto report = Campaign(cfg).sweep(spin);
  ASSERT_EQ(report.outcomes.size(), 4u);
  for (const auto& o : report.outcomes) {
    EXPECT_EQ(o.status, RunStatus::kBudgetExhausted) << o.seed;
  }

  // Once run_supervised returns, its guard is detached: the context's
  // scheduler dispatches past the budget without a reset, and nothing
  // throws or reads the finished attempt's guard.
  SupervisionConfig sup;
  sup.max_events = 100;
  sup.retry.max_retries = 0;
  SimContext ctx;
  int ticks = 0;
  const SupervisedRun r = run_supervised(sup, ctx, false, [&](SimContext& c) {
    c.sim().schedule_at(0, [&ticks] { ++ticks; });
    c.sim().run();
    return Metrics{{"ticks", 1.0}};
  });
  EXPECT_EQ(r.status, RunStatus::kPassed);
  for (int i = 0; i < 300; ++i) {
    ctx.sim().schedule_in(core::microseconds(1), [&ticks] { ++ticks; });
  }
  EXPECT_NO_THROW(ctx.sim().run());
  EXPECT_EQ(ticks, 301);
  EXPECT_EQ(ctx.sim().dispatched(), 301u);
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
