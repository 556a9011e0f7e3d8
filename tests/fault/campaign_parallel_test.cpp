// Parallel campaign engine: sweeps fanned across a ThreadPool must be
// byte-identical to serial sweeps — same seeds, same outcome order, same
// violation counts, bitwise-equal aggregate accumulators.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>

#include "avsec/core/rng.hpp"
#include "avsec/core/scheduler.hpp"
#include "avsec/fault/campaign.hpp"

namespace avsec::fault {
namespace {

// A cheap but non-trivial scenario: each run owns its worker's scheduler
// and an RNG stream, produces metrics that depend on the seed, and
// occasionally violates an invariant — exercising every field of the
// report.
Metrics mini_scenario(SimContext& ctx, std::uint64_t seed) {
  core::Scheduler& sim = ctx.sim();
  core::Rng rng(seed);
  double level = 0.0;
  int spikes = 0;
  std::function<void()> tick = [&] {
    level += rng.normal(0.0, 1.0);
    if (std::abs(level) > 4.0) {
      ++spikes;
      level = 0.0;
    }
    if (sim.now() < core::milliseconds(5)) {
      sim.schedule_in(core::microseconds(50), tick);
    }
  };
  sim.schedule_at(0, tick);
  sim.run();

  Metrics m;
  m["final_level"] = level;
  m["spikes"] = static_cast<double>(spikes);
  m["seed_parity"] = static_cast<double>(seed % 2);
  return m;
}

Campaign make_campaign(std::size_t runs, std::size_t workers) {
  Campaign c({runs, /*base_seed=*/77, workers});
  c.require("few spikes",
            [](const Metrics& m) { return m.at("spikes") <= 2.0; })
      .require("even seed", [](const Metrics& m) {
        return m.at("seed_parity") == 0.0;  // fails ~half the runs
      });
  return c;
}

TEST(CampaignParallel, WorkerCountDoesNotChangeReport) {
  const auto serial = make_campaign(32, 1).sweep(mini_scenario);
  for (std::size_t workers : {2u, 8u}) {
    const auto parallel = make_campaign(32, workers).sweep(mini_scenario);
    EXPECT_TRUE(identical(serial, parallel)) << workers << " workers";
    // Spot-check the fields identical() covers, for clearer failures.
    EXPECT_EQ(parallel.failed_runs, serial.failed_runs);
    EXPECT_EQ(parallel.violations, serial.violations);
    EXPECT_EQ(parallel.failing_seeds(), serial.failing_seeds());
    ASSERT_EQ(parallel.outcomes.size(), serial.outcomes.size());
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
      EXPECT_EQ(parallel.outcomes[i].seed, serial.outcomes[i].seed);
      EXPECT_EQ(parallel.outcomes[i].metrics, serial.outcomes[i].metrics);
    }
    for (const auto& [name, acc] : serial.aggregate) {
      EXPECT_TRUE(parallel.aggregate.at(name).identical(acc)) << name;
    }
  }
}

TEST(CampaignParallel, WorkersZeroMeansHardwareConcurrency) {
  const auto serial = make_campaign(8, 1).sweep(mini_scenario);
  const auto hw = make_campaign(8, 0).sweep(mini_scenario);
  EXPECT_TRUE(identical(serial, hw));
}

TEST(CampaignParallel, SeedsMatchSeedForRunUnderAnyWorkerCount) {
  const Campaign c({6, /*base_seed=*/123, /*workers=*/4});
  const auto report = c.sweep(mini_scenario);
  ASSERT_EQ(report.outcomes.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(report.outcomes[i].seed, c.seed_for_run(i));
  }
}

TEST(CampaignParallel, RunExceptionPropagates) {
  Campaign c({16, /*base_seed=*/5, /*workers=*/4});
  EXPECT_THROW(c.sweep([](SimContext&, std::uint64_t seed) -> Metrics {
    if (seed % 3 == 0) throw std::runtime_error("scenario exploded");
    return {{"ok", 1.0}};
  }),
               std::runtime_error);
}

TEST(CampaignParallel, ScenariosActuallyRunConcurrentSafe) {
  // Each run touches only its own world; a shared atomic counts them.
  std::atomic<int> calls{0};
  Campaign c({20, /*base_seed=*/9, /*workers=*/8});
  const auto report = c.sweep([&](SimContext& ctx, std::uint64_t seed) {
    calls.fetch_add(1);
    return mini_scenario(ctx, seed);
  });
  EXPECT_EQ(calls.load(), 20);
  EXPECT_EQ(report.runs, 20u);
}

}  // namespace
}  // namespace avsec::fault
