// Pooled per-worker SimContexts: a sweep on the pooled contexts (warm
// scheduler whose vectors keep their capacity, persistent trace recorder,
// reset before every attempt) must produce a CampaignReport byte-identical to the fresh-world
// reference — a scenario that ignores its context and builds a new heap
// Scheduler per run — at any worker count, under supervision, with trace
// capture on, and across resume.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <functional>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "avsec/core/rng.hpp"
#include "avsec/core/scheduler.hpp"
#include "avsec/fault/campaign.hpp"
#include "avsec/fault/context.hpp"
#include "avsec/obs/trace.hpp"

namespace avsec::fault {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "avsec_ctx_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream raw;
  raw << in.rdbuf();
  return raw.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The workload, parameterized on the scheduler so the fresh-world and
// pooled-context scenarios are literally the same code: seed-dependent
// metrics, occasional invariant violations, trace instrumentation.
Metrics run_workload(core::Scheduler& sim, std::uint64_t seed) {
  core::Rng rng(seed);
  double level = 0.0;
  int spikes = 0;
  std::function<void()> tick = [&] {
    level += rng.normal(0.0, 1.0);
    AVSEC_TRACE_COUNTER(obs::Category::kFault, "level", 0, sim.now(), level);
    if (std::abs(level) > 3.0) {
      ++spikes;
      AVSEC_TRACE_INSTANT(obs::Category::kFault, "spike", 0, sim.now(),
                          spikes);
      level = 0.0;
    }
    if (sim.now() < core::milliseconds(1)) {
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

// The fresh-world reference: ignores the pooled context and builds a new
// Scheduler per run.
Metrics scenario_plain(SimContext& /*ctx*/, std::uint64_t seed) {
  core::Scheduler sim;
  return run_workload(sim, seed);
}

Metrics scenario_pooled(SimContext& ctx, std::uint64_t seed) {
  return run_workload(ctx.sim(), seed);
}

Campaign make_campaign(CampaignConfig cfg) {
  Campaign c(cfg);
  c.require("few spikes",
            [](const Metrics& m) { return m.at("spikes") <= 3.0; })
      .require("even seed",
               [](const Metrics& m) { return m.at("seed_parity") == 0.0; });
  return c;
}

CampaignConfig base_config(std::size_t runs, std::size_t workers) {
  CampaignConfig cfg;
  cfg.runs = runs;
  cfg.base_seed = 90210;
  cfg.workers = workers;
  return cfg;
}

TEST(CampaignContext, PooledSweepMatchesFreshSweepAtAnyWorkerCount) {
  const auto fresh = make_campaign(base_config(24, 1)).sweep(scenario_plain);
  for (std::size_t workers : {1u, 2u, 8u}) {
    const auto pooled =
        make_campaign(base_config(24, workers)).sweep(scenario_pooled);
    EXPECT_TRUE(identical(fresh, pooled)) << workers << " workers";
  }
}

TEST(CampaignContext, SupervisedTracedPooledSweepIsByteIdentical) {
  // The full stack at once: supervision (RunGuard + retry bookkeeping),
  // kAllRuns trace capture (every run records into its worker context's
  // recorder, emptied by the reset), and fresh vs pooled schedulers. Every
  // combination must emit the same report bytes, traces included.
  CampaignConfig cfg = base_config(12, 1);
  cfg.trace = TraceCapture::kAllRuns;
  const auto fresh = make_campaign(cfg).sweep(scenario_plain);
  ASSERT_FALSE(fresh.outcomes.empty());
  for (const auto& o : fresh.outcomes) {
    EXPECT_FALSE(o.trace.empty());  // every run carries a dump
  }
  for (std::size_t workers : {1u, 2u, 8u}) {
    CampaignConfig pooled_cfg = cfg;
    pooled_cfg.workers = workers;
    const auto pooled = make_campaign(pooled_cfg).sweep(scenario_pooled);
    EXPECT_TRUE(identical(fresh, pooled)) << workers << " workers";
    ASSERT_EQ(pooled.outcomes.size(), fresh.outcomes.size());
    for (std::size_t i = 0; i < fresh.outcomes.size(); ++i) {
      EXPECT_EQ(pooled.outcomes[i].trace, fresh.outcomes[i].trace)
          << "run " << i << ", " << workers << " workers";
    }
  }
}

TEST(CampaignContext, CrashingRunsQuarantineIdenticallyWhenPooled) {
  CampaignConfig cfg = base_config(15, 1);
  cfg.supervision.retry.max_retries = 1;
  cfg.supervision.retry.initial_timeout = 0;
  const auto crashy_plain = [](SimContext& ctx, std::uint64_t seed) -> Metrics {
    if (seed % 4 == 0) throw std::runtime_error("flaky environment");
    return scenario_plain(ctx, seed);
  };
  const auto crashy_pooled = [](SimContext& ctx,
                                 std::uint64_t seed) -> Metrics {
    if (seed % 4 == 0) throw std::runtime_error("flaky environment");
    return scenario_pooled(ctx, seed);
  };
  const auto fresh = make_campaign(cfg).sweep(crashy_plain);
  ASSERT_GT(fresh.quarantined_runs, 0u);
  for (std::size_t workers : {1u, 2u, 8u}) {
    CampaignConfig pooled_cfg = cfg;
    pooled_cfg.workers = workers;
    const auto pooled = make_campaign(pooled_cfg).sweep(crashy_pooled);
    EXPECT_TRUE(identical(fresh, pooled)) << workers << " workers";
  }
}

TEST(CampaignContext, ResumeAfterTruncationMatchesUninterruptedSweep) {
  CampaignConfig cfg = base_config(10, 1);
  cfg.trace = TraceCapture::kAllRuns;
  const auto reference = make_campaign(cfg).sweep(scenario_plain);

  // Journal a full pooled sweep, then truncate the manifest at several
  // offsets (a process killed mid-sweep) and resume on pooled contexts at
  // 1, 2 and 8 workers: every resumed report must equal the fresh-world
  // sweep.
  const std::string full_path = temp_path("ctx_full.jsonl");
  CampaignConfig journal_cfg = cfg;
  journal_cfg.manifest_path = full_path;
  make_campaign(journal_cfg).sweep(scenario_pooled);
  const std::string full = read_file(full_path);
  ASSERT_GT(full.size(), 100u);

  const std::string cut_path = temp_path("ctx_cut.jsonl");
  std::size_t workers_rotation[] = {1, 2, 8};
  std::size_t rotation = 0;
  for (std::size_t cut : {std::size_t{0}, full.size() / 3,
                          2 * full.size() / 3, full.size() - 1}) {
    write_file(cut_path, full.substr(0, cut));
    const std::size_t workers = workers_rotation[rotation++ % 3];
    CampaignConfig resume_cfg = cfg;  // same trace policy as the manifest
    resume_cfg.workers = workers;
    ResumeStats stats;
    const auto resumed =
        make_campaign(resume_cfg).resume(scenario_pooled, cut_path, &stats);
    EXPECT_TRUE(identical(reference, resumed))
        << "cut at byte " << cut << ", " << workers << " workers";
    EXPECT_EQ(stats.loaded + stats.reran, 10u) << "cut at byte " << cut;
  }
}

TEST(CampaignContext, EveryAttemptStartsFromAResetContext) {
  // Each attempt leaves its scheduler dirty — clock advanced, events
  // dispatched, one event still pending, as compiled T1S runs leave their
  // beacon cycle — and each seed's first attempt throws. The retry, and
  // every later seed on the same worker, must still find the context
  // exactly as freshly built.
  std::mutex mu;
  std::set<std::uint64_t> thrown;
  std::atomic<int> attempts{0};
  std::atomic<int> dirty{0};
  const auto leaves_work = [&](SimContext& ctx, std::uint64_t seed) -> Metrics {
    core::Scheduler& sim = ctx.sim();
    attempts.fetch_add(1);
    if (sim.now() != 0 || sim.pending() != 0 || sim.dispatched() != 0 ||
        ctx.recorder().size() != 0) {
      dirty.fetch_add(1);
    }
    AVSEC_TRACE_INSTANT(obs::Category::kFault, "attempt", 0, 0, 0);
    sim.schedule_at(core::microseconds(5), [] {});
    sim.schedule_at(core::microseconds(10), [] {});
    sim.run_until(core::microseconds(7));
    {
      const std::lock_guard<std::mutex> lock(mu);
      if (thrown.insert(seed).second) throw std::runtime_error("first try");
    }
    return Metrics{{"seed_low", static_cast<double>(seed & 0xff)}};
  };
  for (std::size_t workers : {1u, 2u}) {
    thrown.clear();
    attempts.store(0);
    dirty.store(0);
    CampaignConfig cfg = base_config(8, workers);
    cfg.trace = TraceCapture::kAllRuns;
      cfg.supervision.retry.max_retries = 1;
    cfg.supervision.retry.initial_timeout = 0;
    const auto report = Campaign(cfg).sweep(leaves_work);
    EXPECT_EQ(attempts.load(), 16) << workers << " workers";
    EXPECT_EQ(dirty.load(), 0) << workers << " workers";
    EXPECT_TRUE(report.all_passed()) << workers << " workers";
    EXPECT_EQ(report.runs_retried, 8u) << workers << " workers";
  }
}

TEST(CampaignContext, ResetRestoresAFreshSimulation) {
  SimContext ctx;
  const auto first = run_workload(ctx.sim(), 5);
  ctx.reset();
  const auto second = run_workload(ctx.sim(), 5);
  EXPECT_EQ(first, second);  // map<string,double> equality on same bits
  EXPECT_EQ(ctx.resets(), 1u);
  // A reused context carries nothing into the next run, not even work the
  // previous run left queued.
  ctx.sim().schedule_in(core::seconds(1), [] {});
  ASSERT_GT(ctx.sim().dispatched(), 0u);
  ASSERT_EQ(ctx.sim().pending(), 1u);
  ctx.reset();
  EXPECT_EQ(ctx.sim().pending(), 0u);
  EXPECT_EQ(ctx.sim().dispatched(), 0u);
}

}  // namespace
}  // namespace avsec::fault
