// The determinism contract extended to traces: a run's trace is a pure
// function of its seed, so campaign sweeps must produce byte-identical
// trace dumps at any worker count, and capture policy controls which
// runs keep their dump.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "avsec/core/rng.hpp"
#include "avsec/core/scheduler.hpp"
#include "avsec/fault/campaign.hpp"
#include "avsec/netsim/can.hpp"
#include "avsec/obs/obs.hpp"

namespace avsec::fault {
namespace {

// A miniature IVN: three ECUs on a noisy CAN bus, driven by a seeded
// traffic generator. Every layer touched here is instrumented, so the
// ambient recorder (installed by the campaign) fills with scheduler,
// arbitration, and error-confinement events.
Metrics ivn_scenario(SimContext& ctx, std::uint64_t seed) {
  core::Scheduler& sim = ctx.sim();
  avsec::obs::SchedulerTracer tracer(sim, /*stride=*/64);
  netsim::CanBusConfig cfg;
  cfg.name = "can0";
  cfg.bit_error_rate = 5e-6;
  cfg.error_seed = seed;
  netsim::CanBus bus(sim, cfg);
  for (int i = 0; i < 3; ++i) {
    bus.attach("ecu" + std::to_string(i), nullptr);
  }
  core::Rng rng(seed ^ 0x5eed);
  std::function<void()> tick = [&] {
    netsim::CanFrame f;
    f.id = 0x100 + static_cast<std::uint32_t>(rng.next() % 48);
    f.payload.assign(8, 0x42);
    bus.send(static_cast<int>(rng.next() % 3), f);
    if (sim.now() < core::milliseconds(5)) {
      sim.schedule_in(core::microseconds(150), tick);
    }
  };
  sim.schedule_at(0, tick);
  sim.run();

  Metrics m;
  m["delivered"] = static_cast<double>(bus.frames_delivered());
  m["errors"] = static_cast<double>(bus.error_frames());
  m["seed_parity"] = static_cast<double>(seed % 2);
  return m;
}

Campaign traced_campaign(std::size_t workers, TraceCapture capture) {
  CampaignConfig cfg;
  cfg.runs = 12;
  cfg.base_seed = 2026;
  cfg.workers = workers;
  cfg.trace = capture;
  Campaign c(cfg);
  // Fails for roughly half the seeds, so both capture policies are
  // exercised with a mix of passing and failing runs.
  c.require("even seed",
            [](const Metrics& m) { return m.at("seed_parity") == 0.0; });
  return c;
}

TEST(TraceDeterminism, SameSeedSameBytesStandalone) {
  const auto run_once = [] {
    avsec::obs::TraceRecorder rec(1 << 12);
    {
      SimContext ctx;
      avsec::obs::TraceScope scope(rec);
      ivn_scenario(ctx, 99);
    }
    return avsec::obs::text_dump(rec);
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(TraceDeterminism, ByteIdenticalDumpsAcrossWorkerCounts) {
  const auto serial =
      traced_campaign(1, TraceCapture::kAllRuns).sweep(ivn_scenario);
  ASSERT_EQ(serial.outcomes.size(), 12u);
  for (const RunOutcome& o : serial.outcomes) {
    EXPECT_FALSE(o.trace.empty());
    // The dump carries real layer events, not just headers.
    EXPECT_NE(o.trace.find("cat=can"), std::string::npos);
    EXPECT_NE(o.trace.find("# track"), std::string::npos);
  }
  for (std::size_t workers : {2u, 8u}) {
    const auto parallel =
        traced_campaign(workers, TraceCapture::kAllRuns).sweep(ivn_scenario);
    EXPECT_TRUE(identical(serial, parallel)) << workers << " workers";
    ASSERT_EQ(parallel.outcomes.size(), serial.outcomes.size());
    for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
      EXPECT_EQ(parallel.outcomes[i].trace, serial.outcomes[i].trace)
          << "run " << i << " at " << workers << " workers";
    }
  }
}

TEST(TraceDeterminism, FailingRunsPolicyKeepsOnlyFailingTraces) {
  const auto report =
      traced_campaign(4, TraceCapture::kFailingRuns).sweep(ivn_scenario);
  std::size_t kept = 0;
  for (const RunOutcome& o : report.outcomes) {
    if (o.violated.empty()) {
      EXPECT_TRUE(o.trace.empty());
    } else {
      EXPECT_FALSE(o.trace.empty());
      ++kept;
    }
  }
  EXPECT_EQ(kept, report.failed_runs);
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, report.outcomes.size());
}

TEST(TraceDeterminism, OffPolicyRecordsNothing) {
  const auto report =
      traced_campaign(2, TraceCapture::kOff).sweep(ivn_scenario);
  for (const RunOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.trace.empty());
  }
}

TEST(TraceDeterminism, CapturedTraceMatchesStandaloneReplay) {
  // Replaying a failing seed outside the campaign reproduces the exact
  // bytes the campaign captured — the forensic workflow the capture
  // exists for.
  const auto report =
      traced_campaign(8, TraceCapture::kAllRuns).sweep(ivn_scenario);
  const RunOutcome& o = report.outcomes.front();
  avsec::obs::TraceRecorder rec(avsec::obs::TraceRecorder::kDefaultCapacity);
  {
    SimContext ctx;
    avsec::obs::TraceScope scope(rec);
    ivn_scenario(ctx, o.seed);
  }
  EXPECT_EQ(avsec::obs::text_dump(rec), o.trace);
}

}  // namespace
}  // namespace avsec::fault
