// Checkpoint/resume manifests: bit-exact round-trips, tolerance to
// truncation at arbitrary byte offsets (the on-disk image of a process
// killed mid-sweep), corrupt-line quarantine, and the headline contract —
// a resumed report is byte-identical to an uninterrupted sweep's at any
// worker count.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "avsec/core/rng.hpp"
#include "avsec/core/scheduler.hpp"
#include "avsec/fault/campaign.hpp"
#include "avsec/fault/manifest.hpp"

namespace avsec::fault {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "avsec_manifest_" + name;
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

// Seed-deterministic scenario with seed-dependent metrics, occasional
// violations, and (under supervision) occasional crashes.
Metrics scenario(SimContext& ctx, std::uint64_t seed) {
  core::Scheduler& sim = ctx.sim();
  supervise(sim);
  core::Rng rng(seed);
  double level = 0.0;
  int spikes = 0;
  std::function<void()> tick = [&] {
    level += rng.normal(0.0, 1.0);
    if (std::abs(level) > 3.0) {
      ++spikes;
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

CampaignConfig base_config(std::size_t runs, std::size_t workers) {
  CampaignConfig cfg;
  cfg.runs = runs;
  cfg.base_seed = 4242;
  cfg.workers = workers;
  cfg.manifest_fsync_chunk = 2;
  return cfg;
}

Campaign make_campaign(CampaignConfig cfg) {
  Campaign c(cfg);
  c.require("few spikes",
            [](const Metrics& m) { return m.at("spikes") <= 3.0; })
      .require("even seed",
               [](const Metrics& m) { return m.at("seed_parity") == 0.0; });
  return c;
}

TEST(Manifest, RunLineRoundTripsBitExactly) {
  RunOutcome o;
  o.seed = 0xDEADBEEFCAFEF00Dull;
  o.status = RunStatus::kViolated;
  o.attempts = 3;
  o.error = "line1\nline\ttab \"quoted\" back\\slash \x01\x1f control";
  o.metrics["pi-ish"] = 3.141592653589793;
  o.metrics["neg zero"] = -0.0;
  o.metrics["denormal"] = 4.9406564584124654e-324;
  o.metrics["inf"] = std::numeric_limits<double>::infinity();
  o.violated = {"inv a", "inv \"b\""};
  o.trace = "trace dump\nwith\nnewlines\r\nand \x02 bytes";

  const std::string line = manifest_run_line(7, o);
  const std::string path = temp_path("roundtrip.jsonl");
  ManifestHeader h{10, 0x1234, 0, {"inv a", "inv \"b\""}};
  write_file(path, manifest_header_line(h) + line);

  const ManifestData data = read_manifest(path);
  ASSERT_TRUE(data.header_ok);
  EXPECT_EQ(data.header, h);
  EXPECT_EQ(data.dropped_lines, 0u);
  ASSERT_EQ(data.outcomes.size(), 1u);
  const RunOutcome& r = data.outcomes.at(7);
  EXPECT_EQ(r.seed, o.seed);
  EXPECT_EQ(r.status, o.status);
  EXPECT_EQ(r.attempts, o.attempts);
  EXPECT_EQ(r.error, o.error);
  EXPECT_EQ(r.violated, o.violated);
  EXPECT_EQ(r.trace, o.trace);
  ASSERT_EQ(r.metrics.size(), o.metrics.size());
  for (const auto& [key, value] : o.metrics) {
    // Bitwise comparison: -0.0 and denormals must survive exactly.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.metrics.at(key)),
              std::bit_cast<std::uint64_t>(value))
        << key;
  }
  // Re-serializing the parsed outcome reproduces the exact bytes.
  EXPECT_EQ(manifest_run_line(7, r), line);
}

TEST(Manifest, TruncationAtEveryByteOffsetResumesIdentically) {
  // The reference: one uninterrupted sweep (no manifest in play).
  const auto reference =
      make_campaign(base_config(8, 1)).sweep(scenario);

  // A complete journaled sweep gives us the full manifest image.
  const std::string full_path = temp_path("full.jsonl");
  CampaignConfig journal_cfg = base_config(8, 1);
  journal_cfg.manifest_path = full_path;
  const auto journaled = make_campaign(journal_cfg).sweep(scenario);
  EXPECT_TRUE(identical(reference, journaled));
  const std::string full = read_file(full_path);
  ASSERT_GT(full.size(), 100u);

  // Truncate at a dense spread of byte offsets — every prefix is a file a
  // SIGKILL could have left behind — and resume at 1, 2 and 8 workers.
  const std::string cut_path = temp_path("cut.jsonl");
  const std::size_t step = std::max<std::size_t>(1, full.size() / 23);
  std::size_t workers_rotation[] = {1, 2, 8};
  std::size_t rotation = 0;
  for (std::size_t cut = 0; cut <= full.size(); cut += step) {
    write_file(cut_path, full.substr(0, cut));
    const std::size_t workers = workers_rotation[rotation++ % 3];
    ResumeStats stats;
    const auto resumed = make_campaign(base_config(8, workers))
                             .resume(scenario, cut_path, &stats);
    EXPECT_TRUE(identical(reference, resumed))
        << "cut at byte " << cut << ", " << workers << " workers";
    EXPECT_EQ(stats.loaded + stats.reran, 8u) << "cut at byte " << cut;
    // After any resume the manifest must be whole again: a second resume
    // loads everything and re-runs nothing.
    ResumeStats again;
    const auto resumed2 = make_campaign(base_config(8, 1))
                              .resume(scenario, cut_path, &again);
    EXPECT_TRUE(identical(reference, resumed2)) << "cut at byte " << cut;
    EXPECT_EQ(again.loaded, 8u) << "cut at byte " << cut;
    EXPECT_EQ(again.reran, 0u) << "cut at byte " << cut;
  }
  // Exact full-file resume as the boundary case.
  write_file(cut_path, full);
  ResumeStats stats;
  const auto resumed =
      make_campaign(base_config(8, 2)).resume(scenario, cut_path, &stats);
  EXPECT_TRUE(identical(reference, resumed));
  EXPECT_EQ(stats.loaded, 8u);
  EXPECT_EQ(stats.reran, 0u);
  EXPECT_EQ(stats.dropped_lines, 0u);
}

TEST(Manifest, CompleteManifestResumesWithoutReexecuting) {
  const std::string path = temp_path("complete.jsonl");
  CampaignConfig cfg = base_config(6, 2);
  cfg.manifest_path = path;
  const auto swept = make_campaign(cfg).sweep(scenario);

  ResumeStats stats;
  const auto resumed = make_campaign(base_config(6, 2))
                           .resume([](SimContext&, std::uint64_t) -> Metrics {
                             ADD_FAILURE() << "no run should re-execute";
                             return {};
                           },
                                   path, &stats);
  EXPECT_TRUE(identical(swept, resumed));
  EXPECT_EQ(stats.loaded, 6u);
  EXPECT_EQ(stats.reran, 0u);
}

TEST(Manifest, CorruptMiddleLineIsDroppedAndRerun) {
  const std::string path = temp_path("corrupt.jsonl");
  CampaignConfig cfg = base_config(6, 1);
  cfg.manifest_path = path;
  const auto reference = make_campaign(cfg).sweep(scenario);

  // Flip one byte inside the third line: its CRC fails, the line is
  // dropped, and only that run re-executes.
  std::string bytes = read_file(path);
  std::size_t line_start = 0;
  for (int skip = 0; skip < 3; ++skip) {
    line_start = bytes.find('\n', line_start) + 1;
  }
  bytes[line_start + 20] ^= 0x01;
  write_file(path, bytes);

  ResumeStats stats;
  const auto resumed =
      make_campaign(base_config(6, 1)).resume(scenario, path, &stats);
  EXPECT_TRUE(identical(reference, resumed));
  EXPECT_EQ(stats.dropped_lines, 1u);
  EXPECT_EQ(stats.loaded, 5u);
  EXPECT_EQ(stats.reran, 1u);
}

TEST(Manifest, MismatchedCampaignThrows) {
  const std::string path = temp_path("mismatch.jsonl");
  CampaignConfig cfg = base_config(6, 1);
  cfg.manifest_path = path;
  make_campaign(cfg).sweep(scenario);

  // Different run count.
  EXPECT_THROW(make_campaign(base_config(7, 1)).resume(scenario, path),
               std::invalid_argument);
  // Different base seed.
  CampaignConfig other_seed = base_config(6, 1);
  other_seed.base_seed = 1;
  EXPECT_THROW(make_campaign(other_seed).resume(scenario, path),
               std::invalid_argument);
  // Different invariant set.
  Campaign fewer(base_config(6, 1));
  fewer.require("few spikes",
                [](const Metrics& m) { return m.at("spikes") <= 3.0; });
  EXPECT_THROW(fewer.resume(scenario, path), std::invalid_argument);
}

TEST(Manifest, MissingOrHeaderlessManifestDegradesToFreshSweep) {
  const auto reference = make_campaign(base_config(6, 1)).sweep(scenario);

  // Nonexistent file: fresh sweep, manifest written for next time.
  const std::string path = temp_path("fresh.jsonl");
  std::remove(path.c_str());
  ResumeStats stats;
  const auto resumed =
      make_campaign(base_config(6, 2)).resume(scenario, path, &stats);
  EXPECT_TRUE(identical(reference, resumed));
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(stats.reran, 6u);
  ASSERT_TRUE(read_manifest(path).header_ok);

  // Garbage first line: whole manifest void, same degradation.
  write_file(path, "not json at all\n");
  ResumeStats stats2;
  const auto resumed2 =
      make_campaign(base_config(6, 1)).resume(scenario, path, &stats2);
  EXPECT_TRUE(identical(reference, resumed2));
  EXPECT_EQ(stats2.loaded, 0u);
  EXPECT_EQ(stats2.dropped_lines, 1u);
  // ...and the rewrite leaves a fully valid manifest behind.
  ResumeStats stats3;
  make_campaign(base_config(6, 1)).resume(scenario, path, &stats3);
  EXPECT_EQ(stats3.loaded, 6u);
}

TEST(Manifest, QuarantinedRunsAreReexecutedOnResume) {
  // First sweep: supervision on, seeds ending in certain residues crash
  // -> quarantined records land in the manifest.
  const std::string path = temp_path("quarantine.jsonl");
  CampaignConfig cfg = base_config(10, 1);
  cfg.manifest_path = path;
  cfg.supervision.enabled = true;
  cfg.supervision.retry.max_retries = 0;
  cfg.supervision.retry.initial_timeout = 0;
  const auto crashy = make_campaign(cfg).sweep([](SimContext& ctx,
                                                   std::uint64_t seed) {
    if (seed % 3 == 0) throw std::runtime_error("flaky environment");
    return scenario(ctx, seed);
  });
  ASSERT_GT(crashy.quarantined_runs, 0u);

  // The environment "recovers": resume re-runs exactly the quarantined
  // seeds and the merged report matches a clean sweep end to end.
  CampaignConfig clean_cfg = base_config(10, 2);
  clean_cfg.supervision.enabled = true;
  clean_cfg.supervision.retry.max_retries = 0;
  clean_cfg.supervision.retry.initial_timeout = 0;
  const auto reference = make_campaign(clean_cfg).sweep(scenario);

  ResumeStats stats;
  const auto resumed =
      make_campaign(clean_cfg).resume(scenario, path, &stats);
  EXPECT_TRUE(identical(reference, resumed));
  EXPECT_EQ(stats.reran, crashy.quarantined_runs);
  EXPECT_EQ(stats.loaded, 10u - crashy.quarantined_runs);
  EXPECT_EQ(resumed.quarantined_runs, 0u);
}

TEST(Manifest, ParallelJournalingProducesResumableManifest) {
  // Eight workers journal concurrently; every line must land whole.
  const std::string path = temp_path("parallel.jsonl");
  CampaignConfig cfg = base_config(32, 8);
  cfg.manifest_path = path;
  const auto swept = make_campaign(cfg).sweep(scenario);

  const ManifestData data = read_manifest(path);
  ASSERT_TRUE(data.header_ok);
  EXPECT_EQ(data.dropped_lines, 0u);
  EXPECT_EQ(data.outcomes.size(), 32u);

  const auto reference = make_campaign(base_config(32, 1)).sweep(scenario);
  EXPECT_TRUE(identical(reference, swept));
  ResumeStats stats;
  const auto resumed =
      make_campaign(base_config(32, 8)).resume(scenario, path, &stats);
  EXPECT_TRUE(identical(reference, resumed));
  EXPECT_EQ(stats.loaded, 32u);
}

TEST(Manifest, TraceCaptureRoundTripsThroughResume) {
  // kAllRuns: every outcome carries a trace dump; a resumed report must
  // reproduce those strings byte-for-byte from the manifest.
  CampaignConfig cfg = base_config(4, 1);
  cfg.trace = TraceCapture::kAllRuns;
  const auto reference = make_campaign(cfg).sweep(scenario);

  const std::string path = temp_path("traced.jsonl");
  CampaignConfig journal_cfg = cfg;
  journal_cfg.manifest_path = path;
  make_campaign(journal_cfg).sweep(scenario);

  CampaignConfig resume_cfg = cfg;  // same trace policy, no journaling
  ResumeStats stats;
  const auto resumed = make_campaign(resume_cfg)
                           .resume([](SimContext&, std::uint64_t) -> Metrics {
                             ADD_FAILURE() << "all runs were complete";
                             return {};
                           },
                                   path, &stats);
  EXPECT_TRUE(identical(reference, resumed));
  EXPECT_EQ(stats.loaded, 4u);
  ASSERT_EQ(resumed.outcomes.size(), reference.outcomes.size());
  for (std::size_t i = 0; i < resumed.outcomes.size(); ++i) {
    EXPECT_EQ(resumed.outcomes[i].trace, reference.outcomes[i].trace) << i;
  }
}

TEST(Manifest, HeaderDistinguishesTracePolicy) {
  // Outcome bytes depend on the trace policy, so it is part of campaign
  // identity: resuming under a different policy must be refused.
  const std::string path = temp_path("trace_policy.jsonl");
  CampaignConfig cfg = base_config(4, 1);
  cfg.manifest_path = path;
  make_campaign(cfg).sweep(scenario);

  CampaignConfig traced = base_config(4, 1);
  traced.trace = TraceCapture::kAllRuns;
  EXPECT_THROW(make_campaign(traced).resume(scenario, path),
               std::invalid_argument);
}

}  // namespace
}  // namespace avsec::fault
