// The shared campaign command line: strict argv (typos are refused with
// exit code 2, never run as something else), the --trace replay of a seed
// the sweep actually ran, refusal of an empty report, failing-run dumps,
// the journal/resume round trip through campaign_main, and refusal of a
// journal another campaign wrote.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "avsec/core/scheduler.hpp"
#include "avsec/core/parallel.hpp"
#include "avsec/fault/cli.hpp"
#include "avsec/obs/trace.hpp"

namespace avsec::fault::cli {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "avsec_cli_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream raw;
  raw << in.rdbuf();
  return raw.str();
}

bool exists(const std::string& path) { return std::ifstream(path).good(); }

// Points into `args`, which must outlive the result.
std::vector<const char*> argv_of(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"campaign"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return argv;
}

// A few scheduled events with trace instrumentation; `value` is a pure
// function of the seed, so invariants on it fail on a fixed seed subset.
Metrics tiny_run(SimContext& ctx, std::uint64_t seed) {
  core::Scheduler& sim = ctx.sim();
  supervise(sim);
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    AVSEC_TRACE_INSTANT(obs::Category::kFault, "tick", 0, sim.now(), ticks);
    if (ticks < 4) sim.schedule_in(core::microseconds(10), tick);
  };
  sim.schedule_at(0, tick);
  sim.run();
  return {{"ticks", static_cast<double>(ticks)},
          {"value", static_cast<double>(seed % 3)}};
}

CampaignMain tiny_main(bool failing) {
  CampaignMain m;
  m.title = "tiny campaign";
  m.config.runs = 6;
  m.config.base_seed = 11;
  m.invariants = {{"four ticks", [](const Metrics& x) {
                     return x.at("ticks") == 4.0;
                   }}};
  if (failing) {
    m.invariants.emplace_back("value is never 0", [](const Metrics& x) {
      return x.at("value") != 0.0;
    });
  }
  m.run = tiny_run;
  return m;
}

// campaign_main with stdout and stderr captured; returns the exit code.
int run_main(const CampaignMain& m, const std::vector<std::string>& args,
             std::string* err = nullptr) {
  const std::vector<const char*> argv = argv_of(args);
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  const int rc = campaign_main(static_cast<int>(argv.size()), argv.data(), m);
  ::testing::internal::GetCapturedStdout();
  const std::string stderr_text = ::testing::internal::GetCapturedStderr();
  if (err != nullptr) *err = stderr_text;
  return rc;
}

struct ArgvCase {
  std::vector<std::string> args;
  bool ok;
  std::size_t workers = 0;  // 0 = hardware threads
  std::size_t runs = 20;
  std::uint64_t base_seed = 2026;
};

TEST(CampaignCli, ParseCampaignTable) {
  const std::vector<ArgvCase> cases = {
      {{}, true},
      {{"--workers", "0"}, true},
      {{"--workers", "3"}, true, 3},
      {{"60", "97", "--workers", "2"}, true, 2, 60, 97},
      {{"--workers", "2", "60"}, true, 2, 60},
      {{"--manifest", "m", "--trace", "t", "--trace-failing"}, true},
      {{"--resume", "m"}, true},
      // An unknown flag, even one a letter off a real one.
      {{"--worker", "2"}, false},
      {{"--bogus"}, false},
      {{"-w"}, false},
      // A flag missing its value.
      {{"--workers"}, false},
      {{"--manifest"}, false},
      {{"--resume"}, false},
      {{"--trace"}, false},
      {{"--trace", ""}, false},
      // A negative, non-numeric or overflowing worker count.
      {{"--workers", "-1"}, false},
      {{"--workers", "x"}, false},
      {{"--workers", "2x"}, false},
      {{"--workers", " 2"}, false},
      {{"--workers", "99999999999999999999999"}, false},
      // A zero, negative, non-numeric or surplus positional.
      {{"0"}, false},
      {{"0", "--trace", "f.json"}, false},
      {{"5", "0"}, false},
      {{"-5"}, false},
      {{"abc"}, false},
      {{"5", "7x"}, false},
      {{"1", "2", "3"}, false},
  };
  for (const ArgvCase& c : cases) {
    std::string joined;
    for (const std::string& a : c.args) joined += " [" + a + "]";
    SCOPED_TRACE("argv:" + joined);
    const std::vector<const char*> argv = argv_of(c.args);
    Options opts;
    CampaignConfig config;
    config.runs = 20;
    config.base_seed = 2026;
    const std::string error =
        parse_campaign(static_cast<int>(argv.size()), argv.data(), opts,
                       config);
    EXPECT_EQ(error.empty(), c.ok) << error;
    if (!c.ok || !error.empty()) continue;
    EXPECT_EQ(opts.workers, c.workers == 0
                                ? core::default_workers()
                                : c.workers);
    EXPECT_EQ(config.runs, c.runs);
    EXPECT_EQ(config.base_seed, c.base_seed);
  }
}

TEST(CampaignCli, ParseHandsBackTheRest) {
  const std::vector<std::string> args = {
      "--generate", "8", "--workers", "2", "--trace-failing",
      "a.avsc", "--manifest", "m.jsonl", "--list"};
  const std::vector<const char*> argv = argv_of(args);
  Options opts;
  ASSERT_EQ(parse(static_cast<int>(argv.size()), argv.data(), opts), "");
  EXPECT_EQ(opts.workers, 2u);
  EXPECT_EQ(opts.manifest, "m.jsonl");
  EXPECT_TRUE(opts.trace_failing);
  EXPECT_EQ(opts.rest, (std::vector<std::string>{"--generate", "8", "a.avsc",
                                                 "--list"}));
}

// Every worker is a thread started up front, so argv bounds the count:
// an unbounded --workers once asked for one thread per requested worker.
TEST(CampaignCli, WorkersAboveTheBoundAreRefused) {
  const std::string at = std::to_string(kMaxWorkers);
  const std::string above = std::to_string(kMaxWorkers + 1);
  const std::vector<std::string> ok = {"--workers", at};
  const std::vector<std::string> refused = {"--workers", above};
  Options opts;
  const std::vector<const char*> ok_argv = argv_of(ok);
  EXPECT_EQ(parse(static_cast<int>(ok_argv.size()), ok_argv.data(), opts), "");
  EXPECT_EQ(opts.workers, kMaxWorkers);
  const std::vector<const char*> refused_argv = argv_of(refused);
  EXPECT_NE(parse(static_cast<int>(refused_argv.size()), refused_argv.data(),
                  opts),
            "");
}

// A refused argv exits 2 with usage text on stderr, before any sweep: at
// runs = 0 the old --trace replay indexed an empty report and crashed.
TEST(CampaignCli, RefusedArgvExitsTwoWithUsage) {
  const CampaignMain m = tiny_main(false);
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"0", "--trace", temp_path("zero.json")},
           {"--worker", "2"},
           {"--workers", "-1"}}) {
    std::string err;
    EXPECT_EQ(run_main(m, args, &err), 2) << args[0];
    EXPECT_NE(err.find("usage:"), std::string::npos) << err;
  }
  EXPECT_FALSE(exists(temp_path("zero.json")));
}

TEST(CampaignCli, TraceRefusesAnEmptyReport) {
  const std::string path = temp_path("empty.json");
  std::remove(path.c_str());
  bool ran = false;
  ::testing::internal::CaptureStderr();
  const bool ok = write_trace(
      CampaignReport{},
      [&](SimContext& ctx, std::uint64_t seed) {
        ran = true;
        return tiny_run(ctx, seed);
      },
      path);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(ok);
  EXPECT_FALSE(ran);
  EXPECT_FALSE(exists(path));
  EXPECT_FALSE(err.empty());
}

// --trace replays a seed the sweep ran: run 0's when every run passed, the
// first failing seed otherwise.
TEST(CampaignCli, TraceReplaysASeedOfTheReport) {
  for (const bool failing : {false, true}) {
    SCOPED_TRACE(failing ? "failing campaign" : "passing campaign");
    const CampaignMain m = tiny_main(failing);
    Campaign campaign(m.config);
    for (const auto& [name, check] : m.invariants) {
      campaign.require(name, check);
    }
    const CampaignReport report = campaign.sweep(tiny_run);
    ASSERT_EQ(report.all_passed(), !failing);

    std::optional<std::uint64_t> replayed;
    const std::string path = temp_path("replay.json");
    std::remove(path.c_str());
    ::testing::internal::CaptureStdout();
    const bool ok = write_trace(
        report,
        [&](SimContext& ctx, std::uint64_t seed) {
          replayed = seed;
          return tiny_run(ctx, seed);
        },
        path);
    ::testing::internal::GetCapturedStdout();
    ASSERT_TRUE(ok);
    ASSERT_TRUE(replayed.has_value());
    const std::uint64_t expected = failing ? report.failing_seeds().front()
                                           : report.outcomes.front().seed;
    EXPECT_EQ(*replayed, expected);
    if (failing) {
      EXPECT_NE(*replayed, report.outcomes.front().seed);
    }
    EXPECT_NE(read_file(path).find("\"tick\""), std::string::npos);
  }
}

TEST(CampaignCli, TraceFailingWritesEachFailingRunsDump) {
  const CampaignMain m = tiny_main(true);
  CampaignConfig cfg = m.config;
  cfg.trace = TraceCapture::kFailingRuns;
  Campaign campaign(cfg);
  for (const auto& [name, check] : m.invariants) {
    campaign.require(name, check);
  }
  const CampaignReport report = campaign.sweep(tiny_run);
  ASSERT_FALSE(report.failing_seeds().empty());

  // The dumps land in the working directory; clear this campaign's first.
  const auto dump_path = [](const RunOutcome& o) {
    return "campaign-trace-" + std::to_string(o.seed) + ".txt";
  };
  for (const RunOutcome& o : report.outcomes) {
    std::remove(dump_path(o).c_str());
  }
  EXPECT_EQ(run_main(m, {"--workers", "2", "--trace-failing"}), 1);
  for (const RunOutcome& o : report.outcomes) {
    if (o.violated.empty()) {
      EXPECT_FALSE(exists(dump_path(o))) << dump_path(o);
    } else {
      ASSERT_FALSE(o.trace.empty());
      EXPECT_EQ(read_file(dump_path(o)), o.trace) << dump_path(o);
    }
    std::remove(dump_path(o).c_str());
  }
}

TEST(CampaignCli, ManifestJournalsAndResumes) {
  const CampaignMain m = tiny_main(false);
  const std::string path = temp_path("journal.jsonl");
  std::remove(path.c_str());
  EXPECT_EQ(run_main(m, {"--workers", "2", "--manifest", path}), 0);
  ASSERT_TRUE(exists(path));
  EXPECT_EQ(run_main(m, {"--workers", "2", "--resume", path}), 0);
}

// Resuming another campaign's journal (here: a different run count) is
// refused with exit code 2, the journal named on stderr, and the journal
// left as it was.
TEST(CampaignCli, ForeignJournalIsRefusedWithExitTwo) {
  const CampaignMain m = tiny_main(false);
  const std::string path = temp_path("foreign.jsonl");
  std::remove(path.c_str());
  ASSERT_EQ(run_main(m, {"--workers", "2", "--manifest", path}), 0);
  const std::string journal = read_file(path);
  std::string err;
  EXPECT_EQ(run_main(m, {"7", "--workers", "2", "--resume", path}, &err), 2);
  EXPECT_NE(err.find(path), std::string::npos) << err;
  EXPECT_NE(err.find("does not match"), std::string::npos) << err;
  EXPECT_EQ(read_file(path), journal);
}

}  // namespace
}  // namespace avsec::fault::cli
