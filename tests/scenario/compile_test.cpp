// Compiler contract: the validity matrix rejects bad specs with exact
// file:line diagnostics, and compiled worlds run deterministically with
// the metric sets the oracles are validated against.
#include <gtest/gtest.h>

#include <cstdio>

#include "avsec/core/scheduler.hpp"
#include "avsec/fault/manifest.hpp"
#include "avsec/scenario/compile.hpp"
#include "avsec/scenario/parser.hpp"

namespace avsec::scenario {
namespace {

ScenarioSpec spec_of(const std::string& text) {
  ParseResult r = parse_scenario_text(text, "test.avsc");
  EXPECT_TRUE(r.ok) << r.error.to_string();
  return r.spec;
}

CompileError compile_err(const std::string& text) {
  CompileResult r = compile(spec_of(text));
  EXPECT_FALSE(r.ok);
  return r.error;
}

TEST(ScenarioCompile, ProtocolInvalidOnTopology) {
  const CompileError e =
      compile_err("scenario x\n\ntopology t1s\n\nprotocol secoc\n");
  EXPECT_EQ(e.line, 5);
  EXPECT_EQ(e.message, "protocol secoc is not valid on topology t1s");
}

TEST(ScenarioCompile, PostureInvalidOnTopology) {
  // t1s has no recovery lowering: "defended" (monitor+recovery) is invalid.
  const CompileError e = compile_err(
      "scenario x\n\ntopology t1s\n\ndefense\n  monitor on\n  recovery on\n");
  EXPECT_EQ(e.line, 3);
  EXPECT_EQ(e.message, "posture defended is not valid on topology t1s");
}

TEST(ScenarioCompile, PayloadExceedsClassicCanLimit) {
  const CompileError e =
      compile_err("scenario x\n\ntopology can\n  payload 9\n");
  EXPECT_EQ(e.line, 3);
  EXPECT_EQ(e.message, "payload 9 exceeds the none-over-can limit of 8");
}

TEST(ScenarioCompile, PayloadExceedsSecOcLimit) {
  const CompileError e = compile_err(
      "scenario x\n\ntopology can\n  payload 61\n\nprotocol secoc\n");
  EXPECT_EQ(e.line, 3);
  EXPECT_EQ(e.message, "payload 61 exceeds the secoc-over-can limit of 60");
}

TEST(ScenarioCompile, AttackInvalidOnTopology) {
  const CompileError e = compile_err(
      "scenario x\n\ntopology heartbeat\n\nattack node-crash\n  target 1\n");
  EXPECT_EQ(e.line, 5);
  EXPECT_EQ(e.message,
            "attack node-crash is not valid on topology heartbeat");
}

TEST(ScenarioCompile, FaultSectionNamedInDiagnostic) {
  const CompileError e = compile_err(
      "scenario x\n\ntopology can\n\nfault link-drop\n");
  EXPECT_EQ(e.line, 5);
  EXPECT_EQ(e.message, "fault link-drop is not valid on topology can");
}

TEST(ScenarioCompile, TargetOutOfRange) {
  const CompileError e = compile_err(
      "scenario x\n\ntopology can\n  nodes 3\n\nattack node-crash\n"
      "  target 3\n");
  EXPECT_EQ(e.line, 6);
  EXPECT_EQ(e.message, "target 3 out of range for 3 nodes");
}

TEST(ScenarioCompile, BabblingIdiotNeedsDuration) {
  const CompileError e =
      compile_err("scenario x\n\nattack babbling-idiot\n  target 1\n");
  EXPECT_EQ(e.line, 3);
  EXPECT_EQ(e.message, "babbling-idiot requires a finite duration (> 0)");
}

TEST(ScenarioCompile, InjectInvalidOnTopology) {
  const CompileError e = compile_err(
      "scenario x\n\ntopology t1s\n\ndefense\n  monitor on\n  recovery off\n"
      "\ninject random\n  kinds node-crash\n");
  EXPECT_EQ(e.line, 9);
  EXPECT_EQ(e.message, "inject random is not valid on topology t1s");
}

TEST(ScenarioCompile, InjectKindInvalidOnTopology) {
  const CompileError e = compile_err(
      "scenario x\n\ntopology link\n\ninject random\n  kinds node-crash\n");
  EXPECT_EQ(e.line, 5);
  EXPECT_EQ(e.message, "inject kind node-crash is not valid on topology link");
}

TEST(ScenarioCompile, UnknownOracleMetric) {
  const CompileError e =
      compile_err("scenario x\n\noracle warp_factor >= 9\n");
  EXPECT_EQ(e.line, 3);
  EXPECT_EQ(e.message, "unknown metric 'warp_factor' for topology can");
}

TEST(ScenarioCompile, ErrorCarriesSourceFile) {
  ParseResult r = parse_scenario_text("scenario x\n  runs 2\n\noracle nope == 1\n",
                                      "bad.avsc");
  ASSERT_TRUE(r.ok);
  CompileResult c = compile(r.spec);
  ASSERT_FALSE(c.ok);
  EXPECT_EQ(c.error.to_string(), "bad.avsc:4: unknown metric 'nope' for topology can");
}

TEST(ScenarioCompile, ValidityMatrixShape) {
  // 72 + 16 + 32 + 2: the documented cross-product (DESIGN.md §15).
  EXPECT_EQ(valid_protocols(Topology::kCan).size() *
                valid_attacks(Topology::kCan).size() *
                valid_postures(Topology::kCan).size(),
            72u);
  EXPECT_EQ(valid_protocols(Topology::kT1s).size() *
                valid_attacks(Topology::kT1s).size() *
                valid_postures(Topology::kT1s).size(),
            16u);
  EXPECT_EQ(valid_protocols(Topology::kLink).size() *
                valid_attacks(Topology::kLink).size() *
                valid_postures(Topology::kLink).size(),
            32u);
  EXPECT_EQ(valid_protocols(Topology::kHeartbeat).size() *
                valid_attacks(Topology::kHeartbeat).size() *
                valid_postures(Topology::kHeartbeat).size(),
            2u);
}

TEST(ScenarioCompile, MetricNamesAreSorted) {
  for (Topology t : {Topology::kCan, Topology::kT1s, Topology::kLink,
                     Topology::kHeartbeat}) {
    const std::vector<std::string>& names = metric_names(t);
    EXPECT_FALSE(names.empty());
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  }
}

TEST(ScenarioCompile, RunIsDeterministicAndComplete) {
  CompileResult r = compile(spec_of(
      "scenario det\n  seed 5\n  horizon 200ms\n\ntopology can\n"
      "  period 5ms\n\nprotocol secoc\n\nattack replay\n  at 80ms\n"));
  ASSERT_TRUE(r.ok) << r.error.to_string();
  core::Scheduler a, b;
  const fault::Metrics ma = r.compiled.run(a, 5);
  const fault::Metrics mb = r.compiled.run(b, 5);
  EXPECT_EQ(ma, mb);
  // The metric set is total: every documented name is present.
  for (const std::string& name : metric_names(Topology::kCan)) {
    EXPECT_TRUE(ma.count(name)) << name;
  }
  EXPECT_GE(ma.at("frames_sent"), 1.0);
  EXPECT_EQ(ma.at("attack_accepted"), 0.0);
}

TEST(ScenarioCompile, SmokeScaleShrinksTheRun) {
  CompileResult r = compile(spec_of(
      "scenario smoke\n  horizon 400ms\n\ntopology can\n  period 5ms\n"));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.compiled.smoke_horizon(), core::milliseconds(80));
  core::Scheduler full, smoke;
  const fault::Metrics mf = r.compiled.run(full, 1, serve::Scale::kFull);
  const fault::Metrics ms = r.compiled.run(smoke, 1, serve::Scale::kSmoke);
  EXPECT_LT(ms.at("frames_sent"), mf.at("frames_sent"));
  EXPECT_GE(ms.at("frames_sent"), 1.0);
}

TEST(ScenarioCompile, OracleFailuresNamesViolations) {
  CompileResult r = compile(spec_of(
      "scenario o\n  horizon 100ms\n\ntopology can\n\n"
      "oracle frames_sent >= 1\noracle attack_frames >= 5\n"));
  ASSERT_TRUE(r.ok);
  core::Scheduler sim;
  const fault::Metrics m = r.compiled.run(sim, 1);
  const std::vector<std::string> failures = r.compiled.oracle_failures(m);
  ASSERT_EQ(failures.size(), 1u);  // no attacker: attack_frames stays 0
  EXPECT_EQ(failures[0], "attack_frames >= 5");
}

TEST(ScenarioCompile, ServeEntryRunsStandalone) {
  CompileResult r = compile(spec_of(
      "scenario srv\n  horizon 100ms\n\ntopology heartbeat\n  period 5ms\n"));
  ASSERT_TRUE(r.ok);
  const serve::Scenario s = r.compiled.serve_entry();
  EXPECT_EQ(s.name, "srv");
  fault::SimContext ctx;
  const fault::Metrics m = s.run_ctx(ctx, 3, serve::Scale::kFull);
  EXPECT_GE(m.at("beats_sent"), 1.0);
}

// campaign(workers, path) is campaign(workers) journaling to `path`: the
// same oracle invariants, and a journal a resume adopts in full.
TEST(ScenarioCompile, CampaignJournalsToManifestPath) {
  CompileResult r = compile(spec_of(
      "scenario journal\n  runs 3\n  horizon 100ms\n\ntopology can\n\n"
      "oracle frames_sent >= 1\noracle attack_accepted == 0\n"));
  ASSERT_TRUE(r.ok) << r.error.to_string();
  const std::string path =
      ::testing::TempDir() + "avsec_compile_journal.jsonl";
  std::remove(path.c_str());
  const fault::Campaign plain = r.compiled.campaign(2);
  const fault::Campaign journaled = r.compiled.campaign(2, path);
  EXPECT_EQ(plain.config().manifest_path, "");
  EXPECT_EQ(journaled.config().manifest_path, path);

  const auto run = [&r](fault::SimContext& ctx, std::uint64_t seed) {
    return r.compiled.run(ctx.sim(), seed);
  };
  const fault::CampaignReport swept = journaled.sweep(run);
  EXPECT_TRUE(fault::identical(plain.sweep(run), swept));
  EXPECT_EQ(fault::read_manifest(path).header.invariants.size(), 2u);
  fault::ResumeStats stats;
  const fault::CampaignReport resumed =
      r.compiled.campaign(1).resume(run, path, &stats);
  EXPECT_EQ(stats.loaded, 3u);
  EXPECT_EQ(stats.reran, 0u);
  EXPECT_TRUE(fault::identical(swept, resumed));
}

}  // namespace
}  // namespace avsec::scenario
