// avsec-lint rule-engine tests: every rule R1-R7 is demonstrated by a
// fixture file that fails with the exact rule id and line number, plus a
// suppression fixture that lints clean and a negatives fixture that must
// never fire. Fixtures live in tests/tools/fixtures/ (excluded from the
// whole-tree avsec_lint_tree scan precisely because they violate on
// purpose). The whole-program rules R5-R7 go through lint_sources — the
// same pass-1 + pass-2 pipeline the scan driver runs — and the driver
// itself is exercised for cache cold/warm report identity.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "avsec-lint/driver.hpp"
#include "avsec-lint/project.hpp"
#include "avsec-lint/rules.hpp"

namespace {

using avsec::lint::Finding;
using avsec::lint::lint_source;
using avsec::lint::lint_sources;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(AVSEC_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// (rule, line) pairs in report order, for exact comparisons.
std::vector<std::pair<std::string, int>> rule_lines(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<std::string, int>> out;
  for (const Finding& f : findings) out.emplace_back(f.rule, f.line);
  return out;
}

TEST(LintR1, FlagsEveryNondeterminismSourceAtExactLines) {
  const auto findings =
      lint_source("tests/some/r1.cpp", read_fixture("r1_nondeterminism.cpp"));
  const std::vector<std::pair<std::string, int>> expected = {
      {"R1", 8}, {"R1", 9}, {"R1", 10}, {"R1", 11}, {"R1", 12}};
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintR1, ExemptPathsAreNotScanned) {
  const std::string src = read_fixture("r1_nondeterminism.cpp");
  EXPECT_TRUE(lint_source("bench/harness_fixture.cpp", src).empty());
  EXPECT_TRUE(lint_source("src/avsec/core/rng.cpp", src).empty());
}

TEST(LintR1, SuppressionsSilenceFindings) {
  EXPECT_TRUE(
      lint_source("tests/some/r1.cpp", read_fixture("r1_suppressed.cpp"))
          .empty());
}

TEST(LintR2, FlagsUnorderedIterationInAggregationPaths) {
  const auto findings = lint_source(
      "lib/fault/agg.cpp", read_fixture("r2_unordered_iteration.cpp"));
  const std::vector<std::pair<std::string, int>> expected = {{"R2", 9},
                                                             {"R2", 11}};
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintR2, OnlyAppliesToAggregationPaths) {
  // The same source under a non-aggregation label is legal.
  EXPECT_TRUE(lint_source("lib/netsim/agg.cpp",
                          read_fixture("r2_unordered_iteration.cpp"))
                  .empty());
}

TEST(LintR2, SuppressionsSilenceFindings) {
  EXPECT_TRUE(
      lint_source("lib/health/tally.cpp", read_fixture("r2_suppressed.cpp"))
          .empty());
}

TEST(LintR3, FlagsFloatReductionLoopsInSrc) {
  const auto findings = lint_source("src/avsec/collab/fold.cpp",
                                    read_fixture("r3_float_reduction.cpp"));
  const std::vector<std::pair<std::string, int>> expected = {{"R3", 7},
                                                             {"R3", 12}};
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintR3, AccumulatorHomeAndNonSrcAreExempt) {
  const std::string src = read_fixture("r3_float_reduction.cpp");
  EXPECT_TRUE(lint_source("src/avsec/core/stats.cpp", src).empty());
  EXPECT_TRUE(lint_source("tests/core/fold_test.cpp", src).empty());
}

TEST(LintR3, SuppressionsCoverWrappedAndTrailingComments) {
  EXPECT_TRUE(
      lint_source("src/avsec/phy/dsp.cpp", read_fixture("r3_suppressed.cpp"))
          .empty());
}

TEST(LintObs, ExporterUnorderedIterationIsFlagged) {
  const auto findings = lint_source("src/avsec/obs/export.cpp",
                                    read_fixture("r2_obs_export.cpp"));
  const std::vector<std::pair<std::string, int>> expected = {{"R2", 10},
                                                             {"R2", 12}};
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintObs, MetricsFoldRawReductionIsFlagged) {
  const auto findings = lint_source("src/avsec/obs/metrics_fold.cpp",
                                    read_fixture("r3_obs_fold.cpp"));
  const std::vector<std::pair<std::string, int>> expected = {{"R3", 7}};
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintObs, ObsScopeCoversTestPathsAndSparesOtherModules) {
  const std::string src = read_fixture("r2_obs_export.cpp");
  // tests/obs/ dumps feed the byte-identical determinism assertions, so
  // the R2 aggregation scope covers them too...
  EXPECT_FALSE(lint_source("tests/obs/export_test.cpp", src).empty());
  // ...while the same source under a non-aggregation module stays legal.
  EXPECT_TRUE(lint_source("src/avsec/netsim/export.cpp", src).empty());
}

TEST(LintServe, ReplyRenderUnorderedIterationIsFlagged) {
  // render_reply() is the byte-identity surface of the serving determinism
  // contract (DESIGN.md §14): hash order reaching a rendered reply is the
  // exact bug R2 exists to stop, so serve/ is an R2 aggregation path.
  const auto findings = lint_source("src/avsec/serve/request.cpp",
                                    read_fixture("r2_serve_reply.cpp"));
  const std::vector<std::pair<std::string, int>> expected = {{"R2", 10},
                                                             {"R2", 12}};
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintServe, ServeScopeCoversTestPathsAndSparesOtherModules) {
  const std::string src = read_fixture("r2_serve_reply.cpp");
  // Serve tests diff rendered replies across worker counts — in scope.
  EXPECT_FALSE(lint_source("tests/serve/server_test.cpp", src).empty());
  // The same shape under a non-aggregation module stays legal.
  EXPECT_TRUE(lint_source("src/avsec/netsim/render.cpp", src).empty());
}

TEST(LintScenario, CoverageReportUnorderedIterationIsFlagged) {
  // Coverage reports are committed and byte-diffed in CI (DESIGN.md §15):
  // hash order reaching a report line would churn the diff on every run,
  // so scenario/ is an R2 aggregation path.
  const auto findings = lint_source("src/avsec/scenario/coverage.cpp",
                                    read_fixture("r2_scenario_report.cpp"));
  const std::vector<std::pair<std::string, int>> expected = {{"R2", 10},
                                                             {"R2", 12}};
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintScenario, ScopeCoversTestPathsAndSparesOtherModules) {
  const std::string src = read_fixture("r2_scenario_report.cpp");
  // Scenario tests byte-compare the committed coverage report — in scope.
  EXPECT_FALSE(lint_source("tests/scenario/corpus_test.cpp", src).empty());
  // The same shape under a non-aggregation module stays legal.
  EXPECT_TRUE(lint_source("src/avsec/netsim/coverage.cpp", src).empty());
}

TEST(LintScenario, GeneratorEntropyTaintIsFlaggedAtEveryCallEdge) {
  // Generation must draw only from core::Rng: a random_device seed would
  // make `generate` irreproducible, so R5 walks the whole call chain.
  const auto findings = lint_sources({{"src/avsec/scenario/generate.cpp",
                                       read_fixture("r5_scenario_gen.cpp")}});
  const std::vector<std::pair<std::string, int>> expected = {
      {"R1", 9},   // the direct random_device read
      {"R5", 11},  // sample_cell() -> draw_entropy()
      {"R5", 13},  // generate_spec() -> sample_cell() (transitive)
  };
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintServe, AggregateFoldRawReductionIsFlagged) {
  // Reply aggregates must fold through core::Accumulator so they stay
  // bit-stable at any worker count; a raw += fold is flagged by R3.
  const auto findings = lint_source("src/avsec/serve/server.cpp",
                                    read_fixture("r3_serve_fold.cpp"));
  const std::vector<std::pair<std::string, int>> expected = {{"R3", 7}};
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintResilience, ManifestSerializationUnorderedIterationIsFlagged) {
  // The manifest writer lives in fault/ — already an R2 aggregation path —
  // and its line bytes feed the resume byte-identity contract, so hash
  // order reaching a manifest line is exactly the bug R2 exists to stop.
  const auto findings = lint_source("src/avsec/fault/manifest.cpp",
                                    read_fixture("r2_manifest_metrics.cpp"));
  const std::vector<std::pair<std::string, int>> expected = {{"R2", 13},
                                                             {"R2", 15}};
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintResilience, ManifestScopeCoversTestsAndToolsReplayPaths) {
  const std::string src = read_fixture("r2_manifest_metrics.cpp");
  // Resume tests compare manifest bytes, so fault/ test paths are in scope.
  EXPECT_FALSE(lint_source("tests/fault/manifest_resume_test.cpp", src)
                   .empty());
  // A non-aggregation module rendering the same shape stays legal.
  EXPECT_TRUE(lint_source("src/avsec/netsim/summary.cpp", src).empty());
}

TEST(LintResilience, ResumeMergeRawReductionIsFlagged) {
  const auto findings = lint_source("src/avsec/fault/campaign.cpp",
                                    read_fixture("r3_resume_merge.cpp"));
  const std::vector<std::pair<std::string, int>> expected = {{"R3", 11},
                                                             {"R3", 14}};
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintResilience, ResumeMergeReductionExemptInAccumulatorHome) {
  const std::string src = read_fixture("r3_resume_merge.cpp");
  EXPECT_TRUE(lint_source("src/avsec/core/stats.cpp", src).empty());
  EXPECT_TRUE(lint_source("bench/bench_campaign_resilience.cpp", src)
                  .empty());
}

TEST(LintPerf, MergeTreeFoldRawReductionIsFlagged) {
  // The campaign fold (DESIGN.md §8) merges per-block aggregates through
  // core::Accumulator's block-merge; a raw '+=' over block sums inside the
  // pairwise reduction is exactly the drift R3 exists to stop. Member
  // folds (blocks[i].sum += ...) stay out of scope — only the raw local
  // reductions at lines 17 and 26 fire.
  const auto findings = lint_source("src/avsec/fault/campaign.cpp",
                                    read_fixture("r3_merge_fold.cpp"));
  const std::vector<std::pair<std::string, int>> expected = {{"R3", 17},
                                                             {"R3", 26}};
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintPerf, MergeTreeFoldExemptInAccumulatorHomeAndBenches) {
  const std::string src = read_fixture("r3_merge_fold.cpp");
  EXPECT_TRUE(lint_source("src/avsec/core/stats.cpp", src).empty());
  EXPECT_TRUE(lint_source("bench/bench_campaign_parallel.cpp", src).empty());
}

TEST(LintR4, IncludeGuardHeaderIsFlagged) {
  const auto findings = lint_source("src/avsec/x/guard.hpp",
                                    read_fixture("r4_include_guard.hpp"));
  const std::vector<std::pair<std::string, int>> expected = {{"R4", 3}};
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintR4, LatePragmaIsFlagged) {
  const auto findings = lint_source("src/avsec/x/late.hpp",
                                    read_fixture("r4_late_pragma.hpp"));
  const std::vector<std::pair<std::string, int>> expected = {{"R4", 3}};
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintR4, WellFormedHeaderAndNonHeaderPass) {
  EXPECT_TRUE(
      lint_source("src/avsec/x/ok.hpp", read_fixture("r4_ok.hpp")).empty());
  // The same guard-style content in a .cpp is not R4's business.
  EXPECT_TRUE(lint_source("src/avsec/x/guard.cpp",
                          read_fixture("r4_include_guard.hpp"))
                  .empty());
}

TEST(LintR0, MalformedSuppressionIsReportedAndDoesNotSuppress) {
  const auto findings = lint_source("tests/some/bad_allow.cpp",
                                    read_fixture("r0_malformed_allow.cpp"));
  const std::vector<std::pair<std::string, int>> expected = {{"R0", 5},
                                                             {"R1", 6}};
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintNegatives, CleanFixtureIsCleanUnderEveryLabel) {
  const std::string src = read_fixture("clean.cpp");
  for (const char* label :
       {"lib/fault/clean.cpp", "src/avsec/collab/clean.cpp",
        "tests/ids/clean.cpp", "src/avsec/health/clean.cpp"}) {
    const auto findings = lint_source(label, src);
    EXPECT_TRUE(findings.empty())
        << label << ": " << (findings.empty() ? "" : format(findings[0]));
  }
}

TEST(LintReport, FormatIsDiffFriendly) {
  Finding f;
  f.file = "src/avsec/x/y.cpp";
  f.line = 12;
  f.rule = "R1";
  f.message = "nondeterminism";
  f.excerpt = "std::rand();";
  EXPECT_EQ(format(f),
            "src/avsec/x/y.cpp:12: [R1] nondeterminism\n    | std::rand();");
}

TEST(LintFindings, OrderedByFileLineRule) {
  Finding a, b, c;
  a.file = "a.cpp";
  a.line = 9;
  a.rule = "R3";
  b.file = "a.cpp";
  b.line = 2;
  b.rule = "R1";
  c.file = "b.cpp";
  c.line = 1;
  c.rule = "R1";
  std::vector<Finding> v = {c, a, b};
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v[0].line, 2);
  EXPECT_EQ(v[1].line, 9);
  EXPECT_EQ(v[2].file, "b.cpp");
}

// ---------------------------------------------------------------------------
// Whole-program rules (pass 2) — exercised through lint_sources, the same
// index-then-analyze pipeline the scan driver runs.
// ---------------------------------------------------------------------------

TEST(LintR5, FlagsTransitiveTaintAtEveryCallEdge) {
  const auto findings = lint_sources(
      {{"src/avsec/sim/step_delay.cpp", read_fixture("r5_taint_chain.cpp")}});
  const std::vector<std::pair<std::string, int>> expected = {
      {"R1", 8},   // the direct steady_clock read
      {"R5", 10},  // jitter_ns() -> read_clock_ns()
      {"R5", 12},  // step_delay() -> jitter_ns() (transitive)
  };
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintR5, SourceSideWaiverSilencesTheWholeIsland) {
  const auto findings = lint_sources(
      {{"src/avsec/sim/step_delay.cpp", read_fixture("r5_suppressed.cpp")}});
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : format(findings[0]));
}

TEST(LintR5, BenchFilesAreBarriersNotSeeds) {
  // The same chain under bench/ is R1-exempt and a taint barrier: timing
  // harness code may read the wall clock without poisoning callers.
  const auto findings = lint_sources(
      {{"bench/bench_step_delay.cpp", read_fixture("r5_taint_chain.cpp")}});
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : format(findings[0]));
}

TEST(LintR5, TaintCrossesFileBoundaries) {
  // The clock read lives in one file (R1 waived there), the caller in
  // another: only pass 2 over the merged index can connect them.
  const std::string clock_util =
      "#include <chrono>\n"
      "// AVSEC-LINT-ALLOW(R1): fixture source file\n"
      "long raw_ns() { return std::chrono::steady_clock::now()"
      ".time_since_epoch().count(); }\n";
  const std::string caller =
      "long raw_ns();\n"
      "long step() { return raw_ns() + 1; }\n";
  const auto findings = lint_sources(
      {{"src/avsec/sim/clock_util.cpp", clock_util},
       {"src/avsec/sim/step.cpp", caller}});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/avsec/sim/step.cpp");
  EXPECT_EQ(findings[0].rule, "R5");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintR6, FlagsMemberMissedByReset) {
  const auto findings = lint_sources(
      {{"src/avsec/fault/context_pool.hpp", read_fixture("r6_reset_gap.hpp")}});
  const std::vector<std::pair<std::string, int>> expected = {{"R6", 13}};
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintR6, WaiverAtMemberDeclarationLintsClean) {
  const auto findings = lint_sources(
      {{"src/avsec/fault/context_pool.hpp", read_fixture("r6_suppressed.hpp")}});
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : format(findings[0]));
}

TEST(LintR6, OnlyPooledPathsAreHeldToResetCompleteness) {
  // The same gap outside the pooled-class path set is not a finding: R6
  // is a contract for reused objects, not every class.
  const auto findings = lint_sources(
      {{"src/avsec/health/context_pool.hpp", read_fixture("r6_reset_gap.hpp")}});
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : format(findings[0]));
}

TEST(LintR7, FlagsBareTouchOfGuardedMember) {
  const auto findings = lint_sources(
      {{"src/avsec/serve/job_queue.cpp",
        read_fixture("r7_unguarded_touch.cpp")}});
  const std::vector<std::pair<std::string, int>> expected = {{"R7", 16}};
  EXPECT_EQ(rule_lines(findings), expected);
}

TEST(LintR7, WaiverAtTouchLintsClean) {
  const auto findings = lint_sources(
      {{"src/avsec/serve/job_queue.cpp", read_fixture("r7_suppressed.cpp")}});
  EXPECT_TRUE(findings.empty())
      << (findings.empty() ? "" : format(findings[0]));
}

// ---------------------------------------------------------------------------
// Scan driver: cold/warm cache identity and SARIF shape.
// ---------------------------------------------------------------------------

TEST(LintDriver, WarmCacheReproducesColdReportByteForByte) {
  avsec::lint::ScanOptions opts;
  opts.root = AVSEC_LINT_FIXTURE_DIR;
  opts.inputs = {"r5_taint_chain.cpp", "r7_unguarded_touch.cpp"};
  opts.cache_path =
      ::testing::TempDir() + "/avsec_lint_cache_roundtrip.tsv";
  std::remove(opts.cache_path.c_str());

  const avsec::lint::ScanResult cold = avsec::lint::scan_tree(opts);
  ASSERT_FALSE(cold.io_error) << cold.io_error_path;
  EXPECT_EQ(cold.files_scanned, 2u);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_FALSE(cold.findings.empty());

  const avsec::lint::ScanResult warm = avsec::lint::scan_tree(opts);
  ASSERT_FALSE(warm.io_error) << warm.io_error_path;
  EXPECT_EQ(warm.cache_hits, 2u);
  EXPECT_EQ(avsec::lint::render_report(warm),
            avsec::lint::render_report(cold));

  std::remove(opts.cache_path.c_str());
}

TEST(LintDriver, PreviousCacheFormatIsRefused) {
  // A v2 cache carried per-member fields v3 no longer has; loading one
  // under the old header must fall back to a cold scan, not misparse.
  avsec::lint::ScanOptions opts;
  opts.root = AVSEC_LINT_FIXTURE_DIR;
  opts.inputs = {"r7_unguarded_touch.cpp"};
  opts.cache_path = ::testing::TempDir() + "/avsec_lint_cache_v2.tsv";
  std::remove(opts.cache_path.c_str());
  const avsec::lint::ScanResult cold = avsec::lint::scan_tree(opts);
  ASSERT_FALSE(cold.io_error) << cold.io_error_path;

  std::string body;
  {
    std::ifstream in(opts.cache_path);
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header, "avsec-lint-cache v3");
    std::ostringstream rest;
    rest << in.rdbuf();
    body = rest.str();
  }
  std::ofstream(opts.cache_path) << "avsec-lint-cache v2\n" << body;

  const avsec::lint::ScanResult again = avsec::lint::scan_tree(opts);
  EXPECT_EQ(again.cache_hits, 0u);
  EXPECT_EQ(avsec::lint::render_report(again),
            avsec::lint::render_report(cold));
  std::remove(opts.cache_path.c_str());
}

TEST(LintDriver, SarifNamesEveryFiredRule) {
  Finding f;
  f.file = "src/avsec/x/y.cpp";
  f.line = 7;
  f.rule = "R5";
  f.message = "reaches a nondeterminism source";
  f.excerpt = "jitter_ns();";
  const std::string doc = avsec::lint::render_sarif({f});
  EXPECT_NE(doc.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(doc.find("\"ruleId\": \"R5\""), std::string::npos);
  EXPECT_NE(doc.find("src/avsec/x/y.cpp"), std::string::npos);
  EXPECT_NE(doc.find("\"startLine\": 7"), std::string::npos);
}

TEST(LintDriver, ContentHashIsStableAndContentSensitive) {
  const auto h1 = avsec::lint::content_hash("int x = 1;\n");
  const auto h2 = avsec::lint::content_hash("int x = 1;\n");
  const auto h3 = avsec::lint::content_hash("int x = 2;\n");
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
}

}  // namespace
