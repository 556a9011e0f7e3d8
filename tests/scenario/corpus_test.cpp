// The corpus gate: every committed .avsc parses, compiles, round-trips,
// passes its oracles under supervision, and produces byte-identical
// campaign reports at 1, 2 and 8 workers. The committed COVERAGE.txt must
// byte-match the regenerated report, so coverage regressions show up as a
// diff in review, not silently; the committed REPORTS.txt pins every
// scenario's report bytes the same way, across commits, and UNIVERSE.txt
// pins one generated scenario per cell of the whole validity matrix.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "avsec/scenario/scenario.hpp"

#ifndef AVSEC_SCENARIO_CORPUS_DIR
#error "AVSEC_SCENARIO_CORPUS_DIR must point at the committed scenarios/"
#endif

namespace avsec::scenario {
namespace {

const Corpus& corpus() {
  static const Corpus c = load_corpus(AVSEC_SCENARIO_CORPUS_DIR);
  return c;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The report digest line of `s` swept at `workers`.
std::string digest_line(const CompiledScenario& s, std::size_t workers) {
  const fault::CampaignReport r = s.campaign(workers).sweep(
      [&s](fault::SimContext& ctx, std::uint64_t seed) {
        return s.run(ctx.sim(), seed);
      });
  return report_digest_line(s.spec().name, r);
}

TEST(ScenarioCorpus, LoadsCleanWithAtLeast50Scenarios) {
  for (const std::string& e : corpus().errors) ADD_FAILURE() << e;
  EXPECT_GE(corpus().entries.size(), 50u);
}

TEST(ScenarioCorpus, NamesAreUniqueAndFindable) {
  std::set<std::string> names;
  for (const CorpusEntry& e : corpus().entries) {
    EXPECT_TRUE(names.insert(e.compiled.spec().name).second)
        << e.compiled.spec().name;
  }
  ASSERT_NE(corpus().find("can-baseline"), nullptr);
  EXPECT_EQ(corpus().find("can-baseline")->spec().topology, Topology::kCan);
  EXPECT_EQ(corpus().find("no-such-scenario"), nullptr);
}

TEST(ScenarioCorpus, EveryFileRoundTripsThroughCanonicalText) {
  for (const CorpusEntry& e : corpus().entries) {
    const ParseResult direct = parse_scenario_file(e.path);
    ASSERT_TRUE(direct.ok) << direct.error.to_string();
    const ParseResult again =
        parse_scenario_text(canonical_text(direct.spec), e.path);
    ASSERT_TRUE(again.ok) << again.error.to_string();
    EXPECT_EQ(direct.spec, again.spec) << e.path;
  }
}

TEST(ScenarioCorpus, CommittedCoverageReportIsCurrent) {
  const std::string committed =
      read_file(std::string(AVSEC_SCENARIO_CORPUS_DIR) + "/COVERAGE.txt");
  ASSERT_FALSE(committed.empty())
      << "scenarios/COVERAGE.txt missing — regenerate with "
         "example_scenario_run --coverage";
  const std::string regenerated = corpus_coverage(corpus()).report_text();
  EXPECT_EQ(committed, regenerated)
      << "scenarios/COVERAGE.txt is stale — regenerate with "
         "example_scenario_run --coverage scenarios/COVERAGE.txt "
         "scenarios/*.avsc";
}

// The tentpole determinism + oracle gate. Supervision is enabled by
// campaign_config(), so a runaway scenario quarantines instead of hanging
// the suite; oracles run as campaign invariants on every seeded run.
TEST(ScenarioCorpus, EveryScenarioPassesOraclesAtAnyWorkerCount) {
  ASSERT_TRUE(corpus().ok());
  for (const CorpusEntry& e : corpus().entries) {
    const CompiledScenario& s = e.compiled;
    auto run = [&s](fault::SimContext& ctx, std::uint64_t seed) {
      return s.run(ctx.sim(), seed);
    };
    const fault::CampaignReport r1 = s.campaign(1).sweep(run);
    const fault::CampaignReport r2 = s.campaign(2).sweep(run);
    const fault::CampaignReport r8 = s.campaign(8).sweep(run);
    EXPECT_TRUE(r1.all_passed()) << s.spec().name << " violated oracles";
    if (!r1.all_passed()) {
      for (const auto& [name, count] : r1.violations) {
        ADD_FAILURE() << s.spec().name << ": " << name << " (" << count
                      << " runs)";
      }
    }
    EXPECT_EQ(r1.quarantined_runs, 0u) << s.spec().name;
    EXPECT_TRUE(fault::identical(r1, r2)) << s.spec().name << " @2 workers";
    EXPECT_TRUE(fault::identical(r1, r8)) << s.spec().name << " @8 workers";
  }
}

// Cross-commit byte identity: a change that moves any metric, status or
// attempt count of any corpus run changes a digest here. REPORTS.txt is
// generated, never hand-edited; a PR that regenerates it says why.
TEST(ScenarioCorpus, CommittedReportDigestsMatchAtOneAndFourWorkers) {
  ASSERT_TRUE(corpus().ok());
  const std::string committed =
      read_file(std::string(AVSEC_SCENARIO_CORPUS_DIR) + "/REPORTS.txt");
  ASSERT_FALSE(committed.empty())
      << "scenarios/REPORTS.txt missing — generate with "
         "example_scenario_run --reports";
  for (const std::size_t workers : {1u, 4u}) {
    std::string regenerated;
    for (const CorpusEntry& e : corpus().entries) {
      regenerated += digest_line(e.compiled, workers);
    }
    EXPECT_EQ(committed, regenerated)
        << "report bytes drifted at " << workers
        << " workers; if deliberate, regenerate with example_scenario_run "
           "--reports scenarios/REPORTS.txt scenarios/*.avsc";
  }
}

// The corpus reaches only part of the cell universe; 122 generated specs
// walk the generator's whole permutation, one per cell, so every cell's
// lowering has its report bytes pinned across commits.
TEST(ScenarioCorpus, CommittedUniverseDigestsMatchAtOneAndFourWorkers) {
  const std::string committed =
      read_file(std::string(AVSEC_SCENARIO_CORPUS_DIR) + "/UNIVERSE.txt");
  ASSERT_FALSE(committed.empty())
      << "scenarios/UNIVERSE.txt missing — generate with "
         "example_scenario_run --generate 122 --seed 1 --reports";
  GeneratorConfig gcfg;
  gcfg.count = 122;
  gcfg.seed = 1;
  std::vector<CompiledScenario> universe;
  for (const ScenarioSpec& spec : generate(gcfg)) {
    CompileResult built = compile(spec);
    ASSERT_TRUE(built.ok) << built.error.to_string();
    universe.push_back(std::move(built.compiled));
  }
  for (const std::size_t workers : {1u, 4u}) {
    std::string regenerated;
    for (const CompiledScenario& s : universe) {
      regenerated += digest_line(s, workers);
    }
    EXPECT_EQ(committed, regenerated)
        << "universe report bytes drifted at " << workers
        << " workers; if deliberate, regenerate with example_scenario_run "
           "--generate 122 --seed 1 --reports scenarios/UNIVERSE.txt";
  }
}

TEST(ScenarioCorpus, RegistersIntoServeRegistryByName) {
  serve::ScenarioRegistry registry;
  const std::size_t added = register_corpus(corpus(), registry);
  EXPECT_EQ(added, corpus().entries.size());
  const std::vector<std::string> names = registry.names();
  EXPECT_GE(names.size(), 50u);
  const serve::Scenario* s = registry.find("heartbeat-hard-mute");
  ASSERT_NE(s, nullptr);
  fault::SimContext ctx;
  const fault::Metrics m = s->run_ctx(ctx, 7, serve::Scale::kSmoke);
  EXPECT_GE(m.at("beats_sent"), 1.0);
}

TEST(ScenarioCorpus, MissingDirectoryIsOneError) {
  const Corpus c = load_corpus("/nonexistent/scenario/dir");
  EXPECT_TRUE(c.entries.empty());
  ASSERT_EQ(c.errors.size(), 1u);
  EXPECT_EQ(c.errors[0], "/nonexistent/scenario/dir: cannot open directory");
}

TEST(ScenarioCorpus, DuplicateNamesAcrossFilesAreErrors) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "avsec_corpus_dup_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const char* file : {"a.avsc", "b.avsc"}) {
    std::ofstream((dir / file)) << "scenario twin\n  runs 1\n";
  }
  const Corpus c = load_corpus(dir.string());
  EXPECT_EQ(c.entries.size(), 1u);
  ASSERT_EQ(c.errors.size(), 1u);
  EXPECT_EQ(c.errors[0],
            (dir / "b.avsc").string() + ":1: duplicate scenario name 'twin'");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace avsec::scenario
