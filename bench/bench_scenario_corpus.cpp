// bench_scenario_corpus: end-to-end cost of the scenario pipeline over the
// committed corpus — parse every .avsc, compile every spec, then sweep every
// compiled scenario's campaign at 1/2/8 workers.
//
// Arms:
//   parse_all      raw text -> ScenarioSpec for every corpus file
//   compile_all    ScenarioSpec -> CompiledScenario (validity matrix)
//   run_wN         full-scale corpus campaign sweep at N workers
//
// The worker arms double as a determinism check: the sweep reports at 2 and
// 8 workers must be byte-identical to the serial reference (fault::identical),
// so a scheduling regression shows up as a bench failure, not just a slower
// number. Exit is non-zero on any parse/compile error, oracle violation, or
// report divergence.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "avsec/scenario/scenario.hpp"
#include "harness.hpp"

namespace {

using namespace avsec;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("scenario_corpus", argc, argv);
  const std::string dir = AVSEC_SCENARIO_CORPUS_DIR;

  // Load once up front for the file list; the timed arms re-do the work so
  // each arm measures exactly one pipeline stage.
  const scenario::Corpus corpus = scenario::load_corpus(dir);
  for (const std::string& err : corpus.errors) {
    std::fprintf(stderr, "corpus error: %s\n", err.c_str());
  }
  if (!corpus.ok() || corpus.entries.empty()) return 1;
  const std::size_t n = corpus.entries.size();

  std::vector<std::string> texts;
  texts.reserve(n);
  for (const scenario::CorpusEntry& e : corpus.entries) {
    texts.push_back(slurp(e.path));
  }

  bool ok = true;

  // Arm 1: parse every file's bytes.
  std::vector<scenario::ScenarioSpec> specs;
  specs.reserve(n);
  h.time("parse_all", static_cast<double>(n), [&] {
    for (std::size_t i = 0; i < n; ++i) {
      scenario::ParseResult r =
          scenario::parse_scenario_text(texts[i], corpus.entries[i].path);
      if (!r.ok) {
        std::fprintf(stderr, "parse: %s\n", r.error.to_string().c_str());
        ok = false;
        continue;
      }
      specs.push_back(std::move(r.spec));
    }
  });
  if (specs.size() != n) return 1;

  // Arm 2: compile every spec against the validity matrix.
  std::vector<scenario::CompiledScenario> compiled;
  compiled.reserve(n);
  h.time("compile_all", static_cast<double>(n), [&] {
    for (const scenario::ScenarioSpec& spec : specs) {
      scenario::CompileResult r = scenario::compile(spec);
      if (!r.ok) {
        std::fprintf(stderr, "compile: %s\n", r.error.to_string().c_str());
        ok = false;
        continue;
      }
      compiled.push_back(std::move(r.compiled));
    }
  });
  if (compiled.size() != n) return 1;

  // Arm 3: sweep the corpus at full scale per worker count, holding the
  // 1-worker reports as the byte-identity reference. Oracles are calibrated
  // against the full horizon, so the run arm never uses kSmoke — --smoke
  // trims the scenario count instead.
  const std::size_t limit = h.iters(n, n < 12 ? n : 12);
  std::vector<fault::CampaignReport> reference;
  reference.reserve(limit);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    std::uint64_t total_runs = 0;
    h.time("run_w" + std::to_string(workers),
           static_cast<double>(limit), [&] {
             for (std::size_t i = 0; i < limit; ++i) {
               const scenario::CompiledScenario& s = compiled[i];
               auto run = [&s](fault::SimContext& ctx, std::uint64_t seed) {
                 return s.run(ctx.sim(), seed);
               };
               fault::CampaignReport r = s.campaign(workers).sweep(run);
               total_runs += s.spec().runs;
               if (workers == 1) {
                 reference.push_back(std::move(r));
               } else if (!fault::identical(reference[i], r)) {
                 std::fprintf(stderr, "%s: report differs at %zu workers\n",
                              s.spec().name.c_str(), workers);
                 ok = false;
               }
             }
           });
    if (workers == 1) {
      for (std::size_t i = 0; i < limit; ++i) {
        if (!reference[i].all_passed() ||
            reference[i].quarantined_runs != 0) {
          std::fprintf(stderr, "%s: oracle violation or quarantine\n",
                       compiled[i].spec().name.c_str());
          ok = false;
        }
      }
    }
    std::printf("run_w%zu: %zu scenarios, %llu runs\n", workers, limit,
                static_cast<unsigned long long>(total_runs));
  }

  std::printf("corpus: %zu scenarios, identical at 1/2/8 workers: %s\n", n,
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
