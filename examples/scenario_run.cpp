// Scenario runner: parse .avsc files (or generate a batch from a seed),
// compile them onto the fault/netsim/health machinery, and sweep each one
// as a supervised campaign with its oracles as invariants.
//
// This is the DSL's front door (DESIGN.md §15): the same parse → compile
// → campaign path the corpus tests and avsec-serve use, exposed as a CLI.
//
//   example_scenario_run scenarios/*.avsc          # run a corpus
//   example_scenario_run --generate 8 --seed 42    # sample the matrix
//   example_scenario_run --generate 20 --emit dir  # write .avsc files
//   example_scenario_run --coverage cov.txt s/*.avsc
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "avsec/core/thread_pool.hpp"
#include "avsec/obs/obs.hpp"
#include "avsec/scenario/scenario.hpp"

using namespace avsec;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] [file.avsc ...]\n"
               "  --generate N     generate N scenarios from the validity "
               "matrix\n"
               "  --seed S         generator seed (default 1)\n"
               "  --emit DIR       write generated scenarios to DIR/<name>."
               "avsc and exit\n"
               "  --list           parse + compile only; print names and "
               "exit\n"
               "  --smoke          run at smoke scale (horizon/5)\n"
               "  --workers N      sweep workers (default: hardware)\n"
               "  --manifest FILE  journal sweeps (FILE, or FILE.<n> when "
               "several)\n"
               "  --trace FILE     Perfetto trace of the first scenario's "
               "first seed\n"
               "  --coverage FILE  write coverage report (text, or JSON for "
               "*.json; '-' = stdout)\n",
               argv0);
  return 2;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t gen_count = 0;
  std::uint64_t gen_seed = 1;
  const char* emit_dir = nullptr;
  bool list_only = false;
  bool smoke = false;
  std::size_t workers = core::ThreadPool::default_workers();
  const char* manifest_path = nullptr;
  const char* trace_path = nullptr;
  const char* coverage_path = nullptr;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--generate") == 0 && i + 1 < argc) {
      gen_count = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      gen_seed = static_cast<std::uint64_t>(std::strtoull(argv[++i], nullptr,
                                                          10));
    } else if (std::strcmp(argv[i], "--emit") == 0 && i + 1 < argc) {
      emit_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list_only = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::atoll(argv[++i]));
      if (workers == 0) workers = core::ThreadPool::default_workers();
    } else if (std::strcmp(argv[i], "--manifest") == 0 && i + 1 < argc) {
      manifest_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--coverage") == 0 && i + 1 < argc) {
      coverage_path = argv[++i];
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.empty() && gen_count == 0) return usage(argv[0]);

  // --- assemble the scenario set: files first, then generated specs ---
  std::vector<scenario::CompiledScenario> scenarios;
  for (const std::string& path : files) {
    scenario::ParseResult parsed = scenario::parse_scenario_file(path);
    if (!parsed.ok) {
      std::fprintf(stderr, "%s\n", parsed.error.to_string().c_str());
      return 2;
    }
    scenario::CompileResult built = scenario::compile(parsed.spec);
    if (!built.ok) {
      std::fprintf(stderr, "%s\n", built.error.to_string().c_str());
      return 2;
    }
    scenarios.push_back(std::move(built.compiled));
  }
  if (gen_count > 0) {
    scenario::GeneratorConfig gcfg;
    gcfg.count = gen_count;
    gcfg.seed = gen_seed;
    for (const scenario::ScenarioSpec& spec : scenario::generate(gcfg)) {
      scenario::CompileResult built = scenario::compile(spec);
      if (!built.ok) {  // generator bug: generated specs must compile
        std::fprintf(stderr, "generated spec rejected: %s\n",
                     built.error.to_string().c_str());
        return 2;
      }
      scenarios.push_back(std::move(built.compiled));
    }
  }

  if (emit_dir != nullptr) {
    for (const scenario::CompiledScenario& s : scenarios) {
      const std::string path =
          std::string(emit_dir) + "/" + s.spec().name + ".avsc";
      if (!write_file(path, scenario::canonical_text(s.spec()))) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 2;
      }
      std::printf("wrote %s\n", path.c_str());
    }
    return 0;
  }

  if (list_only) {
    for (const scenario::CompiledScenario& s : scenarios) {
      std::printf("%-44s %-9s %-6s %-10s %zu oracles\n", s.spec().name.c_str(),
                  scenario::topology_name(s.spec().topology),
                  scenario::protocol_name(s.spec().protocol),
                  scenario::posture_name(s.spec().defense),
                  s.spec().oracles.size());
    }
    return 0;
  }

  // --- coverage over the whole set ---
  if (coverage_path != nullptr) {
    scenario::CoverageMap cov;
    for (const scenario::CompiledScenario& s : scenarios) cov.record(s.spec());
    const std::string report = ends_with(coverage_path, ".json")
                                   ? cov.report_json()
                                   : cov.report_text();
    if (std::strcmp(coverage_path, "-") == 0) {
      std::fputs(report.c_str(), stdout);
    } else if (!write_file(coverage_path, report)) {
      std::fprintf(stderr, "cannot write %s\n", coverage_path);
      return 2;
    } else {
      std::printf("coverage (%zu/%zu cells over %zu scenarios) -> %s\n",
                  cov.covered(), cov.universe(), cov.scenarios(),
                  coverage_path);
    }
  }

  const serve::Scale scale = smoke ? serve::Scale::kSmoke : serve::Scale::kFull;

  // --- sweep every scenario: serial reference vs requested workers ---
  std::printf("\n%-44s %5s %8s %6s %s\n", "scenario", "runs", "wall-ms",
              "ident", "verdict");
  bool all_passed = true;
  bool all_identical = true;
  std::size_t index = 0;
  for (const scenario::CompiledScenario& s : scenarios) {
    auto run = [&s, scale](fault::SimContext& ctx, std::uint64_t seed) {
      return s.run(ctx.sim(), seed, scale);
    };
    const fault::CampaignReport serial = s.campaign(1).sweep(run);

    fault::Campaign parallel = s.campaign(workers);
    if (manifest_path != nullptr) {
      fault::CampaignConfig cfg = s.campaign_config(workers);
      cfg.manifest_path = scenarios.size() == 1
                              ? std::string(manifest_path)
                              : std::string(manifest_path) + "." +
                                    std::to_string(index);
      parallel = fault::Campaign(cfg);
      for (const scenario::Oracle& o : s.spec().oracles) {
        // Rebuild the oracle invariants the manifest-less campaign() wires.
        parallel.require(
            o.metric + " " + scenario::oracle_op_name(o.op) + " " +
                scenario::double_literal(o.value),
            [o](const fault::Metrics& m) {
              const auto it = m.find(o.metric);
              return it != m.end() &&
                     scenario::oracle_holds(o.op, it->second, o.value);
            });
      }
    }
    // AVSEC-LINT-ALLOW(R1): wall-clock column reports host time, not sim state
    const auto t0 = std::chrono::steady_clock::now();
    const fault::CampaignReport report = parallel.sweep(run);
    // AVSEC-LINT-ALLOW(R1): wall-clock column reports host time, not sim state
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    const bool identical = fault::identical(serial, report);
    const bool passed = report.all_passed();
    all_passed &= passed;
    all_identical &= identical;
    std::printf("%-44s %5zu %8.1f %6s %s\n", s.spec().name.c_str(),
                report.runs, wall_ms, identical ? "yes" : "NO",
                passed ? "pass" : "FAIL");
    if (!passed) {
      for (const auto& [name, count] : report.violations) {
        std::printf("    violated: %s (%zu runs)\n", name.c_str(), count);
      }
      std::printf("    failing seeds:");
      for (auto seed : report.failing_seeds()) {
        std::printf(" %llu", static_cast<unsigned long long>(seed));
      }
      std::printf("\n");
    }
    ++index;
  }

  if (trace_path != nullptr && !scenarios.empty()) {
    const scenario::CompiledScenario& s = scenarios.front();
    obs::TraceRecorder rec;
    {
      obs::TraceScope scope(rec);
      core::Scheduler sim;
      s.run(sim, s.spec().seed, scale);
    }
    if (obs::write_chrome_trace(rec, trace_path)) {
      std::printf("wrote Perfetto trace of %s seed %llu to %s\n",
                  s.spec().name.c_str(),
                  static_cast<unsigned long long>(s.spec().seed), trace_path);
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_path);
      return 1;
    }
  }

  std::printf("\n%zu scenarios, %s, worker-count determinism %s\n",
              scenarios.size(), all_passed ? "all passed" : "FAILURES",
              all_identical ? "held" : "VIOLATED");
  return all_passed && all_identical ? 0 : 1;
}
