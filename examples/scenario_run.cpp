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
//   example_scenario_run --reports REPORTS.txt s/*.avsc
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "avsec/fault/cli.hpp"
#include "avsec/scenario/scenario.hpp"

using namespace avsec;

namespace {

// Every generated spec is compiled and held in memory before the sweep
// starts (about 10 KB each), so a count above this (about 80 passes over
// the cell universe) is refused instead of aborting in an allocation.
constexpr std::uint64_t kMaxGenerated = 10000;

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
               "  --coverage FILE  write coverage report (text, or JSON for "
               "*.json; '-' = stdout)\n"
               "  --reports FILE   write one report digest line per scenario "
               "('-' = stdout)\n"
               "%s"
               "With several scenarios, scenario n journals to FILE.<n>, "
               "and the trace replays\nthe first scenario.\n",
               argv0, fault::cli::flag_help());
  return 2;
}

/// False when the file cannot be opened, is short-written or fails to close.
bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && written;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  fault::cli::Options opts;
  std::string error = fault::cli::parse(argc, argv, opts);
  if (error.empty() && opts.trace_failing) {
    error = "failing-run trace dumps are not supported for scenarios";
  }
  if (!error.empty()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    return usage(argv[0]);
  }

  std::uint64_t gen_count = 0;
  std::uint64_t gen_seed = 1;
  const char* emit_dir = nullptr;
  bool list_only = false;
  bool smoke = false;
  const char* coverage_path = nullptr;
  const char* reports_path = nullptr;
  std::vector<std::string> files;
  const std::vector<std::string>& args = opts.rest;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool has_value = i + 1 < args.size();
    std::uint64_t* number = arg == "--generate" ? &gen_count
                            : arg == "--seed"   ? &gen_seed
                                                : nullptr;
    if (number != nullptr) {
      if (!has_value || !fault::cli::parse_u64(args[++i], *number)) {
        std::fprintf(stderr, "%s: %s needs a non-negative integer\n",
                     argv[0], arg.c_str());
        return usage(argv[0]);
      }
    } else if (arg == "--emit" && has_value) {
      emit_dir = args[++i].c_str();
    } else if (arg == "--list") {
      list_only = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--coverage" && has_value) {
      coverage_path = args[++i].c_str();
    } else if (arg == "--reports" && has_value) {
      reports_path = args[++i].c_str();
    } else if (arg[0] == '-') {
      return usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty() && gen_count == 0) return usage(argv[0]);
  if (gen_count > kMaxGenerated) {
    std::fprintf(stderr, "%s: --generate takes at most %llu scenarios\n",
                 argv[0], static_cast<unsigned long long>(kMaxGenerated));
    return usage(argv[0]);
  }

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
    gcfg.count = static_cast<std::size_t>(gen_count);
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
  bool trace_ok = true;
  std::string reports;
  for (std::size_t index = 0; index < scenarios.size(); ++index) {
    const scenario::CompiledScenario& s = scenarios[index];
    const auto run = [&s, scale](fault::SimContext& ctx, std::uint64_t seed) {
      return s.run(ctx.sim(), seed, scale);
    };
    const std::optional<fault::cli::Sweep> sw = fault::cli::sweep(
        opts,
        [&s](std::size_t workers, const std::string& manifest) {
          return s.campaign(workers, manifest);
        },
        run, scenarios.size() == 1 ? "" : "." + std::to_string(index));
    if (!sw) return 2;
    const fault::CampaignReport& report = sw->report;
    const bool passed = report.all_passed();
    all_passed &= passed;
    all_identical &= sw->identical;
    reports += scenario::report_digest_line(s.spec().name, report);
    std::printf("%-44s %5zu %8.1f %6s %s\n", s.spec().name.c_str(),
                report.runs, sw->parallel_ms, sw->identical ? "yes" : "NO",
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
    if (sw->resumed) fault::cli::print_journal(*sw);
    if (index == 0 && !opts.trace.empty()) {
      trace_ok = fault::cli::write_trace(report, run, opts.trace);
    }
  }

  if (reports_path != nullptr) {
    if (std::strcmp(reports_path, "-") == 0) {
      std::fputs(reports.c_str(), stdout);
    } else if (!write_file(reports_path, reports)) {
      std::fprintf(stderr, "cannot write %s\n", reports_path);
      return 2;
    } else {
      std::printf("report digests (%zu scenarios) -> %s\n", scenarios.size(),
                  reports_path);
    }
  }

  std::printf("\n%zu scenarios, %s, worker-count determinism %s\n",
              scenarios.size(), all_passed ? "all passed" : "FAILURES",
              all_identical ? "held" : "VIOLATED");
  return all_passed && all_identical && trace_ok ? 0 : 1;
}
