// avsec-lint CLI: scans the given files/directories (default: src tests
// bench examples tools under --root) and prints findings in a
// diff-friendly `file:line: [Rn] message` format. Exit status 0 = clean,
// 1 = findings, 2 = usage/IO error.
//
// Typical invocations:
//   avsec-lint --root . src tests bench examples tools
//   avsec-lint --root . --jobs 8 --cache build/lint.cache --sarif lint.sarif
//   avsec-lint src/avsec/fault/campaign.cpp
//   avsec-lint --list-rules
//
// The report on stdout is byte-identical across --jobs values and cache
// states; timing goes to stderr so CI can diff stdout directly.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "avsec-lint/driver.hpp"

namespace {

constexpr const char* kUsage =
    "usage: avsec-lint [--root DIR] [--jobs N] [--cache FILE]\n"
    "                  [--sarif FILE] [--list-rules] [path...]\n"
    "  Scans C++ sources for determinism/hygiene violations (R1-R7).\n"
    "  Paths are files or directories (recursed); default: src tests\n"
    "  bench examples tools. Fixture trees (tests/tools/fixtures) and\n"
    "  build directories are skipped.\n"
    "  --jobs N    scan files on N worker threads (report is identical)\n"
    "  --cache F   reuse per-file results for unchanged content hashes\n"
    "  --sarif F   also write findings as SARIF 2.1.0 to F\n";

constexpr const char* kRules =
    "R1  nondeterminism source (std::rand, random_device, wall clocks,\n"
    "    __DATE__/__TIME__) outside core/rng and bench/\n"
    "R2  iteration over unordered_{map,set} in aggregation/reporting\n"
    "    paths (fault/, core/stats, health/, ids/correlation)\n"
    "R3  raw floating-point '+=' reduction loop in src/ and tools/\n"
    "    outside core/stats (use core::Accumulator)\n"
    "R4  header does not open with '#pragma once'\n"
    "R5  call graph transitively reaches a nondeterminism source outside\n"
    "    core/rng and bench/ (whole-program taint)\n"
    "R6  pooled-class data member not reassigned by reset()\n"
    "    (reset-determinism contract, DESIGN.md section 8)\n"
    "R7  AVSEC_GUARDED_BY member touched in a method that neither locks\n"
    "    nor AVSEC_REQUIRES its mutex\n"
    "\n"
    "Suppress with: // AVSEC-LINT-ALLOW(<rule>): <reason>\n";

}  // namespace

int main(int argc, char** argv) {
  avsec::lint::ScanOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (arg == "--list-rules") {
      std::fputs(kRules, stdout);
      return 0;
    }
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "avsec-lint: %s needs an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      opts.root = next("--root");
      continue;
    }
    if (arg == "--jobs") {
      opts.jobs = static_cast<std::size_t>(
          std::strtoul(next("--jobs"), nullptr, 10));
      continue;
    }
    if (arg == "--cache") {
      opts.cache_path = next("--cache");
      continue;
    }
    if (arg == "--sarif") {
      opts.sarif_path = next("--sarif");
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "avsec-lint: unknown flag '%s'\n%s", arg.c_str(),
                   kUsage);
      return 2;
    }
    opts.inputs.push_back(arg);
  }
  if (opts.inputs.empty()) {
    opts.inputs = {"src", "tests", "bench", "examples", "tools"};
  }

  // Wall-clock timing is stderr-only operator feedback; the stdout report
  // stays a pure function of the tree.
  // AVSEC-LINT-ALLOW(R1): scan timing is operator feedback on stderr, never part of the deterministic report
  const auto t0 = std::chrono::steady_clock::now();
  const avsec::lint::ScanResult res = avsec::lint::scan_tree(opts);
  // AVSEC-LINT-ALLOW(R1): scan timing is operator feedback on stderr, never part of the deterministic report
  const auto t1 = std::chrono::steady_clock::now();
  if (res.io_error) {
    std::fprintf(stderr, "avsec-lint: cannot read '%s'\n",
                 res.io_error_path.c_str());
    return 2;
  }
  std::fputs(avsec::lint::render_report(res).c_str(), stdout);
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0).count();
  std::fprintf(stderr,
               "avsec-lint: %zu file%s, %zu cache hit%s, %lld ms "
               "(jobs=%zu)\n",
               res.files_scanned, res.files_scanned == 1 ? "" : "s",
               res.cache_hits, res.cache_hits == 1 ? "" : "s",
               static_cast<long long>(ms), opts.jobs == 0 ? 1 : opts.jobs);
  return res.findings.empty() ? 0 : 1;
}
