// avsec-lint CLI: scans the given files/directories (default: src tests
// bench examples tools under --root) and prints findings in a
// diff-friendly `file:line: [Rn] message` format. Exit status 0 = clean,
// 1 = findings, 2 = usage/IO error.
//
// Typical invocations:
//   avsec-lint --root . src tests bench examples tools
//   avsec-lint --root . --jobs 8 --sarif lint.sarif
//   avsec-lint src/avsec/fault/campaign.cpp
//   avsec-lint --list-rules
//
// The report on stdout and the SARIF file are byte-identical across
// --jobs values; timing goes to stderr so CI can diff stdout directly.
// main() owns every output: scan_tree only reads the tree.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "avsec-lint/driver.hpp"

namespace {

constexpr const char* kUsage =
    "usage: avsec-lint [--root DIR] [--jobs N] [--sarif FILE]\n"
    "                  [--list-rules] [path...]\n"
    "  Scans C++ sources for determinism/hygiene violations (R1-R7).\n"
    "  Paths are files or directories (recursed); default: src tests\n"
    "  bench examples tools. Fixture trees (tests/tools/fixtures) and\n"
    "  build directories are skipped.\n"
    "  --jobs N    scan files on up to N worker threads; 0 or 1 scans\n"
    "              serially (report is identical)\n"
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

// Strict: digits only, no sign, no overflow.
bool parse_jobs(const char* text, std::size_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end;
}

// False when the file cannot be opened, is short-written or fails to close.
bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && written;
}

}  // namespace

int main(int argc, char** argv) {
  avsec::lint::ScanOptions opts;
  std::string sarif_path;
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
      const char* value = next("--jobs");
      if (!parse_jobs(value, opts.jobs)) {
        std::fprintf(stderr,
                     "avsec-lint: --jobs needs a non-negative integer, "
                     "got '%s'\n%s",
                     value, kUsage);
        return 2;
      }
      continue;
    }
    if (arg == "--sarif") {
      sarif_path = next("--sarif");
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
  std::fprintf(stderr, "avsec-lint: %zu file%s, %lld ms (workers=%zu)\n",
               res.files_scanned, res.files_scanned == 1 ? "" : "s",
               static_cast<long long>(ms), res.workers);
  if (!sarif_path.empty() &&
      !write_file(sarif_path, avsec::lint::render_sarif(res.findings))) {
    std::fprintf(stderr, "avsec-lint: cannot write '%s'\n",
                 sarif_path.c_str());
    return 2;
  }
  return res.findings.empty() ? 0 : 1;
}
