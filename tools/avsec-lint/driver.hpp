// avsec-lint scan driver: filesystem walk, parallel per-file analysis,
// and report/SARIF rendering.
//
// Determinism contract (the linter holds itself to the invariant it
// enforces): the stdout report is a pure function of the scanned file
// contents. The file list is sorted, per-file results land in
// index-ordered slots regardless of worker interleaving, and pass 2 runs
// over the label-sorted merged index — so `--jobs 1` and `--jobs N`
// render byte-identical reports and SARIF. The CI serial-vs-`--jobs`
// gate diffs exactly this.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "avsec-lint/project.hpp"
#include "avsec-lint/rules.hpp"

namespace avsec::lint {

struct ScanOptions {
  std::string root;                 // scan root; labels are root-relative
  std::vector<std::string> inputs;  // files or directories under root
  std::size_t jobs = 1;             // worker threads; <= 1 scans serially
};

struct ScanResult {
  std::vector<Finding> findings;   // per-line + whole-program, sorted
  std::size_t files_scanned = 0;
  std::size_t workers = 1;         // threads that lexed: min(jobs, files)
  bool io_error = false;
  std::string io_error_path;       // first unreadable path
};

/// Runs the full scan. Reads the tree only: writes no file and nothing to
/// stdout/stderr (rendering and output are the caller's job).
ScanResult scan_tree(const ScanOptions& opts);

/// The deterministic report: sorted findings in format() form followed by
/// the summary line. Identical bytes for identical tree contents.
std::string render_report(const ScanResult& res);

/// SARIF 2.1.0 document for GitHub code-scanning upload.
std::string render_sarif(const std::vector<Finding>& findings);

}  // namespace avsec::lint
