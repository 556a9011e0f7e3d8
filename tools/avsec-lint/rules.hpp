// avsec-lint rule engine.
//
// The linter enforces the repo's written-but-previously-unchecked
// determinism and hygiene invariants (DESIGN.md "Static analysis &
// determinism invariants"):
//
//   R1  no nondeterminism sources (std::rand, std::random_device, wall
//       clocks, __DATE__/__TIME__) outside core/rng and bench/ — every
//       simulation draw must come from a seeded core::Rng and every
//       timestamp from core::SimTime, or campaign sweeps stop being
//       byte-identical across machines and worker counts.
//   R2  no iteration over unordered_{map,set} in aggregation/reporting
//       paths (fault/, core/stats, health/, ids/correlation) — hash-order
//       iteration leaks platform-dependent ordering into CampaignReport
//       and correlator output.
//   R3  no raw floating-point `+=` reduction loops in src/ outside
//       core/stats — folds that feed reports must go through
//       core::Accumulator so parallel merges stay bit-stable.
//   R4  every header opens with `#pragma once` (self-containment is
//       enforced separately by the avsec_header_selfcontained target).
//
// Suppression protocol: a finding is silenced by a comment on the same
// line or the line directly above:
//
//   // AVSEC-LINT-ALLOW(R1): wall-clock speedup report, not sim state
//
// The rule id must match and the reason must be non-empty; a malformed
// ALLOW is itself reported (rule id R0) so suppressions cannot rot
// silently.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "avsec-lint/index.hpp"

namespace avsec::lint {

struct Finding {
  std::string file;  // root-relative label, forward slashes
  int line = 0;
  std::string rule;     // "R0".."R7"
  std::string message;  // human explanation, one line
  std::string excerpt;  // trimmed source line
};

/// Stable ordering for reports: file, then line, then rule id.
bool operator<(const Finding& a, const Finding& b);

/// `file:line: [Rn] message` followed by the indented excerpt — grep- and
/// diff-friendly, one finding per pair of lines.
std::string format(const Finding& f);

/// Which rules apply is derived from the file's root-relative label, so
/// callers (CLI and tests) control classification by choosing the label.
struct PathClass {
  bool r1_exempt = false;      // core/rng.* and bench/ may read clocks
  bool r2_applies = false;     // aggregation/reporting paths only
  bool r3_applies = false;     // src/ and tools/ outside core/stats
  bool header = false;         // R4 target
  // Whole-program (R5-R7) scopes, all derived from the label too:
  bool wpa = false;            // R5 call-graph scope: sim/reporting src/
  bool barrier = false;        // taint barrier: core/rng.* and bench/
  bool r6_pool = false;        // pooled-reuse classes live here (reset law)
};
PathClass classify_path(std::string_view label);

/// Lints one translation unit. `label` is the root-relative path used for
/// both classification and the findings' `file` field.
std::vector<Finding> lint_source(const std::string& label,
                                 std::string_view source);

/// Per-line findings plus the pass-1 index, from a single lex. This is the
/// unit of work the parallel driver runs per file.
struct AnalyzedFile {
  std::vector<Finding> findings;  // R0-R4, suppressions already applied
  FileIndex index;
};
AnalyzedFile analyze_source(const std::string& label, std::string_view source);

}  // namespace avsec::lint
