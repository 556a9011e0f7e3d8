// avsec-lint pass 2: whole-program rules over the merged project index.
//
//   R5  transitive nondeterminism taint — propagates R1's source set
//       through the call graph. A function body that reads a wall clock /
//       random_device (directly or through a file-local `using` alias)
//       seeds taint; taint flows caller-ward along resolvable calls; every
//       call site in sim/reporting code (src/) whose callee is tainted is
//       flagged with the witness chain down to the source. core/rng and
//       bench/ are barriers: edges into them never propagate. A seed is
//       waived at the source with ALLOW(R5) on its source line (meaning:
//       this wall-clock island is by design and callers are fine), or a
//       single call site is waived with ALLOW(R5) at the call.
//   R6  reset-completeness — for classes declared in the pooled-reuse
//       paths (fault/context, core/scheduler, obs/trace, obs/metrics,
//       serve/server) that expose reset() (or clear() when no
//       reset() exists), every data member must be mentioned by the reset
//       body or carry ALLOW(R6) on its declaration. This is the static
//       half of the reset-determinism contract (DESIGN.md §8).
//   R7  guarded-member discipline — a member carrying AVSEC_GUARDED_BY(mu)
//       may only be touched inside methods of its class that lock mu (RAII
//       guard or .lock()) or declare AVSEC_REQUIRES(mu). Constructors and
//       destructors are exempt (single-threaded by construction). This is
//       the gcc-build analogue of clang -Wthread-safety.
//
// All pass-2 findings are attributed to a concrete (file, line) — member
// declaration, call site, or touch — and the ALLOW machinery works there
// exactly as it does for R1-R4 (each FileIndex carries its suppressions).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "avsec-lint/index.hpp"
#include "avsec-lint/rules.hpp"

namespace avsec::lint {

/// The merged pass-1 output for every scanned file, sorted by label. The
/// excerpts for pass-2 findings are resolved by the driver (the project
/// pass itself never re-reads sources), so Finding.excerpt is empty here.
struct ProjectIndex {
  std::vector<FileIndex> files;
};

/// Runs R5-R7 over the merged index. Findings are sorted and already
/// filtered through each file's suppressions (R0 for malformed waivers is
/// emitted by pass 1, not here).
std::vector<Finding> lint_project(const ProjectIndex& pi);

/// Full pipeline over in-memory sources: per-line pass on each file, then
/// the project pass over the merged indexes; one sorted findings list.
/// This is exactly what the driver does for a filesystem scan, and
/// what fixture tests use to exercise R5-R7 deterministically.
std::vector<Finding> lint_sources(
    const std::vector<std::pair<std::string, std::string>>& label_and_source);

}  // namespace avsec::lint
