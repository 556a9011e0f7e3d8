// Corpus loading: a directory of .avsc files parsed, compiled, and ready
// to register with avsec-serve or sweep with the campaign engine.
//
// Files are loaded in sorted-path order (std::filesystem iteration order
// is not portable), so entry order — and everything derived from it,
// like coverage reports — is deterministic across platforms. Loading
// never throws: every bad file contributes one "file:line: message"
// diagnostic and the rest of the corpus still loads.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "avsec/fault/campaign.hpp"
#include "avsec/scenario/compile.hpp"
#include "avsec/scenario/coverage.hpp"
#include "avsec/serve/registry.hpp"

namespace avsec::scenario {

struct CorpusEntry {
  std::string path;           // source .avsc file
  CompiledScenario compiled;  // validated, runnable
};

struct Corpus {
  std::vector<CorpusEntry> entries;  // sorted by path
  std::vector<std::string> errors;   // "file:line: message" per bad file

  bool ok() const { return errors.empty(); }
  /// nullptr when no loaded scenario has `name`.
  const CompiledScenario* find(std::string_view name) const;
};

/// Loads every *.avsc file directly under `dir` (sorted by path).
/// A missing/unreadable directory is one error; duplicate scenario names
/// across files are errors on the later file.
Corpus load_corpus(const std::string& dir);

/// Registers every loaded scenario under its spec name; returns how many.
std::size_t register_corpus(const Corpus& corpus,
                            serve::ScenarioRegistry& registry);

/// Coverage over every loaded scenario.
CoverageMap corpus_coverage(const Corpus& corpus);

/// One line of scenarios/REPORTS.txt: "<name> <runs> <sha256>\n", where the
/// digest covers the report's manifest_run_line() lines in run order —
/// every metric (bit-exact), status, attempt count and violation. Equal
/// lines across commits mean equal report bytes.
std::string report_digest_line(const std::string& name,
                               const fault::CampaignReport& report);

}  // namespace avsec::scenario
