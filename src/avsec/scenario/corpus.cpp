#include "avsec/scenario/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <set>
#include <system_error>
#include <utility>

#include "avsec/core/bytes.hpp"
#include "avsec/crypto/sha2.hpp"
#include "avsec/fault/manifest.hpp"
#include "avsec/scenario/parser.hpp"

namespace avsec::scenario {

const CompiledScenario* Corpus::find(std::string_view name) const {
  for (const CorpusEntry& e : entries) {
    if (e.compiled.spec().name == name) return &e.compiled;
  }
  return nullptr;
}

Corpus load_corpus(const std::string& dir) {
  namespace fs = std::filesystem;
  Corpus corpus;

  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    corpus.errors.push_back(dir + ": cannot open directory");
    return corpus;
  }

  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    if (entry.path().extension() == ".avsc") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::set<std::string> names;
  for (const std::string& path : paths) {
    ParseResult parsed = parse_scenario_file(path);
    if (!parsed.ok) {
      corpus.errors.push_back(parsed.error.to_string());
      continue;
    }
    CompileResult built = compile(parsed.spec);
    if (!built.ok) {
      corpus.errors.push_back(built.error.to_string());
      continue;
    }
    const std::string& name = built.compiled.spec().name;
    if (!names.insert(name).second) {
      corpus.errors.push_back(path + ":1: duplicate scenario name '" + name +
                              "'");
      continue;
    }
    corpus.entries.push_back(CorpusEntry{path, std::move(built.compiled)});
  }
  return corpus;
}

std::size_t register_corpus(const Corpus& corpus,
                            serve::ScenarioRegistry& registry) {
  for (const CorpusEntry& e : corpus.entries) {
    registry.add(e.compiled.serve_entry());
  }
  return corpus.entries.size();
}

CoverageMap corpus_coverage(const Corpus& corpus) {
  CoverageMap map;
  for (const CorpusEntry& e : corpus.entries) {
    map.record(e.compiled.spec());
  }
  return map;
}

std::string report_digest_line(const std::string& name,
                               const fault::CampaignReport& report) {
  crypto::Sha256 h;
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    h.update(core::to_bytes(fault::manifest_run_line(i, report.outcomes[i])));
  }
  const auto digest = h.finish();
  return name + " " + std::to_string(report.runs) + " " +
         core::to_hex(core::BytesView(digest.data(), digest.size())) + "\n";
}

}  // namespace avsec::scenario
