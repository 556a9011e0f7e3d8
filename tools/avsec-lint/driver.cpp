#include "avsec-lint/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "avsec/core/parallel.hpp"

namespace fs = std::filesystem;

namespace avsec::lint {
namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

bool has_lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".hh" || ext == ".hxx" ||
         ext == ".cpp" || ext == ".cc" || ext == ".cxx";
}

// Fixture files contain violations on purpose; build trees contain
// generated and third-party code.
bool is_skipped_path(const std::string& label) {
  if (label.find("tests/tools/fixtures") != std::string::npos) return true;
  if (label.find(".git/") != std::string::npos) return true;
  for (const char* dir : {"build", "build-asan", "build-release"}) {
    if (label.rfind(std::string(dir) + "/", 0) == 0 ||
        label.find("/" + std::string(dir) + "/") != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::string label_for(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  std::string label = (ec || rel.empty()) ? p.string() : rel.string();
  std::replace(label.begin(), label.end(), '\\', '/');
  return label;
}

// ---------------------------------------------------------------------------
// SARIF 2.1.0

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

struct RuleDoc {
  const char* id;
  const char* name;
  const char* desc;
};

constexpr RuleDoc kRuleDocs[] = {
    {"R0", "malformed-suppression",
     "AVSEC-LINT-ALLOW comment does not parse as (rule): reason"},
    {"R1", "nondeterminism-source",
     "wall clock / random_device / libc rand outside core/rng and bench"},
    {"R2", "unordered-iteration",
     "unordered container iteration in an aggregation/reporting path"},
    {"R3", "raw-float-reduction",
     "raw floating-point += loop outside core/stats"},
    {"R4", "missing-pragma-once", "header does not open with #pragma once"},
    {"R5", "transitive-nondeterminism",
     "call graph reaches a nondeterminism source outside core/rng and bench"},
    {"R6", "reset-incomplete",
     "pooled-class member not reassigned by reset()"},
    {"R7", "unguarded-member-touch",
     "AVSEC_GUARDED_BY member touched without its mutex"},
    {"R9", "unreferenced-function",
     "function declared in a src/ header that no scanned file names"},
};

}  // namespace

std::string render_sarif(const std::vector<Finding>& findings) {
  std::ostringstream os;
  os << "{\n"
     << "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n"
     << "          \"name\": \"avsec-lint\",\n"
     << "          \"informationUri\": \"DESIGN.md\",\n"
     << "          \"rules\": [\n";
  bool first = true;
  for (const RuleDoc& r : kRuleDocs) {
    os << (first ? "" : ",\n") << "            {\"id\": \"" << r.id
       << "\", \"name\": \"" << r.name
       << "\", \"shortDescription\": {\"text\": \"" << r.desc << "\"}}";
    first = false;
  }
  os << "\n          ]\n        }\n      },\n      \"results\": [\n";
  first = true;
  for (const Finding& f : findings) {
    os << (first ? "" : ",\n") << "        {\"ruleId\": \"" << f.rule
       << "\", \"level\": \"error\", \"message\": {\"text\": \""
       << json_escape(f.message) << "\"}, \"locations\": [{"
       << "\"physicalLocation\": {\"artifactLocation\": {\"uri\": \""
       << json_escape(f.file) << "\"}, \"region\": {\"startLine\": "
       << (f.line > 0 ? f.line : 1) << "}}}]}";
    first = false;
  }
  os << "\n      ]\n    }\n  ]\n}\n";
  return os.str();
}

std::string render_report(const ScanResult& res) {
  std::string out;
  for (const Finding& f : res.findings) {
    out += format(f);
    out += '\n';
  }
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "avsec-lint: %zu finding%s in %zu file%s scanned\n",
                res.findings.size(), res.findings.size() == 1 ? "" : "s",
                res.files_scanned, res.files_scanned == 1 ? "" : "s");
  out += buf;
  return out;
}

ScanResult scan_tree(const ScanOptions& opts) {
  ScanResult res;
  const fs::path root =
      opts.root.empty() ? fs::current_path() : fs::path(opts.root);

  // Sorted, de-duplicated file list: the report must not depend on
  // directory enumeration order.
  std::vector<fs::path> files;
  for (const std::string& in : opts.inputs) {
    fs::path p = fs::path(in).is_absolute() ? fs::path(in) : root / in;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end; it != end;
           it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file(ec) && has_lintable_extension(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      res.io_error = true;
      res.io_error_path = p.string();
      return res;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  struct Slot {
    bool unreadable = false;
    std::string path;
    AnalyzedFile af;
  };
  std::vector<Slot> slots;
  for (const fs::path& f : files) {
    std::string label = label_for(f, root);
    if (is_skipped_path(label)) continue;
    Slot& s = slots.emplace_back();
    s.path = f.string();
    s.af.index.label = std::move(label);
  }

  // Per-file work is independent; results land in index-ordered slots, so
  // worker interleaving cannot reach the report.
  auto work = [&](std::size_t, std::size_t i) {
    Slot& s = slots[i];
    std::string bytes;
    if (!read_file(s.path, bytes)) {
      s.unreadable = true;
      return;
    }
    const std::string label = s.af.index.label;
    s.af = analyze_source(label, bytes);
  };
  // No more workers than files, so no thread starts idle.
  res.workers = std::max<std::size_t>(1, std::min(opts.jobs, slots.size()));
  core::parallel_for(res.workers, slots.size(), work);

  ProjectIndex pi;
  for (const Slot& s : slots) {
    if (s.unreadable) {
      res.io_error = true;
      res.io_error_path = s.path;
      return res;
    }
    ++res.files_scanned;
    res.findings.insert(res.findings.end(), s.af.findings.begin(),
                        s.af.findings.end());
    pi.files.push_back(s.af.index);
  }
  std::sort(pi.files.begin(), pi.files.end(),
            [](const FileIndex& a, const FileIndex& b) {
              return a.label < b.label;
            });
  std::vector<Finding> wpa = lint_project(pi);

  // Pass-2 findings carry no excerpt yet (the project pass never touches
  // the filesystem); resolve them here, one read per flagged file.
  std::map<std::string, std::vector<std::string>> line_cache;
  std::map<std::string, std::string> path_of;
  for (const Slot& s : slots) path_of[s.af.index.label] = s.path;
  for (Finding& f : wpa) {
    auto lc = line_cache.find(f.file);
    if (lc == line_cache.end()) {
      std::string bytes;
      auto po = path_of.find(f.file);
      if (po != path_of.end()) read_file(po->second, bytes);
      lc = line_cache.emplace(f.file, split_lines(bytes)).first;
    }
    const std::vector<std::string>& lines = lc->second;
    if (f.line >= 1 && f.line <= static_cast<int>(lines.size())) {
      std::string ex = lines[static_cast<std::size_t>(f.line - 1)];
      const std::size_t b = ex.find_first_not_of(" \t");
      const std::size_t e = ex.find_last_not_of(" \t");
      f.excerpt = b == std::string::npos ? "" : ex.substr(b, e - b + 1);
    }
  }
  res.findings.insert(res.findings.end(),
                      std::make_move_iterator(wpa.begin()),
                      std::make_move_iterator(wpa.end()));
  std::sort(res.findings.begin(), res.findings.end());
  return res;
}

}  // namespace avsec::lint
