#include "avsec-lint/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "avsec/core/thread_pool.hpp"

namespace fs = std::filesystem;

namespace avsec::lint {
namespace {

constexpr const char* kCacheMagic = "avsec-lint-cache v3";

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
// Cache serialization. Line-oriented text; every free-form field (message,
// excerpt, label) is the last field on its line with tabs/backslashes
// escaped, so the format round-trips exactly.

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      if (s[i] == 't') {
        out.push_back('\t');
      } else if (s[i] == 'n') {
        out.push_back('\n');
      } else {
        out.push_back(s[i]);
      }
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

std::string opt(const std::string& s) { return s.empty() ? "-" : s; }
std::string unopt(const std::string& s) { return s == "-" ? "" : s; }

void write_entry(std::ostream& os, std::uint64_t hash,
                 const AnalyzedFile& af) {
  os << "F " << std::hex << hash << std::dec << ' '
     << escape(af.index.label) << '\n';
  for (const Finding& f : af.findings) {
    os << "D " << f.line << ' ' << f.rule << '\t' << escape(f.message)
       << '\t' << escape(f.excerpt) << '\n';
  }
  for (const std::string& inc : af.index.includes) {
    os << "i " << escape(inc) << '\n';
  }
  for (const FnDef& fn : af.index.fns) {
    os << "f " << opt(fn.cls) << ' ' << fn.name << ' ' << fn.line << ' '
       << (fn.ctor_dtor ? 1 : 0) << ' ' << opt(fn.source_name) << ' '
       << fn.source_line << '\n';
    for (const CallSite& c : fn.calls) {
      os << "c " << opt(c.qual) << ' ' << c.name << ' ' << c.line << '\n';
    }
    for (const Touch& t : fn.touches) {
      os << "t " << t.name << ' ' << t.line << '\n';
    }
    for (const std::string& l : fn.locks) os << "l " << l << '\n';
    for (const std::string& q : fn.require) os << "q " << q << '\n';
  }
  for (const MemberDecl& m : af.index.members) {
    os << "m " << opt(m.cls) << ' ' << m.name << ' ' << m.line << ' '
       << opt(m.guarded_by) << '\n';
  }
  for (const RequireDecl& r : af.index.require_decls) {
    os << "r " << opt(r.cls) << ' ' << r.name << ' ' << r.cap << '\n';
  }
  for (const Suppression& s : af.index.suppressions) {
    os << "s " << s.rule << ' ' << s.first_line << ' ' << s.last_line << '\n';
  }
  os << "E\n";
}

struct CacheEntry {
  std::uint64_t hash = 0;
  AnalyzedFile af;
};

// Any malformed line aborts the whole load (the scan just runs cold).
bool load_cache(const std::string& path,
                std::map<std::string, CacheEntry>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line) || line != kCacheMagic) return false;
  CacheEntry cur;
  bool open = false;
  auto commit = [&]() {
    if (open) out[cur.af.index.label] = std::move(cur);
    cur = CacheEntry{};
    open = false;
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line.size() > 2 ? line.substr(2) : std::string());
    const char tag = line[0];
    if (tag == 'F') {
      commit();
      std::string hash_hex, label;
      ls >> hash_hex;
      std::getline(ls, label);
      if (!label.empty() && label[0] == ' ') label.erase(0, 1);
      char* end = nullptr;
      cur.hash = std::strtoull(hash_hex.c_str(), &end, 16);
      if (end == nullptr || *end != '\0' || label.empty()) return false;
      cur.af.index.label = unescape(label);
      open = true;
    } else if (!open) {
      return false;
    } else if (tag == 'D') {
      std::string rest = line.substr(2);
      const std::size_t t1 = rest.find('\t');
      const std::size_t t2 =
          t1 == std::string::npos ? t1 : rest.find('\t', t1 + 1);
      if (t2 == std::string::npos) return false;
      Finding f;
      f.file = cur.af.index.label;
      std::istringstream head(rest.substr(0, t1));
      head >> f.line >> f.rule;
      if (f.rule.empty()) return false;
      f.message = unescape(rest.substr(t1 + 1, t2 - t1 - 1));
      f.excerpt = unescape(rest.substr(t2 + 1));
      cur.af.findings.push_back(std::move(f));
    } else if (tag == 'i') {
      cur.af.index.includes.push_back(unescape(line.substr(2)));
    } else if (tag == 'f') {
      FnDef fn;
      std::string cls, src;
      int cd = 0;
      ls >> cls >> fn.name >> fn.line >> cd >> src >> fn.source_line;
      if (fn.name.empty()) return false;
      fn.cls = unopt(cls);
      fn.ctor_dtor = cd != 0;
      fn.source_name = unopt(src);
      cur.af.index.fns.push_back(std::move(fn));
    } else if (tag == 'c' || tag == 't' || tag == 'l' || tag == 'q') {
      if (cur.af.index.fns.empty()) return false;
      FnDef& fn = cur.af.index.fns.back();
      if (tag == 'c') {
        CallSite c;
        std::string qual;
        ls >> qual >> c.name >> c.line;
        if (c.name.empty()) return false;
        c.qual = unopt(qual);
        fn.calls.push_back(std::move(c));
      } else if (tag == 't') {
        Touch t;
        ls >> t.name >> t.line;
        if (t.name.empty()) return false;
        fn.touches.push_back(std::move(t));
      } else {
        std::string name;
        ls >> name;
        if (name.empty()) return false;
        (tag == 'l' ? fn.locks : fn.require).push_back(std::move(name));
      }
    } else if (tag == 'm') {
      MemberDecl m;
      std::string cls, guard;
      ls >> cls >> m.name >> m.line >> guard;
      if (m.name.empty()) return false;
      m.cls = unopt(cls);
      m.guarded_by = unopt(guard);
      cur.af.index.members.push_back(std::move(m));
    } else if (tag == 'r') {
      RequireDecl r;
      std::string cls;
      ls >> cls >> r.name >> r.cap;
      if (r.name.empty() || r.cap.empty()) return false;
      r.cls = unopt(cls);
      cur.af.index.require_decls.push_back(std::move(r));
    } else if (tag == 's') {
      Suppression s;
      ls >> s.rule >> s.first_line >> s.last_line;
      if (s.rule.empty()) return false;
      cur.af.index.suppressions.push_back(std::move(s));
    } else if (tag == 'E') {
      commit();
    } else {
      return false;
    }
  }
  commit();
  return true;
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
};

}  // namespace

std::uint64_t content_hash(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

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
    bool skipped = true;
    bool unreadable = false;
    bool from_cache = false;
    std::string path;
    std::uint64_t hash = 0;
    AnalyzedFile af;
  };
  std::vector<Slot> slots(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    slots[i].path = files[i].string();
    slots[i].af.index.label = label_for(files[i], root);
    slots[i].skipped = is_skipped_path(slots[i].af.index.label);
  }

  std::map<std::string, CacheEntry> cache;
  if (!opts.cache_path.empty()) load_cache(opts.cache_path, cache);

  // Per-file work is independent; results land in index-ordered slots, so
  // worker interleaving cannot reach the report.
  auto work = [&](std::size_t i) {
    Slot& s = slots[i];
    if (s.skipped) return;
    std::string bytes;
    if (!read_file(s.path, bytes)) {
      s.unreadable = true;
      return;
    }
    s.hash = content_hash(bytes);
    auto it = cache.find(s.af.index.label);
    if (it != cache.end() && it->second.hash == s.hash) {
      s.af = it->second.af;
      s.from_cache = true;
      return;
    }
    const std::string label = s.af.index.label;
    s.af = analyze_source(label, bytes);
  };
  if (opts.jobs > 1 && files.size() > 1) {
    core::ThreadPool pool(opts.jobs);
    pool.for_each_index(files.size(), work);
  } else {
    for (std::size_t i = 0; i < files.size(); ++i) work(i);
  }

  ProjectIndex pi;
  for (Slot& s : slots) {
    if (s.skipped) continue;
    if (s.unreadable) {
      res.io_error = true;
      res.io_error_path = s.path;
      return res;
    }
    ++res.files_scanned;
    if (s.from_cache) ++res.cache_hits;
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
  for (const Slot& s : slots) {
    if (!s.skipped) path_of[s.af.index.label] = s.path;
  }
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

  if (!opts.cache_path.empty()) {
    std::ofstream out(opts.cache_path, std::ios::binary | std::ios::trunc);
    if (out) {
      out << kCacheMagic << '\n';
      for (const Slot& s : slots) {
        if (!s.skipped && !s.unreadable) write_entry(out, s.hash, s.af);
      }
    }
  }
  if (!opts.sarif_path.empty()) {
    std::ofstream out(opts.sarif_path, std::ios::binary | std::ios::trunc);
    if (out) out << render_sarif(res.findings);
  }
  return res;
}

}  // namespace avsec::lint
