#include "avsec-lint/rules.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>
#include <tuple>

#include "avsec-lint/lexer.hpp"

namespace avsec::lint {
namespace {

// ---------------------------------------------------------------------------
// Small shared helpers

bool contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string trim(std::string_view s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string_view::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return std::string(s.substr(b, e - b + 1));
}

const std::set<std::string_view>& keywords() {
  static const std::set<std::string_view> kw = {
      "if",      "else",   "for",      "while",  "do",       "return",
      "switch",  "case",   "break",    "continue", "const",  "constexpr",
      "static",  "inline", "auto",     "void",   "bool",     "char",
      "int",     "long",   "short",    "unsigned", "signed", "double",
      "float",   "struct", "class",    "enum",   "namespace", "using",
      "template", "typename", "public", "private", "protected", "operator",
      "sizeof",  "new",    "delete",   "this",   "true",     "false",
      "nullptr", "try",    "catch",    "throw",
  };
  return kw;
}

// ---------------------------------------------------------------------------
// Per-file analysis context

class FileLint {
 public:
  FileLint(const std::string& label, std::string_view source)
      : label_(label),
        pc_(classify_path(label)),
        toks_(lex(source)),
        lines_(split_lines(source)) {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (toks_[i].kind != TokKind::kComment &&
          toks_[i].kind != TokKind::kPreprocessor) {
        code_.push_back(static_cast<int>(i));
      }
    }
    match_brackets();
  }

  std::vector<Finding> run() {
    collect();
    if (!pc_.r1_exempt) rule_r1();
    if (pc_.r2_applies) rule_r2();
    if (pc_.r3_applies) rule_r3();
    if (pc_.header) rule_r4();
    apply_suppressions();
    std::sort(findings_.begin(), findings_.end());
    return std::move(findings_);
  }

  /// Pass-1 index over the same token stream; call after run().
  FileIndex take_index() {
    return build_index(label_, toks_, std::move(suppressions_));
  }

 private:
  // ---- token access over the code-token view --------------------------
  int ncode() const { return static_cast<int>(code_.size()); }
  const Token& tok(int ci) const { return toks_[code_[ci]]; }
  std::string_view text(int ci) const {
    static const std::string empty;
    if (ci < 0 || ci >= ncode()) return empty;
    return toks_[code_[ci]].text;
  }
  bool is_ident(int ci) const {
    return ci >= 0 && ci < ncode() && tok(ci).kind == TokKind::kIdentifier;
  }

  std::string excerpt(int line) const {
    if (line < 1 || line > static_cast<int>(lines_.size())) return "";
    return trim(lines_[line - 1]);
  }

  void add(int line, std::string rule, std::string message) {
    Finding f;
    f.file = label_;
    f.line = line;
    f.rule = std::move(rule);
    f.message = std::move(message);
    f.excerpt = excerpt(line);
    findings_.push_back(std::move(f));
  }

  // ---- bracket matching over code tokens ------------------------------
  void match_brackets() {
    match_.assign(code_.size(), -1);
    std::vector<int> parens;
    std::vector<int> braces;
    for (int ci = 0; ci < ncode(); ++ci) {
      const std::string_view t = text(ci);
      if (t == "(") {
        parens.push_back(ci);
      } else if (t == ")") {
        if (!parens.empty()) {
          match_[parens.back()] = ci;
          match_[ci] = parens.back();
          parens.pop_back();
        }
      } else if (t == "{") {
        braces.push_back(ci);
      } else if (t == "}") {
        if (!braces.empty()) {
          match_[braces.back()] = ci;
          match_[ci] = braces.back();
          braces.pop_back();
        }
      }
    }
  }

  // ---- suppression comments -------------------------------------------
  void collect() {
    std::vector<int> malformed;
    suppressions_ = collect_suppressions(toks_, malformed);
    for (int line : malformed) {
      add(line, "R0",
          "malformed suppression: expected "
          "'AVSEC-LINT-ALLOW(<rule>): <reason>' with a non-empty reason");
    }
  }

  void apply_suppressions() {
    std::vector<Finding> kept;
    for (Finding& f : findings_) {
      const bool suppressed =
          f.rule != "R0" && is_suppressed(suppressions_, f.rule, f.line);
      if (!suppressed) kept.push_back(std::move(f));
    }
    findings_ = std::move(kept);
  }

  // ---- R1: nondeterminism sources -------------------------------------
  void rule_r1() {
    // Names flagged wherever they appear (member access excluded) and
    // names flagged only as calls are shared with the pass-1 index's
    // taint-seed detection (index.hpp), so R1 and R5 can never disagree
    // about what counts as a source.
    const std::set<std::string_view>& kBannedAlways = banned_always_names();
    const std::set<std::string_view>& kBannedCalls = banned_call_names();
    for (int ci = 0; ci < ncode(); ++ci) {
      if (!is_ident(ci)) continue;
      const std::string_view name = text(ci);
      const std::string_view prev = text(ci - 1);
      if (prev == "." || prev == "->") continue;  // member access
      if (kBannedAlways.count(name)) {
        add(tok(ci).line, "R1",
            "nondeterminism source '" + std::string(name) +
                "': simulations must draw randomness from core::Rng and "
                "time from core::SimTime (allowed only in core/rng and "
                "bench/)");
        continue;
      }
      if (kBannedCalls.count(name) && text(ci + 1) == "(") {
        // `SkewedClock clock(sim);` or `long time(long);` declare entities
        // named like the libc functions — the preceding type name (or the
        // > & * of a declarator) marks a declaration, not a call.
        static const std::set<std::string_view> kTypeKeywords = {
            "void", "bool",  "char",     "int",    "long",  "short",
            "unsigned", "signed", "double", "float", "auto"};
        if (prev == ">" || prev == "&" || prev == "*") continue;
        if (is_ident(ci - 1) && !keywords().count(prev)) continue;
        if (kTypeKeywords.count(prev)) continue;
        if (prev == "::") {
          // Qualified call: only std:: / :: are the libc functions;
          // `core::time(...)`-style project helpers are fine.
          const std::string_view qual = text(ci - 2);
          const bool global = !is_ident(ci - 2);
          if (!global && qual != "std") continue;
        }
        add(tok(ci).line, "R1",
            "nondeterministic call '" + std::string(name) +
                "()': use core::Rng for randomness / scheduler SimTime for "
                "time (allowed only in core/rng and bench/)");
      }
    }
  }

  // ---- R2: unordered-container iteration in ordered-output paths ------
  std::set<std::string> collect_unordered_names() {
    static const std::set<std::string_view> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    std::set<std::string> names;
    for (int ci = 0; ci < ncode(); ++ci) {
      if (!is_ident(ci) || !kUnordered.count(text(ci))) continue;
      int j = ci + 1;
      if (text(j) == "<") {
        int depth = 0;
        int guard = 0;
        for (; j < ncode() && guard < 512; ++j, ++guard) {
          if (text(j) == "<") ++depth;
          if (text(j) == ">") {
            --depth;
            if (depth == 0) {
              ++j;
              break;
            }
          }
        }
      }
      while (text(j) == "&" || text(j) == "*" || text(j) == "const") ++j;
      if (is_ident(j) && !keywords().count(text(j))) {
        names.insert(std::string(text(j)));
      }
    }
    return names;
  }

  void rule_r2() {
    const std::set<std::string> names = collect_unordered_names();
    if (names.empty()) return;
    for (int ci = 0; ci < ncode(); ++ci) {
      // Range-for whose range expression mentions an unordered container.
      if (text(ci) == "for" && text(ci + 1) == "(") {
        const int open = ci + 1;
        const int close = match_[open];
        if (close < 0) continue;
        int depth = 1;
        int colon = -1;
        for (int j = open + 1; j < close; ++j) {
          if (text(j) == "(") ++depth;
          if (text(j) == ")") --depth;
          if (depth == 1 && text(j) == ":") {
            colon = j;
            break;
          }
        }
        if (colon < 0) continue;
        for (int j = colon + 1; j < close; ++j) {
          if (is_ident(j) && names.count(std::string(text(j)))) {
            add(tok(ci).line, "R2",
                "iteration over unordered container '" +
                    std::string(text(j)) +
                    "' in an aggregation/reporting path: hash order reaches "
                    "the output; use std::map or fold into sorted keys");
            break;
          }
        }
      }
      // Explicit iterator loops: m.begin() / m.cbegin().
      if (is_ident(ci) && names.count(std::string(text(ci))) &&
          (text(ci + 1) == "." || text(ci + 1) == "->") &&
          (text(ci + 2) == "begin" || text(ci + 2) == "cbegin") &&
          text(ci + 3) == "(") {
        add(tok(ci).line, "R2",
            "iterator walk over unordered container '" +
                std::string(text(ci)) +
                "' in an aggregation/reporting path: hash order reaches the "
                "output; use std::map or fold into sorted keys");
      }
    }
  }

  // ---- R3: raw floating-point += reduction loops ----------------------
  std::set<std::string> collect_float_names() {
    std::set<std::string> names;
    for (int ci = 0; ci < ncode(); ++ci) {
      if (text(ci) != "double" && text(ci) != "float") continue;
      int j = ci + 1;
      if (text(j) == "&") ++j;  // reference bindings still reduce in place
      if (!is_ident(j) || keywords().count(text(j))) continue;
      const std::string_view after = text(j + 1);
      if (after == "=" || after == "{" || after == ";" || after == ",") {
        names.insert(std::string(text(j)));
      }
    }
    return names;
  }

  // Marks every code token inside a for/while/do body (nested included).
  std::vector<bool> mark_loop_bodies() {
    std::vector<bool> in_loop(code_.size(), false);
    auto mark = [&](int from, int to) {
      for (int j = std::max(from, 0); j <= to && j < ncode(); ++j) {
        in_loop[j] = true;
      }
    };
    for (int ci = 0; ci < ncode(); ++ci) {
      const std::string_view t = text(ci);
      int body = -1;
      if ((t == "for" || t == "while") && text(ci + 1) == "(") {
        const int close = match_[ci + 1];
        if (close < 0) continue;
        body = close + 1;
      } else if (t == "do") {
        body = ci + 1;
      } else {
        continue;
      }
      if (body >= ncode()) continue;
      if (text(body) == "{") {
        if (match_[body] > body) mark(body, match_[body]);
      } else {
        // Single-statement body: runs to the first ';' outside parens.
        int depth = 0;
        for (int j = body; j < ncode(); ++j) {
          if (text(j) == "(") ++depth;
          if (text(j) == ")") --depth;
          if (depth <= 0 && text(j) == ";") {
            mark(body, j);
            break;
          }
        }
      }
    }
    return in_loop;
  }

  void rule_r3() {
    const std::set<std::string> floats = collect_float_names();
    if (floats.empty()) return;
    const std::vector<bool> in_loop = mark_loop_bodies();
    for (int ci = 0; ci < ncode(); ++ci) {
      if (!in_loop[ci] || !is_ident(ci)) continue;
      if (text(ci + 1) != "+=") continue;
      const std::string_view prev = text(ci - 1);
      if (prev == "." || prev == "->" || prev == "::") continue;
      if (!floats.count(std::string(text(ci)))) continue;
      add(tok(ci).line, "R3",
          "raw floating-point '+=' reduction on '" + std::string(text(ci)) +
              "' inside a loop: fold through core::Accumulator so the "
              "reduction stays bit-stable and mergeable");
    }
  }

  // ---- R4: headers must open with #pragma once ------------------------
  void rule_r4() {
    for (const Token& t : toks_) {
      if (t.kind == TokKind::kComment) continue;
      if (t.kind == TokKind::kPreprocessor) {
        // Normalize "#  pragma   once" style spellings.
        std::istringstream in(t.text.substr(1));
        std::string a, b;
        in >> a >> b;
        if (a == "pragma" && b == "once") return;
      }
      add(t.line, "R4",
          "header does not open with '#pragma once' (include guards and "
          "late pragmas break the header-hygiene contract)");
      return;
    }
    // Empty or comment-only header: still needs the pragma.
    add(1, "R4", "header is missing '#pragma once'");
  }

  const std::string& label_;
  PathClass pc_;
  std::vector<Token> toks_;
  std::vector<int> code_;  // indices into toks_ of code tokens
  std::vector<int> match_;
  std::vector<std::string> lines_;
  std::vector<Suppression> suppressions_;
  std::vector<Finding> findings_;
};

}  // namespace

bool operator<(const Finding& a, const Finding& b) {
  return std::tie(a.file, a.line, a.rule, a.message) <
         std::tie(b.file, b.line, b.rule, b.message);
}

std::string format(const Finding& f) {
  std::string out =
      f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " + f.message;
  if (!f.excerpt.empty()) out += "\n    | " + f.excerpt;
  return out;
}

PathClass classify_path(std::string_view label) {
  PathClass pc;
  std::string norm(label);
  std::replace(norm.begin(), norm.end(), '\\', '/');
  pc.r1_exempt = starts_with(norm, "bench/") || contains(norm, "/bench/") ||
                 contains(norm, "core/rng.");
  pc.r2_applies = contains(norm, "fault/") || contains(norm, "core/stats") ||
                  contains(norm, "health/") ||
                  contains(norm, "ids/correlation") || contains(norm, "obs/") ||
                  contains(norm, "serve/") || contains(norm, "scenario/");
  pc.r3_applies = (starts_with(norm, "src/") || contains(norm, "/src/") ||
                   starts_with(norm, "tools/") || contains(norm, "/tools/")) &&
                  !contains(norm, "core/stats");
  pc.header = ends_with(norm, ".hpp") || ends_with(norm, ".h") ||
              ends_with(norm, ".hh") || ends_with(norm, ".hxx");
  pc.wpa = (starts_with(norm, "src/") || contains(norm, "/src/"));
  pc.barrier = pc.r1_exempt;
  static const char* kPoolPaths[] = {"fault/context", "core/scheduler",
                                     "obs/trace",     "obs/metrics",
                                     "serve/server"};
  for (const char* p : kPoolPaths) {
    if (contains(norm, p)) pc.r6_pool = true;
  }
  return pc;
}

std::vector<Finding> lint_source(const std::string& label,
                                 std::string_view source) {
  return FileLint(label, source).run();
}

AnalyzedFile analyze_source(const std::string& label,
                            std::string_view source) {
  FileLint fl(label, source);
  AnalyzedFile out;
  out.findings = fl.run();
  out.index = fl.take_index();
  return out;
}

}  // namespace avsec::lint
