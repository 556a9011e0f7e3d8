#include "avsec-lint/index.hpp"

#include <algorithm>
#include <cctype>
#include <map>

namespace avsec::lint {
namespace {

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
      "if",      "else",   "for",      "while",    "do",       "return",
      "switch",  "case",   "break",    "continue", "const",    "constexpr",
      "static",  "inline", "auto",     "void",     "bool",     "char",
      "int",     "long",   "short",    "unsigned", "signed",   "double",
      "float",   "struct", "class",    "enum",     "namespace", "using",
      "template", "typename", "public", "private",  "protected", "operator",
      "sizeof",  "new",    "delete",   "this",     "true",     "false",
      "nullptr", "try",    "catch",    "throw",    "noexcept", "mutable",
      "friend",  "typedef", "union",   "virtual",  "explicit", "default",
  };
  return kw;
}

// Clang thread-safety annotation macros (core/annotations.hpp): they look
// like calls in the token stream but are declaration decorations.
const std::set<std::string_view>& annotation_macros() {
  static const std::set<std::string_view> ann = {
      "AVSEC_GUARDED_BY",   "AVSEC_PT_GUARDED_BY", "AVSEC_REQUIRES",
      "AVSEC_ACQUIRE",      "AVSEC_RELEASE",       "AVSEC_TRY_ACQUIRE",
      "AVSEC_EXCLUDES",     "AVSEC_CAPABILITY",    "AVSEC_SCOPED_CAPABILITY",
      "AVSEC_NO_THREAD_SAFETY_ANALYSIS", "alignas", "decltype",
  };
  return ann;
}

// Tokens legal between a declarator and its body / between declarator
// parts during the backward scan that classifies an opening brace.
bool is_skippable_decl_token(std::string_view t, TokKind kind) {
  if (kind == TokKind::kIdentifier) {
    return true;  // names, types, override/final, annotation macros
  }
  if (kind == TokKind::kNumber || kind == TokKind::kString) return true;
  return t == "::" || t == "," || t == "*" || t == "&" || t == "&&" ||
         t == "<" || t == ">" || t == "->" || t == "..." || t == ":";
}

}  // namespace

const std::set<std::string_view>& banned_always_names() {
  static const std::set<std::string_view> names = {
      "srand",        "rand_r",        "random_device",
      "system_clock", "steady_clock",  "high_resolution_clock",
      "gettimeofday", "clock_gettime", "localtime",
      "gmtime",       "mktime",        "__DATE__",
      "__TIME__",     "__TIMESTAMP__",
  };
  return names;
}

const std::set<std::string_view>& banned_call_names() {
  static const std::set<std::string_view> names = {"rand", "time", "clock"};
  return names;
}

std::vector<Suppression> collect_suppressions(const std::vector<Token>& toks,
                                              std::vector<int>& malformed) {
  std::vector<Suppression> out;
  for (std::size_t ti = 0; ti < toks.size(); ++ti) {
    const Token& t = toks[ti];
    if (t.kind != TokKind::kComment) continue;
    // A standalone ALLOW comment (possibly wrapped over several comment
    // lines) covers the next code line; a trailing comment covers only
    // the statement it sits on.
    bool trailing = false;
    for (std::size_t p = ti; p-- > 0;) {
      if (toks[p].kind == TokKind::kComment) continue;
      trailing = toks[p].end_line == t.line;
      break;
    }
    int covered_to = t.end_line;
    if (!trailing) {
      for (std::size_t nx = ti + 1; nx < toks.size(); ++nx) {
        if (toks[nx].kind == TokKind::kComment) continue;
        covered_to = toks[nx].line;
        break;
      }
    }
    std::size_t pos = 0;
    while ((pos = t.text.find("AVSEC-LINT-ALLOW", pos)) != std::string::npos) {
      pos += 16;  // length of the marker
      std::string rule;
      bool ok = false;
      std::size_t p = pos;
      if (p < t.text.size() && t.text[p] == '(') {
        ++p;
        while (p < t.text.size() && t.text[p] != ')') rule.push_back(t.text[p++]);
        if (p < t.text.size() && t.text[p] == ')') {
          ++p;
          while (p < t.text.size() && (t.text[p] == ' ' || t.text[p] == '\t')) {
            ++p;
          }
          if (p < t.text.size() && t.text[p] == ':') {
            ++p;
            // Reason must have substance, not just punctuation. A second
            // ALLOW marker in the same comment is not part of the reason.
            std::string reason = trim(t.text.substr(p));
            const std::size_t next_marker = reason.find("AVSEC-LINT-ALLOW");
            if (next_marker != std::string::npos) {
              reason = trim(reason.substr(0, next_marker));
              // Strip a trailing comment-continuation "//" between markers.
              while (ends_with(reason, "/")) {
                reason = trim(reason.substr(0, reason.size() - 1));
              }
            }
            // Block comments may close on the same line.
            if (ends_with(reason, "*/")) {
              reason = trim(reason.substr(0, reason.size() - 2));
            }
            ok = !rule.empty() && rule[0] == 'R' && reason.size() >= 3;
          }
        }
      }
      if (ok) {
        Suppression s;
        s.rule = rule;
        s.first_line = t.line;
        s.last_line = covered_to;
        out.push_back(std::move(s));
      } else {
        malformed.push_back(t.line);
      }
    }
  }
  return out;
}

bool is_suppressed(const std::vector<Suppression>& sups, std::string_view rule,
                   int line) {
  for (const Suppression& s : sups) {
    if (s.rule == rule && line >= s.first_line && line <= s.last_line) {
      return true;
    }
  }
  return false;
}

namespace {

// ---------------------------------------------------------------------------
// Scope-structured walk over the code-token view.

class IndexBuilder {
 public:
  IndexBuilder(const std::string& label, const std::vector<Token>& toks)
      : toks_(toks) {
    idx_.label = label;
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (toks_[i].kind != TokKind::kComment &&
          toks_[i].kind != TokKind::kPreprocessor) {
        code_.push_back(static_cast<int>(i));
      }
    }
    match_brackets();
  }

  FileIndex build() {
    collect_includes();
    collect_aliases();
    collect_macro_refs();
    walk();
    idx_.refs.assign(refs_.begin(), refs_.end());
    return std::move(idx_);
  }

 private:
  struct Scope {
    enum Kind { kNamespace, kClass, kEnum, kFn, kBlock };
    Kind kind = kBlock;
    std::string name;          // namespace/class name
    int close = -1;            // code index of the matching '}'
    int fn = -1;               // index into idx_.fns for kFn
    // Member-statement accumulator for kClass: (text, line) of tokens seen
    // at exactly this scope depth, with a marker where a nested body sat.
    std::vector<std::pair<std::string, int>> stmt;
    bool saw_nested_body = false;
    std::size_t body_mark = 0;  // stmt size when the nested body was seen
  };

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
  bool is_keyword(int ci) const {
    return is_ident(ci) && keywords().count(text(ci)) > 0;
  }

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

  void collect_includes() {
    for (const Token& t : toks_) {
      if (t.kind != TokKind::kPreprocessor) continue;
      std::size_t p = t.text.find("include");
      if (p == std::string::npos) continue;
      std::size_t q1 = t.text.find('"', p);
      if (q1 == std::string::npos) continue;
      std::size_t q2 = t.text.find('"', q1 + 1);
      if (q2 == std::string::npos) continue;
      idx_.includes.push_back(t.text.substr(q1 + 1, q2 - q1 - 1));
    }
  }

  // Type aliases that forward a banned nondeterminism name:
  // `using wall_clock = std::chrono::steady_clock;`
  // makes `wall_clock` a taint seed wherever it is read in this file.
  void collect_aliases() {
    for (int ci = 0; ci + 2 < ncode(); ++ci) {
      if (text(ci) != "using" || !is_ident(ci + 1) || text(ci + 2) != "=") {
        continue;
      }
      const std::string alias(text(ci + 1));
      bool banned = false;
      int alias_line = tok(ci + 1).line;
      for (int j = ci + 3; j < ncode() && text(j) != ";"; ++j) {
        if (!is_ident(j)) continue;
        const std::string_view n = text(j);
        if (banned_always_names().count(n) || banned_aliases_.count(std::string(n))) {
          banned = true;
        }
      }
      if (banned) banned_aliases_[alias] = alias_line;
    }
  }

  // Identifiers in a #define body are references: a function that a macro
  // expands to is used wherever the macro is.
  void collect_macro_refs() {
    for (const Token& t : toks_) {
      const std::string& s = t.text;
      const std::size_t d = s.find_first_not_of(" \t", 1);
      if (t.kind != TokKind::kPreprocessor || d == std::string::npos ||
          s.compare(d, 6, "define") != 0) {
        continue;
      }
      for (std::size_t i = 0; i < s.size();) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (std::isalpha(c) == 0 && c != '_') {
          ++i;
          continue;
        }
        std::size_t j = i;
        while (j < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[j])) != 0 ||
                s[j] == '_')) {
          ++j;
        }
        refs_.insert(s.substr(i, j - i));
        i = j;
      }
    }
  }

  // ---- opening-brace classification -----------------------------------
  struct BraceInfo {
    Scope::Kind kind = Scope::kBlock;
    std::string name;  // namespace / class / function name
    std::string qual;  // X:: qualifier on an out-of-line function
    bool dtor = false;
    int line = 0;
  };

  // Forward scan from a class/struct keyword for the class name, skipping
  // annotation macros and their argument lists.
  std::string class_name_after(int kw_ci) const {
    int j = kw_ci + 1;
    for (int guard = 0; j < ncode() && guard < 16; ++guard) {
      if (is_ident(j) && annotation_macros().count(text(j))) {
        ++j;
        if (text(j) == "(" && match_[j] > j) j = match_[j] + 1;
        continue;
      }
      break;
    }
    if (is_ident(j) && !is_keyword(j)) return std::string(text(j));
    return "";
  }

  BraceInfo classify_brace(int open_ci) const {
    BraceInfo info;
    info.line = tok(open_ci).line;
    int pos = open_ci - 1;
    for (int guard = 0; pos >= 0 && guard < 128; ++guard) {
      const std::string_view t = text(pos);
      if (t == "{" || t == "}" || t == ";") return info;  // scope start
      if (t == "namespace") {
        info.kind = Scope::kNamespace;
        if (is_ident(pos + 1) && !is_keyword(pos + 1)) {
          info.name = std::string(text(pos + 1));
        }
        return info;
      }
      if (t == "class" || t == "struct" || t == "union") {
        if (text(pos - 1) == "enum") {
          info.kind = Scope::kEnum;
          return info;
        }
        info.kind = Scope::kClass;
        info.name = class_name_after(pos);
        return info;
      }
      if (t == "enum") {
        info.kind = Scope::kEnum;
        return info;
      }
      if (t == "if" || t == "for" || t == "while" || t == "switch" ||
          t == "catch" || t == "do" || t == "else" || t == "return" ||
          t == "=" || t == "try") {
        return info;  // control-flow / initializer block
      }
      if (t == ")") {
        const int open = match_[pos];
        if (open < 0) return info;
        const int before = open - 1;
        if (!is_ident(before) || is_keyword(before) ||
            annotation_macros().count(text(before))) {
          // Lambda ([...](){}), control parens, noexcept(...) — for the
          // annotation/noexcept case keep walking left past the group.
          if (is_ident(before) && annotation_macros().count(text(before))) {
            pos = before - 1;
            continue;
          }
          if (text(before) == "noexcept") {
            pos = before - 1;
            continue;
          }
          return info;
        }
        // Candidate function name. A ctor-initializer entry `, b_(y)` or
        // `: a_(x)` is not the parameter list — keep walking left.
        const std::string_view prev = text(before - 1);
        if (prev == ",") {
          pos = before - 1;
          continue;
        }
        if (prev == ":" && text(before - 2) == ")") {
          pos = before - 1;  // ctor-init colon: the param list is left of it
          continue;
        }
        info.kind = Scope::kFn;
        info.name = std::string(text(before));
        info.line = tok(before).line;
        if (prev == "~" || (prev == "::" && text(before - 2) == "~")) {
          info.dtor = true;
        }
        if (prev == "::" && is_ident(before - 2) && !is_keyword(before - 2)) {
          info.qual = std::string(text(before - 2));
        } else if (info.dtor && text(before - 2) == "~" &&
                   text(before - 3) == "::" && is_ident(before - 4)) {
          info.qual = std::string(text(before - 4));
        }
        return info;
      }
      if (is_skippable_decl_token(t, tok(pos).kind)) {
        --pos;
        continue;
      }
      return info;
    }
    return info;
  }

  // ---- scope maintenance ----------------------------------------------
  const Scope* innermost(Scope::Kind kind) const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == kind) return &*it;
    }
    return nullptr;
  }

  Scope* class_top() {
    return (!stack_.empty() && stack_.back().kind == Scope::kClass)
               ? &stack_.back()
               : nullptr;
  }

  bool in_function() const { return innermost(Scope::kFn) != nullptr; }

  FnDef* current_fn() {
    const Scope* s = innermost(Scope::kFn);
    if (s == nullptr || s->fn < 0) return nullptr;
    return &idx_.fns[static_cast<std::size_t>(s->fn)];
  }

  // ---- the walk --------------------------------------------------------
  void walk() {
    for (int ci = 0; ci < ncode(); ++ci) {
      while (!stack_.empty() && stack_.back().close >= 0 &&
             ci > stack_.back().close) {
        pop_scope();
      }
      const std::string_view t = text(ci);
      if (t == "{") {
        push_scope(ci);
        continue;
      }
      if (in_function()) {
        record_body_token(ci);
      } else if (Scope* cls = class_top()) {
        record_class_token(cls, ci);
      }
      record_name(ci);
    }
    while (!stack_.empty()) pop_scope();
  }

  void push_scope(int open_ci) {
    BraceInfo info = classify_brace(open_ci);
    Scope s;
    s.close = match_[open_ci];
    s.name = info.name;
    // A nested body wipes a half-accumulated member statement when it is a
    // function body (the statement was the method header), and leaves a
    // marker when it is a nested class (an anonymous-struct member may
    // still follow the body).
    if (Scope* cls = class_top()) {
      if (info.kind == Scope::kFn) {
        cls->stmt.clear();
        cls->saw_nested_body = false;
      } else if (!cls->stmt.empty()) {
        cls->saw_nested_body = true;
        cls->body_mark = cls->stmt.size();
      }
    }
    if (info.kind == Scope::kFn && !in_function()) {
      s.kind = Scope::kFn;
      touched_.clear();
      FnDef fn;
      fn.name = info.name;
      fn.line = info.line;
      fn.cls = info.qual;
      if (fn.cls.empty()) {
        if (const Scope* encl = innermost(Scope::kClass)) fn.cls = encl->name;
      }
      fn.ctor_dtor = info.dtor || (!fn.cls.empty() && fn.name == fn.cls);
      collect_decl_requires(open_ci, fn);
      s.fn = static_cast<int>(idx_.fns.size());
      idx_.fns.push_back(std::move(fn));
    } else if (info.kind == Scope::kFn) {
      s.kind = Scope::kBlock;  // local function/lambda: fold into enclosing
    } else {
      s.kind = info.kind;
    }
    stack_.push_back(std::move(s));
    decl_stmt_ = {};
  }

  void pop_scope() {
    stack_.pop_back();
    decl_stmt_ = {};
  }

  // AVSEC_REQUIRES(...) between the parameter list and the body.
  void collect_decl_requires(int open_ci, FnDef& fn) {
    for (int j = open_ci - 1; j >= 0 && j > open_ci - 48; --j) {
      const std::string_view t = text(j);
      if (t == ";" || t == "{" || t == "}") break;
      if (t == "AVSEC_REQUIRES" || t == "AVSEC_ACQUIRE") {
        int p = j + 1;
        if (text(p) != "(") continue;
        const int close = match_[p];
        for (int k = p + 1; k >= 0 && k < close; ++k) {
          if (is_ident(k) && !is_keyword(k)) {
            fn.require.emplace_back(text(k));
          }
        }
      }
    }
  }

  // ---- function-body extraction ---------------------------------------
  void record_body_token(int ci) {
    FnDef* fn = current_fn();
    if (fn == nullptr || !is_ident(ci)) return;
    const std::string_view name = text(ci);
    if (is_keyword(ci)) return;
    const std::string_view prev = text(ci - 1);
    const int line = tok(ci).line;

    // Touch set: distinct identifiers, first-use line.
    if (touched_.insert(std::string(name)).second) {
      fn->touches.push_back({std::string(name), line});
    }

    // Nondeterminism sources (R5 taint seeds): direct banned names, banned
    // aliases, and the libc call forms rand()/time()/clock().
    if (fn->source_name.empty() && prev != "." && prev != "->") {
      if (banned_always_names().count(name) ||
          banned_aliases_.count(std::string(name))) {
        fn->source_name = std::string(name);
        fn->source_line = line;
      } else if (banned_call_names().count(name) && text(ci + 1) == "(" &&
                 !is_ident(ci - 1) && prev != ">" && prev != "&" &&
                 prev != "*") {
        bool qualified_project = false;
        if (prev == "::") {
          const bool global = !is_ident(ci - 2);
          if (!global && text(ci - 2) != "std") qualified_project = true;
        }
        if (!qualified_project) {
          fn->source_name = std::string(name);
          fn->source_line = line;
        }
      }
    }

    // Lock acquisitions: RAII guards and direct .lock() calls.
    static const std::set<std::string_view> kGuards = {
        "MutexLock", "lock_guard", "unique_lock", "scoped_lock"};
    if (kGuards.count(name)) {
      int j = ci + 1;
      if (text(j) == "<") {  // lock_guard<std::mutex>
        int depth = 0;
        for (int guard = 0; j < ncode() && guard < 64; ++j, ++guard) {
          if (text(j) == "<") ++depth;
          if (text(j) == ">" && --depth == 0) {
            ++j;
            break;
          }
        }
      }
      if (is_ident(j) && !is_keyword(j)) ++j;  // variable name
      if (text(j) == "(" && match_[j] > j) {
        for (int k = j + 1; k < match_[j]; ++k) {
          if (is_ident(k) && !is_keyword(k)) fn->locks.emplace_back(text(k));
        }
      }
    }
    if (name == "lock" && (prev == "." || prev == "->") && is_ident(ci - 2) &&
        text(ci + 1) == "(") {
      fn->locks.emplace_back(text(ci - 2));
    }

    // Call sites: identifier directly applied to an argument list.
    if (text(ci + 1) == "(" && !annotation_macros().count(name)) {
      CallSite call;
      call.name = std::string(name);
      call.line = line;
      if (prev == "::" && is_ident(ci - 2) && !is_keyword(ci - 2)) {
        call.qual = std::string(text(ci - 2));
      }
      fn->calls.push_back(std::move(call));
    }
  }

  // ---- R9 reach index -------------------------------------------------
  // A function declarator at namespace or class scope is a declaration
  // site; every other identifier is a reference. The statement state
  // tells a declarator from a call in an initializer: `int f(int);`
  // declares f, `int x = f(1);` and `T t(f(1));` name it.
  void record_name(int ci) {
    const bool decl_scope =
        !in_function() &&
        (stack_.empty() || stack_.back().kind == Scope::kNamespace ||
         stack_.back().kind == Scope::kClass);
    const std::string_view t = text(ci);
    if (decl_scope) track_decl_stmt(ci);
    if (!is_ident(ci) || is_keyword(ci)) return;
    if (decl_scope && decl_stmt_.depth == 0 && !decl_stmt_.assigned &&
        text(ci + 1) == "(" && declarator_before(ci)) {
      record_decl(ci);
      return;
    }
    refs_.emplace(t);
  }

  void track_decl_stmt(int ci) {
    const std::string_view t = text(ci);
    if (t == ";") {
      decl_stmt_ = {};
    } else if (t == "(" || t == "[") {
      ++decl_stmt_.depth;
    } else if ((t == ")" || t == "]") && decl_stmt_.depth > 0) {
      --decl_stmt_.depth;
    } else if (t == "<" &&
               (decl_stmt_.angle > 0 || text(ci - 1) == "template")) {
      ++decl_stmt_.angle;  // template parameter list: `= default` args
    } else if (t == ">" && decl_stmt_.angle > 0) {
      --decl_stmt_.angle;
    } else if (t == "=" && decl_stmt_.depth == 0 && decl_stmt_.angle == 0) {
      decl_stmt_.assigned = true;
    } else if (t == "operator") {
      decl_stmt_.saw_operator = true;
    }
  }

  // The token before a declarator name: a return type, `~`, or a `X::`
  // qualifier of an out-of-line definition.
  bool declarator_before(int ci) const {
    const std::string_view p = text(ci - 1);
    if (p == "::") return is_ident(ci - 2) || text(ci - 2) == ">";
    return is_ident(ci - 1) || p == "~" || p == ">" || p == "*" ||
           p == "&" || p == "&&";
  }

  // Lists the declarator unless it names a constructor, destructor,
  // operator, override, deleted function or AVSEC_ macro.
  void record_decl(int ci) {
    const std::string name(text(ci));
    if (decl_stmt_.saw_operator || text(ci - 1) == "~" ||
        name.rfind("AVSEC_", 0) == 0) {
      return;
    }
    if (text(ci - 1) == "::" && text(ci - 2) == name) return;  // X::X(
    if (const Scope* cls = class_top(); cls && cls->name == name) return;
    const int close = match_[ci + 1];
    for (int j = close + 1; close > 0 && j < ncode(); ++j) {
      const std::string_view t = text(j);
      if (t == ";" || t == "{" || t == "}") break;
      if (t == "override" || t == "final") return;
      if (t == "=" && text(j + 1) == "delete") return;
    }
    idx_.decls.push_back({name, tok(ci).line});
  }

  // ---- class-body member extraction -----------------------------------
  void record_class_token(Scope* cls, int ci) {
    const std::string_view t = text(ci);
    const int line = tok(ci).line;
    if (t == ";") {
      finalize_member_stmt(cls);
      return;
    }
    if (t == ":") {
      // Access specifier label: drop it.
      if (cls->stmt.size() == 1 &&
          (cls->stmt[0].first == "public" || cls->stmt[0].first == "private" ||
           cls->stmt[0].first == "protected")) {
        cls->stmt.clear();
        return;
      }
    }
    cls->stmt.emplace_back(std::string(t), line);
  }

  void finalize_member_stmt(Scope* cls) {
    std::vector<std::pair<std::string, int>> stmt = std::move(cls->stmt);
    const bool nested_body = cls->saw_nested_body;
    const std::size_t body_mark = cls->body_mark;
    cls->stmt.clear();
    cls->saw_nested_body = false;
    cls->body_mark = 0;
    if (stmt.empty()) return;
    // `T& operator=(...)` and friends are never data members.
    for (const auto& [s, line] : stmt) {
      if (s == "operator") return;
    }
    std::size_t b = 0;
    while (b < stmt.size() && (stmt[b].first == "mutable" ||
                               stmt[b].first == "inline" ||
                               stmt[b].first == "volatile")) {
      ++b;
    }
    if (b >= stmt.size()) return;
    static const std::set<std::string_view> kSkipLead = {
        "using", "typedef", "friend", "static", "template", "public",
        "private", "protected", "operator", "enum", "virtual", "explicit",
    };
    const std::string& lead = stmt[b].first;
    if (kSkipLead.count(lead)) return;
    if (lead == "class" || lead == "struct" || lead == "union") {
      // Either a forward declaration / named nested type (no member) or an
      // anonymous-type member: `struct { ... } counters_;` — the member
      // name, if any, comes after the nested body.
      if (!nested_body || stmt.size() <= body_mark) return;
      const auto& last = stmt.back();
      if (last.first.empty() || keywords().count(last.first) ||
          !(std::isalpha(static_cast<unsigned char>(last.first[0])) != 0 ||
            last.first[0] == '_')) {
        return;
      }
      add_member(cls->name, last.first, last.second, "");
      return;
    }
    parse_member_declarators(cls->name,
                             std::vector<std::pair<std::string, int>>(
                                 stmt.begin() + static_cast<long>(b),
                                 stmt.end()));
  }

  static bool ident_like(const std::string& s) {
    return !s.empty() && (std::isalpha(static_cast<unsigned char>(s[0])) != 0 ||
                          s[0] == '_');
  }

  void parse_member_declarators(
      const std::string& cls, std::vector<std::pair<std::string, int>> stmt) {
    // AVSEC_GUARDED_BY(guard) decorates the declarator it follows; pull the
    // guard out and remember where the annotation sat (the member name is
    // the last identifier before it).
    std::string guard;
    long ann_at = -1;
    for (std::size_t i = 0; i < stmt.size(); ++i) {
      if (stmt[i].first == "AVSEC_GUARDED_BY" && i + 2 < stmt.size() &&
          stmt[i + 1].first == "(") {
        ann_at = static_cast<long>(i);
        for (std::size_t j = i + 2;
             j < stmt.size() && stmt[j].first != ")"; ++j) {
          if (ident_like(stmt[j].first) && guard.empty()) {
            guard = stmt[j].first;
          }
        }
        break;
      }
    }
    // Region holding the declarators: everything before the annotation (if
    // any), cut at the first top-level '='.
    const std::size_t region_end =
        ann_at >= 0 ? static_cast<std::size_t>(ann_at) : stmt.size();
    int depth = 0;
    std::vector<std::pair<std::string, int>> names;  // candidate per segment
    std::string cand;
    int cand_line = 0;
    bool assigned = false;
    bool fn_decl = false;  // `name(` at top level = method declaration
    std::string fn_name;
    for (std::size_t i = 0; i < region_end; ++i) {
      const std::string& s = stmt[i].first;
      if (s == "(" || s == "[") {
        if (s == "(" && depth == 0 && i > 0 &&
            stmt[i - 1].first == cand && !cand.empty()) {
          fn_decl = true;
          fn_name = cand;
        }
        ++depth;
      }
      if (s == ")" || s == "]") --depth;
      if (s == "<" && i > 0 && ident_like(stmt[i - 1].first)) ++depth;
      if (s == ">" && depth > 0) --depth;
      if (depth > 0) continue;
      if (s == "=") {
        assigned = true;
        continue;
      }
      if (s == ",") {
        if (!cand.empty() && !fn_decl) names.emplace_back(cand, cand_line);
        cand.clear();
        assigned = false;
        fn_decl = false;
        continue;
      }
      if (assigned) continue;
      if (ident_like(s) && !keywords().count(s) &&
          !annotation_macros().count(s)) {
        cand = s;
        cand_line = stmt[i].second;
      }
    }
    if (!cand.empty() && !fn_decl) names.emplace_back(cand, cand_line);
    for (auto& [name, line] : names) {
      add_member(cls, name, line, guard);
    }
    // A method declaration carrying AVSEC_REQUIRES: remember the caps so
    // R7 honors them at the out-of-line definition.
    if (fn_decl && !fn_name.empty() && !cls.empty()) {
      for (std::size_t i = 0; i + 2 < stmt.size(); ++i) {
        if (stmt[i].first != "AVSEC_REQUIRES" || stmt[i + 1].first != "(") {
          continue;
        }
        for (std::size_t j = i + 2;
             j < stmt.size() && stmt[j].first != ")"; ++j) {
          if (ident_like(stmt[j].first) && !keywords().count(stmt[j].first)) {
            idx_.require_decls.push_back({cls, fn_name, stmt[j].first});
          }
        }
      }
    }
  }

  void add_member(const std::string& cls, const std::string& name, int line,
                  const std::string& guard) {
    if (name.empty() || cls.empty()) return;
    MemberDecl m;
    m.cls = cls;
    m.name = name;
    m.line = line;
    m.guarded_by = guard;
    idx_.members.push_back(std::move(m));
  }

  const std::vector<Token>& toks_;
  std::vector<int> code_;
  std::vector<int> match_;
  std::vector<Scope> stack_;
  FileIndex idx_;
  std::map<std::string, int> banned_aliases_;  // alias -> declaration line
  std::set<std::string> touched_;  // per-function dedupe, cleared on entry
  std::set<std::string> refs_;
  struct DeclStmt {
    int depth = 0;  // ( and [ nesting
    int angle = 0;  // template parameter list nesting
    bool assigned = false;
    bool saw_operator = false;
  } decl_stmt_;  // the namespace- or class-scope statement being read
};

}  // namespace

FileIndex build_index(const std::string& label, const std::vector<Token>& toks,
                      std::vector<Suppression> suppressions) {
  IndexBuilder b(label, toks);
  FileIndex idx = b.build();
  idx.suppressions = std::move(suppressions);
  return idx;
}

}  // namespace avsec::lint
