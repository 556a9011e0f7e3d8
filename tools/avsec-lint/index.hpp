// avsec-lint pass 1: the per-file project index.
//
// The per-line rules (R1-R4, rules.hpp) see one token stream at a time;
// the whole-program rules (R5-R7, project.hpp) need to see across
// translation units: a call graph to propagate nondeterminism taint, the
// member list of a class whose reset() lives in another file, the guard
// annotation of a member touched by an out-of-line method. build_index()
// extracts exactly that — and nothing more — from one file's token
// stream:
//
//   - the quoted include list (the project include graph),
//   - every function/method definition with its call sites, the distinct
//     identifiers its body touches, the mutexes it locks or AVSEC_REQUIRES,
//     and whether its body reads a nondeterminism source directly,
//   - every class data-member declaration with its AVSEC_GUARDED_BY guard,
//   - the file's ALLOW suppressions (whole-program findings
//     are attributed to declaration/call lines, so suppression ranges must
//     travel with the index to wherever the finding is finally decided).
//
// A FileIndex is a pure function of (label, source bytes), so the merged
// whole-program pass does not depend on which worker lexed which file.
//
// Precision contract: extraction is name-based, not type-based (no
// libclang, same as the per-line rules). The whole-program pass only
// resolves calls whose target name is unambiguous (same-file definition
// first, then globally unique), so common method names like reset() or
// size() never propagate taint across unrelated classes. See DESIGN.md §9.
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "avsec-lint/lexer.hpp"

namespace avsec::lint {

/// One well-formed ALLOW comment — rule id plus reason — and the line
/// range it covers (its own lines plus the next code line when it stands
/// alone; just its own line when trailing).
struct Suppression {
  std::string rule;
  int first_line = 0;
  int last_line = 0;
};

/// Parses every suppression comment out of `toks`. Malformed ALLOW
/// spellings append their line to `malformed_lines` so the caller can
/// report them as R0 (a suppression that cannot rot silently).
std::vector<Suppression> collect_suppressions(
    const std::vector<Token>& toks, std::vector<int>& malformed_lines);

/// True when `rule` is suppressed at `line` by any entry of `sups`.
bool is_suppressed(const std::vector<Suppression>& sups,
                   std::string_view rule, int line);

/// One call site inside a function body. `qual` is the `X::` qualifier
/// when the call is written qualified ("" otherwise — including member
/// calls through `.` / `->`, which resolve by name only).
struct CallSite {
  std::string qual;
  std::string name;
  int line = 0;
};

/// First mention of a distinct identifier inside a function body.
struct Touch {
  std::string name;
  int line = 0;
};

/// One function or method definition (a body was seen, not just a
/// declaration).
struct FnDef {
  std::string cls;   // enclosing/qualifying class; "" = free function
  std::string name;
  int line = 0;      // line of the name token
  bool ctor_dtor = false;
  std::vector<CallSite> calls;
  std::vector<Touch> touches;        // distinct identifiers, first use
  std::vector<std::string> locks;    // identifiers locked in the body
  std::vector<std::string> require;  // AVSEC_REQUIRES capabilities
  std::string source_name;  // first nondeterminism source read; "" = none
  int source_line = 0;
};

/// An AVSEC_REQUIRES capability attached to an in-class method
/// *declaration* — the out-of-line definition usually omits the macro, so
/// R7 must union these with the definition's own annotations.
struct RequireDecl {
  std::string cls;
  std::string name;
  std::string cap;
};

/// One class data-member declaration.
struct MemberDecl {
  std::string cls;
  std::string name;
  int line = 0;
  std::string guarded_by;   // AVSEC_GUARDED_BY capability; "" = unguarded
};

/// Everything pass 2 needs to know about one file.
struct FileIndex {
  std::string label;
  std::vector<std::string> includes;  // #include "..." paths, in order
  std::vector<FnDef> fns;
  std::vector<MemberDecl> members;
  std::vector<RequireDecl> require_decls;
  std::vector<Suppression> suppressions;
};

/// Builds the index for one file. `suppressions` is the already-collected
/// list (shared with the per-line rules so ALLOW comments parse once).
FileIndex build_index(const std::string& label, const std::vector<Token>& toks,
                      std::vector<Suppression> suppressions);

/// The R1 nondeterminism source names, shared between the per-line rule
/// and the index's taint-seed detection.
const std::set<std::string_view>& banned_always_names();
const std::set<std::string_view>& banned_call_names();

}  // namespace avsec::lint
