#include "avsec-lint/project.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>

namespace avsec::lint {
namespace {

// Flat handle for one function definition across the whole project.
struct FnRef {
  int file = -1;  // index into ProjectIndex::files
  int fn = -1;    // index into FileIndex::fns
};

struct FnTable {
  std::vector<FnRef> all;
  std::map<std::string, std::vector<int>> by_name;            // -> ids
  std::map<std::pair<std::string, std::string>, std::vector<int>> by_cls_name;
};

FnTable build_fn_table(const ProjectIndex& pi) {
  FnTable t;
  for (int fi = 0; fi < static_cast<int>(pi.files.size()); ++fi) {
    const FileIndex& f = pi.files[static_cast<std::size_t>(fi)];
    for (int k = 0; k < static_cast<int>(f.fns.size()); ++k) {
      const int id = static_cast<int>(t.all.size());
      t.all.push_back({fi, k});
      const FnDef& fn = f.fns[static_cast<std::size_t>(k)];
      t.by_name[fn.name].push_back(id);
      t.by_cls_name[{fn.cls, fn.name}].push_back(id);
    }
  }
  return t;
}

class ProjectLint {
 public:
  explicit ProjectLint(const ProjectIndex& pi)
      : pi_(pi), tbl_(build_fn_table(pi)) {
    pcs_.reserve(pi_.files.size());
    for (const FileIndex& f : pi_.files) {
      pcs_.push_back(classify_path(f.label));
      for (const RequireDecl& r : f.require_decls) {
        declared_require_[{r.cls, r.name}].insert(r.cap);
      }
    }
  }

  std::vector<Finding> run() {
    rule_r5();
    rule_r6();
    rule_r7();
    rule_r9();
    std::sort(findings_.begin(), findings_.end());
    findings_.erase(std::unique(findings_.begin(), findings_.end(),
                                [](const Finding& a, const Finding& b) {
                                  return a.file == b.file && a.line == b.line &&
                                         a.rule == b.rule &&
                                         a.message == b.message;
                                }),
                    findings_.end());
    return std::move(findings_);
  }

 private:
  const FileIndex& file(int fi) const {
    return pi_.files[static_cast<std::size_t>(fi)];
  }
  const FnDef& fn(int id) const {
    const FnRef& r = tbl_.all[static_cast<std::size_t>(id)];
    return file(r.file).fns[static_cast<std::size_t>(r.fn)];
  }
  int fn_file(int id) const {
    return tbl_.all[static_cast<std::size_t>(id)].file;
  }

  void add(int fi, int line, std::string rule, std::string message) {
    if (is_suppressed(file(fi).suppressions, rule, line)) return;
    Finding f;
    f.file = file(fi).label;
    f.line = line;
    f.rule = std::move(rule);
    f.message = std::move(message);
    findings_.push_back(std::move(f));
  }

  // Resolves a call site from `from_file` to a unique function definition,
  // or -1. Same-file definitions shadow same-named definitions elsewhere
  // (each TU's anonymous-namespace helpers stay local); after that only a
  // globally unique name resolves, so common method names (reset, size)
  // never alias across classes.
  int resolve(const CallSite& c, int from_file) const {
    const std::vector<int>* ids = nullptr;
    if (!c.qual.empty()) {
      auto it = tbl_.by_cls_name.find({c.qual, c.name});
      if (it == tbl_.by_cls_name.end()) return -1;
      ids = &it->second;
    } else {
      auto it = tbl_.by_name.find(c.name);
      if (it == tbl_.by_name.end()) return -1;
      ids = &it->second;
    }
    std::vector<int> local;
    for (int id : *ids) {
      if (fn_file(id) == from_file) local.push_back(id);
    }
    if (local.size() == 1) return local[0];
    if (local.empty() && ids->size() == 1) return (*ids)[0];
    return -1;
  }

  // ---- R5: transitive nondeterminism taint ----------------------------
  void rule_r5() {
    const int n = static_cast<int>(tbl_.all.size());
    // Seed state: 0 = clean, 1 = tainted. witness_[id] describes why:
    // either the direct source or the tainted callee we reach it through.
    std::vector<char> tainted(static_cast<std::size_t>(n), 0);
    std::vector<std::string> witness(static_cast<std::size_t>(n));
    for (int id = 0; id < n; ++id) {
      const FnDef& f = fn(id);
      const int fi = fn_file(id);
      if (f.source_name.empty() || pcs_[static_cast<std::size_t>(fi)].barrier) {
        continue;
      }
      // Source-side waiver: ALLOW(R5) covering the source read (or the
      // definition line) declares the island safe for all callers.
      if (is_suppressed(file(fi).suppressions, "R5", f.source_line) ||
          is_suppressed(file(fi).suppressions, "R5", f.line)) {
        continue;
      }
      tainted[static_cast<std::size_t>(id)] = 1;
      witness[static_cast<std::size_t>(id)] =
          "source '" + f.source_name + "' at " + file(fi).label + ":" +
          std::to_string(f.source_line);
    }
    // Fixpoint: taint flows callee -> caller unless the callee sits behind
    // a barrier path.
    bool changed = true;
    while (changed) {
      changed = false;
      for (int id = 0; id < n; ++id) {
        if (tainted[static_cast<std::size_t>(id)]) continue;
        const FnDef& f = fn(id);
        for (const CallSite& c : f.calls) {
          const int callee = resolve(c, fn_file(id));
          if (callee < 0 || !tainted[static_cast<std::size_t>(callee)]) {
            continue;
          }
          if (pcs_[static_cast<std::size_t>(fn_file(callee))].barrier) continue;
          tainted[static_cast<std::size_t>(id)] = 1;
          witness[static_cast<std::size_t>(id)] =
              fn(callee).name + "() -> " +
              witness[static_cast<std::size_t>(callee)];
          changed = true;
          break;
        }
      }
    }
    // Report every call in R5-scope code whose callee is tainted.
    for (int id = 0; id < n; ++id) {
      const int fi = fn_file(id);
      const PathClass& pc = pcs_[static_cast<std::size_t>(fi)];
      if (!pc.wpa || pc.barrier) continue;
      const FnDef& f = fn(id);
      for (const CallSite& c : f.calls) {
        const int callee = resolve(c, fi);
        if (callee < 0 || !tainted[static_cast<std::size_t>(callee)]) continue;
        add(fi, c.line, "R5",
            "call to '" + c.name +
                "()' transitively reaches a nondeterminism source (" +
                witness[static_cast<std::size_t>(callee)] +
                "): route the value through core::Rng / SimTime, or waive "
                "at the source with ALLOW(R5) if the island is by design");
      }
    }
  }

  // ---- R6: reset-completeness for pooled classes ----------------------
  void rule_r6() {
    // Collect classes with members declared in pooled-reuse paths.
    std::map<std::string, std::vector<std::pair<int, const MemberDecl*>>> cls;
    for (int fi = 0; fi < static_cast<int>(pi_.files.size()); ++fi) {
      if (!pcs_[static_cast<std::size_t>(fi)].r6_pool) continue;
      for (const MemberDecl& m : file(fi).members) {
        cls[m.cls].emplace_back(fi, &m);
      }
    }
    for (auto& [name, members] : cls) {
      // reset() wins; clear() is the fallback spelling (MetricsRegistry).
      const std::vector<int>* resets = nullptr;
      auto it = tbl_.by_cls_name.find({name, "reset"});
      if (it != tbl_.by_cls_name.end()) {
        resets = &it->second;
      } else {
        it = tbl_.by_cls_name.find({name, "clear"});
        if (it != tbl_.by_cls_name.end()) resets = &it->second;
      }
      if (resets == nullptr) continue;  // not a pooled-reuse class
      std::set<std::string> touched;
      std::string reset_label;
      for (int id : *resets) {
        const FnDef& f = fn(id);
        if (f.ctor_dtor) continue;
        for (const Touch& t : f.touches) touched.insert(t.name);
        if (reset_label.empty()) {
          reset_label = file(fn_file(id)).label + ":" + std::to_string(f.line);
        }
      }
      if (reset_label.empty()) continue;
      for (auto& [fi, m] : members) {
        if (touched.count(m->name)) continue;
        add(fi, m->line, "R6",
            "member '" + m->name + "' of pooled class '" + name +
                "' is not reassigned in " + name + "::reset() (" +
                reset_label +
                "): stale state survives pooled reuse and breaks the "
                "reset-determinism contract; reset it or waive with "
                "ALLOW(R6) stating why it must persist");
      }
    }
  }

  // ---- R7: guarded-member discipline ----------------------------------
  void rule_r7() {
    for (int fi = 0; fi < static_cast<int>(pi_.files.size()); ++fi) {
      for (const MemberDecl& m : file(fi).members) {
        if (m.guarded_by.empty()) continue;
        auto byc = tbl_.by_cls_name.lower_bound({m.cls, ""});
        for (; byc != tbl_.by_cls_name.end() && byc->first.first == m.cls;
             ++byc) {
          for (int id : byc->second) {
            const FnDef& f = fn(id);
            if (f.ctor_dtor) continue;
            const Touch* hit = nullptr;
            for (const Touch& t : f.touches) {
              if (t.name == m.name) {
                hit = &t;
                break;
              }
            }
            if (hit == nullptr) continue;
            bool held =
                std::find(f.locks.begin(), f.locks.end(), m.guarded_by) !=
                    f.locks.end() ||
                std::find(f.require.begin(), f.require.end(), m.guarded_by) !=
                    f.require.end();
            if (!held) {
              auto rd = declared_require_.find({f.cls, f.name});
              held = rd != declared_require_.end() &&
                     rd->second.count(m.guarded_by) > 0;
            }
            if (held) continue;
            add(fn_file(id), hit->line, "R7",
                "member '" + m.name + "' is AVSEC_GUARDED_BY(" +
                    m.guarded_by + ") but '" + m.cls + "::" + f.name +
                    "' neither locks nor AVSEC_REQUIRES it: data race "
                    "on gcc builds that clang TSA would reject");
          }
        }
      }
    }
  }

  // ---- R9: unreferenced function -------------------------------------
  void rule_r9() {
    std::set<std::string_view> named;
    for (const FileIndex& f : pi_.files) named.insert(f.refs.begin(), f.refs.end());
    for (int fi = 0; fi < static_cast<int>(pi_.files.size()); ++fi) {
      const PathClass& pc = pcs_[static_cast<std::size_t>(fi)];
      if (!pc.wpa || !pc.header) continue;  // src/ headers declare the API
      for (const FnDecl& d : file(fi).decls) {
        if (named.count(d.name)) continue;
        add(fi, d.line, "R9",
            "function '" + d.name +
                "' is declared in a src/ header but no file names it "
                "outside its declarations and definitions: delete it, or "
                "waive with ALLOW(R9) stating why it is kept");
      }
    }
  }

  const ProjectIndex& pi_;
  FnTable tbl_;
  std::vector<PathClass> pcs_;
  std::map<std::pair<std::string, std::string>, std::set<std::string>>
      declared_require_;  // (cls, method) -> caps from declarations
  std::vector<Finding> findings_;
};

}  // namespace

std::vector<Finding> lint_project(const ProjectIndex& pi) {
  return ProjectLint(pi).run();
}

std::vector<Finding> lint_sources(
    const std::vector<std::pair<std::string, std::string>>& label_and_source) {
  std::vector<Finding> out;
  ProjectIndex pi;
  for (const auto& [label, source] : label_and_source) {
    AnalyzedFile af = analyze_source(label, source);
    out.insert(out.end(), std::make_move_iterator(af.findings.begin()),
               std::make_move_iterator(af.findings.end()));
    pi.files.push_back(std::move(af.index));
  }
  std::sort(pi.files.begin(), pi.files.end(),
            [](const FileIndex& a, const FileIndex& b) {
              return a.label < b.label;
            });
  std::vector<Finding> wpa = lint_project(pi);
  out.insert(out.end(), std::make_move_iterator(wpa.begin()),
             std::make_move_iterator(wpa.end()));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace avsec::lint
