// jigsaw_analyze: a semantic dataflow pass over the C++ sources.
//
// Where jigsaw_lint (tools/lint/) is token-level — one rule looks at one
// token window — this tool upgrades the same lexer into a lightweight
// C++-subset parser: per-file scope tracking (namespace / class /
// function frames), class member tables with `GUARDED_BY` annotations,
// function body token ranges, and a cross-file view of guarded members
// and observability names. On top of that model it runs dataflow rules
// that no token window can express (docs/STATIC_ANALYSIS.md):
//
//   status-propagation  every local of type Status/Result<T> must be
//                       consulted after it is produced — returned,
//                       compared, .ok()-checked, or passed on. Catches
//                       the path [[nodiscard]] misses: a status stored
//                       into a named local and then dropped.
//   rcu-discipline      members annotated GUARDED_BY(mu) are only
//                       touched in their own class's methods with `mu`
//                       held; every weak_ptr member of Lineage carries
//                       a GUARDED_BY; `std::atomic<std::weak_ptr>` is
//                       banned repo-wide (the GCC 12 _Sp_atomic
//                       relaxed-unlock TSan trap that forced the
//                       mutex-guarded lineage head stays fixed).
//   obs-name-registry   every metric/span name literal used in code
//                       appears exactly once in the generated canonical
//                       registry (docs/OBS_REGISTRY.md), the registry
//                       carries no stale entries, and every name
//                       documented in docs/OBSERVABILITY.md exists in
//                       the registry.
//
// Suppression shares jigsaw_lint's mechanism: a comment starting with
// `// jigsaw-analyze: allow(rule[,rule]): reason` (or the jigsaw-lint:
// tag) on the flagged line or in the block immediately above. Malformed
// directives are jigsaw_lint's bad-suppression findings.
//
// Like the linter, the parser errs on the side of silence: constructs it
// cannot classify (macros, template metaprogramming, qualified accesses
// to non-unique member names) produce no model and therefore no finding.
#pragma once

#include <string>
#include <vector>

#include "lint/lint.hpp"

namespace jigsaw::analyze {

/// One data member of a class, as parsed from the class body. `guarded_by`
/// is the mutex name from a trailing `GUARDED_BY(mu)` / `PT_GUARDED_BY(mu)`
/// annotation (empty when unannotated) — the analyzer reads the annotation
/// tokens from source text, so this works under compilers where the macro
/// expands to nothing.
struct Member {
  std::string name;
  std::string type;  ///< the declaration's type tokens, space-joined
  std::string guarded_by;
  int line = 0;
};

/// One class/struct with its member table.
struct StructInfo {
  std::string name;
  std::vector<Member> members;
  int line = 0;
};

/// One function definition with its token extent. `sig_begin` points at
/// the first token of the declaration head (return type), `body_begin`/
/// `body_end` delimit the tokens between the braces. `class_name` is the
/// enclosing class for in-class definitions or the last `Cls::` qualifier
/// for out-of-line ones (empty for free functions).
struct Function {
  std::string name;
  std::string class_name;
  std::size_t sig_begin = 0;
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  int line = 0;
};

/// The per-file semantic model built on top of lint::SourceFile tokens.
struct FileModel {
  const lint::SourceFile* file = nullptr;
  std::vector<StructInfo> structs;
  std::vector<Function> functions;
};

/// Parses `f`'s token stream into scopes, member tables and function
/// bodies. Never throws on odd code — unparseable regions are dropped.
FileModel build_model(const lint::SourceFile& f);

/// Side inputs for the obs-name-registry rule. When `registry_path` is
/// empty the registry cross-check is skipped (the in-code duplicate scan
/// still runs); when `docs_path` is empty the docs-drift check is skipped.
struct Options {
  std::string registry_path;
  std::string registry_content;
  std::string docs_path;
  std::string docs_content;
};

/// Runs every rule (or only `rules`, when non-empty) over the file set.
/// Cross-file context (guarded members, the obs name inventory) is built
/// from the same set, so callers analyze a coherent tree at once.
std::vector<lint::Finding> run_rules(const std::vector<lint::SourceFile>& files,
                                     const std::vector<std::string>& rules = {},
                                     const Options& opts = {});

/// The rule names run_rules knows, in catalog order. Pinned against
/// lint::analyzer_rule_names() by tests/test_analyze.cpp.
std::vector<std::string> rule_names();

/// Renders the canonical observability-name registry for the file set —
/// the exact content of docs/OBS_REGISTRY.md. Deterministic: sorted,
/// deduplicated, one `- \`name\`` bullet per entry.
std::string generate_obs_registry(const std::vector<lint::SourceFile>& files);

}  // namespace jigsaw::analyze
