// jigsaw_lint: a project-invariant checker over the C++ sources.
//
// A deliberately small, dependency-free static-analysis pass: its own
// tokenizer (comments, strings, raw strings, preprocessor lines handled;
// no libclang), a per-file token stream, and a fixed catalog of rules
// encoding the contracts the library's tiers rely on (docs/
// STATIC_ANALYSIS.md):
//
//   bounded-alloc     the untrusted-input files (core/serialize.cpp,
//                     core/format_validate.cpp) allocate only through
//                     annotated bounded helpers
//   no-magic-bounds   the files sharing core/format_limits.hpp may not
//                     re-spell its limits as literals
//   obs-name          obs counter/gauge/histogram/span literals follow
//                     the `<subsystem>.<noun>[_<unit>]` convention of
//                     docs/OBSERVABILITY.md
//   raw-alloc         no raw new/delete/malloc outside src/common/
//   hot-path-alloc    files tagged `// jigsaw-lint: hot-path` construct
//                     no containers (vector/string/DenseMatrix/...) —
//                     hot loops keep scratch in grow-only per-thread
//                     buffers; each construction carries an allow()
//   header-hygiene    headers start with #pragma once and directly
//                     include the std headers of the std:: symbols they
//                     use (IWYU-lite)
//   bad-suppression   every allow() directive names only known rules
//                     (jigsaw_lint's and jigsaw_analyze's) and carries
//                     `): reason` prose — a malformed suppression is a
//                     finding, not a silent no-op
//
// Suppression: a `// jigsaw-lint: allow(rule[,rule]): reason` comment on
// the flagged line, or in the comment block immediately above it,
// silences those rules for that line (`// jigsaw-analyze:` is accepted
// as an equivalent tag for the semantic analyzer's rules). The reason
// prose is mandatory — enforced by bad-suppression.
//
// A dropped Status/Result is not a lint rule: the classes are
// [[nodiscard]] and the build compiles with -Werror=unused-result, so
// the compiler rejects every discard precisely.
//
// The tool is token-level, not semantic: rules are written so that the
// cheap approximation errs on the side of silence (e.g. raw-alloc skips
// member calls that merely share a libc name, such as `pool.free()`),
// and anything it does flag is suppressible in place.
#pragma once

#include <string>
#include <vector>

namespace jigsaw::lint {

/// One lexed token. Preprocessor directives, comments and whitespace are
/// not tokens (directives are captured on SourceFile instead).
struct Token {
  enum class Kind : unsigned char {
    kIdent,    ///< identifier or keyword
    kNumber,   ///< numeric literal, suffix included (`1ull`)
    kString,   ///< string literal, quotes stripped, escapes raw
    kChar,     ///< character literal
    kPunct,    ///< operator/punctuator (a small multi-char set is fused)
  };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 0;
};

/// A `// jigsaw-lint: allow(...)` directive resolved to the line it
/// covers (its own line for trailing comments, else the next code line).
struct Suppression {
  int line = 0;
  std::string rule;
};

/// One `allow(...)` directive as written, before resolution — the
/// bad-suppression rule validates these (rule names must be known, the
/// `): reason` prose must be present).
struct AllowDirective {
  int line = 0;  ///< line of the comment itself
  std::vector<std::string> rules;
  bool has_reason = false;  ///< non-empty prose after the `):`
};

/// One parsed source file ready for the rules.
struct SourceFile {
  std::string path;     ///< as reported in findings
  bool is_header = false;
  std::string content;
  std::vector<Token> tokens;
  std::vector<std::string> includes;  ///< include targets, brackets/quotes stripped
  bool has_pragma_once = false;
  /// Set by a standalone comment starting with `jigsaw-lint: hot-path`
  /// (mentions inside strings or prose do not count).
  bool hot_path_tagged = false;
  std::vector<Suppression> suppressions;
  std::vector<AllowDirective> allows;
};

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  std::string to_string() const;
};

/// Lexes `content` into `file` (tokens, includes, suppressions). `path`
/// is used verbatim in findings.
SourceFile parse_source(std::string path, std::string content);

/// Loads and parses one file from disk. Throws std::runtime_error when
/// the file cannot be read.
SourceFile load_source(const std::string& path);

/// Runs every rule (or only `rules`, when non-empty) over the file set.
std::vector<Finding> run_rules(const std::vector<SourceFile>& files,
                               const std::vector<std::string>& rules = {});

/// The rule names run_rules knows, in catalog order.
std::vector<std::string> rule_names();

/// Rule names of the semantic analyzer (tools/jigsaw_analyze), which
/// shares the `allow()` suppression mechanism. Kept here so the
/// bad-suppression rule recognizes them without a dependency cycle;
/// tests/test_analyze.cpp pins this list against the analyzer's own
/// catalog.
std::vector<std::string> analyzer_rule_names();

/// True when `rule` is suppressed on `line` of `f` by an allow()
/// directive (shared with the semantic analyzer's rules).
bool is_suppressed(const SourceFile& f, int line, const std::string& rule);

/// Recursively collects the .hpp/.cpp files under each path (files are
/// taken as-is), sorted. Nonexistent paths throw std::runtime_error.
std::vector<std::string> collect_sources(const std::vector<std::string>& paths);

}  // namespace jigsaw::lint
