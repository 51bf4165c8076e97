#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace jigsaw::lint {

namespace {

using Kind = Token::Kind;

bool ident_is(const Token& t, const char* text) {
  return t.kind == Kind::kIdent && t.text == text;
}
bool punct_is(const Token& t, const char* text) {
  return t.kind == Kind::kPunct && t.text == text;
}

// ---- Lexer ---------------------------------------------------------------

/// Two-character punctuators fused into one token. `>>` is fused too;
/// template-skipping code counts it as two closers.
const char* const kFusedPunct[] = {
    "::", "->", "<<", ">>", "[[", "]]", "==", "!=", "<=", ">=", "&&",
    "||", "+=", "-=", "*=", "/=", "%=", "^=", "|=", "&=", "++", "--",
};

/// True when a comment's text, leading whitespace and `/`s stripped,
/// starts with `prefix` — the form of a standalone tag comment like
/// `// jigsaw-lint: hot-path`. Mentions of the tag mid-prose or inside
/// string literals never match.
bool comment_starts_with(const std::string& comment,
                         const std::string& prefix) {
  std::size_t k = 0;
  while (k < comment.size() &&
         (comment[k] == '/' ||
          std::isspace(static_cast<unsigned char>(comment[k])))) {
    ++k;
  }
  return comment.compare(k, prefix.size(), prefix) == 0;
}

/// Extracts the `allow(rule[,rule]): reason` directive from a comment's
/// text, if any. Both the `jigsaw-lint:` and `jigsaw-analyze:` tags are
/// accepted (the semantic analyzer shares the suppression mechanism),
/// and the tag must open the comment — prose *describing* the syntax is
/// not a directive. Returns whether a directive was found; `out.rules`
/// may be empty for a malformed `allow()` (bad-suppression reports
/// those).
bool parse_allow_directive(const std::string& comment, AllowDirective& out) {
  if (!comment_starts_with(comment, "jigsaw-lint:") &&
      !comment_starts_with(comment, "jigsaw-analyze:")) {
    return false;
  }
  std::size_t at = comment.find("allow(");
  if (at == std::string::npos) return false;
  const std::size_t open = at + 5;
  const std::size_t close = comment.find(')', open);
  if (close == std::string::npos) return false;
  std::string inside = comment.substr(open + 1, close - open - 1);
  std::string current;
  for (char c : inside + ",") {
    if (c == ',') {
      if (!current.empty()) out.rules.push_back(current);
      current.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      current += c;
    }
  }
  // The reason is the prose after `):` — require a colon and at least one
  // non-space character behind it on the directive's own line.
  std::size_t after = close + 1;
  while (after < comment.size() &&
         std::isspace(static_cast<unsigned char>(comment[after])) &&
         comment[after] != '\n') {
    ++after;
  }
  if (after < comment.size() && comment[after] == ':') {
    for (std::size_t k = after + 1; k < comment.size(); ++k) {
      if (!std::isspace(static_cast<unsigned char>(comment[k]))) {
        out.has_reason = true;
        break;
      }
    }
  }
  return true;
}

struct Lexer {
  const std::string& src;
  SourceFile& out;
  std::size_t i = 0;
  int line = 1;
  /// allow() rules from a comment block not yet anchored to a code line.
  std::vector<std::string> pending_rules;

  explicit Lexer(const std::string& s, SourceFile& f) : src(s), out(f) {}

  bool eof() const { return i >= src.size(); }
  char peek(std::size_t ahead = 0) const {
    return i + ahead < src.size() ? src[i + ahead] : '\0';
  }
  void advance() {
    if (src[i] == '\n') ++line;
    ++i;
  }

  void push(Kind kind, std::string text, int at_line) {
    out.tokens.push_back(Token{kind, std::move(text), at_line});
    for (std::string& rule : pending_rules) {
      out.suppressions.push_back(Suppression{at_line, std::move(rule)});
    }
    pending_rules.clear();
  }

  void handle_comment(const std::string& text, int start_line) {
    if (comment_starts_with(text, "jigsaw-lint: hot-path")) {
      out.hot_path_tagged = true;
    }
    AllowDirective directive;
    if (!parse_allow_directive(text, directive)) return;
    directive.line = start_line;
    const bool trailing =
        !out.tokens.empty() && out.tokens.back().line == start_line;
    for (const std::string& rule : directive.rules) {
      if (trailing) {
        out.suppressions.push_back(Suppression{start_line, rule});
      } else {
        pending_rules.push_back(rule);
      }
    }
    out.allows.push_back(std::move(directive));
  }

  /// Consumes a whole preprocessor directive (with `\` continuations),
  /// recording #include targets and #pragma once.
  void handle_preprocessor() {
    std::string text;
    while (!eof()) {
      const char c = peek();
      if (c == '\\' && peek(1) == '\n') {
        advance();
        advance();
        continue;
      }
      if (c == '\n') break;
      text += c;
      advance();
    }
    std::istringstream is(text);
    std::string hash, word;
    is >> hash >> word;
    if (hash == "#") {
      // `#  include` splits; renormalize.
      hash += word;
      is >> word;
      std::swap(hash, word);
      word = hash;
    }
    if (text.find("pragma") != std::string::npos &&
        text.find("once") != std::string::npos) {
      out.has_pragma_once = true;
    }
    const std::size_t inc = text.find("include");
    if (inc != std::string::npos) {
      std::size_t open = text.find_first_of("<\"", inc);
      if (open != std::string::npos) {
        const char closer = text[open] == '<' ? '>' : '"';
        const std::size_t close = text.find(closer, open + 1);
        if (close != std::string::npos) {
          out.includes.push_back(text.substr(open + 1, close - open - 1));
        }
      }
    }
  }

  void lex_string() {
    const int at = line;
    advance();  // opening quote
    std::string text;
    while (!eof() && peek() != '"') {
      if (peek() == '\\' && i + 1 < src.size()) {
        text += peek();
        advance();
      }
      text += peek();
      advance();
    }
    if (!eof()) advance();  // closing quote
    push(Kind::kString, std::move(text), at);
  }

  void lex_raw_string() {
    const int at = line;
    advance();  // the opening quote (R already consumed by caller)
    std::string delim;
    while (!eof() && peek() != '(') {
      delim += peek();
      advance();
    }
    const std::string closer = ")" + delim + "\"";
    std::string text;
    while (!eof() && src.compare(i, closer.size(), closer) != 0) {
      text += peek();
      advance();
    }
    for (std::size_t k = 0; k < closer.size() && !eof(); ++k) advance();
    push(Kind::kString, std::move(text), at);
  }

  void run() {
    bool line_has_code = false;
    while (!eof()) {
      const char c = peek();
      if (c == '\n') {
        line_has_code = false;
        advance();
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        advance();
        continue;
      }
      if (c == '#' && !line_has_code) {
        handle_preprocessor();
        continue;
      }
      if (c == '/' && peek(1) == '/') {
        const int at = line;
        std::string text;
        while (!eof() && peek() != '\n') {
          text += peek();
          advance();
        }
        handle_comment(text, at);
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        const int at = line;
        std::string text;
        advance();
        advance();
        while (!eof() && !(peek() == '*' && peek(1) == '/')) {
          text += peek();
          advance();
        }
        advance();
        advance();
        handle_comment(text, at);
        continue;
      }
      line_has_code = true;
      if (c == '"') {
        lex_string();
        continue;
      }
      // Raw / prefixed string literals: R"...", u8R"...", LR"..." etc.
      if ((c == 'R' || c == 'L' || c == 'u' || c == 'U') &&
          looks_like_string_prefix()) {
        continue;  // looks_like_string_prefix consumed it
      }
      if (c == '\'') {
        const int at = line;
        advance();
        std::string text;
        while (!eof() && peek() != '\'') {
          if (peek() == '\\') {
            text += peek();
            advance();
          }
          if (!eof()) {
            text += peek();
            advance();
          }
        }
        if (!eof()) advance();
        push(Kind::kChar, std::move(text), at);
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
        const int at = line;
        std::string text;
        while (!eof()) {
          const char d = peek();
          if (std::isalnum(static_cast<unsigned char>(d)) || d == '.' ||
              d == '\'' ||
              ((d == '+' || d == '-') && !text.empty() &&
               (text.back() == 'e' || text.back() == 'E' ||
                text.back() == 'p' || text.back() == 'P'))) {
            text += d;
            advance();
          } else {
            break;
          }
        }
        // Digit separators are irrelevant to the rules; normalize away.
        text.erase(std::remove(text.begin(), text.end(), '\''), text.end());
        push(Kind::kNumber, std::move(text), at);
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        const int at = line;
        std::string text;
        while (!eof() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                          peek() == '_')) {
          text += peek();
          advance();
        }
        push(Kind::kIdent, std::move(text), at);
        continue;
      }
      // Punctuator: try the fused two-char set first.
      const int at = line;
      for (const char* fused : kFusedPunct) {
        if (c == fused[0] && peek(1) == fused[1]) {
          advance();
          advance();
          push(Kind::kPunct, fused, at);
          goto next;
        }
      }
      advance();
      push(Kind::kPunct, std::string(1, c), at);
    next:;
    }
  }

  /// When positioned at a possible string-literal prefix (R, u8R, LR,
  /// uR, UR), consumes the raw string and returns true. For plain
  /// identifiers returns false without consuming.
  bool looks_like_string_prefix() {
    std::size_t k = i;
    while (k < src.size() &&
           (std::isalnum(static_cast<unsigned char>(src[k])) ||
            src[k] == '_')) {
      ++k;
    }
    // Identifier followed by a quote with an R immediately before it.
    if (k < src.size() && src[k] == '"' && k > i && src[k - 1] == 'R' &&
        k - i <= 3) {
      while (i < k - 1) advance();  // consume prefix up to the R
      advance();                    // the R
      lex_raw_string();
      return true;
    }
    return false;
  }
};

void report(std::vector<Finding>& findings, const SourceFile& f, int line,
            std::string rule, std::string message) {
  if (is_suppressed(f, line, rule)) return;
  findings.push_back(Finding{f.path, line, std::move(rule),
                             std::move(message)});
}

bool path_ends_with(const std::string& path, const std::string& tail) {
  return path.size() >= tail.size() &&
         path.compare(path.size() - tail.size(), tail.size(), tail) == 0;
}

bool path_contains(const std::string& path, const std::string& piece) {
  return path.find(piece) != std::string::npos;
}

// ---- Token helpers -------------------------------------------------------

/// Skips a balanced `<...>` starting at tokens[j] (which must be `<`).
/// Returns the index one past the closing `>`. `>>` counts double.
std::size_t skip_template_args(const std::vector<Token>& toks,
                               std::size_t j) {
  int depth = 0;
  for (; j < toks.size(); ++j) {
    const std::string& t = toks[j].text;
    if (t == "<") ++depth;
    if (t == "<=" || t == "<<") continue;  // not template brackets
    if (t == ">") --depth;
    if (t == ">>") depth -= 2;
    if (depth <= 0 && (t == ">" || t == ">>")) return j + 1;
  }
  return j;
}

// ---- Rule: bounded-alloc -------------------------------------------------

bool is_bounded_alloc_file(const std::string& path) {
  return path_ends_with(path, "core/serialize.cpp") ||
         path_ends_with(path, "core/format_validate.cpp") ||
         path_contains(path, "lint_fixtures");
}

void rule_bounded_alloc(const SourceFile& f,
                        std::vector<Finding>& findings) {
  if (!is_bounded_alloc_file(f.path) || f.is_header) return;
  const std::vector<Token>& toks = f.tokens;
  static const std::set<std::string> kAllocFns = {
      "malloc", "calloc", "realloc", "strdup", "aligned_alloc"};
  static const std::set<std::string> kGrowers = {"resize", "reserve"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Kind::kIdent) continue;
    if (t.text == "new") {
      report(findings, f, t.line, "bounded-alloc",
             "raw `new` in an untrusted-input file: allocate through a "
             "bounded helper (see core/format_limits.hpp)");
      continue;
    }
    const bool call_like =
        i + 1 < toks.size() && punct_is(toks[i + 1], "(");
    if (call_like && kAllocFns.count(t.text) > 0) {
      report(findings, f, t.line, "bounded-alloc",
             "`" + t.text + "` in an untrusted-input file: allocate "
             "through a bounded helper (see core/format_limits.hpp)");
      continue;
    }
    if (call_like && kGrowers.count(t.text) > 0 && i > 0 &&
        (punct_is(toks[i - 1], ".") || punct_is(toks[i - 1], "->"))) {
      report(findings, f, t.line, "bounded-alloc",
             "`" + t.text + "` sizes an allocation from parsed input: "
             "bound it first (kMaxFormatElements / stream remaining) and "
             "annotate the helper with jigsaw-lint: allow(bounded-alloc)");
      continue;
    }
    // Sized container construction: vector<...> name(expr...) or the
    // temporary form vector<...>(expr...).
    if (t.text == "vector" && i + 1 < toks.size() &&
        punct_is(toks[i + 1], "<")) {
      std::size_t j = skip_template_args(toks, i + 1);
      if (j < toks.size() && toks[j].kind == Kind::kIdent &&
          j + 1 < toks.size()) {
        ++j;  // named declaration: the paren (if any) follows the name
      }
      if (j < toks.size() && punct_is(toks[j], "(") &&
          j + 1 < toks.size() && !punct_is(toks[j + 1], ")")) {
        report(findings, f, toks[j].line, "bounded-alloc",
               "sized vector construction from parsed input: bound the "
               "size first and annotate with jigsaw-lint: "
               "allow(bounded-alloc)");
      }
    }
  }
}

// ---- Rule: no-magic-bounds -----------------------------------------------

bool shares_format_limits(const std::string& path) {
  return path_ends_with(path, "core/serialize.cpp") ||
         path_ends_with(path, "core/format_validate.cpp") ||
         path_ends_with(path, "tools/fuzz_format.cpp") ||
         path_contains(path, "lint_fixtures");
}

void rule_no_magic_bounds(const SourceFile& f,
                          std::vector<Finding>& findings) {
  if (!shares_format_limits(f.path) ||
      path_ends_with(f.path, "format_limits.hpp")) {
    return;
  }
  const std::vector<Token>& toks = f.tokens;
  const auto is_one = [](const Token& t) {
    return t.kind == Kind::kNumber &&
           (t.text == "1" || t.text == "1u" || t.text == "1ul" ||
            t.text == "1ull" || t.text == "1U" || t.text == "1UL" ||
            t.text == "1ULL");
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Kind::kNumber) continue;
    const bool literal_value =
        t.text == "1073741824" || t.text == "0x40000000";
    // `1 << 30` or the braced-init spelling `uint64_t{1} << 30`.
    bool shifted_one = false;
    if (t.text == "30" && i >= 2 && punct_is(toks[i - 1], "<<")) {
      std::size_t lhs = i - 2;
      if (punct_is(toks[lhs], "}") && lhs >= 1) --lhs;
      shifted_one = is_one(toks[lhs]);
    }
    if (literal_value || shifted_one) {
      report(findings, f, t.line, "no-magic-bounds",
             "allocation bound respelled as a literal: use "
             "kMaxFormatElements / kMaxFormatDimension from "
             "core/format_limits.hpp so the loader, validator and fuzzer "
             "cannot drift apart");
    }
  }
}

// ---- Rule: obs-name ------------------------------------------------------

const std::set<std::string>& obs_subsystems() {
  static const std::set<std::string> kSubsystems = {
      "checked", "engine",    "format", "hybrid", "kernel",
      "reorder", "serialize", "obs",
  };
  return kSubsystems;
}

bool obs_name_valid(const std::string& name) {
  std::vector<std::string> segments;
  std::string current;
  for (char c : name + ".") {
    if (c == '.') {
      if (current.empty()) return false;
      segments.push_back(current);
      current.clear();
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
               c == '_') {
      current += c;
    } else {
      return false;
    }
  }
  return segments.size() >= 2 && obs_subsystems().count(segments[0]) > 0;
}

void rule_obs_name(const SourceFile& f, std::vector<Finding>& findings) {
  const std::vector<Token>& toks = f.tokens;
  static const std::set<std::string> kObsFns = {
      "add", "counter", "gauge", "gauge_set", "observe", "histogram"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (ident_is(toks[i], "JIGSAW_TRACE_SCOPE") && i + 4 < toks.size() &&
        punct_is(toks[i + 1], "(")) {
      if (toks[i + 2].kind == Kind::kString) {
        const std::string& category = toks[i + 2].text;
        if (obs_subsystems().count(category) == 0) {
          report(findings, f, toks[i + 2].line, "obs-name",
                 "span category \"" + category + "\" is not a known "
                 "subsystem (docs/OBSERVABILITY.md naming table)");
        }
      }
      if (punct_is(toks[i + 3], ",") && toks[i + 4].kind == Kind::kString &&
          !obs_name_valid(toks[i + 4].text)) {
        report(findings, f, toks[i + 4].line, "obs-name",
               "span name \"" + toks[i + 4].text + "\" does not match the "
               "`<subsystem>.<noun>[_<unit>]` convention");
      }
      continue;
    }
    if (ident_is(toks[i], "obs") && i + 4 < toks.size() &&
        punct_is(toks[i + 1], "::") && toks[i + 2].kind == Kind::kIdent &&
        kObsFns.count(toks[i + 2].text) > 0 &&
        punct_is(toks[i + 3], "(") &&
        toks[i + 4].kind == Kind::kString &&
        !obs_name_valid(toks[i + 4].text)) {
      report(findings, f, toks[i + 4].line, "obs-name",
             "instrument name \"" + toks[i + 4].text + "\" does not match "
             "the `<subsystem>.<noun>[_<unit>]` convention "
             "(docs/OBSERVABILITY.md)");
    }
  }
}

// ---- Rule: raw-alloc -----------------------------------------------------

void rule_raw_alloc(const SourceFile& f, std::vector<Finding>& findings) {
  if (path_contains(f.path, "common/") &&
      !path_contains(f.path, "lint_fixtures")) {
    return;  // common/ owns the low-level primitives
  }
  const std::vector<Token>& toks = f.tokens;
  static const std::set<std::string> kAllocFns = {"malloc", "calloc",
                                                  "realloc", "free"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Kind::kIdent) continue;
    // `= delete` declarations are not deallocations; `= new T` is a real
    // allocation, so the exclusion applies to `delete` only.
    const bool deleted_fn =
        t.text == "delete" && i > 0 && punct_is(toks[i - 1], "=");
    const bool after_operator = i > 0 && ident_is(toks[i - 1], "operator");
    if ((t.text == "new" || t.text == "delete") && !deleted_fn &&
        !after_operator) {
      report(findings, f, t.line, "raw-alloc",
             "raw `" + t.text + "` outside src/common/: own memory through "
             "containers or smart pointers");
      continue;
    }
    // Member calls that merely share a libc name (x.free(), m->count())
    // are excluded; the std:: qualification is not.
    if (kAllocFns.count(t.text) > 0 && i + 1 < toks.size() &&
        punct_is(toks[i + 1], "(") && !after_operator &&
        !(i > 0 && (punct_is(toks[i - 1], ".") ||
                    punct_is(toks[i - 1], "->")))) {
      report(findings, f, t.line, "raw-alloc",
             "`" + t.text + "` outside src/common/: own memory through "
             "containers or smart pointers");
    }
  }
}

// ---- Rule: hot-path-alloc ------------------------------------------------

/// Allocating container/type heads the hot-path rule watches for.
const std::set<std::string>& hot_path_containers() {
  static const std::set<std::string> kContainers = {
      "vector",        "string",        "basic_string", "deque",
      "list",          "map",           "set",          "multimap",
      "multiset",      "unordered_map", "unordered_set", "stringstream",
      "ostringstream", "istringstream", "function",     "DenseMatrix",
      "CsrMatrix"};
  return kContainers;
}

/// True when toks[j] (an opening paren) starts an expression argument
/// list — a constructor call — rather than a function declaration's
/// parameter list (types). Token-level approximation: expressions open
/// with a literal, or an identifier followed by an operator-ish token.
bool paren_starts_expression(const std::vector<Token>& toks, std::size_t j) {
  if (j + 1 >= toks.size()) return false;
  const Token& a = toks[j + 1];
  if (a.kind == Kind::kNumber || a.kind == Kind::kString) return true;
  if (a.kind != Kind::kIdent || j + 2 >= toks.size()) return false;
  static const std::set<std::string> kExprFollow = {")", ",", ".", "->",
                                                    "(", "["};
  return kExprFollow.count(toks[j + 2].text) > 0;
}

/// Files that opt in with a `// jigsaw-lint: hot-path` tag promise their
/// execute loops construct no containers: every declaration or temporary
/// of an allocating type must carry an allow(hot-path-alloc) naming why
/// that site is cold. Token-level, so function declarations whose
/// parameter lists read as types stay silent.
void rule_hot_path_alloc(const SourceFile& f,
                         std::vector<Finding>& findings) {
  if (!f.hot_path_tagged) return;
  const std::vector<Token>& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Kind::kIdent || hot_path_containers().count(t.text) == 0) {
      continue;
    }
    // Member calls that merely share a name (x.function(), s.set(...)).
    if (i > 0 &&
        (punct_is(toks[i - 1], ".") || punct_is(toks[i - 1], "->"))) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < toks.size() && punct_is(toks[j], "<")) {
      j = skip_template_args(toks, j);
    }
    if (j >= toks.size()) continue;
    bool constructed = false;
    if (punct_is(toks[j], "(")) {
      constructed = paren_starts_expression(toks, j);  // temporary
    } else if (toks[j].kind == Kind::kIdent && j + 1 < toks.size()) {
      // Named declaration: `vector<T> name;` / `= ...` / `{...}` /
      // `(args)`. References and pointers never reach here (the `&`/`*`
      // after the template args fails the ident check).
      const Token& after = toks[j + 1];
      constructed = punct_is(after, ";") || punct_is(after, "=") ||
                    punct_is(after, "{") ||
                    (punct_is(after, "(") &&
                     paren_starts_expression(toks, j + 1));
    }
    if (constructed) {
      report(findings, f, toks[j].line, "hot-path-alloc",
             "`" + t.text + "` constructed in a hot-path file: keep "
             "scratch in a grow-only per-thread buffer, or mark the site "
             "with jigsaw-lint: allow(hot-path-alloc) and the reason");
    }
  }
}

// ---- Rule: header-hygiene ------------------------------------------------

struct SymbolRequirement {
  const char* symbol;
  /// Any one of these includes satisfies the use.
  std::vector<const char*> headers;
};

const std::vector<SymbolRequirement>& iwyu_map() {
  static const std::vector<SymbolRequirement> kMap = {
      {"vector", {"vector"}},
      {"string", {"string"}},
      {"string_view", {"string_view"}},
      {"atomic", {"atomic"}},
      {"mutex", {"mutex"}},
      {"lock_guard", {"mutex"}},
      {"unique_lock", {"mutex"}},
      {"scoped_lock", {"mutex"}},
      {"condition_variable", {"condition_variable"}},
      {"thread", {"thread"}},
      {"future", {"future"}},
      {"promise", {"future"}},
      {"packaged_task", {"future"}},
      {"optional", {"optional"}},
      {"nullopt", {"optional"}},
      {"variant", {"variant"}},
      {"holds_alternative", {"variant"}},
      {"get_if", {"variant"}},
      {"monostate", {"variant"}},
      {"function", {"functional"}},
      {"shared_ptr", {"memory"}},
      {"unique_ptr", {"memory"}},
      {"weak_ptr", {"memory"}},
      {"make_shared", {"memory"}},
      {"make_unique", {"memory"}},
      {"static_pointer_cast", {"memory"}},
      {"unordered_map", {"unordered_map"}},
      {"unordered_set", {"unordered_set"}},
      {"map", {"map"}},
      {"list", {"list"}},
      {"deque", {"deque"}},
      {"array", {"array"}},
      {"pair", {"utility"}},
      {"make_pair", {"utility"}},
      {"move", {"utility"}},
      {"forward", {"utility"}},
      {"exchange", {"utility"}},
      {"declval", {"utility"}},
      {"numeric_limits", {"limits"}},
      {"chrono", {"chrono"}},
      {"uint8_t", {"cstdint"}},
      {"uint16_t", {"cstdint"}},
      {"uint32_t", {"cstdint"}},
      {"uint64_t", {"cstdint"}},
      {"int8_t", {"cstdint"}},
      {"int16_t", {"cstdint"}},
      {"int32_t", {"cstdint"}},
      {"int64_t", {"cstdint"}},
      {"ostream", {"iosfwd", "ostream", "iostream", "sstream", "fstream"}},
      {"istream", {"iosfwd", "istream", "iostream", "sstream", "fstream"}},
      {"ostringstream", {"sstream"}},
      {"istringstream", {"sstream"}},
      {"stringstream", {"sstream"}},
      {"ofstream", {"fstream"}},
      {"ifstream", {"fstream"}},
      {"runtime_error", {"stdexcept"}},
      {"logic_error", {"stdexcept"}},
      {"invalid_argument", {"stdexcept"}},
      {"out_of_range", {"stdexcept"}},
      {"min", {"algorithm"}},
      {"max", {"algorithm"}},
      {"clamp", {"algorithm"}},
      {"sort", {"algorithm"}},
      {"fill", {"algorithm"}},
      {"copy", {"algorithm"}},
      {"transform", {"algorithm"}},
      {"all_of", {"algorithm"}},
      {"any_of", {"algorithm"}},
      {"find_if", {"algorithm"}},
      {"lower_bound", {"algorithm"}},
      {"upper_bound", {"algorithm"}},
  };
  return kMap;
}

void rule_header_hygiene(const SourceFile& f,
                         std::vector<Finding>& findings) {
  if (!f.is_header) return;
  if (!f.has_pragma_once) {
    report(findings, f, 1, "header-hygiene",
           "header lacks #pragma once");
  }
  const std::set<std::string> includes(f.includes.begin(),
                                       f.includes.end());
  std::set<std::string> reported;
  const std::vector<Token>& toks = f.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!ident_is(toks[i], "std") || !punct_is(toks[i + 1], "::") ||
        toks[i + 2].kind != Kind::kIdent) {
      continue;
    }
    const std::string& symbol = toks[i + 2].text;
    for (const SymbolRequirement& req : iwyu_map()) {
      if (symbol != req.symbol) continue;
      bool satisfied = false;
      for (const char* header : req.headers) {
        if (includes.count(header) > 0) satisfied = true;
      }
      if (!satisfied && reported.insert(symbol).second) {
        report(findings, f, toks[i + 2].line, "header-hygiene",
               "header uses std::" + symbol + " but does not include <" +
                   std::string(req.headers.front()) +
                   "> itself (IWYU-lite: headers must be self-contained)");
      }
      break;
    }
  }
}

// ---- Rule: bad-suppression -----------------------------------------------

/// Every rule name an allow() may legitimately reference: this tool's
/// catalog plus the semantic analyzer's (which shares the mechanism).
const std::set<std::string>& known_rules() {
  static const std::set<std::string> kKnown = [] {
    std::set<std::string> all;
    for (const std::string& name : rule_names()) all.insert(name);
    for (const std::string& name : analyzer_rule_names()) all.insert(name);
    return all;
  }();
  return kKnown;
}

/// A suppression that silences nothing (unknown rule) or argues nothing
/// (missing reason) is worse than none: it reads as reviewed-and-waived
/// while waiving nothing, or waives without the mandatory argument. Both
/// were silently accepted before this rule existed.
void rule_bad_suppression(const SourceFile& f,
                          std::vector<Finding>& findings) {
  for (const AllowDirective& d : f.allows) {
    if (d.rules.empty()) {
      report(findings, f, d.line, "bad-suppression",
             "allow() names no rule: spell allow(rule[,rule]): reason");
      continue;
    }
    for (const std::string& rule : d.rules) {
      if (known_rules().count(rule) == 0) {
        report(findings, f, d.line, "bad-suppression",
               "allow(" + rule + ") names an unknown rule (see "
               "--list-rules and docs/STATIC_ANALYSIS.md); the "
               "suppression silences nothing");
      }
    }
    if (!d.has_reason) {
      report(findings, f, d.line, "bad-suppression",
             "allow() without a `): reason` — the justification prose is "
             "mandatory (docs/STATIC_ANALYSIS.md suppression syntax)");
    }
  }
}

}  // namespace

// ---- Public API ----------------------------------------------------------

std::string Finding::to_string() const {
  std::ostringstream os;
  os << file << ":" << line << ": [" << rule << "] " << message;
  return os.str();
}

SourceFile parse_source(std::string path, std::string content) {
  SourceFile f;
  f.path = std::move(path);
  f.is_header = path_ends_with(f.path, ".hpp") ||
                path_ends_with(f.path, ".h");
  f.content = std::move(content);
  Lexer lexer(f.content, f);
  lexer.run();
  return f;
}

SourceFile load_source(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) {
    throw std::runtime_error("jigsaw_lint: cannot open " + path);
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse_source(path, buf.str());
}

std::vector<std::string> rule_names() {
  return {"bounded-alloc",  "no-magic-bounds", "obs-name",
          "raw-alloc",      "hot-path-alloc",  "header-hygiene",
          "bad-suppression"};
}

std::vector<std::string> analyzer_rule_names() {
  return {"status-propagation", "rcu-discipline", "obs-name-registry"};
}

bool is_suppressed(const SourceFile& f, int line, const std::string& rule) {
  for (const Suppression& s : f.suppressions) {
    if (s.line == line && s.rule == rule) return true;
  }
  return false;
}

std::vector<Finding> run_rules(const std::vector<SourceFile>& files,
                               const std::vector<std::string>& rules) {
  std::set<std::string> active(rules.begin(), rules.end());
  if (active.empty()) {
    for (const std::string& name : rule_names()) active.insert(name);
  }

  std::vector<Finding> findings;
  for (const SourceFile& f : files) {
    if (active.count("bounded-alloc")) rule_bounded_alloc(f, findings);
    if (active.count("no-magic-bounds")) rule_no_magic_bounds(f, findings);
    if (active.count("obs-name")) rule_obs_name(f, findings);
    if (active.count("raw-alloc")) rule_raw_alloc(f, findings);
    if (active.count("hot-path-alloc")) rule_hot_path_alloc(f, findings);
    if (active.count("header-hygiene")) rule_header_hygiene(f, findings);
    if (active.count("bad-suppression")) rule_bad_suppression(f, findings);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::vector<std::string> collect_sources(
    const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  for (const std::string& path : paths) {
    if (fs::is_directory(path)) {
      for (const auto& entry : fs::recursive_directory_iterator(path)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext == ".hpp" || ext == ".cpp" || ext == ".h") {
          out.push_back(entry.path().string());
        }
      }
    } else if (fs::is_regular_file(path)) {
      out.push_back(path);
    } else {
      throw std::runtime_error("jigsaw_lint: no such file or directory: " +
                               path);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace jigsaw::lint
