#include "analyze/analyze.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace jigsaw::analyze {
namespace {

using lint::Finding;
using lint::SourceFile;
using lint::Token;

bool is_ident(const Token& t, const char* text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

// ---- Parser --------------------------------------------------------------
//
// A single forward pass over the token stream with an explicit scope
// stack. Every `{` is classified from its statement head (the tokens
// since the last `;`/`{`/`}` at the current level): namespace, class,
// function body, or plain block. Anything ambiguous becomes a plain
// block — the rules then see no model for that region and stay silent.

struct Scope {
  enum class Kind : unsigned char { kNamespace, kClass, kFunction, kBlock };
  Kind kind = Kind::kBlock;
  int struct_index = -1;    // into FileModel::structs for kClass
  int function_index = -1;  // into FileModel::functions for kFunction
};

// Index of the token after the group opened at `open` (`(`/`{`/`[` and
// their closers), or tokens.size() when unbalanced.
std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "(" || t == "{" || t == "[") ++depth;
    if (t == ")" || t == "}" || t == "]") {
      if (--depth == 0) return i + 1;
    }
  }
  return toks.size();
}

// A constructor head `Foo(...) : a_(1), b_{2}` may hide brace-init
// groups in its init list; the function body is the first top-level `{`
// after the last init entry. `colon` points at the init-list `:`.
std::size_t find_ctor_body(const std::vector<Token>& toks, std::size_t colon) {
  std::size_t j = colon + 1;
  while (j < toks.size()) {
    // Skip the entry's qualified name / template arguments to its group.
    while (j < toks.size() && toks[j].text != "(" && toks[j].text != "{") ++j;
    if (j >= toks.size()) return toks.size();
    j = skip_balanced(toks, j);
    if (j < toks.size() && toks[j].text == ",") {
      ++j;
      continue;
    }
    break;  // toks[j] is the body `{` (or the stream ended mid-head)
  }
  return j;
}

// Extracts a member declaration from class-body tokens [begin, end)
// ending at `;`. Returns false for anything that is not a data member
// (method declarations, using-aliases, friends, access labels).
bool parse_member(const std::vector<Token>& toks, std::size_t begin,
                  std::size_t end, Member& out) {
  // Strip leading access labels (`public :`) left in the head.
  while (begin + 1 < end &&
         (is_ident(toks[begin], "public") || is_ident(toks[begin], "private") ||
          is_ident(toks[begin], "protected")) &&
         is_punct(toks[begin + 1], ":")) {
    begin += 2;
  }
  if (begin >= end) return false;
  static const std::set<std::string> kSkipLead = {
      "using", "typedef", "friend", "template", "static_assert",
      "enum",  "class",   "struct", "union",    "operator"};
  if (kSkipLead.count(toks[begin].text) > 0) return false;

  // Find a trailing GUARDED_BY(mu) / PT_GUARDED_BY(mu) annotation; its
  // parens must not count as a method parameter list.
  std::size_t anno = end;
  for (std::size_t i = begin; i + 3 < end; ++i) {
    if ((is_ident(toks[i], "GUARDED_BY") || is_ident(toks[i], "PT_GUARDED_BY")) &&
        is_punct(toks[i + 1], "(") && toks[i + 2].kind == Token::Kind::kIdent) {
      out.guarded_by = toks[i + 2].text;
      anno = i;
      break;
    }
  }

  // A `(` before the annotation means a method or a function pointer —
  // not a plain data member. Bit-fields (`int x : 3`) are fine.
  std::size_t name_end = anno;  // past-the-end of the declarator
  for (std::size_t i = begin; i < anno; ++i) {
    if (toks[i].text == "(") return false;
    if (toks[i].text == "=" || toks[i].text == "{") {
      name_end = i;
      break;
    }
  }
  // The member name is the last identifier of the declarator.
  for (std::size_t i = name_end; i > begin; --i) {
    const Token& t = toks[i - 1];
    if (t.kind == Token::Kind::kIdent) {
      out.name = t.text;
      out.line = t.line;
      std::string type;
      for (std::size_t j = begin; j + 1 < i; ++j) {
        if (!type.empty()) type += ' ';
        type += toks[j].text;
      }
      out.type = type;
      return !out.name.empty() && !type.empty();
    }
    if (t.kind == Token::Kind::kNumber) continue;  // bit-field width
    if (is_punct(t, ":")) continue;
    break;
  }
  return false;
}

}  // namespace

FileModel build_model(const SourceFile& f) {
  FileModel model;
  model.file = &f;
  const std::vector<Token>& toks = f.tokens;
  std::vector<Scope> stack;
  std::size_t head = 0;  // statement-head start

  auto in_function = [&] {
    for (const Scope& s : stack) {
      if (s.kind == Scope::Kind::kFunction) return true;
    }
    return false;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& text = toks[i].text;
    if (text == "{") {
      Scope scope;
      if (!in_function() && head < i) {
        if (is_ident(toks[head], "namespace")) {
          scope.kind = Scope::Kind::kNamespace;
        } else if (is_ident(toks[head], "enum")) {
          scope.kind = Scope::Kind::kBlock;
        } else {
          // The head's first `(`, any top-level `=`, and the position of
          // the last class-keyword decide between initializer, class and
          // function. A `class`/`struct` after the parens (`alignas(8)
          // struct X`) is still a class head; one before them (`template
          // <class T> void f(...)`) is not.
          std::size_t paren = i;
          bool has_eq = false;
          for (std::size_t j = head; j < i; ++j) {
            if (toks[j].text == "(") {
              paren = j;
              break;
            }
            if (toks[j].text == "=") has_eq = true;
          }
          std::size_t class_kw = i;  // i = not found
          for (std::size_t j = i; j > head; --j) {
            const std::string& k = toks[j - 1].text;
            if (k == "class" || k == "struct" || k == "union") {
              class_kw = j - 1;
              break;
            }
          }
          const bool is_class = class_kw < i && !has_eq &&
                                (paren == i || class_kw > paren);
          if (is_class) {
            scope.kind = Scope::Kind::kClass;
            StructInfo info;
            info.line = toks[class_kw].line;
            if (class_kw + 1 < i &&
                toks[class_kw + 1].kind == Token::Kind::kIdent &&
                toks[class_kw + 1].text != "final") {
              info.name = toks[class_kw + 1].text;
            }
            scope.struct_index = static_cast<int>(model.structs.size());
            model.structs.push_back(info);
          } else if (has_eq || paren == i) {
            scope.kind = Scope::Kind::kBlock;  // initializer or bare block
          } else {
            // Function definition. Name: identifier before the parameter
            // list; class: enclosing class frame or `Cls::` qualifier.
            Function fn;
            fn.sig_begin = head;
            fn.line = toks[head].line;
            if (paren > head && toks[paren - 1].kind == Token::Kind::kIdent) {
              fn.name = toks[paren - 1].text;
              if (paren >= 3 && is_punct(toks[paren - 2], "::") &&
                  toks[paren - 3].kind == Token::Kind::kIdent) {
                fn.class_name = toks[paren - 3].text;
              }
            }
            if (fn.class_name.empty()) {
              for (std::size_t s = stack.size(); s > 0; --s) {
                if (stack[s - 1].kind == Scope::Kind::kClass) {
                  fn.class_name =
                      model.structs[stack[s - 1].struct_index].name;
                  break;
                }
              }
            }
            // A ctor init list can hide brace-init groups before the
            // real body; jump to the body brace.
            std::size_t close = skip_balanced(toks, paren);
            std::size_t body = i;
            for (std::size_t j = close; j < i; ++j) {
              if (is_punct(toks[j], ":")) {
                body = find_ctor_body(toks, j);
                break;
              }
            }
            if (body >= toks.size() || toks[body].text != "{") body = i;
            i = body;
            fn.body_begin = body + 1;
            scope.kind = Scope::Kind::kFunction;
            scope.function_index = static_cast<int>(model.functions.size());
            model.functions.push_back(fn);
          }
        }
      }
      stack.push_back(scope);
      head = i + 1;
    } else if (text == "}") {
      if (!stack.empty()) {
        if (stack.back().kind == Scope::Kind::kFunction) {
          model.functions[stack.back().function_index].body_end = i;
        }
        stack.pop_back();
      }
      head = i + 1;
    } else if (text == ";") {
      if (!in_function() && !stack.empty() &&
          stack.back().kind == Scope::Kind::kClass) {
        Member m;
        if (parse_member(toks, head, i, m)) {
          model.structs[stack.back().struct_index].members.push_back(m);
        }
      }
      head = i + 1;
    }
  }
  // Unterminated function bodies (unbalanced braces) get an empty range.
  for (Function& fn : model.functions) {
    if (fn.body_end < fn.body_begin) fn.body_end = fn.body_begin;
  }
  return model;
}

namespace {

void add_finding(std::vector<Finding>& out, const SourceFile& f, int line,
                 const std::string& rule, std::string message) {
  if (lint::is_suppressed(f, line, rule)) return;
  Finding finding;
  finding.file = f.path;
  finding.line = line;
  finding.rule = rule;
  finding.message = std::move(message);
  out.push_back(finding);
}

// ---- Rule: status-propagation --------------------------------------------
//
// Within each function body, find local declarations of type Status /
// Result<T> and require at least one later *read* of the name — a return,
// a comparison, an `.ok()` probe, or use as a call argument all count.
// A local that is only assigned (or never mentioned again) is a dropped
// status: `[[nodiscard]]` cannot see it because the call result WAS
// stored. References, pointers and `auto` locals are skipped — the cheap
// model cannot type them, and the rule errs on silence.

struct StatusDecl {
  std::string name;
  int line = 0;
  std::size_t after = 0;  // first token index past the declaration
};

// Matches `[const] [jigsaw ::] Status|Result<...> NAME [=(;{]` at `i`.
bool match_status_decl(const std::vector<Token>& toks, std::size_t i,
                       std::size_t end, StatusDecl& out) {
  if (i < end && is_ident(toks[i], "const")) ++i;
  if (i + 1 < end && is_ident(toks[i], "jigsaw") && is_punct(toks[i + 1], "::")) {
    i += 2;
  }
  if (i >= end) return false;
  if (is_ident(toks[i], "Status")) {
    ++i;
  } else if (is_ident(toks[i], "Result") && i + 1 < end &&
             is_punct(toks[i + 1], "<")) {
    int depth = 0;
    std::size_t j = i + 1;
    for (; j < end; ++j) {
      if (toks[j].text == "<") ++depth;
      if (toks[j].text == ">" && --depth == 0) break;
      if (toks[j].text == ";") return false;
    }
    if (j >= end) return false;
    i = j + 1;
  } else {
    return false;
  }
  if (i + 1 >= end || toks[i].kind != Token::Kind::kIdent) return false;
  const std::string& next = toks[i + 1].text;
  if (next != "=" && next != "(" && next != "{" && next != ";") return false;
  out.name = toks[i].text;
  out.line = toks[i].line;
  out.after = i + 1;
  return true;
}

void rule_status_propagation(const std::vector<FileModel>& models,
                             std::vector<Finding>& out) {
  for (const FileModel& model : models) {
    const std::vector<Token>& toks = model.file->tokens;
    for (const Function& fn : model.functions) {
      // Declarations start a statement: scan positions after `;`/`{`/`}`.
      for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
        const bool at_stmt =
            i == fn.body_begin ||
            (toks[i - 1].kind == Token::Kind::kPunct &&
             (toks[i - 1].text == ";" || toks[i - 1].text == "{" ||
              toks[i - 1].text == "}"));
        if (!at_stmt) continue;
        StatusDecl decl;
        if (!match_status_decl(toks, i, fn.body_end, decl)) continue;
        int reads = 0;
        for (std::size_t j = decl.after; j < fn.body_end; ++j) {
          if (toks[j].kind != Token::Kind::kIdent || toks[j].text != decl.name) {
            continue;
          }
          const bool member_access =
              j > 0 && (is_punct(toks[j - 1], ".") || is_punct(toks[j - 1], "->") ||
                        is_punct(toks[j - 1], "::"));
          if (member_access) continue;  // someone else's field of that name
          const bool plain_assign =
              j + 1 < fn.body_end && is_punct(toks[j + 1], "=");
          if (!plain_assign) ++reads;
        }
        if (reads == 0) {
          add_finding(out, *model.file, decl.line, "status-propagation",
                      "status value `" + decl.name +
                          "` is produced but never consulted — return it, "
                          "check .ok()/compare it, or pass it to a handler");
        }
      }
    }
  }
}

// ---- Rule: rcu-discipline ------------------------------------------------
//
// Three checks pinning the streaming-update PR's concurrency contract:
//  1. A member annotated GUARDED_BY(mu) is only touched as a bare
//     identifier inside its own class's methods, and only after `mu` is
//     locked somewhere earlier in that body (lock_guard/unique_lock/
//     scoped_lock/MutexLock construction or an explicit mu.lock()).
//  2. Every weak_ptr member of a class named Lineage carries GUARDED_BY —
//     deleting the annotation is itself a finding.
//  3. `std::atomic<…weak_ptr…>` never reappears (the GCC 12 _Sp_atomic
//     relaxed-unlock TSan trap is why the head is mutex-guarded).

bool mutex_locked_before(const std::vector<Token>& toks, std::size_t begin,
                         std::size_t access, const std::string& mu) {
  static const std::set<std::string> kLockers = {
      "lock_guard", "unique_lock", "scoped_lock", "MutexLock", "lock"};
  for (std::size_t j = begin; j < access; ++j) {
    if (toks[j].kind != Token::Kind::kIdent || toks[j].text != mu) continue;
    if (j + 2 < access && is_punct(toks[j + 1], ".") &&
        is_ident(toks[j + 2], "lock")) {
      return true;
    }
    const std::size_t window = j >= begin + 8 ? j - 8 : begin;
    for (std::size_t k = window; k < j; ++k) {
      if (toks[k].kind == Token::Kind::kIdent && kLockers.count(toks[k].text)) {
        return true;
      }
    }
  }
  return false;
}

void rule_rcu_discipline(const std::vector<FileModel>& models,
                         std::vector<Finding>& out) {
  for (const FileModel& model : models) {
    const std::vector<Token>& toks = model.file->tokens;

    // Check 3: the atomic<weak_ptr> ban, anywhere in the file. The lexer
    // does not bracket-match angle brackets, so scan a short window that
    // stops at the statement end — template arguments of the atomic are
    // always within it.
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!is_ident(toks[i], "atomic") || !is_punct(toks[i + 1], "<")) continue;
      const std::size_t close = std::min(toks.size(), i + 10);
      for (std::size_t j = i + 2; j < close; ++j) {
        if (is_punct(toks[j], ";")) break;
        if (is_ident(toks[j], "weak_ptr")) {
          add_finding(out, *model.file, toks[i].line, "rcu-discipline",
                      "std::atomic<std::weak_ptr> is banned: GCC 12's "
                      "_Sp_atomic unlocks with relaxed ordering (TSan trap) "
                      "— guard the weak_ptr with a mutex instead");
          break;
        }
      }
    }

    for (const StructInfo& s : model.structs) {
      // Check 2: Lineage weak_ptr members must be guarded.
      if (s.name == "Lineage") {
        for (const Member& m : s.members) {
          if (m.type.find("weak_ptr") != std::string::npos &&
              m.guarded_by.empty()) {
            add_finding(out, *model.file, m.line, "rcu-discipline",
                        "lineage head `" + m.name +
                            "` must carry GUARDED_BY(<mutex>) — the RCU "
                            "read path depends on it");
          }
        }
      }
      // Check 1: guarded members only under their mutex, in their class.
      for (const Member& m : s.members) {
        if (m.guarded_by.empty()) continue;
        for (const Function& fn : model.functions) {
          if (fn.class_name != s.name) continue;  // other classes' bare
          // idents of the same spelling are different symbols
          for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
            if (toks[i].kind != Token::Kind::kIdent || toks[i].text != m.name) {
              continue;
            }
            const bool qualified =
                i > 0 && (is_punct(toks[i - 1], ".") ||
                          is_punct(toks[i - 1], "->") ||
                          is_punct(toks[i - 1], "::"));
            if (qualified && !(i >= 2 && is_ident(toks[i - 2], "this"))) {
              continue;
            }
            if (!mutex_locked_before(toks, fn.body_begin, i, m.guarded_by)) {
              add_finding(out, *model.file, toks[i].line, "rcu-discipline",
                          "guarded member `" + m.name + "` of " + s.name +
                              " accessed without holding `" + m.guarded_by +
                              "` — lock it first (GUARDED_BY contract)");
              break;  // one finding per function is enough
            }
          }
        }
      }
    }
  }
}

// ---- Rule: obs-name-registry ---------------------------------------------
//
// The single source of truth for instrument names is the generated
// registry (docs/OBS_REGISTRY.md, written by --write-obs-registry).
// Every literal passed to obs::add/gauge_set/observe or named in a
// JIGSAW_TRACE_SCOPE must appear there exactly once; registry entries
// with no call site are stale; names documented in docs/OBSERVABILITY.md
// must exist in the registry. Dynamic names (built by concatenation —
// the first argument is not a lone string literal) are invisible here by
// design, and docs names with a `v<digit>` segment are treated as
// dynamic families.

struct ObsUse {
  std::string name;
  bool is_span = false;
  const SourceFile* file = nullptr;
  int line = 0;
};

const std::set<std::string>& metric_fns() {
  static const std::set<std::string> kFns = {
      "add", "gauge_set", "observe", "counter", "gauge", "histogram"};
  return kFns;
}

std::vector<ObsUse> collect_obs_uses(const std::vector<SourceFile>& files) {
  std::vector<ObsUse> uses;
  for (const SourceFile& f : files) {
    const std::vector<Token>& toks = f.tokens;
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      // obs :: fn ( "name" [,)]
      if (is_ident(toks[i], "obs") && is_punct(toks[i + 1], "::") &&
          toks[i + 2].kind == Token::Kind::kIdent &&
          metric_fns().count(toks[i + 2].text) > 0 && i + 5 < toks.size() &&
          is_punct(toks[i + 3], "(") &&
          toks[i + 4].kind == Token::Kind::kString &&
          (is_punct(toks[i + 5], ",") || is_punct(toks[i + 5], ")"))) {
        uses.push_back({toks[i + 4].text, false, &f, toks[i + 4].line});
      }
      // JIGSAW_TRACE_SCOPE ( "category" , "name" )
      if (is_ident(toks[i], "JIGSAW_TRACE_SCOPE") && i + 5 < toks.size() &&
          is_punct(toks[i + 1], "(") &&
          toks[i + 2].kind == Token::Kind::kString &&
          is_punct(toks[i + 3], ",") &&
          toks[i + 4].kind == Token::Kind::kString &&
          is_punct(toks[i + 5], ")")) {
        uses.push_back({toks[i + 4].text, true, &f, toks[i + 4].line});
      }
    }
  }
  return uses;
}

// Registry lines look like "- `name`" (metrics) or "- `name` — category
// `cat`" (spans); everything else is prose. Returns name -> line numbers.
std::map<std::string, std::vector<int>> parse_registry(
    const std::string& content) {
  std::map<std::string, std::vector<int>> entries;
  std::istringstream in(content);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t dash = line.find("- `");
    if (dash == std::string::npos) continue;
    const std::size_t start = dash + 3;
    const std::size_t close = line.find('`', start);
    if (close == std::string::npos) continue;
    entries[line.substr(start, close - start)].push_back(line_no);
  }
  return entries;
}

bool looks_like_obs_name(const std::string& name) {
  if (name.find('.') == std::string::npos) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '.' || c == '_' || c == '/';
    if (!ok) return false;
  }
  return true;
}

bool is_dynamic_segment(const std::string& seg) {
  if (seg == "vN") return true;
  if (seg.size() >= 2 && seg[0] == 'v' &&
      std::isdigit(static_cast<unsigned char>(seg[1]))) {
    return true;
  }
  return false;
}

// Expands the docs shorthand `a.b/c/d` -> {a.b, a.c, a.d} (the slash
// alternatives replace the final dot-segment). Returns empty when the
// name is a dynamic family or not an instrument name at all.
std::vector<std::string> expand_docs_name(const std::string& raw) {
  static const std::set<std::string> kSubsystems = {
      "checked", "engine",    "format", "hybrid", "kernel",
      "reorder", "serialize", "obs",    "jigsaw"};
  if (!looks_like_obs_name(raw)) return {};
  const std::string first = raw.substr(0, raw.find('.'));
  if (kSubsystems.count(first) == 0) return {};
  // `reorder.cpp`-style source-file references share the charset; the
  // extension gives them away.
  static const std::set<std::string> kFileExts = {"cpp", "hpp", "h", "cc",
                                                  "md"};
  const std::string last = raw.substr(raw.rfind('.') + 1);
  if (kFileExts.count(last) > 0) return {};
  std::vector<std::string> alts;
  std::string base = raw;
  const std::size_t slash = raw.find('/');
  if (slash != std::string::npos) {
    base = raw.substr(0, slash);
    std::string rest = raw.substr(slash + 1);
    const std::size_t last_dot = base.rfind('.');
    if (last_dot == std::string::npos) return {};
    const std::string prefix = base.substr(0, last_dot + 1);
    std::string alt;
    for (char c : rest + "/") {
      if (c == '/') {
        if (!alt.empty()) alts.push_back(prefix + alt);
        alt.clear();
      } else {
        alt += c;
      }
    }
  }
  alts.insert(alts.begin(), base);
  std::vector<std::string> names;
  for (const std::string& n : alts) {
    bool dynamic = false;
    std::string seg;
    for (char c : n + ".") {
      if (c == '.') {
        if (is_dynamic_segment(seg)) dynamic = true;
        seg.clear();
      } else {
        seg += c;
      }
    }
    if (!dynamic) names.push_back(n);
  }
  return names;
}

void rule_obs_name_registry(const std::vector<SourceFile>& files,
                            const Options& opts, std::vector<Finding>& out) {
  const std::vector<ObsUse> uses = collect_obs_uses(files);
  if (opts.registry_path.empty()) return;
  const auto registry = parse_registry(opts.registry_content);

  SourceFile registry_file;  // synthetic file so findings carry the path
  registry_file.path = opts.registry_path;

  std::set<std::string> used;
  for (const ObsUse& use : uses) {
    used.insert(use.name);
    if (registry.count(use.name) == 0) {
      add_finding(out, *use.file, use.line, "obs-name-registry",
                  "instrument name \"" + use.name +
                      "\" is not in the registry — regenerate it with "
                      "`jigsaw_analyze --write-obs-registry`");
    }
  }
  for (const auto& [name, lines] : registry) {
    if (lines.size() > 1) {
      add_finding(out, registry_file, lines[1], "obs-name-registry",
                  "registry entry \"" + name + "\" appears " +
                      std::to_string(lines.size()) +
                      " times — every name is listed exactly once");
    }
    if (used.count(name) == 0) {
      add_finding(out, registry_file, lines[0], "obs-name-registry",
                  "registry entry \"" + name +
                      "\" has no call site — stale; regenerate with "
                      "`jigsaw_analyze --write-obs-registry`");
    }
  }

  if (opts.docs_path.empty()) return;
  SourceFile docs_file;
  docs_file.path = opts.docs_path;
  std::istringstream in(opts.docs_content);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::size_t tick = line.find('`');
    while (tick != std::string::npos) {
      const std::size_t close = line.find('`', tick + 1);
      if (close == std::string::npos) break;
      const std::string raw = line.substr(tick + 1, close - tick - 1);
      for (const std::string& name : expand_docs_name(raw)) {
        if (registry.count(name) == 0) {
          add_finding(out, docs_file, line_no, "obs-name-registry",
                      "documented name \"" + name +
                          "\" is not in the registry — the docs drifted "
                          "from the code");
        }
      }
      tick = line.find('`', close + 1);
    }
  }
}

}  // namespace

std::vector<std::string> rule_names() {
  return {"status-propagation", "rcu-discipline", "obs-name-registry"};
}

std::string generate_obs_registry(const std::vector<SourceFile>& files) {
  std::set<std::string> metrics;
  std::set<std::string> spans;
  for (const ObsUse& use : collect_obs_uses(files)) {
    (use.is_span ? spans : metrics).insert(use.name);
  }
  std::ostringstream out;
  out << "# Observability name registry\n\n"
      << "<!-- Generated by `jigsaw_analyze --write-obs-registry`. Do not\n"
      << "     edit by hand: the obs-name-registry rule fails the build\n"
      << "     when this file drifts from the call sites. -->\n\n"
      << "Every statically-known instrument name in the source tree, one\n"
      << "entry per name. Dynamic families (names built by concatenation,\n"
      << "e.g. the per-kernel `kernel.vN.*` counters) are not listed —\n"
      << "the analyzer cannot see them and the obs-name lint rule vets\n"
      << "their shape at the call site instead.\n\n"
      << "## Metrics\n\n";
  for (const std::string& name : metrics) out << "- `" << name << "`\n";
  out << "\n## Spans\n\n";
  for (const std::string& name : spans) out << "- `" << name << "`\n";
  return out.str();
}

std::vector<Finding> run_rules(const std::vector<SourceFile>& files,
                               const std::vector<std::string>& rules,
                               const Options& opts) {
  auto enabled = [&rules](const char* name) {
    return rules.empty() ||
           std::find(rules.begin(), rules.end(), name) != rules.end();
  };
  std::vector<FileModel> models;
  models.reserve(files.size());
  for (const SourceFile& f : files) models.push_back(build_model(f));

  std::vector<Finding> findings;
  if (enabled("status-propagation")) {
    rule_status_propagation(models, findings);
  }
  if (enabled("rcu-discipline")) rule_rcu_discipline(models, findings);
  if (enabled("obs-name-registry")) {
    rule_obs_name_registry(files, opts, findings);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return findings;
}

}  // namespace jigsaw::analyze
