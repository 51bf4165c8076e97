// Tests for tools/jigsaw_lint: the tokenizer, the suppression mechanism,
// and the rule catalog, pinned against the committed fixture snippets in
// tests/lint_fixtures/ (good/ must be silent, bad/ must trip every rule).
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lint.hpp"

namespace lint = jigsaw::lint;

namespace {

std::vector<lint::SourceFile> load_dir(const std::string& dir) {
  std::vector<lint::SourceFile> files;
  for (const std::string& path : lint::collect_sources({dir})) {
    files.push_back(lint::load_source(path));
  }
  return files;
}

std::set<std::string> rules_fired(const std::vector<lint::Finding>& fs) {
  std::set<std::string> rules;
  for (const lint::Finding& f : fs) rules.insert(f.rule);
  return rules;
}

TEST(LintFixtures, GoodDirectoryIsClean) {
  const auto findings =
      lint::run_rules(load_dir(std::string(JIGSAW_LINT_FIXTURE_DIR) + "/good"));
  for (const lint::Finding& f : findings) ADD_FAILURE() << f.to_string();
}

TEST(LintFixtures, BadDirectoryTripsEveryRule) {
  const auto findings =
      lint::run_rules(load_dir(std::string(JIGSAW_LINT_FIXTURE_DIR) + "/bad"));
  const std::set<std::string> fired = rules_fired(findings);
  for (const std::string& rule : lint::rule_names()) {
    EXPECT_TRUE(fired.count(rule)) << "rule never fired on bad/: " << rule;
  }
}

TEST(LintFixtures, RuleFilterRestrictsFindings) {
  const auto findings = lint::run_rules(
      load_dir(std::string(JIGSAW_LINT_FIXTURE_DIR) + "/bad"), {"obs-name"});
  ASSERT_FALSE(findings.empty());
  for (const lint::Finding& f : findings) EXPECT_EQ(f.rule, "obs-name");
}

TEST(LintFixtures, FindingsCarryFileLineAndSortStably) {
  const auto findings =
      lint::run_rules(load_dir(std::string(JIGSAW_LINT_FIXTURE_DIR) + "/bad"));
  ASSERT_FALSE(findings.empty());
  EXPECT_TRUE(std::is_sorted(
      findings.begin(), findings.end(),
      [](const lint::Finding& a, const lint::Finding& b) {
        return std::tie(a.file, a.line, a.rule) <
               std::tie(b.file, b.line, b.rule);
      }));
  for (const lint::Finding& f : findings) {
    EXPECT_GT(f.line, 0) << f.to_string();
    EXPECT_NE(f.file.find("lint_fixtures"), std::string::npos);
  }
}

TEST(LintTokenizer, SkipsCommentsStringsAndPreprocessorLines) {
  const lint::SourceFile f = lint::parse_source("t.cpp",
      "// new in a comment\n"
      "/* malloc(1) in a block */\n"
      "#define HIDDEN new int  \\\n"
      "    [continued]\n"
      "const char* s = \"new \\\" malloc\";\n"
      "const char* r = R\"(new delete)\";\n");
  for (const lint::Token& t : f.tokens) {
    EXPECT_NE(t.text, "new") << "leaked from comment/string/directive";
    EXPECT_NE(t.text, "malloc");
    EXPECT_NE(t.text, "HIDDEN");
    EXPECT_NE(t.text, "continued");
  }
  ASSERT_EQ(std::count_if(f.tokens.begin(), f.tokens.end(),
                          [](const lint::Token& t) {
                            return t.kind == lint::Token::Kind::kString;
                          }),
            2);
}

TEST(LintTokenizer, CapturesIncludesAndPragmaOnce) {
  const lint::SourceFile f = lint::parse_source("t.hpp",
      "#pragma once\n"
      "#include <vector>\n"
      "#include \"core/format.hpp\"\n");
  EXPECT_TRUE(f.has_pragma_once);
  ASSERT_EQ(f.includes.size(), 2u);
  EXPECT_EQ(f.includes[0], "vector");
  EXPECT_EQ(f.includes[1], "core/format.hpp");
}

TEST(LintTokenizer, FusesMultiCharPunctuators) {
  const lint::SourceFile f = lint::parse_source("t.cpp", "a->b::c << [[x]]");
  std::vector<std::string> puncts;
  for (const lint::Token& t : f.tokens) {
    if (t.kind == lint::Token::Kind::kPunct) puncts.push_back(t.text);
  }
  EXPECT_EQ(puncts, (std::vector<std::string>{"->", "::", "<<", "[[", "]]"}));
}

TEST(LintSuppression, TrailingCommentSilencesItsOwnLine) {
  const lint::SourceFile with = lint::parse_source("x/t.cpp",
      "void f() { auto* p = new int; }"
      "  // jigsaw-lint: allow(raw-alloc): test\n");
  EXPECT_TRUE(lint::run_rules({with}).empty());
  const lint::SourceFile without =
      lint::parse_source("x/t.cpp", "void f() { auto* p = new int; }\n");
  EXPECT_EQ(lint::run_rules({without}).size(), 1u);
}

TEST(LintSuppression, BlockCommentAboveCoversNextCodeLine) {
  const lint::SourceFile f = lint::parse_source("x/t.cpp",
      "// jigsaw-lint: allow(raw-alloc): reason prose\n"
      "void f() { auto* p = new int; }\n");
  EXPECT_TRUE(lint::run_rules({f}).empty());
}

TEST(LintSuppression, WrongRuleNameDoesNotSilence) {
  const lint::SourceFile f = lint::parse_source("x/t.cpp",
      "// jigsaw-lint: allow(obs-name): wrong rule\n"
      "void f() { auto* p = new int; }\n");
  EXPECT_EQ(lint::run_rules({f}).size(), 1u);
}

TEST(LintRules, HotPathAllocFiresOnlyInTaggedFiles) {
  const std::string code =
      "#include <vector>\n"
      "void f() { std::vector<int> v(3); }\n";
  // Untagged: the rule must stay silent no matter what the file builds.
  EXPECT_TRUE(lint::run_rules({lint::parse_source("x/a.cpp", code)},
                              {"hot-path-alloc"})
                  .empty());
  const lint::SourceFile tagged =
      lint::parse_source("x/b.cpp", "// jigsaw-lint: hot-path\n" + code);
  const auto findings = lint::run_rules({tagged}, {"hot-path-alloc"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hot-path-alloc");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintRules, HotPathAllocSkipsReferencesAndDeclarations) {
  // References, pointers and function declarations (type-only parameter
  // lists) construct nothing; only value declarations should trip.
  const lint::SourceFile f = lint::parse_source("x/hot.cpp",
      "// jigsaw-lint: hot-path\n"
      "#include <string>\n"
      "#include <vector>\n"
      "float sum(const std::vector<float>& xs);\n"
      "std::vector<int> make(std::size_t count);\n"
      "void g(std::vector<float>* out, std::string& label);\n");
  EXPECT_TRUE(lint::run_rules({f}, {"hot-path-alloc"}).empty());
}

TEST(LintRules, HotPathTagOnlyCountsAsAComment) {
  // The literal tag inside a string (or quoted in prose mid-comment) must
  // not mark the file hot-path — regression for the tools/ self-lint.
  const lint::SourceFile in_string = lint::parse_source("x/a.cpp",
      "#include <vector>\n"
      "const char* kTag = \"// jigsaw-lint: hot-path\";\n"
      "void f() { std::vector<int> v(3); }\n");
  EXPECT_FALSE(in_string.hot_path_tagged);
  EXPECT_TRUE(lint::run_rules({in_string}, {"hot-path-alloc"}).empty());
  const lint::SourceFile mid_comment = lint::parse_source("x/b.cpp",
      "// files tagged `jigsaw-lint: hot-path` construct no containers\n"
      "#include <vector>\n"
      "void f() { std::vector<int> v(3); }\n");
  EXPECT_FALSE(mid_comment.hot_path_tagged);
  EXPECT_TRUE(lint::run_rules({mid_comment}, {"hot-path-alloc"}).empty());
}

TEST(LintSuppression, UnknownRuleNameIsAFinding) {
  const lint::SourceFile f = lint::parse_source("x/t.cpp",
      "// jigsaw-lint: allow(warp-speed-alloc): misspelled rule\n"
      "void f();\n");
  const auto findings = lint::run_rules({f}, {"bad-suppression"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("warp-speed-alloc"), std::string::npos);
}

TEST(LintSuppression, EmptyRuleListIsAFinding) {
  const lint::SourceFile f = lint::parse_source("x/t.cpp",
      "// jigsaw-lint: allow(): nothing named\n"
      "void f();\n");
  EXPECT_EQ(lint::run_rules({f}, {"bad-suppression"}).size(), 1u);
}

TEST(LintSuppression, MissingReasonIsAFinding) {
  const lint::SourceFile f = lint::parse_source("x/t.cpp",
      "void f() { auto* p = new int; }  // jigsaw-lint: allow(raw-alloc)\n");
  const auto findings = lint::run_rules({f});
  // The suppression still works (raw-alloc stays silent) but the missing
  // reason is itself reported.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "bad-suppression");
}

TEST(LintSuppression, WellFormedDirectivesAreNotFindings) {
  const lint::SourceFile f = lint::parse_source("x/t.cpp",
      "// jigsaw-lint: allow(raw-alloc): intentionally leaked singleton\n"
      "void f() { auto* p = new int; }\n"
      "// jigsaw-analyze: allow(status-propagation): the caller checks it\n"
      "void g();\n");
  EXPECT_TRUE(lint::run_rules({f}).empty());
}

TEST(LintSuppression, AnalyzerRuleNamesAreKnownToBadSuppression) {
  for (const std::string& rule : lint::analyzer_rule_names()) {
    const lint::SourceFile f = lint::parse_source("x/t.cpp",
        "// jigsaw-analyze: allow(" + rule + "): fixture reason\n" +
        "void f();\n");
    EXPECT_TRUE(lint::run_rules({f}).empty()) << rule;
    EXPECT_TRUE(lint::is_suppressed(f, 2, rule)) << rule;
  }
}

TEST(LintSuppression, ProseMentioningAllowSyntaxIsNotADirective) {
  // Doc comments quoting the syntax (tag not at the comment start) must
  // not parse as directives, or every header describing the mechanism
  // would trip bad-suppression.
  const lint::SourceFile f = lint::parse_source("x/t.cpp",
      "// Suppression: a `// jigsaw-lint: allow(rule[,rule]): reason`\n"
      "// comment on the flagged line silences those rules.\n"
      "void f();\n");
  EXPECT_TRUE(f.allows.empty());
  EXPECT_TRUE(lint::run_rules({f}).empty());
}

}  // namespace
