// Tests for tools/jigsaw_analyze: the scope-stack parser (FileModel),
// each dataflow rule against the committed fixtures in
// tests/analyze_fixtures/ (good/ must be silent, bad/ must trip every
// rule), the registry generator, and the catalog pin against
// lint::analyzer_rule_names().
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/analyze.hpp"
#include "lint/lint.hpp"

namespace analyze = jigsaw::analyze;
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

// A registry that pairs with the bad/ fixtures: missing the name
// bad/obs.cpp uses, carrying a stale entry and a duplicated one.
analyze::Options bad_registry() {
  analyze::Options opts;
  opts.registry_path = "fixture/OBS_REGISTRY.md";
  opts.registry_content =
      "# Observability name registry\n\n## Metrics\n\n"
      "- `engine.stale_total`\n"
      "- `engine.doubled_total`\n"
      "- `engine.doubled_total`\n";
  return opts;
}

analyze::Options good_registry() {
  analyze::Options opts;
  opts.registry_path = "fixture/OBS_REGISTRY.md";
  opts.registry_content =
      "# Observability name registry\n\n## Metrics\n\n"
      "- `engine.registered_total`\n";
  return opts;
}

TEST(AnalyzeFixtures, GoodDirectoryIsClean) {
  const auto findings = analyze::run_rules(
      load_dir(std::string(JIGSAW_ANALYZE_FIXTURE_DIR) + "/good"), {},
      good_registry());
  for (const lint::Finding& f : findings) ADD_FAILURE() << f.to_string();
}

TEST(AnalyzeFixtures, BadDirectoryTripsEveryRule) {
  const auto findings = analyze::run_rules(
      load_dir(std::string(JIGSAW_ANALYZE_FIXTURE_DIR) + "/bad"), {},
      bad_registry());
  const std::set<std::string> fired = rules_fired(findings);
  for (const std::string& rule : analyze::rule_names()) {
    EXPECT_TRUE(fired.count(rule)) << "rule never fired on bad/: " << rule;
  }
}

TEST(AnalyzeFixtures, RuleFilterRestrictsFindings) {
  const auto findings = analyze::run_rules(
      load_dir(std::string(JIGSAW_ANALYZE_FIXTURE_DIR) + "/bad"),
      {"status-propagation"});
  ASSERT_FALSE(findings.empty());
  for (const lint::Finding& f : findings) {
    EXPECT_EQ(f.rule, "status-propagation");
  }
}

TEST(AnalyzeCatalog, MatchesTheNamesLintSuppressionsAccept) {
  // bad-suppression validates allow() directives against this list; the
  // two catalogs drifting apart would make valid suppressions findings.
  EXPECT_EQ(analyze::rule_names(), lint::analyzer_rule_names());
}

// ---- Parser --------------------------------------------------------------

TEST(AnalyzeParser, BuildsMemberTablesWithGuards) {
  const lint::SourceFile f = lint::parse_source("m.hpp",
      "struct Lineage {\n"
      "  mutable Mutex head_mu;\n"
      "  WeakPtr head_ GUARDED_BY(head_mu);\n"
      "  int plain_ = 0;\n"
      "};\n");
  const analyze::FileModel model = analyze::build_model(f);
  ASSERT_EQ(model.structs.size(), 1u);
  const analyze::StructInfo& s = model.structs[0];
  EXPECT_EQ(s.name, "Lineage");
  ASSERT_EQ(s.members.size(), 3u);
  EXPECT_EQ(s.members[0].name, "head_mu");
  EXPECT_EQ(s.members[1].name, "head_");
  EXPECT_EQ(s.members[1].guarded_by, "head_mu");
  EXPECT_EQ(s.members[2].name, "plain_");
  EXPECT_EQ(s.members[2].guarded_by, "");
}

TEST(AnalyzeParser, AttributesFunctionsToTheirClass) {
  const lint::SourceFile f = lint::parse_source("m.cpp",
      "struct Cache {\n"
      "  int find() { return 1; }\n"
      "};\n"
      "int Cache::miss() { return 2; }\n"
      "int free_fn() { return 3; }\n");
  const analyze::FileModel model = analyze::build_model(f);
  ASSERT_EQ(model.functions.size(), 3u);
  EXPECT_EQ(model.functions[0].name, "find");
  EXPECT_EQ(model.functions[0].class_name, "Cache");
  EXPECT_EQ(model.functions[1].name, "miss");
  EXPECT_EQ(model.functions[1].class_name, "Cache");
  EXPECT_EQ(model.functions[2].name, "free_fn");
  EXPECT_EQ(model.functions[2].class_name, "");
}

TEST(AnalyzeParser, CtorInitListBraceInitDoesNotEatTheBody) {
  // `v_{3}` in the init list must not be mistaken for the function body.
  const lint::SourceFile f = lint::parse_source("m.cpp",
      "struct Holder {\n"
      "  Holder() : v_{3}, n_(2) { n_ = v_; }\n"
      "  int v_;\n"
      "  int n_;\n"
      "};\n");
  const analyze::FileModel model = analyze::build_model(f);
  ASSERT_EQ(model.functions.size(), 1u);
  const analyze::Function& ctor = model.functions[0];
  EXPECT_EQ(ctor.name, "Holder");
  EXPECT_EQ(ctor.class_name, "Holder");
  // The body tokens are exactly `n_ = v_ ;`.
  EXPECT_EQ(ctor.body_end - ctor.body_begin, 4u);
  ASSERT_EQ(model.structs.size(), 1u);
  EXPECT_EQ(model.structs[0].members.size(), 2u);
}

// ---- Rule behavior on inline snippets ------------------------------------

std::vector<lint::Finding> run_snippet(const std::string& code,
                                       const std::string& rule) {
  return analyze::run_rules({lint::parse_source("x/snippet.cpp", code)},
                            {rule});
}

TEST(AnalyzeStatusPropagation, AutoAndReferenceLocalsAreSkipped) {
  // The model cannot type `auto` or references; the rule must not guess.
  const auto findings = run_snippet(
      "Status do_work();\n"
      "void f(Status& out) {\n"
      "  auto st = do_work();\n"
      "  out = do_work();\n"
      "}\n",
      "status-propagation");
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeStatusPropagation, ReturnIfErrorMacroCountsAsARead) {
  const auto findings = run_snippet(
      "class Status {};\n"
      "Status do_work();\n"
      "Status f() {\n"
      "  Status st = do_work();\n"
      "  JIGSAW_RETURN_IF_ERROR(st);\n"
      "  return Status();\n"
      "}\n",
      "status-propagation");
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeRcuDiscipline, SuppressionSilencesTheBan) {
  const auto findings = run_snippet(
      "// jigsaw-analyze: allow(rcu-discipline): fixture pins suppression.\n"
      "std::atomic<std::weak_ptr<int>> g_head;\n",
      "rcu-discipline");
  EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeRcuDiscipline, UnrelatedAtomicsStaySilent) {
  const auto findings = run_snippet(
      "std::atomic<int> g_count{0};\n"
      "std::weak_ptr<int> g_weak;\n",
      "rcu-discipline");
  EXPECT_TRUE(findings.empty());
}

// ---- Registry generation -------------------------------------------------

TEST(AnalyzeRegistry, GeneratorIsDeterministicAndSorted) {
  const lint::SourceFile f = lint::parse_source("x/a.cpp",
      "void f() {\n"
      "  obs::add(\"engine.b_total\", 1.0);\n"
      "  obs::add(\"engine.a_total\", 1.0);\n"
      "  obs::add(\"engine.a_total\", 2.0);\n"
      "  JIGSAW_TRACE_SCOPE(\"engine\", \"engine.span\");\n"
      "}\n");
  const std::string registry = analyze::generate_obs_registry({f});
  const std::size_t a = registry.find("- `engine.a_total`");
  const std::size_t b = registry.find("- `engine.b_total`");
  const std::size_t s = registry.find("- `engine.span`");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(s, std::string::npos);
  EXPECT_LT(a, b);        // sorted
  EXPECT_LT(b, s);        // spans listed after metrics
  // The duplicate call site collapses to one entry.
  EXPECT_EQ(registry.find("- `engine.a_total`", a + 1), std::string::npos);
}

TEST(AnalyzeRegistry, DynamicNamesAreInvisible) {
  const lint::SourceFile f = lint::parse_source("x/a.cpp",
      "void f(const std::string& prefix) {\n"
      "  obs::add(prefix + \".duration_us\", 1.0);\n"
      "}\n");
  EXPECT_EQ(analyze::generate_obs_registry({f}).find(".duration_us`"),
            std::string::npos);
}

TEST(AnalyzeRegistry, DocsDriftIsReported) {
  analyze::Options opts = good_registry();
  opts.docs_path = "fixture/OBSERVABILITY.md";
  opts.docs_content =
      "The engine counts `engine.registered_total` and\n"
      "`engine.vanished_total` per submit.\n"
      "Dynamic families like `kernel.vN.duration_us` are exempt,\n"
      "as are file references like `engine.cpp`.\n";
  const lint::SourceFile code = lint::parse_source("x/a.cpp",
      "void f() { obs::add(\"engine.registered_total\", 1.0); }\n");
  const auto findings =
      analyze::run_rules({code}, {"obs-name-registry"}, opts);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "fixture/OBSERVABILITY.md");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("engine.vanished_total"),
            std::string::npos);
}

TEST(AnalyzeRegistry, SlashShorthandExpandsOverTheLastSegment) {
  analyze::Options opts;
  opts.registry_path = "fixture/OBS_REGISTRY.md";
  opts.registry_content =
      "## Metrics\n\n- `engine.cache.hits` \n- `engine.cache.misses`\n";
  opts.docs_path = "fixture/OBSERVABILITY.md";
  opts.docs_content = "`engine.cache.hits/misses/evictions` counters.\n";
  const lint::SourceFile code = lint::parse_source("x/a.cpp",
      "void f() {\n"
      "  obs::add(\"engine.cache.hits\", 1.0);\n"
      "  obs::add(\"engine.cache.misses\", 1.0);\n"
      "}\n");
  const auto findings =
      analyze::run_rules({code}, {"obs-name-registry"}, opts);
  // hits and misses resolve; evictions is the one drifted name.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("engine.cache.evictions"),
            std::string::npos);
}

}  // namespace
