// pimsim-lint rule coverage: each determinism rule fires on a minimal
// bad snippet, suppressions with a reason are honored (and unexplained
// or unknown ones are themselves findings), and the token masking keeps
// comments/strings from triggering rules.  The "shipped tree is clean"
// half of the contract is enforced by CI running build/pimsim-lint over
// the repository.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/linter.hpp"

namespace pimsim::lint {
namespace {

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.push_back(f.rule);
  return out;
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
  const auto rules = rules_of(findings);
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

// --- const-cast ----------------------------------------------------------

TEST(LintRules, ConstCastFires) {
  const auto f = lint_source(
      "src/x.cpp", "void f(const int* p) { *const_cast<int*>(p) = 1; }\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "const-cast");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_EQ(f[0].file, "src/x.cpp");
}

TEST(LintRules, ConstCastInCommentOrStringDoesNotFire) {
  const auto f = lint_source("src/x.cpp",
                             "// const_cast is bad\n"
                             "const char* s = \"const_cast\";\n"
                             "char c = 'x';  /* const_cast */\n");
  EXPECT_TRUE(f.empty());
}

// --- raw-entropy ---------------------------------------------------------

TEST(LintRules, RawEntropyFiresOnCallsAndTypes) {
  EXPECT_TRUE(has_rule(
      lint_source("src/x.cpp", "int r = rand();\n"), "raw-entropy"));
  EXPECT_TRUE(has_rule(
      lint_source("src/x.cpp", "auto t = time(nullptr);\n"), "raw-entropy"));
  EXPECT_TRUE(has_rule(
      lint_source("src/x.cpp", "std::random_device rd;\n"), "raw-entropy"));
  EXPECT_TRUE(has_rule(
      lint_source("src/x.cpp",
                  "auto n = std::chrono::system_clock::now();\n"),
      "raw-entropy"));
}

TEST(LintRules, RawEntropySkipsMemberCallsAndDeclarations) {
  // sim.time() / entry->clock() are model accessors, not wall-clock.
  EXPECT_TRUE(lint_source("src/x.cpp", "auto t = sim.time();\n").empty());
  EXPECT_TRUE(lint_source("src/x.cpp", "auto t = e->clock();\n").empty());
  // A declaration `SimTime time() const` is not a call.
  EXPECT_TRUE(
      lint_source("src/x.cpp", "SimTime time() const { return t_; }\n")
          .empty());
  // ...but `return time(...)` is a call.
  EXPECT_TRUE(has_rule(
      lint_source("src/x.cpp", "long f() { return time(nullptr); }\n"),
      "raw-entropy"));
}

TEST(LintRules, RawEntropyExemptInRngSources) {
  const std::string src = "std::random_device rd;\n";
  EXPECT_TRUE(lint_source("src/common/rng.cpp", src).empty());
  EXPECT_TRUE(lint_source("src/common/rng.hpp", src).empty());
  EXPECT_FALSE(lint_source("src/common/other.cpp", src).empty());
}

// --- mutable-static ------------------------------------------------------

TEST(LintRules, MutableStaticFires) {
  EXPECT_TRUE(has_rule(lint_source("src/x.cpp", "static int counter = 0;\n"),
                       "mutable-static"));
  EXPECT_TRUE(has_rule(lint_source("src/x.cpp", "thread_local int tls;\n"),
                       "mutable-static"));
}

TEST(LintRules, ConstStaticAndFunctionsAreFine) {
  EXPECT_TRUE(
      lint_source("src/x.cpp", "static const int kAnswer = 42;\n").empty());
  EXPECT_TRUE(
      lint_source("src/x.cpp", "static constexpr double kPi = 3.14;\n")
          .empty());
  EXPECT_TRUE(lint_source("src/x.cpp", "static int helper(int a);\n").empty());
  EXPECT_TRUE(lint_source("src/x.cpp", "#define X static int y = 0;\n")
                  .empty());  // preprocessor lines are out of scope
}

// --- unordered containers ------------------------------------------------

TEST(LintRules, UnorderedDeclarationNeedsJustification) {
  const auto f = lint_source(
      "src/x.cpp", "std::unordered_map<int, double> table_;\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unordered-container");
}

TEST(LintRules, UnorderedIterationFires) {
  const std::string decl =
      "// lint:allow(unordered-container): test fixture\n"
      "std::unordered_map<int, double> table_;\n";
  // Range-for over the declared name.
  EXPECT_TRUE(has_rule(
      lint_source("src/x.cpp",
                  decl + "double s() { double t = 0;"
                         " for (const auto& [k, v] : table_) t += v;"
                         " return t; }\n"),
      "unordered-iter"));
  // Explicit iterator traversal.
  EXPECT_TRUE(has_rule(
      lint_source("src/x.cpp", decl + "auto it = table_.begin();\n"),
      "unordered-iter"));
  // Lookup-only use is fine.
  EXPECT_TRUE(
      lint_source("src/x.cpp", decl + "double g(int k) { return table_.at(k); }\n")
          .empty());
}

// --- unguarded-trace -----------------------------------------------------

TEST(LintRules, UnguardedTraceFires) {
  // A member .trace(...) call with no tracing_enabled() guard nearby.
  EXPECT_TRUE(has_rule(
      lint_source("src/x.cpp",
                  "void f(Sim& sim) { sim.trace(TraceKind::kCounter, lbl); }\n"),
      "unguarded-trace"));
  // Same for a .metrics() registry access without metrics_enabled().
  EXPECT_TRUE(has_rule(
      lint_source("src/x.cpp",
                  "void g(Sim& sim) { sim.metrics().counter(\"n\").add(1); }\n"),
      "unguarded-trace"));
  // Arrow calls count too.
  EXPECT_TRUE(has_rule(
      lint_source("src/x.cpp",
                  "void h(Sim* sim) { sim->trace(TraceKind::kInstant, lbl); }\n"),
      "unguarded-trace"));
  // So does the explicit-time form.
  EXPECT_TRUE(has_rule(
      lint_source("src/x.cpp",
                  "void i(Sim& sim) { sim.trace_at(t, TraceKind::kCounter, lbl); }\n"),
      "unguarded-trace"));
}

TEST(LintRules, GuardedTraceIsFine) {
  // Guard on the same line.
  EXPECT_TRUE(
      lint_source("src/x.cpp",
                  "void f(Sim& s) { if (s.tracing_enabled()) s.trace(k, l); }\n")
          .empty());
  // Guard up to two lines above (the early-return helper shape).
  EXPECT_TRUE(lint_source("src/x.cpp",
                          "void g(Sim& s) {\n"
                          "  if (!s.tracing_enabled()) return;\n"
                          "  s.trace(k, l);\n"
                          "}\n")
                  .empty());
  EXPECT_TRUE(lint_source("src/x.cpp",
                          "void h(Sim& s) {\n"
                          "  if (s.metrics_enabled()) {\n"
                          "    auto& reg = s.metrics();\n"
                          "    reg.counter(\"n\").add(1);\n"
                          "  }\n"
                          "}\n")
                  .empty());
  // A guard three lines up is out of the window.
  EXPECT_TRUE(has_rule(lint_source("src/x.cpp",
                                   "void i(Sim& s) {\n"
                                   "  if (s.tracing_enabled()) {\n"
                                   "    int a = 0;\n"
                                   "    int b = a;\n"
                                   "    s.trace(k, b);\n"
                                   "  }\n"
                                   "}\n"),
                       "unguarded-trace"));
}

TEST(LintRules, UnguardedTraceScopeAndExemptions) {
  const std::string body =
      "void f(Sim& sim) { sim.trace(TraceKind::kCounter, lbl); }\n";
  // Outside src/ (tests, tools) the rule is silent.
  EXPECT_TRUE(lint_source("tests/x.cpp", body).empty());
  // The observability layer and the Tracer implementation are exempt.
  EXPECT_TRUE(lint_source("src/obs/metrics.cpp", body).empty());
  EXPECT_TRUE(lint_source("src/des/trace.cpp", body).empty());
  // Non-member uses of the bare words are not flagged.
  EXPECT_TRUE(
      lint_source("src/x.cpp", "void trace(int x);\nvoid g() { trace(1); }\n")
          .empty());
  // trace_label()/collect_metrics() are different tokens entirely.
  EXPECT_TRUE(lint_source("src/x.cpp",
                          "void g(Sim& s) { auto l = s.trace_label(\"n\"); }\n")
                  .empty());
}

// --- process-env ---------------------------------------------------------

TEST(LintRules, ProcessEnvFiresInSrcOnReadsAndWrites) {
  const auto f = lint_source("src/x.cpp",
                             "const char* v = std::getenv(\"PIMSIM_AUDIT\");\n"
                             "void on() { ::setenv(\"PIMSIM_METRICS\", \"1\", 1); }\n");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].rule, "process-env");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_EQ(f[1].rule, "process-env");
  EXPECT_EQ(f[1].line, 2);
  // Tests and tools set the environment on purpose (embedded-caller
  // contract tests); the rule covers the library only.
  EXPECT_TRUE(lint_source("tests/x.cpp", "void f() { ::unsetenv(\"X\"); }\n").empty());
}

TEST(LintRules, ProcessEnvAllowedWithReason) {
  const auto f = lint_source(
      "src/obs/session.cpp",
      "// lint:allow(process-env): the one reader of the PIMSIM_* switches\n"
      "const char* v = std::getenv(name);\n");
  EXPECT_TRUE(f.empty());
}

// --- suppressions --------------------------------------------------------

TEST(LintSuppressions, AllowOnSameLineOrLineAboveSilences) {
  EXPECT_TRUE(
      lint_source("src/x.cpp",
                  "static int hits = 0;  // lint:allow(mutable-static): "
                  "test-only tally\n")
          .empty());
  EXPECT_TRUE(
      lint_source("src/x.cpp",
                  "// lint:allow(mutable-static): test-only tally\n"
                  "static int hits = 0;\n")
          .empty());
}

TEST(LintSuppressions, AllowDoesNotLeakToOtherLines) {
  const auto f = lint_source("src/x.cpp",
                             "// lint:allow(mutable-static): only line 2\n"
                             "static int a = 0;\n"
                             "static int b = 0;\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 3);
  EXPECT_EQ(f[0].rule, "mutable-static");
}

TEST(LintSuppressions, ReasonIsMandatory) {
  const auto f = lint_source("src/x.cpp",
                             "// lint:allow(mutable-static)\n"
                             "static int a = 0;\n");
  // The bare allow is rejected AND does not suppress.
  EXPECT_TRUE(has_rule(f, "bad-allow"));
  EXPECT_TRUE(has_rule(f, "mutable-static"));
}

TEST(LintSuppressions, UnknownRuleIsAFinding) {
  const auto f = lint_source(
      "src/x.cpp", "// lint:allow(no-such-rule): misspelled\nint x;\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "bad-allow");
}

TEST(LintSuppressions, MultiRuleAllowCoversEachListedRule) {
  EXPECT_TRUE(
      lint_source("src/x.cpp",
                  "// lint:allow(mutable-static,unordered-container): fixture\n"
                  "static std::unordered_map<int, int> cache_;\n")
          .empty());
}

// --- output shape --------------------------------------------------------

TEST(LintOutput, FindingsAreLineSortedAndRenderable) {
  const auto f = lint_source("src/x.cpp",
                             "static int z = 0;\n"
                             "int r = rand();\n"
                             "auto* p = const_cast<int*>(q);\n");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_TRUE(std::is_sorted(f.begin(), f.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.line < b.line;
                             }));
  EXPECT_EQ(to_string(f[1]).rfind("src/x.cpp:2: [raw-entropy]", 0), 0u);
}

TEST(LintOutput, RuleIdsAreStable) {
  const auto& ids = rule_ids();
  EXPECT_EQ(ids.size(), 8u);
  EXPECT_NE(std::find(ids.begin(), ids.end(), "unordered-iter"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "bad-allow"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "unguarded-trace"), ids.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), "process-env"), ids.end());
}

}  // namespace
}  // namespace pimsim::lint
