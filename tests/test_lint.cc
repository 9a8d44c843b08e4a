// manic-lint's own test suite: every rule fires on its positive fixture
// under tests/lint_fixtures/ and stays quiet on its negative fixture,
// suppression comments work in all three placements, the JSON report is
// pinned, and — the gate the rest of the repo lives under — the real
// src/bench/tests/examples trees lint with zero errors.
//
// MANIC_SOURCE_DIR is injected by tests/CMakeLists.txt.
#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"

namespace manic::lint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(MANIC_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Lints a fixture as if it lived at `logical_path` (rule scoping is
// path-driven; fixtures themselves sit in the skipped lint_fixtures/ dir).
std::vector<Finding> LintFixture(const std::string& name,
                                 const std::string& logical_path) {
  return LintSource(ReadFixture(name), logical_path);
}

std::vector<int> LinesOf(const std::vector<Finding>& findings,
                         const std::string& rule) {
  std::vector<int> lines;
  for (const Finding& f : findings)
    if (f.rule == rule) lines.push_back(f.line);
  return lines;
}

TEST(LintUnorderedIter, FiresOnHashOrderLoops) {
  const auto findings =
      LintFixture("r1_unordered_bad.cc", "src/analysis/fold.cc");
  EXPECT_EQ(LinesOf(findings, "unordered-iter"),
            (std::vector<int>{13, 16, 20}));
  for (const Finding& f : findings) {
    EXPECT_EQ(f.severity, Severity::kError);
    EXPECT_NE(f.message.find("canonical"), std::string::npos) << f.message;
  }
}

TEST(LintUnorderedIter, QuietWhenFoldedThroughCanonicalHelpers) {
  const auto findings =
      LintFixture("r1_unordered_good.cc", "src/analysis/fold.cc");
  EXPECT_TRUE(LinesOf(findings, "unordered-iter").empty())
      << RenderText(findings);
}

TEST(LintRawEntropy, FiresOnEveryEntropySource) {
  const auto findings = LintFixture("r2_entropy_bad.cc", "src/sim/seed.cc");
  // srand + time(nullptr) share line 8; random_device, rand(), time(0).
  EXPECT_EQ(LinesOf(findings, "raw-entropy"),
            (std::vector<int>{8, 8, 9, 10, 11}));
}

TEST(LintRawEntropy, QuietOnSeededRngAndLookalikes) {
  const auto findings = LintFixture("r2_entropy_good.cc", "src/sim/seed.cc");
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(LintRawEntropy, ExemptInsideTheRngModule) {
  const auto findings =
      LintFixture("r2_entropy_bad.cc", "src/stats/rng.cc");
  EXPECT_TRUE(LinesOf(findings, "raw-entropy").empty())
      << RenderText(findings);
}

TEST(LintStdoutWrite, FiresInsideRuntimeAndScenario) {
  for (const char* path :
       {"src/runtime/bad_report.cc", "src/scenario/bad_report.cc"}) {
    const auto findings = LintFixture("r3_stdout_bad.cc", path);
    EXPECT_EQ(LinesOf(findings, "stdout-write"),
              (std::vector<int>{8, 9, 10, 11, 12}))
        << path;
  }
}

TEST(LintStdoutWrite, ScopedToTheEngineOnly) {
  // The same writes are legitimate in bench/ — bench stdout IS the artifact.
  const auto findings = LintFixture("r3_stdout_bad.cc", "bench/report.cc");
  EXPECT_TRUE(LinesOf(findings, "stdout-write").empty())
      << RenderText(findings);
}

TEST(LintStdoutWrite, QuietOnStderrFilesAndStrings) {
  const auto findings =
      LintFixture("r3_stdout_good.cc", "src/runtime/report.cc");
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(LintHeaderHygiene, FiresOnGuardsAndUsingNamespace) {
  const auto findings = LintFixture("r4_header_bad.h", "src/analysis/bad.h");
  const auto lines = LinesOf(findings, "header-hygiene");
  ASSERT_EQ(lines.size(), 2u) << RenderText(findings);
  EXPECT_EQ(lines[0], 1);  // missing #pragma once reports at the top
  EXPECT_EQ(lines[1], 9);  // using namespace std
}

TEST(LintHeaderHygiene, QuietOnCleanHeaderAndNonHeaders) {
  EXPECT_TRUE(LintFixture("r4_header_good.h", "src/analysis/good.h").empty());
  // A .cc file without #pragma once is obviously fine.
  EXPECT_TRUE(
      LinesOf(LintFixture("r3_stdout_good.cc", "bench/x.cc"), "header-hygiene")
          .empty());
}

TEST(LintUninitMember, FiresAsErrorNextToTheExecutor) {
  const auto findings =
      LintFixture("r5_uninit_bad.cc", "src/scenario/payload.cc");
  EXPECT_EQ(LinesOf(findings, "uninit-member"),
            (std::vector<int>{13, 14, 15, 16, 17}));
  for (const Finding& f : findings) EXPECT_EQ(f.severity, Severity::kError);
}

TEST(LintUninitMember, DowngradesToWarningAwayFromTheShardBoundary) {
  // No StudyExecutor/RuntimeOptions mention, not under src/runtime/.
  const auto findings = LintSource(
      "struct P { int x; double y; };\n", "src/analysis/plain.cc");
  ASSERT_EQ(findings.size(), 2u) << RenderText(findings);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "uninit-member");
    EXPECT_EQ(f.severity, Severity::kWarning);
  }
}

TEST(LintUninitMember, ErrorsUnderSrcRuntimeRegardlessOfContent) {
  const auto findings =
      LintSource("struct P { int x; };\n", "src/runtime/p.h");
  ASSERT_EQ(LinesOf(findings, "uninit-member").size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kError);
}

TEST(LintUninitMember, QuietOnInitializedAndNonPodMembers) {
  const auto findings =
      LintFixture("r5_uninit_good.cc", "src/scenario/payload.cc");
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(LintSuppression, AllowCommentsSilenceOnlyTheNamedRule) {
  const auto findings = LintFixture("suppressed.cc", "src/analysis/demo.cc");
  ASSERT_EQ(findings.size(), 1u) << RenderText(findings);
  EXPECT_EQ(findings[0].rule, "raw-entropy");
  EXPECT_EQ(findings[0].line, 22);  // allow(stdout-write) must not cover it
}

TEST(LintSuppression, StaleAllowIsAnErrorAndLeavesTheAudit) {
  const TreeAnalysis analysis =
      AnalyzeTree({FixturePath("stale_allow.cc")}, nullptr);
  ASSERT_FALSE(analysis.read_failure);
  std::vector<std::string> stale;
  for (const Finding& f : analysis.findings) {
    ASSERT_EQ(f.rule, "stale-allow") << RenderText(analysis.findings);
    EXPECT_EQ(f.severity, Severity::kError);
    stale.push_back(std::to_string(f.line) + " " +
                    f.message.substr(0, f.message.find(')') + 1));
  }
  EXPECT_EQ(stale, (std::vector<std::string>{"9 allow(alloc-scale)",
                                             "9 allow(layout)",
                                             "11 allow(unit)"}))
      << RenderText(analysis.findings);
  // Only live names reach the suppression audit.
  EXPECT_EQ(analysis.suppressions,
            (std::map<std::string, int>{{"all", 1},
                                        {"atomic-order", 1},
                                        {"concurrency", 1},
                                        {"units", 1}}));
}

TEST(LintJson, ReportIsPinnedAndEscaped) {
  const auto findings = LintFixture("json_case.cc", "src/sim/roll.cc");
  ASSERT_EQ(findings.size(), 1u);
  const std::string json = RenderJson(findings, 1);
  EXPECT_EQ(json,
            "{\"schema_version\":5,"
            "\"files_scanned\":1,\"errors\":1,\"warnings\":0,"
            "\"suppressions\":{},"
            "\"findings\":[{\"file\":\"src/sim/roll.cc\",\"line\":8,"
            "\"rule\":\"raw-entropy\",\"severity\":\"error\","
            "\"message\":\"rand() draws from hidden global state; use "
            "stats::Rng with an explicit seed (src/stats/rng.h)\"}]}");
  // Escaping: a path with quotes/backslashes still serializes sanely.
  Finding hostile{"a\"b\\c.cc", 1, "raw-entropy", Severity::kWarning,
                  "tab\there"};
  const std::string escaped = RenderJson({hostile}, 1);
  EXPECT_NE(escaped.find("a\\\"b\\\\c.cc"), std::string::npos) << escaped;
  EXPECT_NE(escaped.find("tab\\there"), std::string::npos) << escaped;
  // The suppression audit serializes as a rule -> count object.
  const std::string audited =
      RenderJson({}, 0, {{"stdout-write", 2}, {"unused-include", 1}});
  EXPECT_NE(audited.find(
                "\"suppressions\":{\"stdout-write\":2,\"unused-include\":1}"),
            std::string::npos)
      << audited;
}

TEST(LintTree, RealSourceTreeHasZeroErrors) {
  const std::string root(MANIC_SOURCE_DIR);
  std::vector<Finding> findings;
  const int files = LintPaths({root + "/src", root + "/bench",
                               root + "/tests", root + "/examples"},
                              findings);
  ASSERT_GT(files, 50);  // the walker actually visited the tree
  EXPECT_EQ(CountErrors(findings), 0) << RenderText(findings);
  EXPECT_EQ(CountWarnings(findings), 0) << RenderText(findings);
}

TEST(LintTree, FixtureDirectoryIsSkippedByTheWalker) {
  std::vector<Finding> findings;
  const int files =
      LintPaths({std::string(MANIC_SOURCE_DIR) + "/tests"}, findings);
  ASSERT_GT(files, 0);
  for (const Finding& f : findings)
    EXPECT_EQ(f.file.find("lint_fixtures"), std::string::npos) << f.file;
}

TEST(RuleCatalog, LayoutTierIsRetired) {
  const std::vector<RuleInfo>& catalog = RuleCatalog();
  EXPECT_EQ(catalog.size(), 20u);
  for (const RuleInfo& info : catalog) {
    EXPECT_NE(info.family, "layout") << info.rule;
  }
  for (const char* rule : {"layout-budget", "layout-pad", "false-sharing",
                           "alloc-scale", "wire-abi"}) {
    EXPECT_TRUE(std::none_of(
        catalog.begin(), catalog.end(),
        [&](const RuleInfo& info) { return info.rule == rule; }))
        << rule;
  }
  const auto stale = std::find_if(
      catalog.begin(), catalog.end(),
      [](const RuleInfo& info) { return info.rule == "stale-allow"; });
  ASSERT_NE(stale, catalog.end());
  EXPECT_EQ(stale->family, "token");
}

TEST(RuleCatalog, JsonPayloadShape) {
  const std::string json = RenderRuleCatalogJson();
  EXPECT_EQ(json.rfind("{\"schema_version\":5,\"rules\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"rule\":\"stale-allow\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"family\":\"concurrency\""), std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"family\":\"layout\""), std::string::npos) << json;
}

}  // namespace
}  // namespace manic::lint
