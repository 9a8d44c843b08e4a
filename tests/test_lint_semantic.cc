// Tests for manic-lint's phase-3 semantic passes: the `units` dataflow pass
// (units.h — suffix lattice, declaration registry, assignment / comparison /
// call-binding flow checks) and the `determinism` taint pass (taint.h —
// clock reads, address taint, hash-order FP folds). Fixtures live under
// tests/lint_fixtures/units/ and tests/lint_fixtures/determinism/; each is
// re-rooted at a synthetic logical path because path scoping (src/runtime/
// exemption) is path-driven. The final tests run both passes over the real
// tree with the committed lattice and require a clean report.
//
// MANIC_SOURCE_DIR is injected by tests/CMakeLists.txt.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "facts.h"
#include "graph.h"
#include "lint.h"
#include "taint.h"
#include "units.h"

namespace manic::lint {
namespace {

std::string ReadFixture(const std::string& dir, const std::string& name) {
  const std::string path = std::string(MANIC_SOURCE_DIR) +
                           "/tests/lint_fixtures/" + dir + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

UnitsSpec CommittedSpec() {
  std::string error;
  UnitsSpec spec = LoadUnitsSpec(
      std::string(MANIC_SOURCE_DIR) + "/tools/manic_lint/units.txt", &error);
  EXPECT_TRUE(spec.loaded) << error;
  return spec;
}

FactsTable TableOf(const std::string& dir, const std::string& name,
                   const std::string& logical_path) {
  FactsTable table;
  table.Add(ExtractFacts(ReadFixture(dir, name), logical_path));
  return table;
}

std::vector<int> LinesOf(const std::vector<Finding>& findings) {
  std::vector<int> lines;
  for (const Finding& f : findings) lines.push_back(f.line);
  return lines;
}

// ---- spec parsing ----------------------------------------------------------

TEST(UnitsSpec, ParsesSuffixesAndDerivesPairwiseConstants) {
  std::string error;
  const UnitsSpec spec = ParseUnitsSpec(
      "# comment\n"
      "suffix ms time 1e-3\n"
      "suffix s time 1\n"
      "suffix bytes data 8\n"
      "suffix bits data 1\n"
      "const 3.14\n",
      &error);
  ASSERT_TRUE(spec.loaded) << error;
  EXPECT_EQ(spec.suffixes.size(), 4u);
  // Pairwise in-dimension ratios, both directions.
  EXPECT_TRUE(spec.SanctionedConstant(1e3));    // ms -> s
  EXPECT_TRUE(spec.SanctionedConstant(1e-3));   // s -> ms
  EXPECT_TRUE(spec.SanctionedConstant(8.0));    // bytes -> bits
  EXPECT_TRUE(spec.SanctionedConstant(0.125));  // bits -> bytes
  // Explicit const lines count, with their reciprocal.
  EXPECT_TRUE(spec.SanctionedConstant(3.14));
  EXPECT_TRUE(spec.SanctionedConstant(1.0 / 3.14));
  // 1 never sanctions (s/sec-style unity ratios are excluded), nor do
  // cross-dimension ratios or arbitrary values.
  EXPECT_FALSE(spec.SanctionedConstant(1.0));
  EXPECT_FALSE(spec.SanctionedConstant(42.0));
}

TEST(UnitsSpec, MalformedLineReportsAndUnloads) {
  std::string error;
  const UnitsSpec spec = ParseUnitsSpec("suffix ms time\n", &error);
  EXPECT_FALSE(spec.loaded);
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(UnitsSpec, SuffixOfUsesLastSegmentAndStripsMemberUnderscore) {
  const UnitsSpec spec = CommittedSpec();
  ASSERT_NE(spec.SuffixOf("rtt_ms"), nullptr);
  EXPECT_EQ(spec.SuffixOf("rtt_ms")->dimension, "time");
  ASSERT_NE(spec.SuffixOf("duration_s_"), nullptr);  // private member
  EXPECT_EQ(spec.SuffixOf("duration_s_")->scale, 1.0);
  ASSERT_NE(spec.SuffixOf("min_capacity_gbps"), nullptr);
  EXPECT_EQ(spec.SuffixOf("min_capacity_gbps")->dimension, "rate");
  EXPECT_EQ(spec.SuffixOf("ms"), nullptr);       // no underscore: bare word
  EXPECT_EQ(spec.SuffixOf("rtt"), nullptr);
  EXPECT_EQ(spec.SuffixOf("business"), nullptr); // suffix must be a segment
}

// ---- declaration registry --------------------------------------------------

TEST(UnitsRegistry, HarvestsUnitParametersFromDeclarations) {
  const UnitsSpec spec = CommittedSpec();
  const FactsTable table =
      TableOf("units", "mismatch.cc", "src/sim/mismatch.cc");
  const UnitsRegistry registry = BuildUnitsRegistry(table, spec);
  const auto it = registry.functions.find("Propagate");
  ASSERT_NE(it, registry.functions.end());
  ASSERT_EQ(it->second.size(), 1u);
  const FnSig& sig = it->second.front();
  ASSERT_EQ(sig.params.size(), 2u);
  EXPECT_EQ(sig.params[0].name, "delay_ms");
  EXPECT_EQ(sig.params[0].unit, "ms");
  EXPECT_EQ(sig.params[1].name, "budget_s");
  EXPECT_EQ(sig.params[1].unit, "s");
  EXPECT_EQ(sig.min_args, 2);
  EXPECT_GT(registry.unit_decls, 0);
}

// ---- units pass over fixtures ----------------------------------------------

TEST(UnitsPass, FlagsAllThreeFlowShapes) {
  const UnitsSpec spec = CommittedSpec();
  const FactsTable table =
      TableOf("units", "mismatch.cc", "src/sim/mismatch.cc");
  std::vector<Finding> findings;
  RunUnitsPass(table, spec, findings);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "units");
    EXPECT_EQ(f.severity, Severity::kError);
  }
  // assignment (12), compound assignment (15), comparison (17), and the
  // call with both arguments swapped (21, one finding per argument).
  EXPECT_EQ(LinesOf(findings), (std::vector<int>{12, 15, 17, 21, 21}))
      << RenderText(findings);
  // The report names the flow: the mismatched source identifier and unit.
  EXPECT_NE(findings[0].message.find("rtt_ms (_ms) -> timeout_s"),
            std::string::npos)
      << findings[0].message;
}

TEST(UnitsPass, SanctionedConversionsAndDimensionalClosurePass) {
  const UnitsSpec spec = CommittedSpec();
  const FactsTable table =
      TableOf("units", "sanctioned.cc", "src/sim/sanctioned.cc");
  std::vector<Finding> findings;
  RunUnitsPass(table, spec, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(UnitsPass, CleanFileStaysClean) {
  const UnitsSpec spec = CommittedSpec();
  const FactsTable table = TableOf("units", "clean.cc", "src/sim/clean.cc");
  std::vector<Finding> findings;
  RunUnitsPass(table, spec, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(UnitsPass, SuppressionSilencesAndIsAudited) {
  const UnitsSpec spec = CommittedSpec();
  const std::string source = ReadFixture("units", "suppressed.cc");
  FactsTable table;
  TuFacts facts = ExtractFacts(source, "src/sim/suppressed.cc");
  // Both placements (line above, same line) carry the allow.
  int units_allows = 0;
  for (const auto& [line, rules] : facts.allow) {
    units_allows += static_cast<int>(rules.count("units"));
  }
  EXPECT_EQ(units_allows, 2);
  table.Add(std::move(facts));
  std::vector<Finding> findings;
  RunUnitsPass(table, spec, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

// ---- determinism pass over fixtures ----------------------------------------

TEST(DeterminismPass, FlagsEveryTaintSource) {
  const FactsTable table =
      TableOf("determinism", "tainted.cc", "src/analysis/tainted.cc");
  std::vector<Finding> findings;
  RunDeterminismPass(table, findings);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "determinism");
    EXPECT_EQ(f.severity, Severity::kError);
  }
  // steady_clock, timespec_get, time(&now), std::hash<Obj*>, the
  // pointer-keyed unordered_map, reinterpret_cast<uintptr_t>, and the
  // hash-order accumulate.
  EXPECT_EQ(findings.size(), 7u) << RenderText(findings);
}

TEST(DeterminismPass, SanctionedShapesAndR2TerritoryStaySilent) {
  // time(nullptr) is R2's finding (raw-entropy); the taint pass must not
  // double-report it, and canonical-helper folds are sanctioned.
  const FactsTable table =
      TableOf("determinism", "sanctioned.cc", "src/analysis/sanctioned.cc");
  std::vector<Finding> findings;
  RunDeterminismPass(table, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(DeterminismPass, SuppressionSilences) {
  const FactsTable table =
      TableOf("determinism", "suppressed.cc", "src/analysis/suppressed.cc");
  std::vector<Finding> findings;
  RunDeterminismPass(table, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(DeterminismPass, CleanFileStaysClean) {
  const FactsTable table =
      TableOf("determinism", "clean.cc", "src/analysis/clean.cc");
  std::vector<Finding> findings;
  RunDeterminismPass(table, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(DeterminismPass, RuntimeModuleIsExempt) {
  // The identical taint sources re-rooted under src/runtime/ (the sanctioned
  // home of the wall clock and entropy) produce nothing.
  const FactsTable table =
      TableOf("determinism", "tainted.cc", "src/runtime/tainted.cc");
  std::vector<Finding> findings;
  RunDeterminismPass(table, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

// ---- the real tree ---------------------------------------------------------

TEST(SemanticTree, RealTreeIsCleanUnderBothPasses) {
  const std::string root(MANIC_SOURCE_DIR);
  std::string layers_error, units_error;
  const LayerManifest manifest = LoadLayerManifest(
      root + "/tools/manic_lint/layers.txt", &layers_error);
  ASSERT_TRUE(manifest.loaded) << layers_error;
  const UnitsSpec spec =
      LoadUnitsSpec(root + "/tools/manic_lint/units.txt", &units_error);
  ASSERT_TRUE(spec.loaded) << units_error;
  const TreeAnalysis analysis =
      AnalyzeTree({root + "/src", root + "/bench", root + "/tests",
                   root + "/examples"},
                  &manifest, &spec);
  ASSERT_FALSE(analysis.read_failure);
  ASSERT_GT(analysis.files_scanned, 50);
  EXPECT_EQ(CountErrors(analysis.findings), 0)
      << RenderText(analysis.findings);
  EXPECT_EQ(CountWarnings(analysis.findings), 0)
      << RenderText(analysis.findings);
  // Every suppression in the tree shows up in the audit map the JSON report
  // publishes; a clean tree must also not be quietly drowning in allows.
  int total_allows = 0;
  for (const auto& [rule, count] : analysis.suppressions) {
    total_allows += count;
  }
  // Family-form allows (`allow(concurrency: atomic-order)`) count twice:
  // once under the rule and once under the family.
  EXPECT_LT(total_allows, 20) << "suppression creep";
}

TEST(SemanticTree, JsonReportCarriesSchemaVersion5) {
  const std::string json = RenderJson({}, 3, {{"units", 1}});
  EXPECT_EQ(json.rfind("{\"schema_version\":5,", 0), 0u) << json;
  EXPECT_NE(json.find("\"suppressions\":{\"units\":1}"), std::string::npos)
      << json;
}

}  // namespace
}  // namespace manic::lint
