// Tests for manic-lint's phase-5 concurrency passes (concurrency.h): the
// `atomic-order`/`atomic-pair`/`atomic-guard` atomics pass, the
// `thread-role` ownership pass over the whole-program call graph, and the
// `lock-order`/`wait-notify` deadlock pass. Fixtures live under
// tests/lint_fixtures/concurrency/; each is re-rooted at a synthetic
// logical path. The final tests run the whole analyzer over the real tree
// with the committed concurrency.txt and require a clean report.
//
// MANIC_SOURCE_DIR is injected by tests/CMakeLists.txt.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "concurrency.h"
#include "facts.h"
#include "graph.h"
#include "lint.h"
#include "trust.h"
#include "units.h"

namespace manic::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(MANIC_SOURCE_DIR) +
                           "/tests/lint_fixtures/concurrency/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// A self-contained spec exercising every directive; the role fixtures are
// written against these names.
ConcurrencySpec FixtureSpec() {
  std::string error;
  ConcurrencySpec spec = ParseConcurrencySpec(
      "role producer = Engine::Produce\n"
      "role consumer = Engine::Consume*\n"
      "owned-by consumer Engine::inbox_\n"
      "shared Engine::stats_\n",
      &error);
  EXPECT_TRUE(spec.loaded) << error;
  return spec;
}

FactsTable TableOf(const std::string& name, const std::string& logical_path) {
  FactsTable table;
  table.Add(ExtractFacts(ReadFixture(name), logical_path));
  return table;
}

std::vector<int> LinesOf(const std::vector<Finding>& findings) {
  std::vector<int> lines;
  for (const Finding& f : findings) lines.push_back(f.line);
  return lines;
}

// ---- spec parsing ----------------------------------------------------------

TEST(ConcurrencySpec, ParsesRolesOwnershipAndShared) {
  const ConcurrencySpec spec = FixtureSpec();
  ASSERT_EQ(spec.roles.size(), 2u);
  EXPECT_EQ(spec.roles.at("producer"),
            (std::vector<std::string>{"Engine::Produce"}));
  EXPECT_EQ(spec.roles.at("consumer"),
            (std::vector<std::string>{"Engine::Consume*"}));
  ASSERT_EQ(spec.owned.count("Engine::inbox_"), 1u);
  EXPECT_EQ(spec.owned.at("Engine::inbox_"), "consumer");
  EXPECT_EQ(spec.shared.count("Engine::stats_"), 1u);
}

TEST(ConcurrencySpec, MalformedRoleLineReports) {
  std::string error;
  const ConcurrencySpec spec =
      ParseConcurrencySpec("role worker Engine::Run\n", &error);
  EXPECT_FALSE(spec.loaded);
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(ConcurrencySpec, UndeclaredOwningRoleReports) {
  std::string error;
  const ConcurrencySpec spec = ParseConcurrencySpec(
      "role worker = Engine::Run\nowned-by ghost Engine::q_\n", &error);
  EXPECT_FALSE(spec.loaded);
  EXPECT_NE(error.find("ghost"), std::string::npos) << error;
}

TEST(ConcurrencySpec, SpecWithoutRolesStaysUnloaded) {
  std::string error;
  const ConcurrencySpec spec =
      ParseConcurrencySpec("shared Engine::stats_\n", &error);
  EXPECT_FALSE(spec.loaded);
  EXPECT_NE(error.find("no roles"), std::string::npos) << error;
}

TEST(ConcurrencySpec, UnreadableFileReports) {
  std::string error;
  const ConcurrencySpec spec =
      LoadConcurrencySpec("/nonexistent/concurrency.txt", &error);
  EXPECT_FALSE(spec.loaded);
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
}

// ---- atomics pass ----------------------------------------------------------

TEST(AtomicsPass, ImplicitOrderIsAnError) {
  const ConcurrencySpec spec = FixtureSpec();
  const FactsTable table =
      TableOf("atomics_implicit.cc", "src/serve/atomics_implicit.cc");
  std::vector<Finding> findings;
  RunAtomicsPass(table, spec, findings);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "atomic-order");
    EXPECT_EQ(f.severity, Severity::kError);
  }
  // The bare fetch_add (6) and load (7); the explicit relaxed store (8)
  // passes, and the complete implicit pair raises no atomic-pair noise.
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{6, 7}))
      << RenderText(findings);
  EXPECT_NE(findings[0].message.find("implicit seq_cst"), std::string::npos)
      << findings[0].message;
}

TEST(AtomicsPass, UnpairedPublishAndConsumeAreErrors) {
  const ConcurrencySpec spec = FixtureSpec();
  const FactsTable table =
      TableOf("atomics_unpaired.cc", "src/serve/atomics_unpaired.cc");
  std::vector<Finding> findings;
  RunAtomicsPass(table, spec, findings);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "atomic-pair");
    EXPECT_EQ(f.severity, Severity::kError);
  }
  // The consumer-less release store (7) and the publisher-less acquire
  // load (8), each with its half of the flow chain.
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{7, 8}))
      << RenderText(findings);
  EXPECT_NE(findings[0].message.find(
                "[flow: ready_.store(memory_order_release) -> (no consumer)]"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[1].message.find(
                "[flow: (no publisher) -> go_.load(memory_order_acquire)]"),
            std::string::npos)
      << findings[1].message;
}

TEST(AtomicsPass, RelaxedGuardOverNonAtomicStateIsAnError) {
  const ConcurrencySpec spec = FixtureSpec();
  const FactsTable table =
      TableOf("relaxed_guard.cc", "src/serve/relaxed_guard.cc");
  std::vector<Finding> findings;
  RunAtomicsPass(table, spec, findings);
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{8})) << RenderText(findings);
  EXPECT_EQ(findings[0].rule, "atomic-guard");
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_NE(findings[0].message.find(
                "[flow: ready_.load(memory_order_relaxed) -> guard -> "
                "value_]"),
            std::string::npos)
      << findings[0].message;
}

TEST(AtomicsPass, SeqCstInsideHotRegionIsAdvisory) {
  const ConcurrencySpec spec = FixtureSpec();
  const FactsTable table = TableOf("hot_seqcst.cc", "src/serve/hot_seqcst.cc");
  std::vector<Finding> findings;
  RunAtomicsPass(table, spec, findings);
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{9})) << RenderText(findings);
  EXPECT_EQ(findings[0].rule, "atomic-order");
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_NE(findings[0].message.find("full fence"), std::string::npos)
      << findings[0].message;
}

TEST(AtomicsPass, FamilySuppressionSilencesAndIsAudited) {
  const ConcurrencySpec spec = FixtureSpec();
  TuFacts facts = ExtractFacts(ReadFixture("allowed.cc"),
                               "src/serve/allowed.cc");
  // The family form registers both names, so the audit shows the family
  // and the specific rule.
  int family = 0, rule = 0;
  for (const auto& [line, rules] : facts.allow) {
    family += static_cast<int>(rules.count("concurrency"));
    rule += static_cast<int>(rules.count("atomic-order"));
  }
  EXPECT_EQ(family, 1);
  EXPECT_EQ(rule, 1);
  FactsTable table;
  table.Add(std::move(facts));
  std::vector<Finding> findings;
  RunAtomicsPass(table, spec, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

// ---- thread-role pass ------------------------------------------------------

TEST(ThreadRolePass, CrossRoleWriteIsFlaggedWithCallChain) {
  const ConcurrencySpec spec = FixtureSpec();
  const FactsTable table = TableOf("role_cross.cc", "src/serve/role_cross.cc");
  std::vector<Finding> findings;
  RunThreadRolePass(table, spec, findings);
  // Only the producer-reachable push into the consumer-owned inbox (15):
  // the owning-role pop (10) and the shared stats_ bump (16) are silent.
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{15}))
      << RenderText(findings);
  EXPECT_EQ(findings[0].rule, "thread-role");
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_NE(findings[0].message.find(
                "[flow: Engine::Produce -> Engine::Push -> inbox_]"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("owned by role 'consumer'"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("written from role 'producer'"),
            std::string::npos)
      << findings[0].message;
}

// ---- lock-order pass -------------------------------------------------------

TEST(LockOrderPass, OppositeAcquisitionOrdersAreACycle) {
  const ConcurrencySpec spec = FixtureSpec();
  const FactsTable table = TableOf("lock_cycle.cc", "src/serve/lock_cycle.cc");
  std::vector<Finding> findings;
  RunLockOrderPass(table, spec, findings);
  // One deduplicated cycle, anchored at the inner acquisition of the first
  // path (12).
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{12}))
      << RenderText(findings);
  EXPECT_EQ(findings[0].rule, "lock-order");
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_NE(findings[0].message.find("[flow: mu_a -> mu_b -> mu_a]"),
            std::string::npos)
      << findings[0].message;
}

TEST(LockOrderPass, ReacquiringAHeldMutexThroughAHelperIsAnError) {
  const ConcurrencySpec spec = FixtureSpec();
  const FactsTable table = TableOf("lock_self.cc", "src/serve/lock_self.cc");
  std::vector<Finding> findings;
  RunLockOrderPass(table, spec, findings);
  // The interprocedural self-edge at the Helper() call under the held lock
  // (17); no length-one "cycle" duplicate.
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{17}))
      << RenderText(findings);
  EXPECT_EQ(findings[0].rule, "lock-order");
  EXPECT_NE(findings[0].message.find("acquired while already held"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("'Helper'"), std::string::npos)
      << findings[0].message;
}

TEST(LockOrderPass, WaitWithoutNotifyIsAnError) {
  const ConcurrencySpec spec = FixtureSpec();
  const FactsTable table =
      TableOf("wait_no_notify.cc", "src/serve/wait_no_notify.cc");
  std::vector<Finding> findings;
  RunLockOrderPass(table, spec, findings);
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{10}))
      << RenderText(findings);
  EXPECT_EQ(findings[0].rule, "wait-notify");
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_NE(findings[0].message.find("[flow: cv_.wait(...) -> (no notify)]"),
            std::string::npos)
      << findings[0].message;
}

// ---- the real tree ---------------------------------------------------------

TEST(ConcurrencyTree, RealTreeIsCleanUnderAllPasses) {
  const std::string root(MANIC_SOURCE_DIR);
  std::string layers_error, units_error, trust_error, conc_error;
  const LayerManifest manifest = LoadLayerManifest(
      root + "/tools/manic_lint/layers.txt", &layers_error);
  ASSERT_TRUE(manifest.loaded) << layers_error;
  const UnitsSpec units =
      LoadUnitsSpec(root + "/tools/manic_lint/units.txt", &units_error);
  ASSERT_TRUE(units.loaded) << units_error;
  const TrustSpec trust =
      LoadTrustSpec(root + "/tools/manic_lint/trust.txt", &trust_error);
  ASSERT_TRUE(trust.loaded) << trust_error;
  const ConcurrencySpec concurrency = LoadConcurrencySpec(
      root + "/tools/manic_lint/concurrency.txt", &conc_error);
  ASSERT_TRUE(concurrency.loaded) << conc_error;
  const TreeAnalysis analysis =
      AnalyzeTree({root + "/src", root + "/bench", root + "/tests",
                   root + "/examples"},
                  &manifest, &units, &trust, &concurrency);
  ASSERT_FALSE(analysis.read_failure);
  ASSERT_GT(analysis.files_scanned, 50);
  EXPECT_EQ(CountErrors(analysis.findings), 0)
      << RenderText(analysis.findings);
  EXPECT_EQ(CountWarnings(analysis.findings), 0)
      << RenderText(analysis.findings);
}

TEST(ConcurrencyTree, RealTreeRolesActuallyBind) {
  // Guard against silent rot: if the spec's role entry points or owned
  // fields stop matching the serving plane (a rename, say), the ownership
  // pass would pass vacuously. Mis-assign the deposit slots to the
  // event-loop role and require the shard worker's writes to be caught.
  const std::string root(MANIC_SOURCE_DIR);
  std::string error;
  ConcurrencySpec spec = LoadConcurrencySpec(
      root + "/tools/manic_lint/concurrency.txt", &error);
  ASSERT_TRUE(spec.loaded) << error;
  spec.shared.erase("IngestShard::day_verdicts_");
  spec.owned["IngestShard::day_verdicts_"] = "event-loop";
  const TreeAnalysis analysis =
      AnalyzeTree({root + "/src/serve"}, nullptr, nullptr, nullptr, &spec);
  int cross_role = 0;
  for (const Finding& f : analysis.findings) {
    if (f.rule == "thread-role" &&
        f.message.find("day_verdicts_") != std::string::npos) {
      ++cross_role;
    }
  }
  EXPECT_GE(cross_role, 1)
      << "thread-role pass no longer sees IngestShard's worker writes";
}

TEST(ConcurrencyTree, RingStagingCursorOwnershipBinds) {
  // The same guard for the ring's staging cursor: hand it to the shard
  // worker and the event loop's staging writes (Submit -> SubmitOne ->
  // PushSample -> Stage) must be caught.
  const std::string root(MANIC_SOURCE_DIR);
  std::string error;
  ConcurrencySpec spec = LoadConcurrencySpec(
      root + "/tools/manic_lint/concurrency.txt", &error);
  ASSERT_TRUE(spec.loaded) << error;
  ASSERT_EQ(spec.owned.count("SpscRing::staged_"), 1u);
  EXPECT_EQ(spec.owned.at("SpscRing::staged_"), "event-loop");
  spec.owned["SpscRing::staged_"] = "shard-worker";
  const TreeAnalysis analysis =
      AnalyzeTree({root + "/src/serve"}, nullptr, nullptr, nullptr, &spec);
  int cross_role = 0;
  for (const Finding& f : analysis.findings) {
    if (f.rule == "thread-role" &&
        f.message.find("staged_") != std::string::npos &&
        f.message.find("written from role 'event-loop'") !=
            std::string::npos) {
      ++cross_role;
    }
  }
  EXPECT_GE(cross_role, 1)
      << "thread-role pass no longer sees the event loop staging samples";
}

TEST(ConcurrencyTree, JsonReportCarriesSchemaVersion5) {
  const std::string json =
      RenderJson({}, 3, {{"concurrency", 1}, {"atomic-order", 1}});
  EXPECT_EQ(json.rfind("{\"schema_version\":5,", 0), 0u) << json;
  EXPECT_NE(
      json.find("\"suppressions\":{\"atomic-order\":1,\"concurrency\":1}"),
      std::string::npos)
      << json;
}

}  // namespace
}  // namespace manic::lint
