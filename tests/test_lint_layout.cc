// Tests for manic-lint's phase-6 layout passes (layout.h): the
// `layout-budget`/`layout-pad`/`false-sharing` layout pass, the
// `alloc-scale` scale-loop allocation pass, and the `wire-abi` pinned
// wire-format pass. Fixtures live under tests/lint_fixtures/layout/; each
// is re-rooted at a synthetic logical path. The final tests run the whole
// analyzer over the real tree with the committed layout.txt: once as-is
// (must be clean), once with a shrunk budget and once with an extended
// wire pin (must fire — the anti-vacuity proof that the passes actually
// bind to the tree they guard).
//
// MANIC_SOURCE_DIR is injected by tests/CMakeLists.txt.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "concurrency.h"
#include "facts.h"
#include "graph.h"
#include "layout.h"
#include "lint.h"
#include "trust.h"
#include "units.h"

namespace manic::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(MANIC_SOURCE_DIR) +
                           "/tests/lint_fixtures/layout/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

FactsTable TableOf(const std::string& name, const std::string& logical_path) {
  FactsTable table;
  table.Add(ExtractFacts(ReadFixture(name), logical_path));
  return table;
}

LayoutSpec SpecOf(const std::string& text) {
  std::string error;
  LayoutSpec spec = ParseLayoutSpec(text, &error);
  EXPECT_TRUE(spec.loaded) << error;
  return spec;
}

std::vector<Finding> OfRule(const std::vector<Finding>& findings,
                            const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

std::vector<int> LinesOf(const std::vector<Finding>& findings) {
  std::vector<int> lines;
  for (const Finding& f : findings) lines.push_back(f.line);
  return lines;
}

// ---- spec parsing ----------------------------------------------------------

TEST(LayoutSpecParse, EveryDirectiveParses) {
  const LayoutSpec spec = SpecOf(
      "# comment\n"
      "type vec_stub 24 8\n"
      "budget Record 16\n"
      "budget Outer::Inner 40\n"
      "pad-threshold 4\n"
      "same-line Ring::a_ Ring::b_\n"
      "multi-thread Queue Ring\n"
      "scale-axis links* samples\n"
      "arena pool_ bump_alloc\n"
      "wire Sample 21 t:8 link:4 vp:4 kind:1 value:4\n"
      "wire Flags 3 a+b+c:1 d:2\n");
  ASSERT_EQ(spec.types.count("vec_stub"), 1u);
  EXPECT_EQ(spec.types.at("vec_stub").size, 24);
  EXPECT_EQ(spec.types.at("vec_stub").align, 8);
  EXPECT_EQ(spec.budgets.at("Record"), 16);
  EXPECT_EQ(spec.budgets.at("Outer::Inner"), 40);
  EXPECT_EQ(spec.pad_threshold, 4);
  ASSERT_EQ(spec.same_line.count("Ring::a_"), 1u);
  ASSERT_EQ(spec.same_line.count("Ring::b_"), 1u);
  EXPECT_EQ(spec.same_line.at("Ring::a_"), spec.same_line.at("Ring::b_"));
  EXPECT_EQ(spec.multi_thread.count("Queue"), 1u);
  EXPECT_EQ(spec.multi_thread.count("Ring"), 1u);
  ASSERT_EQ(spec.scale_axes.size(), 2u);
  EXPECT_EQ(spec.scale_axes[0], "links*");
  EXPECT_EQ(spec.arena.count("pool_"), 1u);
  EXPECT_EQ(spec.arena.count("bump_alloc"), 1u);
  ASSERT_EQ(spec.wire.size(), 2u);
  EXPECT_EQ(spec.wire[0].name, "Sample");
  EXPECT_EQ(spec.wire[0].total, 21);
  ASSERT_EQ(spec.wire[0].groups.size(), 5u);
  EXPECT_EQ(spec.wire[0].groups[0].fields,
            (std::vector<std::string>{"t"}));
  EXPECT_EQ(spec.wire[0].groups[0].bytes, 8);
  // '+' packs several struct fields into one encoded group.
  ASSERT_EQ(spec.wire[1].groups.size(), 2u);
  EXPECT_EQ(spec.wire[1].groups[0].fields,
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(spec.wire[1].groups[0].bytes, 1);
}

TEST(LayoutSpecParse, MalformedLineFailsLoudly) {
  std::string error;
  const LayoutSpec missing_count = ParseLayoutSpec("budget Record\n", &error);
  EXPECT_FALSE(missing_count.loaded);
  EXPECT_FALSE(error.empty());
  error.clear();
  const LayoutSpec bad_wire =
      ParseLayoutSpec("wire Sample 21 t:eight\n", &error);
  EXPECT_FALSE(bad_wire.loaded);
  EXPECT_FALSE(error.empty());
}

TEST(LayoutSpecParse, MissingFileFailsLoudly) {
  std::string error;
  const LayoutSpec spec =
      LoadLayoutSpec("/nonexistent/layout.txt", &error);
  EXPECT_FALSE(spec.loaded);
  EXPECT_FALSE(error.empty());
}

// ---- layout pass over fixtures ---------------------------------------------

TEST(LayoutPass, BudgetOverflowIsAnError) {
  const LayoutSpec spec = SpecOf("budget Record 16\nbudget Mixed 16\n");
  const FactsTable table =
      TableOf("budget_over.cc", "src/serve/budget_over.cc");
  std::vector<Finding> findings;
  RunLayoutPass(table, spec, nullptr, findings);
  const std::vector<Finding> budget = OfRule(findings, "layout-budget");
  ASSERT_EQ(LinesOf(budget), (std::vector<int>{9, 15})) << RenderText(budget);
  EXPECT_EQ(budget[0].severity, Severity::kError);
  // Record is 24 bytes in any order: the finding carries the offset chain
  // and says so instead of suggesting a futile reorder.
  EXPECT_NE(budget[0].message.find(
                "is 24 bytes under the declared model, over its 16-byte "
                "budget [offsets: t@0 -> value@8 -> id@16]"),
            std::string::npos)
      << budget[0].message;
  EXPECT_NE(budget[0].message.find("no field order is smaller"),
            std::string::npos)
      << budget[0].message;
  // Mixed fits its budget after the reorder the finding suggests.
  EXPECT_NE(budget[1].message.find(
                "reordering as (a, flag, b) reaches 16 bytes"),
            std::string::npos)
      << budget[1].message;
}

TEST(LayoutPass, BudgetWithinStaysSilent) {
  const LayoutSpec spec = SpecOf("budget Record 24\n");
  const FactsTable table =
      TableOf("budget_over.cc", "src/serve/budget_over.cc");
  std::vector<Finding> findings;
  RunLayoutPass(table, spec, nullptr, findings);
  EXPECT_TRUE(OfRule(findings, "layout-budget").empty())
      << RenderText(findings);
}

TEST(LayoutPass, BudgetNamingAMissingStructFlagsTheSpec) {
  const LayoutSpec spec = SpecOf("budget Ghost 8\n");
  const FactsTable table =
      TableOf("budget_over.cc", "src/serve/budget_over.cc");
  std::vector<Finding> findings;
  RunLayoutPass(table, spec, nullptr, findings);
  const std::vector<Finding> budget = OfRule(findings, "layout-budget");
  ASSERT_EQ(budget.size(), 1u) << RenderText(findings);
  EXPECT_EQ(budget[0].file, "tools/manic_lint/layout.txt");
  EXPECT_EQ(budget[0].line, 0);
  EXPECT_NE(budget[0].message.find("no definition was found"),
            std::string::npos)
      << budget[0].message;
}

TEST(LayoutPass, ReorderablePaddingIsAWarning) {
  // The satisfied budget line keeps the spec loadable (a spec declaring
  // nothing enforceable refuses to load).
  const LayoutSpec spec = SpecOf("budget Padded 32\npad-threshold 8\n");
  const FactsTable table = TableOf("pad_waste.cc", "src/serve/pad_waste.cc");
  std::vector<Finding> findings;
  RunLayoutPass(table, spec, nullptr, findings);
  // Padded fires; Tight (multi-declarator fields, no waste) must not.
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{10}))
      << RenderText(findings);
  EXPECT_EQ(findings[0].rule, "layout-pad");
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_NE(findings[0].message.find(
                "wastes 8 byte(s) to reorderable padding (32 -> 24 bytes)"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find(
                "suggested field order: (a, b, flag, flag2)"),
            std::string::npos)
      << findings[0].message;
}

TEST(LayoutPass, FalseSharingViaMultiThreadDirective) {
  const LayoutSpec spec = SpecOf(
      "budget Queue 24\n"
      "multi-thread Queue Isolated Paired\n"
      "same-line Paired::count_ Paired::shadow_\n");
  const FactsTable table =
      TableOf("false_share.cc", "src/serve/false_share.cc");
  std::vector<Finding> findings;
  RunLayoutPass(table, spec, nullptr, findings);
  // Only Queue::head_ fires: Isolated is alignas(64)-padded and Paired's
  // cohabitation is declared same-line.
  const std::vector<Finding> sharing = OfRule(findings, "false-sharing");
  ASSERT_EQ(LinesOf(sharing), (std::vector<int>{13}))
      << RenderText(findings);
  EXPECT_EQ(sharing[0].severity, Severity::kError);
  EXPECT_NE(sharing[0].message.find(
                "atomic field 'Queue::head_' shares a 64-byte cache line "
                "with scratch_, tail_cache_"),
            std::string::npos)
      << sharing[0].message;
  EXPECT_NE(sharing[0].message.find("alignas(64)"), std::string::npos)
      << sharing[0].message;
}

TEST(LayoutPass, FalseSharingViaConcurrencyRoles) {
  // No `multi-thread` line: Ring becomes multi-role purely through the
  // concurrency spec's thread roles, the integration the real tree relies
  // on for structs like serve::IngestShard.
  const LayoutSpec spec = SpecOf("budget Ring 24\npad-threshold 64\n");
  std::string error;
  const ConcurrencySpec roles = ParseConcurrencySpec(
      "role producer = Ring::Push\n"
      "role consumer = Ring::Pop\n",
      &error);
  ASSERT_TRUE(roles.loaded) << error;
  const FactsTable table =
      TableOf("roles_share.cc", "src/serve/roles_share.cc");
  std::vector<Finding> findings;
  RunLayoutPass(table, spec, &roles, findings);
  const std::vector<Finding> sharing = OfRule(findings, "false-sharing");
  ASSERT_EQ(LinesOf(sharing), (std::vector<int>{15}))
      << RenderText(findings);
  EXPECT_NE(sharing[0].message.find("'Ring::w_'"), std::string::npos)
      << sharing[0].message;
  EXPECT_NE(sharing[0].message.find("pad_, r_cache_"), std::string::npos)
      << sharing[0].message;
}

// ---- alloc pass over fixtures ----------------------------------------------

TEST(AllocPass, ScaleLoopAllocationsFire) {
  const LayoutSpec spec = SpecOf("scale-axis links*\n");
  const FactsTable table =
      TableOf("alloc_loop.cc", "src/serve/alloc_loop.cc");
  std::vector<Finding> findings;
  RunAllocPass(table, spec, findings);
  // insert (node growth), make_unique<Item> (templated alloc callee), and
  // raw `new` fire; push_back into the flat `out` vector is amortized tail
  // growth and stays silent.
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{20, 21, 22}))
      << RenderText(findings);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "alloc-scale");
    EXPECT_EQ(f.severity, Severity::kError);
    EXPECT_NE(f.message.find("scale axis 'links'"), std::string::npos)
        << f.message;
    EXPECT_NE(f.message.find("[flow: for (... : links) at line 19 -> "),
              std::string::npos)
        << f.message;
  }
  EXPECT_NE(findings[0].message.find("node-based growth 'table.insert(...)'"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[1].message.find(
                "per-element heap allocation 'make_unique(...)'"),
            std::string::npos)
      << findings[1].message;
  EXPECT_NE(findings[2].message.find("per-element `new`"), std::string::npos)
      << findings[2].message;
}

TEST(AllocPass, ArenaPathsAreExempt) {
  const LayoutSpec spec =
      SpecOf("scale-axis links*\narena table make_unique\n");
  const FactsTable table =
      TableOf("alloc_loop.cc", "src/serve/alloc_loop.cc");
  std::vector<Finding> findings;
  RunAllocPass(table, spec, findings);
  // Only the raw `new` is left: the map receiver and the callee are both
  // declared arena paths.
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{22}))
      << RenderText(findings);
}

TEST(AllocPass, LoopsOverOtherCollectionsAreSilent) {
  const LayoutSpec spec = SpecOf("scale-axis routers*\n");
  const FactsTable table =
      TableOf("alloc_loop.cc", "src/serve/alloc_loop.cc");
  std::vector<Finding> findings;
  RunAllocPass(table, spec, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

// ---- wire-abi pass over fixtures -------------------------------------------

constexpr const char* kPacketPin = "wire PacketHeader 17 t:8 link:4 kind:1 "
                                   "value:4\n";

TEST(WireAbiPass, MatchingStructIsClean) {
  const LayoutSpec spec = SpecOf(kPacketPin);
  const FactsTable table = TableOf("wire_ok.cc", "src/serve/wire_ok.cc");
  std::vector<Finding> findings;
  RunWireAbiPass(table, spec, findings);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(WireAbiPass, DriveByFieldFailsLoudly) {
  // The committed wire_drift.cc fixture is wire_ok.cc plus one unencoded
  // `seq` field — the exact change the pass exists to catch.
  const LayoutSpec spec = SpecOf(kPacketPin);
  const FactsTable table =
      TableOf("wire_drift.cc", "src/serve/wire_drift.cc");
  std::vector<Finding> findings;
  RunWireAbiPass(table, spec, findings);
  ASSERT_EQ(LinesOf(findings), (std::vector<int>{14}))
      << RenderText(findings);
  EXPECT_EQ(findings[0].rule, "wire-abi");
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_NE(findings[0].message.find(
                "field 'seq' of 'PacketHeader' is not part of the pinned "
                "17-byte wire format"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("bump the format version"),
            std::string::npos)
      << findings[0].message;
}

TEST(WireAbiPass, RemovedPinnedFieldFails) {
  const LayoutSpec spec = SpecOf(
      "wire PacketHeader 21 t:8 link:4 kind:1 value:4 flow:4\n");
  const FactsTable table = TableOf("wire_ok.cc", "src/serve/wire_ok.cc");
  std::vector<Finding> findings;
  RunWireAbiPass(table, spec, findings);
  ASSERT_EQ(findings.size(), 1u) << RenderText(findings);
  EXPECT_NE(findings[0].message.find(
                "pinned wire field 'flow' is missing from 'PacketHeader'"),
            std::string::npos)
      << findings[0].message;
}

TEST(WireAbiPass, ReorderedFieldsFail) {
  const LayoutSpec spec = SpecOf(
      "wire PacketHeader 17 link:4 t:8 kind:1 value:4\n");
  const FactsTable table = TableOf("wire_ok.cc", "src/serve/wire_ok.cc");
  std::vector<Finding> findings;
  RunWireAbiPass(table, spec, findings);
  ASSERT_EQ(findings.size(), 1u) << RenderText(findings);
  EXPECT_NE(findings[0].message.find(
                "different order than the pinned wire layout"),
            std::string::npos)
      << findings[0].message;
}

TEST(WireAbiPass, GroupSumMismatchFlagsTheSpec) {
  const LayoutSpec spec = SpecOf(
      "wire PacketHeader 20 t:8 link:4 kind:1 value:4\n");
  const FactsTable table = TableOf("wire_ok.cc", "src/serve/wire_ok.cc");
  std::vector<Finding> findings;
  RunWireAbiPass(table, spec, findings);
  ASSERT_EQ(findings.size(), 1u) << RenderText(findings);
  EXPECT_EQ(findings[0].file, "tools/manic_lint/layout.txt");
  EXPECT_EQ(findings[0].line, 0);
  EXPECT_NE(findings[0].message.find("groups sum to 17"), std::string::npos)
      << findings[0].message;
}

TEST(WireAbiPass, PinningAMissingStructFails) {
  const LayoutSpec spec = SpecOf("wire Ghost 4 x:4\n");
  const FactsTable table = TableOf("wire_ok.cc", "src/serve/wire_ok.cc");
  std::vector<Finding> findings;
  RunWireAbiPass(table, spec, findings);
  ASSERT_EQ(findings.size(), 1u) << RenderText(findings);
  EXPECT_NE(findings[0].message.find("no definition was found"),
            std::string::npos)
      << findings[0].message;
}

// ---- suppression -----------------------------------------------------------

TEST(LayoutSuppression, FamilyFormAllowSilencesAndIsAudited) {
  const LayoutSpec spec = SpecOf("budget Record 16\n");
  FactsTable table;
  TuFacts facts =
      ExtractFacts(ReadFixture("suppressed.cc"), "src/serve/suppressed.cc");
  // The family form lands in the audit under both names.
  int rule_allows = 0, family_allows = 0;
  for (const auto& [line, rules] : facts.allow) {
    rule_allows += static_cast<int>(rules.count("layout-budget"));
    family_allows += static_cast<int>(rules.count("layout"));
  }
  EXPECT_EQ(rule_allows, 1);
  EXPECT_EQ(family_allows, 1);
  table.Add(std::move(facts));
  std::vector<Finding> findings;
  RunLayoutPass(table, spec, nullptr, findings);
  EXPECT_TRUE(OfRule(findings, "layout-budget").empty())
      << RenderText(findings);
}

// ---- the real tree ---------------------------------------------------------

TEST(LayoutTree, RealTreeIsCleanUnderAllPasses) {
  const std::string root(MANIC_SOURCE_DIR);
  std::string layers_error, units_error, trust_error, conc_error,
      layout_error;
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
  const LayoutSpec layout = LoadLayoutSpec(
      root + "/tools/manic_lint/layout.txt", &layout_error);
  ASSERT_TRUE(layout.loaded) << layout_error;
  const TreeAnalysis analysis =
      AnalyzeTree({root + "/src", root + "/bench", root + "/tests",
                   root + "/examples"},
                  &manifest, &units, &trust, &concurrency, &layout);
  ASSERT_FALSE(analysis.read_failure);
  ASSERT_GT(analysis.files_scanned, 50);
  EXPECT_EQ(CountErrors(analysis.findings), 0)
      << RenderText(analysis.findings);
  EXPECT_EQ(CountWarnings(analysis.findings), 0)
      << RenderText(analysis.findings);
  // The tier-6 rollout leaves suppressions in six families; each must stay
  // visible in the audit map the JSON report publishes.
  for (const char* family : {"alloc-scale", "hot-path", "layout",
                             "layout-pad", "trust", "units"}) {
    const auto it = analysis.suppressions.find(family);
    ASSERT_NE(it, analysis.suppressions.end()) << family;
    EXPECT_GE(it->second, 1) << family;
  }
}

TEST(LayoutTree, ShrunkBudgetFiresOnTheRealTree) {
  // Anti-vacuity: prove the budget check actually binds to the committed
  // spec and tree — shrink one budget and the pass must fire.
  const std::string root(MANIC_SOURCE_DIR);
  std::string layout_error;
  LayoutSpec layout = LoadLayoutSpec(
      root + "/tools/manic_lint/layout.txt", &layout_error);
  ASSERT_TRUE(layout.loaded) << layout_error;
  ASSERT_EQ(layout.budgets.count("Point"), 1u);
  layout.budgets["Point"] = 8;
  const TreeAnalysis analysis = AnalyzeTree(
      {root + "/src"}, nullptr, nullptr, nullptr, nullptr, &layout);
  ASSERT_FALSE(analysis.read_failure);
  bool fired = false;
  for (const Finding& f : analysis.findings) {
    if (f.rule == "layout-budget" &&
        f.message.find("'Point'") != std::string::npos) {
      fired = true;
    }
  }
  EXPECT_TRUE(fired) << RenderText(analysis.findings);
}

TEST(LayoutTree, ExtendedWirePinFiresOnTheRealTree) {
  // Anti-vacuity for the wire pass: extend the committed VerdictRecord pin
  // by one phantom field and the real serve::VerdictRecord must diverge
  // loudly.
  const std::string root(MANIC_SOURCE_DIR);
  std::string layout_error;
  LayoutSpec layout = LoadLayoutSpec(
      root + "/tools/manic_lint/layout.txt", &layout_error);
  ASSERT_TRUE(layout.loaded) << layout_error;
  bool pinned = false;
  for (LayoutSpec::WireStruct& w : layout.wire) {
    if (w.name != "VerdictRecord") continue;
    w.groups.push_back({{"bogus_tail_"}, 4});
    w.total += 4;
    pinned = true;
  }
  ASSERT_TRUE(pinned) << "layout.txt no longer pins VerdictRecord";
  const TreeAnalysis analysis = AnalyzeTree(
      {root + "/src"}, nullptr, nullptr, nullptr, nullptr, &layout);
  ASSERT_FALSE(analysis.read_failure);
  bool fired = false;
  for (const Finding& f : analysis.findings) {
    if (f.rule == "wire-abi" &&
        f.message.find("bogus_tail_") != std::string::npos) {
      fired = true;
    }
  }
  EXPECT_TRUE(fired) << RenderText(analysis.findings);
}

// ---- rule catalog ----------------------------------------------------------

TEST(RuleCatalogTier6, LayoutFamilyIsCataloged) {
  const std::vector<RuleInfo>& catalog = RuleCatalog();
  EXPECT_EQ(catalog.size(), 24u);
  for (const char* rule : {"layout-budget", "layout-pad", "false-sharing",
                           "alloc-scale", "wire-abi"}) {
    const auto it = std::find_if(
        catalog.begin(), catalog.end(),
        [&](const RuleInfo& info) { return info.rule == rule; });
    ASSERT_NE(it, catalog.end()) << rule;
    EXPECT_EQ(it->family, "layout") << rule;
  }
}

TEST(RuleCatalogTier6, JsonPayloadShape) {
  const std::string json = RenderRuleCatalogJson();
  EXPECT_EQ(json.rfind("{\"schema_version\":5,\"rules\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"rule\":\"wire-abi\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"family\":\"layout\""), std::string::npos) << json;
}

}  // namespace
}  // namespace manic::lint
