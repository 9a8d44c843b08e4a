// manic-lint: MANIC-specific determinism & safety rules, enforced at the
// token level so the linter builds anywhere the library builds (no libclang).
//
// Rules (see DESIGN.md "Static analysis" for the full contract):
//   unordered-iter   (R1, error)    for-loop ranges over unordered containers
//                                   must fold through the canonical-order
//                                   helpers in src/runtime/canonical.h.
//   raw-entropy      (R2, error)    rand()/srand()/std::random_device/
//                                   time(nullptr) anywhere outside
//                                   src/stats/rng — all randomness flows from
//                                   explicit seeds.
//   stdout-write     (R3, error)    no stdout writes inside src/runtime or
//                                   src/scenario: the study engine must keep
//                                   bench stdout byte-comparable across
//                                   thread counts.
//   header-hygiene   (R4, error)    headers carry #pragma once and never
//                                   `using namespace` at any scope.
//   uninit-member    (R5, error in StudyExecutor-adjacent code, warning
//                                   elsewhere) POD struct members need
//                                   default initializers; an uninitialized
//                                   member crossing the shard boundary is a
//                                   nondeterminism (and UBSan) hazard.
//
// Suppression: `// manic-lint: allow(rule[, rule...])` on the finding's line
// or the line above it; `allow(all)` silences every rule for that line. In
// a tree analysis, an allow naming no cataloged rule or family is itself an
// error (rule "stale-allow").
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "facts.h"

namespace manic::lint {

struct LayerManifest;    // graph.h
struct UnitsSpec;        // units.h
struct TrustSpec;        // trust.h
struct ConcurrencySpec;  // concurrency.h

enum class Severity { kWarning, kError };

std::string_view SeverityName(Severity severity);

struct Finding {
  std::string file;   // logical path (decides rule scoping, see below)
  int line = 0;
  std::string rule;
  Severity severity = Severity::kError;
  std::string message;
};

// Lints one translation unit. `logical_path` decides path-scoped behavior
// (e.g. stdout-write only fires under src/runtime / src/scenario, raw-entropy
// is exempt in src/stats/rng) and is what findings carry; tests use it to
// lint fixture files as if they lived elsewhere in the tree.
std::vector<Finding> LintSource(std::string_view source,
                                std::string_view logical_path);

// Reads and lints a file on disk, using `logical_path` (defaults to the real
// path) for scoping. Returns false if the file cannot be read.
bool LintFile(const std::filesystem::path& path, std::vector<Finding>& out,
              std::string_view logical_path = {});

// Walks files and directories (recursively; *.h *.hh *.hpp *.cc *.cpp *.cxx),
// linting each. Directories named build*, .git, third_party, and
// lint_fixtures are skipped — the fixture corpus violates the rules on
// purpose. Returns the number of files linted, or -1 if some path could not
// be read.
int LintPaths(const std::vector<std::string>& paths, std::vector<Finding>& out);

// Whole-tree analysis: the per-file rules above plus the cross-file graph
// passes (include cycles, layering contract, unused includes — graph.h),
// the semantic passes (units dataflow — units.h, determinism taint —
// taint.h), the trust-boundary passes (taint flows, must-check
// discards, hot-path contracts — trust.h), and the concurrency passes
// (atomic memory-order contracts, thread-role ownership, lock-order —
// concurrency.h), with the per-TU facts table and a suppression audit on
// the side.
struct TreeAnalysis {
  std::vector<Finding> findings;  // sorted by (file, line, rule)
  FactsTable facts;
  int files_scanned = 0;
  bool read_failure = false;  // some input path could not be read
  // Suppression audit: rule -> number of `// manic-lint: allow(rule)`
  // mentions across the scanned files ("all" counts under "all"), so
  // suppression creep is visible in every report. Names the catalog does
  // not know are reported as stale-allow findings instead.
  std::map<std::string, int> suppressions;
};

// Walks `paths` like LintPaths, then runs the graph and semantic passes.
// A null (or unloaded) manifest skips the layering pass only; a null (or
// unloaded) units spec skips the units pass only; a null (or unloaded)
// trust spec skips the trust and must-check passes only; a null (or
// unloaded) concurrency spec skips the atomics/thread-role/lock-order
// passes only. The determinism taint pass, the hot-path contract pass and
// the stale-allow check always run.
TreeAnalysis AnalyzeTree(const std::vector<std::string>& paths,
                         const LayerManifest* manifest,
                         const UnitsSpec* units = nullptr,
                         const TrustSpec* trust = nullptr,
                         const ConcurrencySpec* concurrency = nullptr);

// One "path:line: severity[rule]: message" line per finding.
std::string RenderText(const std::vector<Finding>& findings);

// Machine-readable report (schema documented in tools/manic_lint/README.md):
//   {"schema_version":5,"files_scanned":N,"errors":E,"warnings":W,
//    "suppressions":{"rule":N,...},"findings":[...]}
std::string RenderJson(const std::vector<Finding>& findings,
                       int files_scanned,
                       const std::map<std::string, int>& suppressions = {});

// The complete rule catalog across all five tiers, grouped by family.
// `severity` is "error", "warning", or "error/warning" for rules whose
// severity is context-dependent. This is the single source of truth the
// README's rule table and `manic_lint --list-rules` are generated from.
struct RuleInfo {
  std::string_view rule;
  std::string_view family;    // token|graph|units|determinism|trust|
                              // concurrency
  std::string_view severity;
  std::string_view description;
};
const std::vector<RuleInfo>& RuleCatalog();

// `--list-rules` payload: {"schema_version":5,"rules":[{"rule":...,
// "family":...,"severity":...,"description":...},...]}
std::string RenderRuleCatalogJson();

int CountErrors(const std::vector<Finding>& findings);
int CountWarnings(const std::vector<Finding>& findings);

// The CLI exit-code contract (scripts/check.sh and CI key off it):
//   0 = clean, 1 = error findings (or any finding under --werror),
//   2 = warning findings only, 3 = bad usage / unreadable input.
int ExitCodeFor(int errors, int warnings, bool werror);

}  // namespace manic::lint
