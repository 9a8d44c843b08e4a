#include "lint.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "concurrency.h"
#include "graph.h"
#include "lexer.h"
#include "rules.h"
#include "taint.h"
#include "trust.h"
#include "units.h"

namespace manic::lint {
namespace {

std::string NormalizePath(std::string_view path) {
  std::string out(path);
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

bool PathContains(std::string_view normalized, std::string_view needle) {
  return normalized.find(needle) != std::string_view::npos;
}

bool HasExtension(std::string_view path,
                  std::initializer_list<std::string_view> exts) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string_view::npos) return false;
  const std::string_view ext = path.substr(dot);
  return std::find(exts.begin(), exts.end(), ext) != exts.end();
}

bool IsHeaderPath(std::string_view path) {
  return HasExtension(path, {".h", ".hh", ".hpp"});
}

bool IsSourcePath(std::string_view path) {
  return IsHeaderPath(path) || HasExtension(path, {".cc", ".cpp", ".cxx"});
}

// Suppression comments (`// manic-lint: allow(rule1, rule2)`) cover the
// comment's own line and the line right below it, so both trailing and
// preceding placements work:
//
//   for (auto& kv : counts) {}  // manic-lint: allow(unordered-iter)
//   // manic-lint: allow(raw-entropy)  -- seeding the demo only
//   srand(42);
//
// Parsing lives in facts.cc (ParseSuppressions) so the graph passes honor
// the same contract.
bool IsSuppressed(const AllowMap& allow, const Finding& finding) {
  for (int line : {finding.line, finding.line - 1}) {
    auto it = allow.find(line);
    if (it == allow.end()) continue;
    if (it->second.count(finding.rule) || it->second.count("all")) return true;
  }
  return false;
}

void AppendEscaped(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// What an allow comment may name: `all`, a cataloged rule, or a family.
bool IsCatalogedName(std::string_view name) {
  if (name == "all") return true;
  const std::vector<RuleInfo>& catalog = RuleCatalog();
  return std::any_of(catalog.begin(), catalog.end(),
                     [&](const RuleInfo& info) {
                       return info.rule == name || info.family == name;
                     });
}

bool SkippedDirectory(const std::string& name) {
  // lint_fixtures violates the rules on purpose (it is the linter's own test
  // corpus); build trees hold generated/vendored sources.
  return name == ".git" || name == "third_party" || name == "lint_fixtures" ||
         name.rfind("build", 0) == 0;
}

}  // namespace

std::string_view SeverityName(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

std::vector<Finding> LintSource(std::string_view source,
                                std::string_view logical_path) {
  const std::string path = NormalizePath(logical_path);
  LexResult lexed = Lex(source);

  RuleContext ctx{path, lexed.tokens};
  ctx.is_header = IsHeaderPath(path);
  ctx.in_runtime_or_scenario =
      PathContains(path, "src/runtime/") || PathContains(path, "src/scenario/");
  ctx.in_rng = PathContains(path, "stats/rng");
  ctx.shard_adjacent = PathContains(path, "src/runtime/");
  for (const Token& t : lexed.tokens) {
    if (t.kind == TokKind::kIdent &&
        (t.text == "StudyExecutor" || t.text == "RuntimeOptions")) {
      ctx.shard_adjacent = true;
      break;
    }
  }

  std::vector<Finding> findings;
  RuleUnorderedIter(ctx, findings);
  RuleRawEntropy(ctx, findings);
  RuleStdoutWrite(ctx, findings);
  RuleHeaderHygiene(ctx, findings);
  RuleUninitMember(ctx, findings);

  const AllowMap allow = ParseSuppressions(lexed.comments);
  std::erase_if(findings,
                [&](const Finding& f) { return IsSuppressed(allow, f); });
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
            });
  return findings;
}

bool LintFile(const std::filesystem::path& path, std::vector<Finding>& out,
              std::string_view logical_path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string source = buf.str();
  const std::string logical =
      logical_path.empty() ? path.generic_string() : std::string(logical_path);
  std::vector<Finding> findings = LintSource(source, logical);
  out.insert(out.end(), std::make_move_iterator(findings.begin()),
             std::make_move_iterator(findings.end()));
  return true;
}

namespace {

// Deterministic order: collect, sort, then process. Returns false when a
// path could not be read.
bool CollectSources(const std::vector<std::string>& paths,
                    std::vector<std::filesystem::path>& sources) {
  namespace fs = std::filesystem;
  bool ok = true;
  for (const std::string& arg : paths) {
    std::error_code ec;
    const fs::path root(arg);
    if (fs::is_directory(root, ec)) {
      fs::recursive_directory_iterator it(root, ec), end;
      if (ec) {
        ok = false;
        continue;
      }
      for (; it != end; it.increment(ec)) {
        if (ec) {
          ok = false;
          break;
        }
        if (it->is_directory() &&
            SkippedDirectory(it->path().filename().string())) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() &&
            IsSourcePath(it->path().generic_string())) {
          sources.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      sources.push_back(root);
    } else {
      ok = false;
    }
  }
  std::sort(sources.begin(), sources.end());
  return ok;
}

// Reports are diffable only if the order is total: (file, line, rule), with
// the message as a final tiebreaker.
void SortFindings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
}

}  // namespace

int LintPaths(const std::vector<std::string>& paths,
              std::vector<Finding>& out) {
  std::vector<std::filesystem::path> sources;
  bool ok = CollectSources(paths, sources);
  int files = 0;
  for (const std::filesystem::path& path : sources) {
    if (LintFile(path, out))
      ++files;
    else
      ok = false;
  }
  SortFindings(out);
  return ok ? files : -1;
}

TreeAnalysis AnalyzeTree(const std::vector<std::string>& paths,
                         const LayerManifest* manifest,
                         const UnitsSpec* units,
                         const TrustSpec* trust,
                         const ConcurrencySpec* concurrency) {
  TreeAnalysis result;
  std::vector<std::filesystem::path> sources;
  result.read_failure = !CollectSources(paths, sources);
  for (const std::filesystem::path& path : sources) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      result.read_failure = true;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string source = buf.str();
    const std::string logical = NormalizePath(path.generic_string());

    std::vector<Finding> file_findings = LintSource(source, logical);
    result.findings.insert(result.findings.end(),
                           std::make_move_iterator(file_findings.begin()),
                           std::make_move_iterator(file_findings.end()));
    TuFacts facts = ExtractFacts(source, logical);
    for (const auto& [line, rules] : facts.allow) {
      for (const std::string& rule : rules) {
        if (IsCatalogedName(rule)) {
          ++result.suppressions[rule];
          continue;
        }
        // An allow naming a retired or misspelled rule suppresses nothing,
        // so it only misleads the reader and the audit.
        result.findings.push_back(
            {logical, line, "stale-allow", Severity::kError,
             "allow(" + rule + ") names no cataloged rule or family; "
             "it suppresses nothing, so delete it or fix the name"});
      }
    }
    result.facts.Add(std::move(facts));
    ++result.files_scanned;
  }
  RunGraphPasses(result.facts, manifest, result.findings);
  RunDeterminismPass(result.facts, result.findings);
  if (units != nullptr && units->loaded) {
    RunUnitsPass(result.facts, *units, result.findings);
  }
  if (trust != nullptr && trust->loaded) {
    RunTrustPass(result.facts, *trust, result.findings);
    RunMustCheckPass(result.facts, *trust, result.findings);
  }
  if (concurrency != nullptr && concurrency->loaded) {
    RunAtomicsPass(result.facts, *concurrency, result.findings);
    RunThreadRolePass(result.facts, *concurrency, result.findings);
    RunLockOrderPass(result.facts, *concurrency, result.findings);
  }
  RunHotPathPass(result.facts, result.findings);
  SortFindings(result.findings);
  return result;
}

std::string RenderText(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file;
    out += ':';
    out += std::to_string(f.line);
    out += ": ";
    out += SeverityName(f.severity);
    out += '[';
    out += f.rule;
    out += "]: ";
    out += f.message;
    out += '\n';
  }
  return out;
}

std::string RenderJson(const std::vector<Finding>& findings,
                       int files_scanned,
                       const std::map<std::string, int>& suppressions) {
  std::string out = "{\"schema_version\":5"
                    ",\"files_scanned\":" + std::to_string(files_scanned) +
                    ",\"errors\":" + std::to_string(CountErrors(findings)) +
                    ",\"warnings\":" + std::to_string(CountWarnings(findings)) +
                    ",\"suppressions\":{";
  bool first = true;
  for (const auto& [rule, count] : suppressions) {
    if (!first) out += ',';
    first = false;
    out += "\"";
    AppendEscaped(out, rule);
    out += "\":" + std::to_string(count);
  }
  out += "},\"findings\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out += ',';
    out += "{\"file\":\"";
    AppendEscaped(out, f.file);
    out += "\",\"line\":" + std::to_string(f.line) + ",\"rule\":\"";
    AppendEscaped(out, f.rule);
    out += "\",\"severity\":\"";
    out += SeverityName(f.severity);
    out += "\",\"message\":\"";
    AppendEscaped(out, f.message);
    out += "\"}";
  }
  out += "]}";
  return out;
}

const std::vector<RuleInfo>& RuleCatalog() {
  // One entry per rule the analyzer can emit, grouped by tier. Severity
  // "error/warning" marks rules whose level depends on context (path
  // scoping, hot-path regions).
  static const std::vector<RuleInfo> kCatalog = {
      {"unordered-iter", "token", "error",
       "for-loop ranges over unordered containers must fold through the "
       "canonical-order helpers in src/runtime/canonical.h"},
      {"raw-entropy", "token", "error",
       "rand()/srand()/std::random_device/time(nullptr) outside "
       "src/stats/rng — all randomness flows from explicit seeds"},
      {"stdout-write", "token", "error",
       "no stdout writes inside src/runtime or src/scenario; bench stdout "
       "must stay byte-comparable across thread counts"},
      {"header-hygiene", "token", "error",
       "headers carry #pragma once and never `using namespace`"},
      {"uninit-member", "token", "error/warning",
       "POD struct members need default initializers (error in "
       "StudyExecutor-adjacent code, warning elsewhere)"},
      {"stale-allow", "token", "error",
       "a `manic-lint: allow(...)` comment must name a cataloged rule or "
       "family (or `all`); a stale name suppresses nothing"},
      {"include-cycle", "graph", "error",
       "the project include graph must stay acyclic"},
      {"layering", "graph", "error",
       "includes must respect the layer manifest "
       "(tools/manic_lint/layers.txt)"},
      {"unused-include", "graph", "warning",
       "a project include whose exported symbols the includer never "
       "mentions"},
      {"units", "units", "error",
       "unit-tagged values (seconds vs milliseconds vs fractions) must not "
       "mix without a declared conversion (tools/manic_lint/units.txt)"},
      {"determinism", "determinism", "error",
       "wall-clock and iteration-order taint must not reach study results "
       "or replay state"},
      {"trust", "trust", "error",
       "boundary-tainted values must pass a declared sanitizer before "
       "reaching a sink (tools/manic_lint/trust.txt)"},
      {"must-check", "trust", "error",
       "declared must-check outcomes (decode results, bounds probes) "
       "cannot be silently discarded"},
      {"hot-path", "trust", "error/warning",
       "no allocation, locking, or blocking I/O inside declared hot-path "
       "regions"},
      {"atomic-order", "concurrency", "error/warning",
       "every std::atomic op names an explicit std::memory_order; seq_cst "
       "inside a hot-path region is a warning"},
      {"atomic-pair", "concurrency", "error",
       "a release store with no acquire load of the same atomic anywhere "
       "in the program (or the converse) is a broken publish pair"},
      {"atomic-guard", "concurrency", "error",
       "a relaxed load must not guard reads of non-atomic shared state"},
      {"thread-role", "concurrency", "error",
       "code reachable from one declared thread role cannot write fields "
       "owned by another (tools/manic_lint/concurrency.txt)"},
      {"lock-order", "concurrency", "error",
       "the whole-program lock-acquisition graph must stay acyclic"},
      {"wait-notify", "concurrency", "error",
       "condition-variable and atomic waits need a matching notify "
       "somewhere in the program"},
  };
  return kCatalog;
}

std::string RenderRuleCatalogJson() {
  std::string out = "{\"schema_version\":5,\"rules\":[";
  bool first = true;
  for (const RuleInfo& info : RuleCatalog()) {
    if (!first) out += ',';
    first = false;
    out += "{\"rule\":\"";
    AppendEscaped(out, info.rule);
    out += "\",\"family\":\"";
    AppendEscaped(out, info.family);
    out += "\",\"severity\":\"";
    AppendEscaped(out, info.severity);
    out += "\",\"description\":\"";
    AppendEscaped(out, info.description);
    out += "\"}";
  }
  out += "]}\n";
  return out;
}

int CountErrors(const std::vector<Finding>& findings) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.severity == Severity::kError;
      }));
}

int CountWarnings(const std::vector<Finding>& findings) {
  return static_cast<int>(findings.size()) - CountErrors(findings);
}

int ExitCodeFor(int errors, int warnings, bool werror) {
  if (errors > 0) return 1;
  if (warnings > 0) return werror ? 1 : 2;
  return 0;
}

}  // namespace manic::lint
