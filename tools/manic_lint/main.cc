// manic-lint CLI. Exit status: 0 = clean, 1 = at least one error-severity
// finding (or any finding under --werror), 2 = warning-severity findings
// only, 3 = bad usage or unreadable input — so scripts can distinguish
// "fix now" from "worth a look" without parsing the report.
//
//   manic_lint [--json] [--werror] [--quiet] [--graph FILE]
//              [--layers FILE] [--units FILE] [--trust FILE]
//              [--concurrency FILE] [--list-rules]
//              [path...]
//
// Paths default to `src bench tests examples` resolved against the current
// directory; directories are walked recursively (build*/, .git/,
// third_party/, and lint_fixtures/ are skipped). On top of the per-file
// rules, the whole-program passes run over the scanned tree: include-cycle
// detection, the layering contract from --layers (default
// tools/manic_lint/layers.txt; silently skipped when the default is absent,
// an error when an explicit --layers cannot be read), unused-include
// (IWYU-lite) warnings, the determinism taint pass (always on), the
// units dataflow pass from --units (default tools/manic_lint/units.txt,
// same absent/unreadable behavior as --layers), the trust-boundary taint
// and must-check passes from --trust (default tools/manic_lint/trust.txt,
// same behavior again), the concurrency passes (atomic memory-order
// contracts, thread-role ownership, lock-order deadlock detection) from
// --concurrency (default tools/manic_lint/concurrency.txt, same behavior
// again), the hot-path contract pass (always on, driven by in-source
// markers), and the stale-allow check (always on). --list-rules
// prints the machine-readable rule catalog as JSON and exits (the lint
// README's rule table is generated from it). --graph writes the real
// src/ module graph as Graphviz DOT. --json replaces the human report on
// stdout with one JSON object (scripts/check.sh stage 4 redirects it to
// build/check/lint.json); the human report then goes to stderr unless
// --quiet.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "concurrency.h"
#include "graph.h"
#include "lint.h"
#include "trust.h"
#include "units.h"

int main(int argc, char** argv) {
  bool json = false, werror = false, quiet = false;
  std::string graph_path;
  std::string layers_path;
  std::string units_path;
  std::string trust_path;
  std::string concurrency_path;
  bool layers_explicit = false;
  bool units_explicit = false;
  bool trust_explicit = false;
  bool concurrency_explicit = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list-rules") {
      std::fputs(manic::lint::RenderRuleCatalogJson().c_str(), stdout);
      return 0;
    } else if (arg == "--graph" || arg == "--layers" || arg == "--units" ||
               arg == "--trust" || arg == "--concurrency") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "manic_lint: %s needs a file argument\n",
                     arg.c_str());
        return 3;
      }
      if (arg == "--graph") {
        graph_path = argv[++i];
      } else if (arg == "--layers") {
        layers_path = argv[++i];
        layers_explicit = true;
      } else if (arg == "--units") {
        units_path = argv[++i];
        units_explicit = true;
      } else if (arg == "--trust") {
        trust_path = argv[++i];
        trust_explicit = true;
      } else {
        concurrency_path = argv[++i];
        concurrency_explicit = true;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(
          "usage: manic_lint [--json] [--werror] [--quiet] [--graph FILE]\n"
          "                  [--layers FILE] [--units FILE] [--trust FILE]\n"
          "                  [--concurrency FILE] [--list-rules]\n"
          "                  [path...]\n"
          "Token-level determinism & safety linter plus whole-program\n"
          "architecture analyzer for the MANIC tree.\n"
          "Per-file rules: unordered-iter raw-entropy stdout-write\n"
          "                header-hygiene uninit-member stale-allow\n"
          "Graph passes:   include-cycle layering unused-include\n"
          "Semantic passes: determinism (always on) units (needs --units)\n"
          "Trust passes:   trust must-check (need --trust)\n"
          "                hot-path (always on, marker-driven)\n"
          "Concurrency:    atomic-order atomic-pair atomic-guard\n"
          "                thread-role lock-order wait-notify\n"
          "                (need --concurrency)\n"
          "                (suppress: // manic-lint: allow(<rule>))\n"
          "--layers FILE   layering manifest (default\n"
          "                tools/manic_lint/layers.txt)\n"
          "--units FILE    unit-suffix lattice (default\n"
          "                tools/manic_lint/units.txt)\n"
          "--trust FILE    trust-boundary spec (default\n"
          "                tools/manic_lint/trust.txt)\n"
          "--concurrency FILE  thread-role/ownership spec (default\n"
          "                tools/manic_lint/concurrency.txt)\n"
          "--list-rules    print the JSON rule catalog and exit\n"
          "--graph FILE    write the src/ module graph as Graphviz DOT\n"
          "exit codes: 0 clean, 1 errors, 2 warnings only, 3 usage/IO\n",
          stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "manic_lint: unknown option '%s'\n", arg.c_str());
      return 3;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) paths = {"src", "bench", "tests", "examples"};
  if (layers_path.empty()) layers_path = "tools/manic_lint/layers.txt";
  if (units_path.empty()) units_path = "tools/manic_lint/units.txt";
  if (trust_path.empty()) trust_path = "tools/manic_lint/trust.txt";
  if (concurrency_path.empty()) {
    concurrency_path = "tools/manic_lint/concurrency.txt";
  }

  std::string manifest_error;
  const manic::lint::LayerManifest manifest =
      manic::lint::LoadLayerManifest(layers_path, &manifest_error);
  if (!manifest.loaded) {
    if (layers_explicit) {
      std::fprintf(stderr, "manic_lint: %s\n", manifest_error.c_str());
      return 3;
    }
    if (!quiet) {
      std::fprintf(stderr,
                   "manic_lint: note: %s; layering pass skipped\n",
                   manifest_error.c_str());
    }
  }

  std::string units_error;
  const manic::lint::UnitsSpec units =
      manic::lint::LoadUnitsSpec(units_path, &units_error);
  if (!units.loaded) {
    if (units_explicit) {
      std::fprintf(stderr, "manic_lint: %s\n", units_error.c_str());
      return 3;
    }
    if (!quiet) {
      std::fprintf(stderr, "manic_lint: note: %s; units pass skipped\n",
                   units_error.c_str());
    }
  }

  std::string trust_error;
  const manic::lint::TrustSpec trust =
      manic::lint::LoadTrustSpec(trust_path, &trust_error);
  if (!trust.loaded) {
    if (trust_explicit) {
      std::fprintf(stderr, "manic_lint: %s\n", trust_error.c_str());
      return 3;
    }
    if (!quiet) {
      std::fprintf(stderr,
                   "manic_lint: note: %s; trust passes skipped\n",
                   trust_error.c_str());
    }
  }

  std::string concurrency_error;
  const manic::lint::ConcurrencySpec concurrency =
      manic::lint::LoadConcurrencySpec(concurrency_path, &concurrency_error);
  if (!concurrency.loaded) {
    if (concurrency_explicit) {
      std::fprintf(stderr, "manic_lint: %s\n", concurrency_error.c_str());
      return 3;
    }
    if (!quiet) {
      std::fprintf(stderr,
                   "manic_lint: note: %s; concurrency passes skipped\n",
                   concurrency_error.c_str());
    }
  }

  const manic::lint::TreeAnalysis analysis = manic::lint::AnalyzeTree(
      paths, manifest.loaded ? &manifest : nullptr,
      units.loaded ? &units : nullptr, trust.loaded ? &trust : nullptr,
      concurrency.loaded ? &concurrency : nullptr);
  if (analysis.read_failure) {
    std::fputs("manic_lint: some inputs could not be read\n", stderr);
    return 3;
  }

  if (!graph_path.empty()) {
    std::ofstream out(graph_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "manic_lint: cannot write graph to '%s'\n",
                   graph_path.c_str());
      return 3;
    }
    out << manic::lint::RenderDot(analysis.facts,
                                  manifest.loaded ? &manifest : nullptr);
  }

  const std::string text = manic::lint::RenderText(analysis.findings);
  if (json) {
    std::fputs(manic::lint::RenderJson(analysis.findings,
                                       analysis.files_scanned,
                                       analysis.suppressions)
                   .c_str(),
               stdout);
    std::fputc('\n', stdout);
    if (!quiet) std::fputs(text.c_str(), stderr);
  } else if (!quiet) {
    std::fputs(text.c_str(), stdout);
  }

  const int errors = manic::lint::CountErrors(analysis.findings);
  const int warnings = manic::lint::CountWarnings(analysis.findings);
  if (!quiet) {
    std::fprintf(stderr,
                 "manic_lint: %d file(s), %d error(s), %d warning(s)\n",
                 analysis.files_scanned, errors, warnings);
    if (!analysis.suppressions.empty()) {
      std::string audit = "manic_lint: suppressions in tree:";
      for (const auto& [rule, count] : analysis.suppressions) {
        audit += " " + rule + "=" + std::to_string(count);
      }
      std::fprintf(stderr, "%s\n", audit.c_str());
    }
  }
  return manic::lint::ExitCodeFor(errors, warnings, werror);
}
