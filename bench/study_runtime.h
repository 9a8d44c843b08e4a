// Shared parallel-runtime wiring for the long-window study benches
// (Tables 3/4, Figs 7/8/9, operator validation): thread count and shard
// granularity come from the environment (MANIC_THREADS — 0 or unset means
// hardware_concurrency — and MANIC_MONTHS_PER_SHARD), and the runtime
// metrics report goes to stderr AFTER the tables, so stdout stays
// byte-identical across thread counts:
//
//   MANIC_THREADS=1 ./bench/table3_overview > t1.txt
//   MANIC_THREADS=8 ./bench/table3_overview > t8.txt
//   diff t1.txt t8.txt        # empty by the determinism contract, and both
//                             # equal tests/golden/table3_overview.txt
//
// When MANIC_RUNTIME_JSON names a file, one JSON line of wall/CPU phase
// times and pool counters is appended per run (scripts/check.sh uses this to
// record 1-vs-N-thread wall times).
#pragma once

#include <cstdio>
#include <cstdlib>

#include "runtime/metrics.h"
#include "scenario/driver.h"

namespace manic::bench {

inline runtime::Metrics& StudyMetrics() {
  static runtime::Metrics metrics;
  return metrics;
}

inline scenario::StudyOptions StudyOptionsFromEnv() {
  scenario::StudyOptions options;
  options.runtime = runtime::RuntimeOptions::FromEnv(/*default_threads=*/0);
  options.runtime.metrics = &StudyMetrics();
  return options;
}

inline void ReportStudyRuntime(const char* bench_name) {
  runtime::Metrics& metrics = StudyMetrics();
  std::fputs(metrics.Report().c_str(), stderr);
  if (const char* path = std::getenv("MANIC_RUNTIME_JSON")) {
    if (FILE* f = std::fopen(path, "a")) {
      std::fprintf(f, "{\"bench\":\"%s\",\"metrics\":%s}\n", bench_name,
                   metrics.Json().c_str());
      std::fclose(f);
    }
  }
}

}  // namespace manic::bench
