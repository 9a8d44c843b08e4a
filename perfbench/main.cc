// perfbench: the manic benchmark harness.
//
//   perfbench --workload study|ingest|query --seed N --seconds S --trace 0|1
//             --work-dir DIR [--size full|tiny] [--corrupt digest|log|answer]
//
// Runs one workload for about S seconds of measured units, checks every
// output it can against a reference (recorded digests, the simulator's
// ground truth, the generator's truth, the live verdict log), and prints one
// JSON object as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 also records spans
// around every call the harness makes into a layer, runs the study and
// serve layer passes, and reports the per-layer metrics, each span name's
// self time and the tracing overhead. Exits 1 when any check fails and 2 on
// bad arguments. perfbench/run.py builds this binary and calls it.
#include <sys/statfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--size") {
      if (value != "full" && value != "tiny") return false;
      args->tiny = value == "tiny";
    } else if (key == "--corrupt") {
      if (value != "none" && value != "digest" && value != "log" &&
          value != "answer") {
        return false;
      }
      args->corrupt = value;
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->work_dir.empty() &&
         (args->workload == "study" || args->workload == "ingest" ||
          args->workload == "query");
}

const char* FilesystemName(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    case 0x65735546: return "fuse";
    default: return "other";
  }
}

void PrintJson(const Result& r, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload study|ingest|query --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--size full|tiny] "
                 "[--corrupt none|digest|log|answer]\n",
                 argv[0]);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  std::printf("host: nproc=%ld build=%s wal_fs=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
              FilesystemName(args.work_dir));
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d size=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.tiny ? "tiny" : "full");

  Tracer tracer;
  tracer.set_enabled(args.trace);
  Result result = args.workload == "study"    ? RunStudy(args, tracer)
                  : args.workload == "ingest" ? RunIngest(args, tracer)
                                              : RunQuery(args, tracer);
  for (const Metric& m : result.metrics) {
    std::printf("e2e %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  Result report = result;
  if (args.trace) {
    Result layers;
    tracer.set_enabled(true);
    StudyLayerPass(args, tracer, layers);
    ServeLayerPass(args, tracer, layers);
    const double untraced = Median(result.untraced_unit_s);
    const double traced = Median(result.traced_unit_s);
    const double overhead_pct =
        untraced > 0 && traced > 0 ? (traced / untraced - 1.0) * 100.0 : 0.0;
    layers.Add("trace.overhead_pct", overhead_pct, "%");
    std::printf("trace: spans=%zu overhead=%.2f%% (median unit %.4f s traced "
                "vs %.4f s untraced)\n",
                tracer.size(), overhead_pct, traced, untraced);
    for (const auto& [name, t] : tracer.AllTotals()) {
      std::printf("self %-28s %12.3f ms  total %12.3f ms  spans %llu\n",
                  name.c_str(), t.self_s * 1e3, t.total_s * 1e3,
                  static_cast<unsigned long long>(t.count));
    }
    const std::string path = args.work_dir + "/../trace-" + args.workload +
                             "-" + std::to_string(args.seed) + ".tsv";
    if (!tracer.Write(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
    report.metrics = layers.metrics;
    report.check_failures.insert(report.check_failures.end(),
                                 layers.check_failures.begin(),
                                 layers.check_failures.end());
  }
  const bool correct = report.check_failures.empty();
  PrintJson(report, correct);
  return correct ? 0 : 1;
}
