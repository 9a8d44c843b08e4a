// Shared pieces of the perfbench harness: run arguments, the result every
// workload fills in, sample statistics, and the in-memory span tracer.
//
// The harness times the manic libraries only through their public
// functions; nothing here reaches into src/. Spans are recorded by the
// harness around each call it makes into a layer, kept in memory, and
// written once when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;           // smoke-test size
  std::string corrupt = "none";  // anti-vacuity fault: digest | log | answer
  std::string work_dir;        // scratch space inside the checkout
};

// One named metric with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload hands back to main(): its metrics (end-to-end in an
// untraced run, per-layer in a traced one), the attempted/failed counts,
// and every correctness check it made.
struct Result {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  // Untraced and traced measured-unit wall times of a traced run, for the
  // tracing-overhead line.
  std::vector<double> untraced_unit_s;
  std::vector<double> traced_unit_s;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records a failed check (and prints it to stderr, once per distinct
  // message) when `ok` is false.
  void Check(bool ok, const std::string& what);
};

// ---- clocks and process counters ---------------------------------------------
double Now();          // steady clock, seconds
double CpuNow();       // whole-process user+sys CPU, seconds
double PeakRssMb();    // getrusage high-water mark, MiB
std::uint64_t DirBytes(const std::string& dir);  // sum of regular-file sizes

// ---- sample statistics --------------------------------------------------------
double Median(std::vector<double> v);
// The `pct` percentile (nearest rank). Each workload fixes its tail
// percentile at the highest one that the smallest sample a run can take
// still supports with at least ten samples beyond it, so the reported tail
// means the same thing in every run.
double Percentile(std::vector<double> v, double pct);
// Samples strictly above the `pct` percentile.
std::size_t Beyond(const std::vector<double>& v, double pct);
// Tail latency of a request stream: the p90 of each run of kTailWindow
// consecutive requests (the highest percentile a window of that size
// supports with ten samples beyond it), then the median over the windows.
// A stall of the shared host moves a few windows, not the result; a slower
// tail in every window moves it. (p99 over 1,000-request windows swung by
// more than 2x between identical runs on a 4-vCPU virtual machine.)
inline constexpr std::size_t kTailWindow = 100;
inline constexpr double kTailPct = 90.0;
// "n=.. min=.. median=.. max=.." for a per-unit series.
std::string Summary(const std::vector<double>& v);
double WindowedTail(const std::vector<double>& in_order,
                    std::size_t* windows = nullptr);

// ---- span tracer --------------------------------------------------------------
// Single-threaded (every span is opened on the harness's main thread).
class Tracer {
 public:
  struct Span {
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::uint64_t request = 0;
  };
  // Per-name totals derived from the spans.
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;  // total minus the time covered by child spans
    std::uint64_t count = 0;
  };

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  int Begin(const char* name, std::uint64_t request);
  void End(int id);
  Totals Of(const std::string& name) const;
  std::map<std::string, Totals> AllTotals() const;
  // Writes one tab-separated line per span (name, start, end, parent,
  // request; times relative to the first span).
  bool Write(const std::string& path) const;
  std::size_t size() const noexcept { return spans_.size(); }

  // RAII span; a no-op when the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request = 0)
        : tracer_(&tracer), id_(tracer.Begin(name, request)) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- measured units ---------------------------------------------------------
// A run repeats its measured unit at least kMinUnits times, and after that
// only while the next unit is expected to end inside the --seconds budget.
inline constexpr std::size_t kMinUnits = 3;
inline bool MoreUnits(std::size_t done, double elapsed, double last_unit,
                      double seconds) {
  return done < kMinUnits || elapsed + last_unit <= seconds;
}

// ---- workloads ------------------------------------------------------------------
Result RunStudy(const Args& args, Tracer& tracer);
Result RunIngest(const Args& args, Tracer& tracer);
Result RunQuery(const Args& args, Tracer& tracer);

// Layer passes shared by every traced run (per-layer metrics).
void StudyLayerPass(const Args& args, Tracer& tracer, Result& out);
void ServeLayerPass(const Args& args, Tracer& tracer, Result& out);

}  // namespace perfbench
