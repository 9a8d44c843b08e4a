// Clocks, process counters, sample statistics and the span tracer (bench.h).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "bench.h"

namespace perfbench {

void Result::Check(bool ok, const std::string& what) {
  if (ok || std::find(check_failures.begin(), check_failures.end(), what) !=
                check_failures.end()) {
    return;
  }
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  check_failures.push_back(what);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return v[idx];
}

std::size_t Beyond(const std::vector<double>& v, double pct) {
  const double cut = Percentile(v, pct);
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [cut](double x) { return x > cut; }));
}

std::string Summary(const std::vector<double>& v) {
  if (v.empty()) return "n=0";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "n=%zu min=%.6g median=%.6g max=%.6g",
                v.size(), *std::min_element(v.begin(), v.end()), Median(v),
                *std::max_element(v.begin(), v.end()));
  return buf;
}

double WindowedTail(const std::vector<double>& in_order,
                    std::size_t* windows) {
  std::vector<double> tails;
  for (std::size_t at = 0; at + kTailWindow <= in_order.size();
       at += kTailWindow) {
    tails.push_back(Percentile(
        std::vector<double>(in_order.begin() + static_cast<std::ptrdiff_t>(at),
                            in_order.begin() +
                                static_cast<std::ptrdiff_t>(at + kTailWindow)),
        kTailPct));
  }
  if (windows != nullptr) *windows = tails.size();
  return tails.empty() ? Percentile(in_order, kTailPct) : Median(tails);
}

int Tracer::Begin(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start = Now();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::AllTotals() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    const double dur = spans_[i].end - spans_[i].start;
    t.total_s += dur;
    t.self_s += dur - child_s[i];
    ++t.count;
  }
  return out;
}

Tracer::Totals Tracer::Of(const std::string& name) const {
  Totals t;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    t.total_s += s.end - s.start;
    ++t.count;
  }
  return t;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "name\tstart_s\tend_s\tparent\trequest\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%.9f\t%.9f\t%d\t%llu\n", s.name, s.start - t0,
                 s.end - t0, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
