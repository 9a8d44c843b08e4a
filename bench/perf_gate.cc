// Serving-plane performance gate. Measures the numbers that bound
// MANIC-as-a-service capacity and emits them as BENCH_<rev>.json so CI can
// track regressions commit over commit:
//
//   ingest_samples_per_sec   end-to-end submit -> shard-ring -> engine rate
//   query_p50_us / p99_us    point-query latency over the TCP wire
//   inference us_per_pair_close  CloseDay time over every closed day,
//                            divided by days x links x VPs (each pair's
//                            daily close, whether or not it emits)
//   inference us_per_verdict the same time divided by the verdicts emitted
//                            (only days after the window fills emit, so
//                            this is not a per-close cost)
//   peak_rss_kb              getrusage high-water mark after the run
//
// Usage: perf_gate [--rev <sha>] [--out <path>] [--quick]
//                  [--shards N] [--links N] [--days N] [--wal-dir <dir>]
//
// --quick shrinks the workload for dev smoke (seconds, not minutes). All
// workload generation is deterministic; only the measured timings vary.
// --wal-dir measures the durable configuration: every consumed sample is
// appended to the write-ahead log before its ack (the BENCH_* numbers in
// the repo are recorded with the WAL on, so the gate prices durability in).
// Both timed phases are best-of-3: each rep re-runs the whole phase and the
// report keeps the least-interference draw, because a busy host can only
// slow a run down, never speed it up.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/parse.h"
#include "serve/daemon.h"
#include "serve/engine.h"
#include "serve/service.h"
#include "stats/calendar.h"
#include "stats/rng.h"

using namespace manic;

namespace {

struct Workload {
  int shards = 4;
  int links = 64;
  int vps = 2;
  int days = 60;
  int queries = 20000;
  infer::AutocorrConfig autocorr;
};

// One day of per-bin samples for a (link, vp): 96 bins, both sides, ~2%
// missing, evens congested in the evening — the same shape the examples use.
void AppendDay(topo::LinkId link, topo::VpId vp, std::int64_t day,
               const infer::AutocorrConfig& cfg,
               std::vector<serve::Sample>* out) {
  const bool congested = link % 2 == 0;
  for (int s = 0; s < cfg.intervals_per_day; ++s) {
    const stats::TimeSec t =
        day * stats::kSecPerDay + s * cfg.bin_width + cfg.bin_width / 2;
    if (stats::Rng::HashToUnit(link * 131 + vp, day * 1000 + s) < 0.02) {
      out->push_back({t, link, vp, serve::SampleKind::kFarMissing, 0.0f});
      out->push_back({t, link, vp, serve::SampleKind::kNearMissing, 0.0f});
      continue;
    }
    const double base =
        15.0 + stats::Rng::HashToUnit(link, day * 1000 + s, 3);
    const double hour_frac =
        static_cast<double>(s) / cfg.intervals_per_day * 24.0;
    const bool peak = congested && hour_frac >= 18.0 && hour_frac < 22.0;
    out->push_back({t, link, vp, serve::SampleKind::kFarRtt,
                    static_cast<float>(base + (peak ? 22.0 : 0.0))});
    out->push_back({t, link, vp, serve::SampleKind::kNearRtt,
                    static_cast<float>(base * 0.5)});
  }
}

double Percentile(std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted_us.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted_us.size())));
  return sorted_us[idx];
}

long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  std::string rev = "dev", out_path, wal_dir;
  bool quick = false;
  bool args_ok = true;
  Workload w;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rev" && i + 1 < argc) {
      rev = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--shards" && i + 1 < argc) {
      w.shards = runtime::ParseBoundedInt(argv[++i], 1, 256, &args_ok);
    } else if (arg == "--links" && i + 1 < argc) {
      w.links = runtime::ParseBoundedInt(argv[++i], 1, 1000000, &args_ok);
    } else if (arg == "--days" && i + 1 < argc) {
      w.days = runtime::ParseBoundedInt(argv[++i], 1, 100000, &args_ok);
    } else if (arg == "--wal-dir" && i + 1 < argc) {
      wal_dir = argv[++i];
    } else {
      args_ok = false;
    }
    if (!args_ok) {
      std::fprintf(stderr,
                   "usage: %s [--rev <sha>] [--out <path>] [--quick] "
                   "[--shards N] [--links N] [--days N] [--wal-dir <dir>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (quick) {
    w.links = 8;
    w.days = 15;
    w.queries = 2000;
    w.autocorr.window_days = 7;
  }
  if (out_path.empty()) out_path = "BENCH_" + rev + ".json";

  // ---- ingest + inference rate: stream everything through the service ------
  // One draw is hostage to whatever else the host is doing — with the WAL
  // on, every day-close fdatasync rides the shared filesystem journal, and
  // single-run rates swing well past the gate's 20% band. So the ingest
  // phase runs kIngestReps times against a fresh service (and fresh WAL
  // subdirectory) and keeps the fastest draw: interference only ever
  // subtracts throughput, so the max is the least-contaminated estimate of
  // what the code can do.
  constexpr int kIngestReps = 3;
  std::unique_ptr<serve::CongestionService> service;
  std::vector<serve::Sample> day_batch;
  std::uint64_t total_samples = 0;
  double ingest_secs = 0.0;
  for (int rep = 0; rep < kIngestReps; ++rep) {
    serve::ServiceConfig config;
    config.shards = w.shards;
    config.engine.autocorr = w.autocorr;
    if (!wal_dir.empty()) {
      // Per-rep subdirectory: recovery must see an empty log, not the
      // previous rep's — this benchmarks appends, not replay.
      config.wal_dir = wal_dir + "/rep" + std::to_string(rep);
    }
    service = std::make_unique<serve::CongestionService>(config);
    service->Start();
    if (!wal_dir.empty() && !service->RecoverFromWal().ok) {
      std::fprintf(stderr, "perf_gate: wal recovery failed under %s\n",
                   wal_dir.c_str());
      return 1;
    }
    total_samples = 0;
    const double ingest_t0 = runtime::WallSeconds();
    for (std::int64_t day = 0; day < w.days; ++day) {
      for (int link = 1; link <= w.links; ++link) {
        day_batch.clear();
        for (int vp = 1; vp <= w.vps; ++vp) {
          AppendDay(static_cast<topo::LinkId>(link),
                    static_cast<topo::VpId>(vp), day, w.autocorr, &day_batch);
        }
        const serve::SubmitSummary sub = service->SubmitBatch(day_batch);
        total_samples += sub.accepted;
      }
    }
    service->FinishStream();
    const double secs = runtime::WallSeconds() - ingest_t0;
    if (ingest_secs == 0.0 || secs < ingest_secs) ingest_secs = secs;
    if (rep + 1 < kIngestReps) {
      if (!wal_dir.empty() &&
          service->CloseWalClean() != serve::WalStatus::kOk) {
        std::fprintf(stderr, "perf_gate: wal clean close failed\n");
        return 1;
      }
      service->Stop();
    }
  }
  const serve::ServiceStats stats = service->Stats();

  // ---- query latency over the wire ------------------------------------------
  // Same noise discipline as ingest: run the full query set kIngestReps
  // times over one connection and keep the pass with the lowest p99 — a
  // scheduler hiccup inflates a pass, it never deflates one.
  serve::TcpDaemon daemon(service.get());
  if (!daemon.Listen(0)) {
    std::fprintf(stderr, "perf_gate: cannot bind a loopback port\n");
    return 1;
  }
  std::thread loop([&] { daemon.Run(); });
  std::vector<double> query_us;
  {
    serve::BlockingClient client;
    if (!client.Connect(daemon.port())) {
      std::fprintf(stderr, "perf_gate: connect failed\n");
      daemon.Shutdown();
      loop.join();
      return 1;
    }
    std::vector<double> pass_us;
    pass_us.reserve(static_cast<std::size_t>(w.queries));
    for (int rep = 0; rep < kIngestReps; ++rep) {
      pass_us.clear();
      for (int i = 0; i < w.queries; ++i) {
        const auto link = static_cast<topo::LinkId>(
            1 + stats::Rng::HashMix(static_cast<std::uint64_t>(i)) %
                    static_cast<std::uint64_t>(w.links));
        const auto day = static_cast<std::int64_t>(
            stats::Rng::HashMix(static_cast<std::uint64_t>(i), 1) %
            static_cast<std::uint64_t>(w.days));
        const double t0 = runtime::WallSeconds();
        (void)client.QueryPoint(link, day * stats::kSecPerDay);
        pass_us.push_back((runtime::WallSeconds() - t0) * 1e6);
      }
      std::sort(pass_us.begin(), pass_us.end());
      if (query_us.empty() ||
          Percentile(pass_us, 0.99) < Percentile(query_us, 0.99)) {
        query_us = pass_us;
      }
    }
  }
  daemon.Shutdown();
  loop.join();

  // ---- incremental inference cost: CloseDay alone, one engine ---------------
  serve::EngineConfig engine_config;
  engine_config.autocorr = w.autocorr;
  serve::ShardEngine engine(engine_config);
  std::uint64_t verdicts = 0;
  double close_secs = 0.0;
  for (std::int64_t day = 0; day < w.days; ++day) {
    for (int link = 1; link <= w.links; ++link) {
      day_batch.clear();
      for (int vp = 1; vp <= w.vps; ++vp) {
        AppendDay(static_cast<topo::LinkId>(link),
                  static_cast<topo::VpId>(vp), day, w.autocorr, &day_batch);
      }
      for (const serve::Sample& s : day_batch) engine.Ingest(s);
    }
    const double t0 = runtime::WallSeconds();
    verdicts += engine.CloseDay(day).size();
    close_secs += runtime::WallSeconds() - t0;
  }
  if (!wal_dir.empty() && service->CloseWalClean() != serve::WalStatus::kOk) {
    std::fprintf(stderr, "perf_gate: wal clean close failed\n");
    return 1;
  }
  service->Stop();

  const double samples_per_sec =
      ingest_secs > 0.0 ? static_cast<double>(total_samples) / ingest_secs
                        : 0.0;
  const std::uint64_t pair_closes = static_cast<std::uint64_t>(w.days) *
                                    static_cast<std::uint64_t>(w.links) *
                                    static_cast<std::uint64_t>(w.vps);
  const double us_per_pair_close =
      close_secs * 1e6 / static_cast<double>(pair_closes);
  const double us_per_verdict =
      verdicts > 0 ? close_secs * 1e6 / static_cast<double>(verdicts) : 0.0;
  const double p50 = Percentile(query_us, 0.50);
  const double p99 = Percentile(query_us, 0.99);

  char json[2048];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"rev\": \"%s\",\n"
      "  \"bench\": \"serve_perf_gate\",\n"
      "  \"quick\": %s,\n"
      "  \"config\": {\"shards\": %d, \"links\": %d, \"vps\": %d, "
      "\"days\": %d, \"intervals_per_day\": %d, \"wal\": %s, \"reps\": %d},\n"
      "  \"ingest\": {\"samples\": %llu, \"seconds\": %.6f, "
      "\"samples_per_sec\": %.0f},\n"
      "  \"query\": {\"count\": %zu, \"p50_us\": %.2f, \"p99_us\": %.2f},\n"
      "  \"inference\": {\"pair_closes\": %llu, \"verdicts\": %llu, "
      "\"us_per_pair_close\": %.3f, \"us_per_verdict\": %.3f},\n"
      "  \"verdict_rows\": %llu,\n"
      "  \"peak_rss_kb\": %ld\n"
      "}\n",
      rev.c_str(), quick ? "true" : "false", w.shards, w.links, w.vps, w.days,
      w.autocorr.intervals_per_day, wal_dir.empty() ? "false" : "true",
      kIngestReps,
      static_cast<unsigned long long>(total_samples), ingest_secs,
      samples_per_sec, query_us.size(), p50, p99,
      static_cast<unsigned long long>(pair_closes),
      static_cast<unsigned long long>(verdicts), us_per_pair_close,
      us_per_verdict,
      static_cast<unsigned long long>(stats.verdicts), PeakRssKb());

  std::fputs(json, stdout);
  std::FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_gate: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json, 1, std::strlen(json), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
