// Microbenchmarks (google-benchmark) of the performance-critical algorithms
// and the ablation comparisons DESIGN.md calls out: batch vs rolling
// autocorrelation, fluid vs packet-level queue model, prefix-trie lookup,
// BGP route computation, per-probe simulation cost, the level-shift
// detector, and the WAL's day-close sync.
#include <benchmark/benchmark.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "infer/autocorr.h"
#include "infer/level_shift.h"
#include "infer/rolling.h"
#include "runtime/metrics.h"
#include "runtime/seed_tree.h"
#include "runtime/thread_pool.h"
#include "scenario/small.h"
#include "serve/service.h"
#include "serve/wal.h"
#include "sim/packet_queue.h"
#include "stats/calendar.h"
#include "stats/rng.h"
#include "topo/prefix_trie.h"
#include "tsdb/tsdb.h"

namespace {

using namespace manic;

// ---- inference ------------------------------------------------------------

infer::DayGrid MakeFarGrid(int days, std::uint64_t seed) {
  stats::Rng rng(seed);
  infer::DayGrid grid(days, 96);
  for (int d = 0; d < days; ++d) {
    for (int s = 0; s < 96; ++s) {
      double v = 12.0 + rng.NextDouble();
      if (s >= 80 && s < 92) v += 20.0;
      grid.Set(d, s, static_cast<float>(v));
    }
  }
  return grid;
}

void BM_AutocorrBatch(benchmark::State& state) {
  const infer::DayGrid far = MakeFarGrid(50, 1);
  const infer::DayGrid near = MakeFarGrid(50, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::AnalyzeWindow(far, near));
  }
}
BENCHMARK(BM_AutocorrBatch);

void BM_AutocorrRollingPerDay(benchmark::State& state) {
  // Ablation partner of BM_AutocorrBatch: the incremental analyzer's
  // amortized per-day cost (add one day + classify).
  stats::Rng rng(3);
  infer::RollingAutocorr rolling;
  std::vector<float> far(96), near(96);
  auto fill = [&] {
    for (int s = 0; s < 96; ++s) {
      far[static_cast<std::size_t>(s)] =
          static_cast<float>(12.0 + rng.NextDouble() +
                             ((s >= 80 && s < 92) ? 20.0 : 0.0));
      near[static_cast<std::size_t>(s)] =
          static_cast<float>(6.0 + rng.NextDouble());
    }
  };
  for (int d = 0; d < 50; ++d) {
    fill();
    rolling.AddDay(far, near);
  }
  for (auto _ : state) {
    fill();
    rolling.AddDay(far, near);
    benchmark::DoNotOptimize(rolling.Classify());
  }
}
BENCHMARK(BM_AutocorrRollingPerDay);

// The order ShardEngine::CloseDay and the study's day-outer loop run in:
// every analyzer of a study-sized population (1,205 VP-link pairs) takes one
// AddDay + Classify per iteration, so each analyzer's window is cold in cache
// when its turn comes. BM_AutocorrRollingPerDay keeps one window hot and
// hides any per-day cost that scales with the window.
void BM_AutocorrRollingDayOuter(benchmark::State& state) {
  constexpr std::size_t kAnalyzers = 1205;
  constexpr std::size_t kRows = 64;
  stats::Rng rng(17);
  std::vector<std::vector<float>> far(kRows), near(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    far[r].resize(96);
    near[r].resize(96);
    for (std::size_t s = 0; s < 96; ++s) {
      far[r][s] = static_cast<float>(12.0 + rng.NextDouble() +
                                     ((s >= 80 && s < 92) ? 20.0 : 0.0));
      near[r][s] = static_cast<float>(6.0 + rng.NextDouble());
    }
  }
  std::vector<infer::RollingAutocorr> rolling(kAnalyzers);
  std::size_t day = 0;
  for (; day < 50; ++day) {
    for (std::size_t i = 0; i < kAnalyzers; ++i) {
      rolling[i].AddDay(far[(i + day) % kRows], near[(i + day) % kRows]);
    }
  }
  for (auto _ : state) {
    for (std::size_t i = 0; i < kAnalyzers; ++i) {
      rolling[i].AddDay(far[(i + day) % kRows], near[(i + day) % kRows]);
      benchmark::DoNotOptimize(rolling[i].Classify());
    }
    ++day;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kAnalyzers));
}
BENCHMARK(BM_AutocorrRollingDayOuter);

void BM_LevelShift(benchmark::State& state) {
  stats::Rng rng(5);
  stats::TimeSeries ts;
  const int bins = static_cast<int>(state.range(0));
  for (int i = 0; i < bins; ++i) {
    double v = 10.0 + rng.NextDouble();
    if ((i / 12) % 24 >= 20) v += 25.0;
    ts.Append(i * 300, v);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(infer::DetectLevelShifts(ts));
  }
}
BENCHMARK(BM_LevelShift)->Arg(288)->Arg(288 * 7);

// ---- substrate --------------------------------------------------------------

void BM_PrefixTrieLookup(benchmark::State& state) {
  topo::PrefixTrie<topo::Asn> trie;
  stats::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    trie.Insert(topo::Prefix(topo::Ipv4Addr(static_cast<std::uint32_t>(
                                 rng.NextU64())),
                             8 + static_cast<int>(rng.UniformInt(17))),
                static_cast<topo::Asn>(i));
  }
  std::uint64_t q = 1;
  for (auto _ : state) {
    q = q * 2862933555777941757ULL + 3037000493ULL;
    benchmark::DoNotOptimize(
        trie.Lookup(topo::Ipv4Addr(static_cast<std::uint32_t>(q >> 32))));
  }
}
BENCHMARK(BM_PrefixTrieLookup);

void BM_ProbeRoundTrip(benchmark::State& state) {
  auto s = scenario::MakeSmallScenario();
  const auto dst = *s.topo->DestinationIn(scenario::SmallScenario::kContent, 0);
  sim::TimeSec t = 9 * 3600;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.net->Probe(s.vp, dst, 3, sim::FlowId{7}, t));
    t += 300;
  }
}
BENCHMARK(BM_ProbeRoundTrip);

void BM_BgpRouteCompute(benchmark::State& state) {
  auto s = scenario::MakeSmallScenario();
  for (auto _ : state) {
    s.net->routing().Invalidate();
    benchmark::DoNotOptimize(s.net->routing().AsPath(
        scenario::SmallScenario::kAccess, scenario::SmallScenario::kStubCustomer));
  }
}
BENCHMARK(BM_BgpRouteCompute);

// Fluid closed form vs packet-level event simulation (ablation: the scale
// enabler; same question answered ~10^6x faster).
void BM_FluidQueueObservation(benchmark::State& state) {
  sim::LinkQueueModel model;
  double u = 0.5;
  for (auto _ : state) {
    u = u > 1.2 ? 0.5 : u + 1e-4;
    benchmark::DoNotOptimize(model.Observe(u));
  }
}
BENCHMARK(BM_FluidQueueObservation);

void BM_PacketQueueSecond(benchmark::State& state) {
  sim::PacketQueueConfig config;
  config.capacity_bps = 1e9;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::PacketQueueSim sim(config, ++seed);
    benchmark::DoNotOptimize(sim.Run(1.05, 1.0));
  }
}
BENCHMARK(BM_PacketQueueSecond);

void BM_TsdbWriteQuery(benchmark::State& state) {
  tsdb::Database db;
  const tsdb::TagSet tags{{"vp", "x"}, {"link", "10.0.0.1"}, {"side", "far"}};
  stats::TimeSec t = 0;
  for (auto _ : state) {
    db.Write("rtt", tags, t, 12.0);
    t += 300;
    if (t % (300 * 1024) == 0) {
      benchmark::DoNotOptimize(db.QueryMerged("rtt", tags, t - 86400, t));
    }
  }
}
BENCHMARK(BM_TsdbWriteQuery);

// The raw store's day close under the default 50-day horizon: 116 series
// (the ingest workload's 58 links, far and near), each holding 50 days of
// 15-minute points plus gap markers; one iteration appends the next day to
// every series and trims them all. Trimming costs the points it drops, not
// the 50 days it keeps.
void BM_TsdbRetentionPerClose(benchmark::State& state) {
  constexpr int kSeries = 116;
  constexpr stats::TimeSec kDay = 86400;
  constexpr stats::TimeSec kBin = 900;
  tsdb::Database db;
  std::vector<tsdb::Database::SeriesHandle> series;
  for (int i = 0; i < kSeries; ++i) {
    series.push_back(db.OpenSeries(
        "tslp_rtt", tsdb::TagSet{{"link", std::to_string(i / 2)},
                                 {"side", i % 2 == 0 ? "far" : "near"}}));
  }
  stats::TimeSec day = 0;
  const auto append_day = [&] {
    for (const tsdb::Database::SeriesHandle& h : series) {
      for (stats::TimeSec t = day * kDay; t < (day + 1) * kDay; t += kBin) {
        if ((t / kBin) % 16 == 0) {
          (void)db.AppendMissing(h, t);
        } else {
          (void)db.Append(h, t, 10.0);
        }
      }
    }
    ++day;
  };
  while (day < 50) append_day();
  for (auto _ : state) {
    append_day();
    benchmark::DoNotOptimize(db.EnforceRetention("tslp_rtt", 50 * kDay));
  }
  state.SetItemsProcessed(state.iterations() * kSeries);
}
BENCHMARK(BM_TsdbRetentionPerClose);

// ---- serve WAL --------------------------------------------------------------

// The ingest workload's day in the WAL: 154 pair-day batches of 192 samples,
// each a 4,041-byte record.
constexpr int kWalDayRecords = 154;
constexpr int kWalRecordSamples = 192;

// A scratch directory under the system temp dir, removed on destruction.
struct BenchDir {
  explicit BenchDir(const char* tag)
      : path((std::filesystem::temp_directory_path() / tag).string()) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~BenchDir() { std::filesystem::remove_all(path); }
  std::string path;
};

// The day-close ack's durable half: the real WalWriter under the default
// kDayClose policy appends one day of records (untimed), then the close
// marker and its fdatasync (timed). Each iteration starts a fresh segment
// and retires the previous one, so the file stays one day long; the fresh
// segment's directory sync (once per 64 MiB in service) is taken untimed.
void BM_WalDayClose(benchmark::State& state) {
  const BenchDir dir("manic_bm_wal_day_close");
  std::vector<serve::Sample> batch(kWalRecordSamples);
  for (int i = 0; i < kWalRecordSamples; ++i) {
    batch[static_cast<std::size_t>(i)].t = 300 * i;
    batch[static_cast<std::size_t>(i)].link = 1 + i % 58;
    batch[static_cast<std::size_t>(i)].value = 10.0f + static_cast<float>(i);
  }
  serve::WalWriter writer;
  serve::WalConfig config;
  config.dir = dir.path;
  if (writer.Open(config) != serve::WalStatus::kOk) {
    state.SkipWithError("cannot open the wal");
    return;
  }
  std::int64_t day = 0;
  for (auto _ : state) {
    state.PauseTiming();
    bool ok = writer.Roll() == serve::WalStatus::kOk &&
              writer.Sync() == serve::WalStatus::kOk;
    (void)serve::RetireCovered(dir.path, writer.segment_index(), 0);
    for (int r = 0; r < kWalDayRecords && ok; ++r) {
      ok = writer.AppendSamples(batch) == serve::WalStatus::kOk;
    }
    state.ResumeTiming();
    if (!ok || writer.AppendClose(++day) != serve::WalStatus::kOk) {
      state.SkipWithError("wal append failed");
      break;
    }
  }
  state.counters["hints_per_day"] = benchmark::Counter(
      static_cast<double>(writer.writeback_hints()) /
      static_cast<double>(std::max<std::int64_t>(1, day)));
}
BENCHMARK(BM_WalDayClose)->Unit(benchmark::kMicrosecond);

// The sweep behind kWalWritebackBytes, on raw syscalls: one day of
// 4,041-byte writes with a sync_file_range(SYNC_FILE_RANGE_WRITE) hint
// every arg KiB (0 = never), then the day's fdatasync. The timed part is
// the fdatasync; `hint_us` is the mean cost of one hint call.
void BM_WalWritebackSweep(benchmark::State& state) {
  const BenchDir dir("manic_bm_wal_sweep");
  const std::string path = dir.path + "/day.seg";
  const std::size_t hint_bytes = static_cast<std::size_t>(state.range(0))
                                 << 10;
  const std::string record(4041, 'x');
  double hint_s = 0.0;
  std::int64_t hints = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd < 0) {
      state.SkipWithError("cannot open the scratch file");
      break;
    }
    std::size_t written = 0;
    std::size_t hinted = 0;
    for (int r = 0; r < kWalDayRecords; ++r) {
      if (::write(fd, record.data(), record.size()) !=
          static_cast<ssize_t>(record.size())) {
        state.SkipWithError("write failed");
        break;
      }
      written += record.size();
      if (hint_bytes != 0 && written - hinted >= hint_bytes) {
        const double t0 = runtime::WallSeconds();
        (void)::sync_file_range(fd, static_cast<off_t>(hinted),
                                static_cast<off_t>(written - hinted),
                                SYNC_FILE_RANGE_WRITE);
        hint_s += runtime::WallSeconds() - t0;
        ++hints;
        hinted = written;
      }
    }
    state.ResumeTiming();
    (void)::fdatasync(fd);
    state.PauseTiming();
    ::close(fd);
    state.ResumeTiming();
  }
  state.counters["hint_us"] = benchmark::Counter(
      hints == 0 ? 0.0 : 1e6 * hint_s / static_cast<double>(hints));
}
BENCHMARK(BM_WalWritebackSweep)
    ->Arg(0)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// The ingest workload's day close through the whole service: a 2-shard
// CongestionService with the WAL on under kDayClose takes one day of
// pair-day batches (untimed), then the batch whose first sample opens the
// next day (timed). Its ack covers the marker's write and the hand-off; the
// marker's sync, the shards' finalize and the publish run on the closer
// thread. `next_submit_us` is the plain batch right after it, which shares
// the host with the closer's work; `publish_ms` is the wait until the
// closed day is visible to a query (the whole close, as a reader sees it).
void BM_ServiceDayClose(benchmark::State& state) {
  const BenchDir dir("manic_bm_service_day_close");
  serve::ServiceConfig config;
  config.shards = 2;
  config.wal_dir = dir.path;
  config.wal_segment_bytes = std::size_t{1} << 30;  // no checkpoint close
  serve::CongestionService service(config);
  service.Start();
  if (!service.RecoverFromWal().ok) {
    state.SkipWithError("cannot open the wal");
    return;
  }
  // Pair p's batch of `day`: 192 samples over the day, far and near rows of
  // one (link, VP) pair.
  std::vector<serve::Sample> batch(kWalRecordSamples);
  const auto fill = [&batch](std::int64_t day, int pair) {
    for (int i = 0; i < kWalRecordSamples; ++i) {
      serve::Sample& s = batch[static_cast<std::size_t>(i)];
      s.t = day * stats::kSecPerDay + (i / 2) * 900;
      s.link = static_cast<topo::LinkId>(1 + pair % 58);
      s.vp = static_cast<topo::VpId>(1 + pair / 58);
      s.kind = i % 2 == 0 ? serve::SampleKind::kFarRtt
                          : serve::SampleKind::kNearRtt;
      s.value = 10.0f + static_cast<float>(i % 7);
    }
  };
  const auto submit = [&] {
    return service.SubmitBatch(batch).accepted == batch.size();
  };
  std::int64_t day = 0;
  double next_s = 0.0;
  double publish_s = 0.0;
  bool ok = true;
  for (int p = 0; p < 2 && ok; ++p) {
    fill(day, p);
    ok = submit();
  }
  for (auto _ : state) {
    state.PauseTiming();
    for (int p = 2; p < kWalDayRecords && ok; ++p) {
      fill(day, p);
      ok = submit();
    }
    ++day;
    fill(day, 0);
    const double t0 = runtime::WallSeconds();
    state.ResumeTiming();
    ok = ok && submit();
    state.PauseTiming();
    const double t1 = runtime::WallSeconds();
    fill(day, 1);
    ok = ok && submit();
    next_s += runtime::WallSeconds() - t1;
    ok = ok && service.LastClosedDay() == day - 1;
    publish_s += runtime::WallSeconds() - t0;
    state.ResumeTiming();
    if (!ok) {
      state.SkipWithError("submit or close failed");
      break;
    }
  }
  const double closes = static_cast<double>(std::max<std::int64_t>(1, day));
  state.counters["next_submit_us"] = benchmark::Counter(1e6 * next_s / closes);
  state.counters["publish_ms"] = benchmark::Counter(1e3 * publish_s / closes);
}
BENCHMARK(BM_ServiceDayClose)->Iterations(120)->Unit(benchmark::kMicrosecond);

// ---- runtime ----------------------------------------------------------------

// Pool dispatch overhead: ParallelFor over trivial tasks. The per-task cost
// here bounds how fine study shards can be before scheduling dominates.
void BM_PoolDispatch(benchmark::State& state) {
  runtime::ThreadPool pool(static_cast<int>(state.range(0)));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    pool.ParallelFor(1024, [&](std::size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(sink.load(std::memory_order_relaxed));
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_PoolDispatch)->Arg(1)->Arg(2)->Arg(4);

void BM_SeedTreeDerive(benchmark::State& state) {
  const runtime::SeedTree tree(99);
  std::uint64_t key = 0;
  for (auto _ : state) {
    ++key;
    benchmark::DoNotOptimize(tree.Leaf(key, key * 3));
  }
}
BENCHMARK(BM_SeedTreeDerive);

// Scaling curve of the study's hot loop: N independent prewarmed rolling
// analyzers each ingest one day, fanned across the pool. On a single
// hardware thread every arg degenerates to serial — the curve is meaningful
// on multicore hosts.
void BM_RollingAnalyzerScaling(benchmark::State& state) {
  constexpr std::size_t kAnalyzers = 64;
  runtime::ThreadPool pool(static_cast<int>(state.range(0)));
  stats::Rng rng(11);
  std::vector<float> far(96), near(96);
  for (int s = 0; s < 96; ++s) {
    far[static_cast<std::size_t>(s)] =
        static_cast<float>(12.0 + rng.NextDouble() +
                           ((s >= 80 && s < 92) ? 20.0 : 0.0));
    near[static_cast<std::size_t>(s)] =
        static_cast<float>(6.0 + rng.NextDouble());
  }
  std::vector<infer::RollingAutocorr> rolling(kAnalyzers);
  for (int d = 0; d < 50; ++d) {
    for (auto& r : rolling) r.AddDay(far, near);
  }
  for (auto _ : state) {
    pool.ParallelFor(kAnalyzers, [&](std::size_t i) {
      rolling[i].AddDay(far, near);
      benchmark::DoNotOptimize(rolling[i].Classify());
    });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kAnalyzers));
}
BENCHMARK(BM_RollingAnalyzerScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
