// Tests for the manic::runtime subsystem: the work-stealing pool, the
// deterministic SeedTree derivation scheme, the StudyExecutor's canonical
// merge order, and — the load-bearing property — that the longitudinal study
// driver produces bit-identical results at every thread count and shard
// granularity. The pool tests double as a ThreadSanitizer stress workload
// (scripts/check.sh runs this suite under -DMANIC_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "runtime/canonical.h"
#include "runtime/parse.h"
#include "runtime/seed_tree.h"
#include "runtime/study_executor.h"
#include "runtime/thread_pool.h"
#include "scenario/driver.h"

namespace manic {
namespace {

// ---- ParseBoundedInt: the argv/env trust boundary ---------------------------

TEST(ParseBoundedInt, AcceptsInRangeAndKeepsOkTrue) {
  bool ok = true;
  EXPECT_EQ(runtime::ParseBoundedInt("42", 0, 100, &ok), 42);
  EXPECT_TRUE(ok);
  EXPECT_EQ(runtime::ParseBoundedInt("-7", -10, 10, &ok), -7);
  EXPECT_TRUE(ok);
  EXPECT_EQ(runtime::ParseBoundedInt("0", 0, 0, &ok), 0);
  EXPECT_TRUE(ok);
}

TEST(ParseBoundedInt, RejectsGarbageTrailingJunkAndOutOfRange) {
  const auto rejects = [](const char* text, int lo, int hi) {
    bool ok = true;
    const int v = runtime::ParseBoundedInt(text, lo, hi, &ok);
    EXPECT_FALSE(ok) << "'" << text << "' should not parse";
    EXPECT_EQ(v, lo) << text;
  };
  rejects("", 1, 8);
  rejects("abc", 1, 8);
  rejects("4x", 1, 8);       // trailing junk: atoi would read 4
  rejects("12 ", 1, 64);     // trailing space
  rejects("0", 1, 8);        // below lo
  rejects("9", 1, 8);        // above hi
  rejects("99999999999999999999", 1, 1000000);  // overflows long
}

TEST(ParseBoundedInt, FailureAccumulatesAcrossParses) {
  // One ok flag can guard a whole flag loop: a failure sticks even when a
  // later parse succeeds.
  bool ok = true;
  (void)runtime::ParseBoundedInt("bogus", 1, 8, &ok);
  EXPECT_EQ(runtime::ParseBoundedInt("4", 1, 8, &ok), 4);
  EXPECT_FALSE(ok);
}

// ---- SeedTree ---------------------------------------------------------------

TEST(SeedTree, LeafMatchesHashMixContract) {
  // The driver's historical noise keys were HashMix(seed, vp, link); SeedTree
  // leaves must reproduce them exactly so seeded studies stay stable.
  const runtime::SeedTree tree(99);
  EXPECT_EQ(tree.Leaf(7, 13), stats::Rng::HashMix(99, 7, 13));
  EXPECT_EQ(tree.Leaf(7), stats::Rng::HashMix(99, 7, 0));
  EXPECT_DOUBLE_EQ(tree.LeafUnit(3, 0xC1), stats::Rng::HashToUnit(99, 3, 0xC1));
}

TEST(SeedTree, ChildrenAreStableAndDistinct) {
  const runtime::SeedTree root(2016);
  const std::uint64_t a = root.Child(std::uint64_t{1}).seed();
  EXPECT_EQ(a, root.Child(std::uint64_t{1}).seed());  // pure function
  EXPECT_NE(a, root.Child(std::uint64_t{2}).seed());
  EXPECT_NE(a, root.Leaf(1));  // descending and drawing never collide
  EXPECT_NE(root.Child("tslp").seed(), root.Child("churn").seed());
  // Depth matters: root/1/2 != root/2/1.
  EXPECT_NE(root.Child(std::uint64_t{1}).Child(std::uint64_t{2}).seed(),
            root.Child(std::uint64_t{2}).Child(std::uint64_t{1}).seed());
}

TEST(SeedTree, StreamsIndependentOfThreadAndOrder) {
  // Derive the same 4096 shard seeds serially and from a pool in scrambled
  // order: the streams must be identical — derivation keys on (root, shard
  // key) alone, never on scheduling.
  constexpr std::size_t kN = 4096;
  const runtime::SeedTree root(0xDEADBEEF);
  std::vector<std::uint64_t> serial(kN), parallel(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    serial[i] = root.Child(i % 7).Leaf(i, i >> 3);
  }
  runtime::ThreadPool pool(8);
  pool.ParallelFor(kN, [&](std::size_t i) {
    const std::size_t j = kN - 1 - i;  // scrambled visit order
    parallel[j] = root.Child(j % 7).Leaf(j, j >> 3);
  });
  EXPECT_EQ(serial, parallel);
}

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, ExecutesEverySubmittedTask) {
  runtime::Metrics metrics;
  runtime::ThreadPool pool(4, &metrics);
  constexpr std::size_t kTasks = 5000;
  std::vector<int> hits(kTasks, 0);
  std::atomic<std::size_t> count{0};
  for (std::size_t i = 0; i < kTasks; ++i) {
    pool.Submit([&hits, &count, i] {
      hits[i] += 1;  // disjoint slots: no data race
      count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(std::memory_order_relaxed), kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) ASSERT_EQ(hits[i], 1) << i;
  EXPECT_EQ(metrics.tasks(), kTasks);
  EXPECT_GE(metrics.peak_queue_depth(), 1u);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  runtime::ThreadPool pool(3);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(
      kN, [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
      /*grain=*/7);
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1) << i;
  pool.ParallelFor(0, [&](std::size_t) { FAIL(); });  // empty range is a no-op
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  runtime::ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.ParallelFor(4, [&](std::size_t) {
    // Reentrant use from a worker: must degrade to inline execution, not
    // deadlock the worker on its own queue.
    pool.ParallelFor(8, [&](std::size_t) {
      inner.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner.load(std::memory_order_relaxed), 32);
}

TEST(ThreadPool, StressManyWavesWithUnevenTasks) {
  // TSan-friendly stress: repeated submit/wait waves of tasks with skewed
  // costs (forcing steals), all touching disjoint state plus one shared
  // atomic. Run under scripts/check.sh's thread-sanitizer pass.
  runtime::Metrics metrics;
  runtime::ThreadPool pool(4, &metrics);
  std::atomic<std::uint64_t> sum{0};
  for (int wave = 0; wave < 20; ++wave) {
    std::vector<std::uint64_t> slots(257, 0);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      pool.Submit([&slots, &sum, i] {
        std::uint64_t acc = 0;
        const std::uint64_t spins = (i % 17) * 400;  // uneven task sizes
        for (std::uint64_t k = 0; k <= spins; ++k) {
          acc += k * 2654435761u + i + 1;
        }
        slots[i] = acc;
        sum.fetch_add(acc, std::memory_order_relaxed);
      });
    }
    pool.WaitIdle();
    std::uint64_t expect = 0;
    for (const std::uint64_t v : slots) {
      ASSERT_NE(v, 0u);
      expect += v;
    }
    EXPECT_EQ(sum.exchange(0, std::memory_order_relaxed), expect);
  }
  EXPECT_EQ(metrics.tasks(), 20u * 257u);
}

// ---- StudyExecutor ----------------------------------------------------------

TEST(StudyExecutor, MergesInAscendingKeyOrderRegardlessOfSchedule) {
  runtime::Metrics metrics;
  runtime::ThreadPool pool(4, &metrics);
  runtime::StudyExecutor executor(pool, &metrics);
  constexpr std::size_t kShards = 40;
  std::vector<std::uint64_t> merge_order;
  std::vector<runtime::StudyExecutor::Shard> shards;
  for (std::size_t i = 0; i < kShards; ++i) {
    // Insert keys in descending order and make low keys the slowest, so a
    // completion-order merge would come out descending-ish.
    const std::uint64_t key = kShards - 1 - i;
    runtime::StudyExecutor::Shard shard;
    shard.key = key;
    shard.work = [key] {
      std::this_thread::sleep_for(std::chrono::microseconds((40 - key) * 50));
    };
    shard.merge = [&merge_order, key] { merge_order.push_back(key); };
    shards.push_back(std::move(shard));
  }
  std::size_t progress_calls = 0;
  executor.Execute(shards, [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, kShards);
    EXPECT_EQ(done, ++progress_calls);
  });
  ASSERT_EQ(merge_order.size(), kShards);
  for (std::size_t i = 0; i < kShards; ++i) EXPECT_EQ(merge_order[i], i);
  EXPECT_EQ(metrics.shards(), kShards);
}

// ---- end-to-end determinism -------------------------------------------------

// Serializes every observable field of a StudyResult with exact (hex-float)
// formatting, so two results compare byte-identically iff every double is
// bit-identical.
std::string Dump(const scenario::StudyResult& result) {
  std::string out;
  char buf[256];
  auto add = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };
  add("pairs=%zu links=%zu probes=%llu records=%lld\n", result.vp_link_pairs,
      result.links_observed,
      static_cast<unsigned long long>(result.probes_for_discovery),
      static_cast<long long>(result.day_links.TotalRecords()));
  add("truth tp=%lld fp=%lld fn=%lld tn=%lld\n", result.truth_tp,
      result.truth_fp, result.truth_fn, result.truth_tn);
  for (const auto& [access, n] : result.links_ever_by_access) {
    add("ever %u=%d\n", access, n);
  }
  for (const auto& [access, n] : result.links_final_month_by_access) {
    add("final %u=%d\n", access, n);
  }
  for (const auto& row : result.day_links.Table3()) {
    add("t3 %u %d %d %a\n", row.access, row.observed_tcps, row.congested_tcps,
        row.pct_congested_day_links);
  }
  for (const auto& [key, stats] : result.day_links.Pairs()) {
    add("pair %u-%u %lld %lld\n", key.first, key.second,
        static_cast<long long>(stats.observed_day_links),
        static_cast<long long>(stats.congested_day_links));
    for (const double v :
         result.day_links.MonthlyCongestedPct(key.first, key.second)) {
      add(" %a", v);
    }
    for (const double v :
         result.day_links.MonthlyMeanCongestion(key.first, key.second)) {
      add(" %a", v);
    }
    out += "\n";
  }
  auto add_hist = [&](const std::string& name,
                      const analysis::TimeOfDayHistogram& hist) {
    add("hist %s %lld %lld:", name.c_str(),
        static_cast<long long>(hist.Total(false)),
        static_cast<long long>(hist.Total(true)));
    for (const bool weekend : {false, true}) {
      for (const double v : hist.Normalized(weekend)) add(" %a", v);
    }
    out += "\n";
  };
  for (const auto& [name, hist] : result.comcast_vp_hists) {
    add_hist(name, hist);
  }
  add_hist("consolidated", result.comcast_consolidated);
  return out;
}

scenario::StudyResult RunMiniStudy(int threads, int months_per_shard,
                                   runtime::Metrics* metrics = nullptr) {
  // A fresh world per run: discovery probing advances the network's RNG, so
  // reusing one world would not be a like-for-like comparison.
  scenario::UsBroadbandOptions world_options;
  world_options.link_scale = 0.4;
  scenario::UsBroadband world = scenario::MakeUsBroadband(world_options);
  scenario::StudyOptions options;
  options.days = 150;  // 5 study months
  // 16 VPs: enough that some link's VPs disagree on recurrence on some day,
  // so the cross-VP merge's contributor gate shows in the output.
  options.max_vps = 16;
  options.runtime.threads = threads;
  options.runtime.months_per_shard = months_per_shard;
  options.runtime.metrics = metrics;
  return scenario::RunLongitudinalStudy(world, options);
}

// The committed mini-study dump (tests/golden/README.md): the oracle every
// thread count and shard granularity must equal byte for byte. On a
// mismatch the actual dump is written next to the test's temp files, for
// inspection or, when the change is meant, for regeneration.
void ExpectMiniStudyGolden(const std::string& dump) {
  const std::string path =
      std::string(MANIC_SOURCE_DIR) + "/tests/golden/mini_study.txt";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  if (dump == golden.str()) return;
  const std::string actual = testing::TempDir() + "mini_study.txt";
  std::ofstream(actual, std::ios::binary) << dump;
  EXPECT_EQ(dump, golden.str()) << "actual dump written to " << actual;
}

TEST(StudyDeterminism, RunsAtOneAndTwoThreadsEqualTheGolden) {
  ExpectMiniStudyGolden(Dump(RunMiniStudy(1, 0)));
  runtime::Metrics metrics;
  ExpectMiniStudyGolden(Dump(RunMiniStudy(2, 0, &metrics)));
  // Shards actually ran on the pool, with per-phase timing captured.
  EXPECT_GT(metrics.shards(), 0u);
  const std::string report = metrics.Report();
  EXPECT_NE(report.find("classify"), std::string::npos);
  EXPECT_NE(report.find("truth"), std::string::npos);
}

TEST(StudyDeterminism, MonthShardingIsBitIdenticalToo) {
  // Month-granularity shards replay up to window_days - 1 days of warmup;
  // RollingAutocorr state is a pure function of its last window_days inputs,
  // so the classifications — and every downstream float sum — must not move.
  ExpectMiniStudyGolden(Dump(RunMiniStudy(8, 1)));
}

// The canonical-order helpers are the sanctioned way to fold over hash
// containers (manic-lint rule `unordered-iter`): a key-sorted snapshot makes
// the accumulation order a pure function of the keys, never of hashing.
TEST(CanonicalOrder, SortedItemsAndKeysAreKeySorted) {
  std::unordered_map<int, double> weights;
  for (int k : {9, 2, 7, 4, 1}) weights[k] = k * 0.5;
  const auto items = runtime::SortedItems(weights);
  ASSERT_EQ(items.size(), 5u);
  for (std::size_t i = 1; i < items.size(); ++i) {
    EXPECT_LT(items[i - 1].first, items[i].first);
  }
  EXPECT_EQ(items.front().first, 1);
  EXPECT_EQ(items.back().first, 9);

  std::unordered_set<int> keys_only{3, 1, 2};
  EXPECT_EQ(runtime::SortedKeys(keys_only), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(runtime::SortedKeys(weights), (std::vector<int>{1, 2, 4, 7, 9}));
}

TEST(CanonicalOrder, FoldVisitsAscendingAndIsInsertionInvariant) {
  // Same entries, adversarial insertion orders: the fold sequence (and thus
  // any non-commutative accumulation) must be identical.
  auto run = [](const std::vector<int>& order) {
    std::unordered_map<int, double> m;
    for (int k : order) m[k] = 1.0 / (1 + k);
    std::string trace;
    double acc = 0.0;
    runtime::CanonicalFold(m, [&](int key, double value) {
      trace += std::to_string(key) + ";";
      acc = acc * 0.5 + value;  // order-sensitive on purpose
    });
    return std::pair(trace, acc);
  };
  const auto a = run({1, 2, 3, 4, 5, 6, 7, 8});
  const auto b = run({8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_EQ(a.first, "1;2;3;4;5;6;7;8;");
  EXPECT_EQ(a, b);
}

TEST(StudyDeterminism, ProgressReportsPhasesInOrder) {
  scenario::UsBroadbandOptions world_options;
  world_options.link_scale = 0.3;
  scenario::UsBroadband world = scenario::MakeUsBroadband(world_options);
  scenario::StudyOptions options;
  options.days = 60;
  options.max_vps = 2;
  options.runtime.threads = 2;
  std::vector<std::string> phases;
  std::thread::id callback_thread;
  bool single_thread = true;
  options.progress = [&](const scenario::StudyProgress& progress) {
    if (phases.empty() || phases.back() != progress.phase) {
      phases.push_back(progress.phase);
    }
    if (phases.size() == 1 && progress.done == progress.total) {
      callback_thread = std::this_thread::get_id();
    } else if (callback_thread != std::thread::id() &&
               std::this_thread::get_id() != callback_thread) {
      single_thread = false;
    }
    EXPECT_LE(progress.done, progress.total);
  };
  scenario::RunLongitudinalStudy(world, options);
  ASSERT_EQ(phases.size(), 4u);
  EXPECT_EQ(phases[0], "discover");
  EXPECT_EQ(phases[1], "classify");
  EXPECT_EQ(phases[2], "aggregate");
  EXPECT_EQ(phases[3], "truth");
  // The no-interleave contract: every callback fires on the calling thread.
  EXPECT_TRUE(single_thread);
}

// ---- checkpoint log ---------------------------------------------------------

TEST(CheckpointLog, RoundTripAndShadowing) {
  const std::string path = testing::TempDir() + "manic_ckpt_roundtrip.log";
  std::remove(path.c_str());
  {
    runtime::CheckpointLog log(path);
    EXPECT_EQ(log.size(), 0u);
    log.Record(7, "alpha");
    log.Record(9, "beta");
    log.Record(7, "gamma");  // a later record shadows the earlier one
  }
  runtime::CheckpointLog log(path);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.Lookup(7), "gamma");
  EXPECT_EQ(log.Lookup(9), "beta");
  EXPECT_FALSE(log.Lookup(1).has_value());
  std::remove(path.c_str());
}

TEST(CheckpointLog, TruncatedTailIsDiscardedAndLogStaysAppendable) {
  const std::string path = testing::TempDir() + "manic_ckpt_torn.log";
  std::remove(path.c_str());
  {
    runtime::CheckpointLog log(path);
    log.Record(1, "one");
    log.Record(2, "twotwo");
  }
  // A kill mid-write leaves a half-written trailing record.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);
  {
    runtime::CheckpointLog log(path);
    EXPECT_EQ(log.size(), 1u);
    EXPECT_TRUE(log.Has(1));
    EXPECT_FALSE(log.Has(2));
    // Re-recording the lost shard must not leave torn bytes in the middle
    // of the file...
    log.Record(2, "twotwo");
  }
  // ...so a *second* resume still parses every record.
  runtime::CheckpointLog log(path);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.Lookup(2), "twotwo");
  std::remove(path.c_str());
}

TEST(CheckpointLog, ForeignFileYieldsNoRecords) {
  const std::string path = testing::TempDir() + "manic_ckpt_foreign.log";
  {
    std::ofstream os(path, std::ios::binary);
    os << "this is not a checkpoint log\n";
  }
  const runtime::CheckpointLog log(path);
  EXPECT_EQ(log.size(), 0u);
  std::remove(path.c_str());
}

TEST(Blob, ExactBitsRoundTrip) {
  runtime::BlobWriter w;
  w.PutU64(0xDEADBEEFCAFEF00DULL);
  w.PutI64(-42);
  w.PutDouble(0.1);  // not representable exactly: bits must survive anyway
  const double nan_payload = std::bit_cast<double>(0x7FF8000000001234ULL);
  w.PutDouble(nan_payload);
  w.PutBytes("hello");

  runtime::BlobReader r(w.str());
  std::uint64_t u = 0;
  std::int64_t i = 0;
  double d = 0.0, n = 0.0;
  std::string bytes;
  ASSERT_TRUE(r.GetU64(&u));
  ASSERT_TRUE(r.GetI64(&i));
  ASSERT_TRUE(r.GetDouble(&d));
  ASSERT_TRUE(r.GetDouble(&n));
  ASSERT_TRUE(r.GetBytes(&bytes));
  EXPECT_EQ(u, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(i, -42);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d), std::bit_cast<std::uint64_t>(0.1));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(n), 0x7FF8000000001234ULL);
  EXPECT_EQ(bytes, "hello");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_FALSE(r.GetU64(&u));  // reads past the end fail, not wrap
}

// ---- executor: checkpoint seam and watchdog --------------------------------

TEST(StudyExecutor, CheckpointResumeSkipsWorkAndMatchesUninterrupted) {
  const std::string path = testing::TempDir() + "manic_ckpt_exec.log";
  std::remove(path.c_str());

  const auto run = [&](std::vector<double>* merged, int* works_run) {
    runtime::ThreadPool pool(2);
    runtime::StudyExecutor executor(pool);
    runtime::CheckpointLog checkpoint(path);
    std::vector<runtime::StudyExecutor::Shard> shards;
    auto buffers = std::make_shared<std::vector<double>>(4, 0.0);
    std::atomic<int> works{0};
    for (std::uint64_t k = 0; k < 4; ++k) {
      runtime::StudyExecutor::Shard shard;
      shard.key = k;
      shard.work = [k, buffers, &works] {
        (*buffers)[k] = static_cast<double>(k) * 1.25 + 0.1;
        works.fetch_add(1, std::memory_order_relaxed);
      };
      shard.merge = [k, buffers, merged] { merged->push_back((*buffers)[k]); };
      shard.save = [k, buffers] {
        runtime::BlobWriter w;
        w.PutDouble((*buffers)[k]);
        return w.Take();
      };
      shard.restore = [k, buffers](const std::string& blob) {
        runtime::BlobReader r(blob);
        double v = 0.0;
        if (!r.GetDouble(&v) || !r.AtEnd()) return false;
        (*buffers)[k] = v;
        return true;
      };
      shards.push_back(std::move(shard));
    }
    executor.Execute(std::move(shards), {}, &checkpoint);
    *works_run = works.load(std::memory_order_relaxed);
  };

  std::vector<double> first, resumed;
  int works_first = -1, works_resumed = -1;
  run(&first, &works_first);
  run(&resumed, &works_resumed);
  EXPECT_EQ(works_first, 4);
  EXPECT_EQ(works_resumed, 0);  // every shard restored from the log
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first, resumed);  // bit-identical fold either way
  std::remove(path.c_str());
}

TEST(StudyExecutor, WatchdogReclaimsQueuedShardsFromAWedgedPool) {
  // One worker, four shards that all block on a gate only the calling
  // thread can open: the worker wedges on the shard it grabs, the rest sit
  // queued — a wedged-pool stall the watchdog must break by reclaiming the
  // queued shards onto the calling thread. Exact requeued/stuck counts race
  // with the worker recovering once the gate opens, so the test pins the
  // invariants: the stall fires once, something was reclaimed, the grabbed
  // shard was seen stuck, and nothing is stranded or folded out of order.
  runtime::ThreadPool pool(1);
  runtime::StudyExecutor executor(pool);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> release{false};
  std::vector<std::uint64_t> merged;
  std::vector<runtime::StudyExecutor::Shard> shards;
  for (std::uint64_t k = 0; k < 4; ++k) {
    runtime::StudyExecutor::Shard shard;
    shard.key = k;
    shard.work = [&release, caller] {
      // A reclaimed shard runs on the calling thread and opens the gate.
      if (std::this_thread::get_id() == caller)
        release.store(true, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    };
    shard.merge = [k, &merged] { merged.push_back(k); };
    shards.push_back(std::move(shard));
  }
  std::size_t observed_requeued = 0, observed_stuck = 0;
  int stall_calls = 0;
  runtime::WatchdogOptions watchdog;
  watchdog.stall_timeout_s = 0.1;
  watchdog.poll_interval_s = 0.02;
  watchdog.on_stall = [&](std::size_t requeued, std::size_t stuck) {
    observed_requeued = requeued;
    observed_stuck = stuck;
    ++stall_calls;
  };
  executor.Execute(std::move(shards), {}, nullptr, watchdog);
  EXPECT_EQ(stall_calls, 1);
  EXPECT_GE(observed_requeued, 1u);
  EXPECT_GE(observed_stuck, 1u);
  EXPECT_LE(observed_requeued + observed_stuck, 4u);
  EXPECT_EQ(executor.CompletedWorks(), 4u);
  // Where a shard ran never shows in the fold: canonical key order.
  EXPECT_EQ(merged, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace manic
