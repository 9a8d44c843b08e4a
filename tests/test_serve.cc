// Tests for the serving plane (src/serve): the SPSC ring, the wire codec
// and frame reassembly (fragmentation, truncation, garbage), the shard
// engine's batch-equivalent verdict merge, the ingest shard's run
// hand-off, the replay-determinism guarantee (same stream, any shard count
// or run length => byte-identical verdict log), live verdicts against the
// batch study on the mini study, the query plane, the transport-free
// session state machine, and a live TCP daemon smoke test.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/daylink.h"
#include "infer/rolling.h"
#include "runtime/clock.h"
#include "scenario/driver.h"
#include "scenario/us_broadband.h"
#include "serve/codec.h"
#include "serve/daemon.h"
#include "serve/engine.h"
#include "serve/ingest.h"
#include "serve/replay.h"
#include "serve/ring.h"
#include "serve/sample.h"
#include "serve/service.h"
#include "serve/session.h"
#include "serve/verdict.h"
#include "stats/calendar.h"
#include "stats/rng.h"

namespace manic::serve {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// Small-window config all service-level tests share: 24 one-hour bins per
// day, a 6-day window, recurrence asserted from 3 elevated days.
infer::AutocorrConfig SmallConfig() {
  infer::AutocorrConfig config;
  config.window_days = 6;
  config.intervals_per_day = 24;
  config.bin_width = 3600;
  config.min_elevated_days = 3;
  config.quality.min_days_observed = 3;
  config.quality.max_gap_intervals = 2 * 24;
  return config;
}

// One synthesized day row pair for a (link, vp): elevated far RTT during
// hours 18-21 when `congested`, deterministic missing bins.
void DayRows(std::uint64_t key, std::int64_t day, bool congested,
             std::vector<float>& far, std::vector<float>& near) {
  far.assign(24, kNaN);
  near.assign(24, kNaN);
  for (int s = 0; s < 24; ++s) {
    if (stats::Rng::HashToUnit(key, day * 100 + s, 0xA) < 0.05) continue;
    const double base = 10.0 + stats::Rng::HashToUnit(key, day * 100 + s, 0xB);
    far[static_cast<std::size_t>(s)] = static_cast<float>(
        base + (congested && s >= 18 && s < 21 ? 20.0 : 0.0));
    near[static_cast<std::size_t>(s)] = static_cast<float>(base * 0.5);
  }
}

// Converts one day's rows to wire samples (missing markers included), the
// same encoding the continental --serve replay uses.
void RowsToSamples(topo::LinkId link, topo::VpId vp, std::int64_t day,
                   const std::vector<float>& far,
                   const std::vector<float>& near,
                   std::vector<Sample>* out) {
  for (int s = 0; s < static_cast<int>(far.size()); ++s) {
    const TimeSec t = day * stats::kSecPerDay + s * 3600 + 1800;
    const float f = far[static_cast<std::size_t>(s)];
    const float n = near[static_cast<std::size_t>(s)];
    out->push_back({t, link, vp,
                    std::isnan(f) ? SampleKind::kFarMissing
                                  : SampleKind::kFarRtt,
                    std::isnan(f) ? 0.0f : f});
    out->push_back({t, link, vp,
                    std::isnan(n) ? SampleKind::kNearMissing
                                  : SampleKind::kNearRtt,
                    std::isnan(n) ? 0.0f : n});
  }
}

// The full synthetic stream: `links` links x 2 VPs x `days` days. Links with
// an even id are congested. Day-major order, as a collector would emit.
std::vector<Sample> SyntheticStream(int links, int days) {
  std::vector<Sample> stream;
  std::vector<float> far, near;
  for (std::int64_t day = 0; day < days; ++day) {
    for (topo::LinkId link = 1; link <= static_cast<topo::LinkId>(links);
         ++link) {
      for (topo::VpId vp = 1; vp <= 2; ++vp) {
        DayRows(link * 1000 + vp, day, link % 2 == 0, far, near);
        RowsToSamples(link, vp, day, far, near, &stream);
      }
    }
  }
  return stream;
}

// ------------------------------------------------------------------ ring

TEST(SpscRing, PreservesOrderAcrossWraparound) {
  SpscRing<int> ring(4);  // rounds to 4 slots
  EXPECT_EQ(ring.capacity(), 4u);
  int out = 0;
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(ring.TryPush(round * 2));
    EXPECT_TRUE(ring.TryPush(round * 2 + 1));
    EXPECT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, round * 2);
    EXPECT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, round * 2 + 1);
  }
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(SpscRing, TryPushFailsWhenFull) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_FALSE(ring.TryPush(3));
  EXPECT_EQ(ring.SizeApprox(), 2u);
}

// Bounded join for the threaded ring tests: a lost wake or an unpublished
// run deadlocks both endpoints, and no thread can be cancelled, so the test
// binary fails at once instead of running into the ctest timeout.
void WaitOrAbort(std::future<void>& task, std::chrono::seconds limit,
                 const char* what) {
  if (task.wait_for(limit) == std::future_status::ready) return;
  std::fprintf(stderr, "%s\n", what);
  std::abort();
}

TEST(SpscRing, StagedRunWrapsTheSlotArray) {
  SpscRing<int> ring(8);
  int out = 0;
  // Move both cursors to slot 5 so the next run of 6 wraps past slot 7.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.TryPush(-1));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.TryPop(&out));
  for (int i = 0; i < 6; ++i) ring.Stage(i);
  // Staged records stay invisible until the run is published.
  EXPECT_EQ(ring.Staged(), 6u);
  EXPECT_EQ(ring.SizeApprox(), 0u);
  EXPECT_FALSE(ring.TryPop(&out));
  ring.Publish();
  EXPECT_EQ(ring.Staged(), 0u);
  EXPECT_EQ(ring.SizeApprox(), 6u);
  std::vector<int> seen;
  EXPECT_EQ(ring.DrainRun([&](int& v) { seen.push_back(v); }), 6u);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(ring.SizeApprox(), 0u);
  EXPECT_EQ(ring.DrainRun([](int&) {}), 0u);
}

TEST(SpscRing, TryPopAndSizeApproxAgreeAfterADrain) {
  SpscRing<int> ring(16);
  for (int i = 0; i < 10; ++i) ring.Stage(i);
  ring.Publish();
  int out = 0;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 0);
  EXPECT_EQ(ring.SizeApprox(), 9u);
  std::vector<int> seen;
  EXPECT_EQ(ring.DrainRun([&](int& v) { seen.push_back(v); }), 9u);
  EXPECT_EQ(seen.front(), 1);
  EXPECT_EQ(seen.back(), 9);
  EXPECT_EQ(ring.SizeApprox(), 0u);
  EXPECT_FALSE(ring.TryPop(&out));
  // A later run lands behind the drained one.
  ring.Stage(42);
  ring.Publish();
  EXPECT_EQ(ring.SizeApprox(), 1u);
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 42);
  EXPECT_EQ(ring.SizeApprox(), 0u);
}

// The producer stages a run four times the ring's capacity and publishes
// only at the end; without publish-before-wait it would park on a full ring
// the consumer cannot see, and both threads would hang. The bounded wait
// turns that hang into a fast failure.
TEST(SpscRing, RunLongerThanCapacityReachesALiveConsumer) {
  SpscRing<std::uint64_t> ring(16);
  constexpr std::uint64_t kCount = 64;
  std::vector<std::uint64_t> seen;
  std::thread consumer([&] {
    while (seen.size() < kCount) {
      ring.DrainRunBlocking([&](std::uint64_t& v) { seen.push_back(v); });
    }
  });
  auto producer = std::async(std::launch::async, [&] {
    for (std::uint64_t i = 0; i < kCount; ++i) ring.Stage(i);
    ring.Publish();
  });
  WaitOrAbort(producer, std::chrono::seconds(5),
              "producer parked on a full ring it never published");
  consumer.join();
  ASSERT_EQ(seen.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) EXPECT_EQ(seen[i], i);
}

// The producer stages against a cached copy of the consumer cursor and
// re-reads head_ only when that copy says the ring is full. With four slots
// and a consumer that frees one slot per pop, the cached copy is stale at
// almost every full check: each refresh must see the freed slot, and no
// record may be overwritten or lost. A producer that never refreshed would
// park forever on a ring the consumer has long drained.
TEST(SpscRing, CachedHeadRefreshesOnlyWhenFull) {
  SpscRing<std::uint64_t> ring(4);
  constexpr std::uint64_t kCount = 10'000;
  std::vector<std::uint64_t> seen;
  seen.reserve(kCount);
  std::thread consumer([&] {
    std::uint64_t v = 0;
    while (seen.size() < kCount) {
      if (ring.TryPop(&v)) {
        seen.push_back(v);
      } else {
        std::this_thread::yield();
      }
    }
  });
  auto producer = std::async(std::launch::async, [&] {
    for (std::uint64_t i = 0; i < kCount; ++i) ring.Push(i);
  });
  WaitOrAbort(producer, std::chrono::seconds(30),
              "producer parked on a ring the consumer had freed");
  consumer.join();
  ASSERT_EQ(seen.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) ASSERT_EQ(seen[i], i);
  EXPECT_EQ(ring.SizeApprox(), 0u);
}

// Mixed run lengths around the 64-slot capacity (shorter, equal, longer),
// drained in runs: every record arrives exactly once and in order.
TEST(SpscRing, BlockingStressTransfersEverything) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kRuns[] = {1, 3, 63, 64, 65, 200};
  constexpr int kRounds = 300;
  std::uint64_t count = 0;
  for (const std::uint64_t run : kRuns) count += run;
  count *= kRounds;
  std::uint64_t received = 0;
  bool in_order = true;
  std::thread consumer([&] {
    while (received < count) {
      ring.DrainRunBlocking([&](std::uint64_t& v) {
        in_order = in_order && v == received + 1;
        ++received;
      });
    }
  });
  auto producer = std::async(std::launch::async, [&] {
    std::uint64_t next = 1;
    for (int round = 0; round < kRounds; ++round) {
      for (const std::uint64_t run : kRuns) {
        for (std::uint64_t i = 0; i < run; ++i) ring.Stage(next++);
        ring.Publish();
      }
    }
  });
  WaitOrAbort(producer, std::chrono::seconds(60),
              "producer stuck: a staged run never became visible");
  consumer.join();
  EXPECT_EQ(received, count);
  EXPECT_TRUE(in_order);
}

// ----------------------------------------------------------------- codec

TEST(Codec, SampleBatchRoundTripsBitExact) {
  std::vector<Sample> in = {
      {86400, 7, 3, SampleKind::kFarRtt, 12.625f},
      {86401, 7, 3, SampleKind::kNearRtt, 0.1f},
      {86402, 8, 1, SampleKind::kFarMissing, 0.0f},
      {86403, 9, 2, SampleKind::kLossRate, 0.015625f},
      {-3600, 1, 1, SampleKind::kNearMissing, 0.0f},
  };
  const std::string frame = EncodeSubmitBatch(in);
  FrameAssembler assembler;
  assembler.Feed(frame);
  MsgType type;
  std::string payload;
  ASSERT_TRUE(assembler.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kSubmitBatch);
  std::vector<Sample> out;
  ASSERT_TRUE(DecodeSubmitBatch(payload, &out));
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].t, in[i].t);
    EXPECT_EQ(out[i].link, in[i].link);
    EXPECT_EQ(out[i].vp, in[i].vp);
    EXPECT_EQ(out[i].kind, in[i].kind);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out[i].value),
              std::bit_cast<std::uint32_t>(in[i].value));
  }
}

TEST(Codec, VerdictsRoundTripIncludingFlags) {
  std::vector<VerdictRecord> in(2);
  in[0] = {42, 7, true, true, false, 0.251953125, 3, 2, 0.875};
  in[1] = {43, 9, false, false, true, 0.0, 1, 0, 0.5};
  const std::string frame = EncodeVerdicts(in);
  FrameAssembler assembler;
  assembler.Feed(frame);
  MsgType type;
  std::string payload;
  ASSERT_TRUE(assembler.Next(&type, &payload));
  std::vector<VerdictRecord> out;
  ASSERT_TRUE(DecodeVerdicts(payload, &out));
  EXPECT_EQ(out, in);
}

TEST(Codec, QualityAndStatsRoundTrip) {
  infer::DataQuality q;
  q.far_coverage_frac = 0.75;
  q.near_coverage_frac = 0.5;
  q.longest_gap_intervals = 17;
  q.days_observed = 40;
  q.total_days = 50;
  q.vp_churn_events = 2;
  FrameAssembler assembler;
  assembler.Feed(EncodeQuality(true, q));
  MsgType type;
  std::string payload;
  ASSERT_TRUE(assembler.Next(&type, &payload));
  bool found = false;
  infer::DataQuality rq;
  ASSERT_TRUE(DecodeQuality(payload, &found, &rq));
  EXPECT_TRUE(found);
  EXPECT_EQ(rq.longest_gap_intervals, 17);
  EXPECT_EQ(rq.days_observed, 40);
  EXPECT_DOUBLE_EQ(rq.far_coverage_frac, 0.75);

  ServiceStats stats;
  stats.samples = 123456789;
  stats.verdicts = 17;
  stats.links = 3;
  stats.last_closed_day = -2;
  stats.days_closed = 5;
  stats.shards = 4;
  stats.raw_points = 99;
  stats.samples_late = 6;
  stats.samples_rejected = 1;
  assembler.Feed(EncodeStats(stats));
  ASSERT_TRUE(assembler.Next(&type, &payload));
  ServiceStats rs;
  ASSERT_TRUE(DecodeStats(payload, &rs));
  EXPECT_EQ(rs, stats);
}

TEST(Codec, QualityCountersSaturateInsteadOfWrappingNegative) {
  // The wire carries the quality counters as u32; a hostile peer can put
  // 0xFFFFFFFF there (here produced by encoding -1). Decoding must saturate
  // to INT_MAX — a wrap to a negative count would corrupt every quality
  // fraction computed downstream.
  infer::DataQuality q;
  q.longest_gap_intervals = -1;
  q.days_observed = -1;
  q.total_days = -1;
  q.vp_churn_events = -1;
  FrameAssembler assembler;
  assembler.Feed(EncodeQuality(true, q));
  MsgType type;
  std::string payload;
  ASSERT_TRUE(assembler.Next(&type, &payload));
  bool found = false;
  infer::DataQuality rq;
  ASSERT_TRUE(DecodeQuality(payload, &found, &rq));
  EXPECT_EQ(rq.longest_gap_intervals, std::numeric_limits<int>::max());
  EXPECT_EQ(rq.days_observed, std::numeric_limits<int>::max());
  EXPECT_EQ(rq.total_days, std::numeric_limits<int>::max());
  EXPECT_EQ(rq.vp_churn_events, std::numeric_limits<int>::max());
}

TEST(Codec, RejectsMalformedPayloads) {
  std::uint32_t version = 0;
  EXPECT_FALSE(DecodeHello("abc", &version));        // short
  EXPECT_FALSE(DecodeHello("abcde", &version));      // trailing byte
  std::vector<Sample> samples;
  // Count claims more samples than the payload holds.
  Encoder e;
  e.PutU32(1000);
  EXPECT_FALSE(DecodeSubmitBatch(e.data(), &samples));
  // Out-of-range sample kind: a tag with kind 5 (same t, no key or value),
  // and a tag with its unused high bits set.
  for (const std::uint8_t tag : {0x25, 250}) {
    Encoder bad;
    bad.PutU32(1);
    bad.PutU8(tag);
    EXPECT_FALSE(DecodeSubmitBatch(bad.data(), &samples));
  }
}

// A frame may carry at most kMaxSamplesPerFrame samples, however few bytes
// they take: cap + 1 one-byte samples (key, t and value all unchanged) fit
// a frame by bytes, but decoding them would allocate for every one.
TEST(Codec, RefusesABatchOverTheSampleCap) {
  std::vector<Sample> batch(kMaxSamplesPerFrame);
  std::vector<Sample> decoded;
  std::string frame = EncodeSubmitBatch(batch);
  ASSERT_EQ(frame.size(), 5 + 4 + batch.size());  // one byte a sample
  ASSERT_TRUE(DecodeSubmitBatch(std::string_view(frame).substr(5), &decoded));
  EXPECT_EQ(decoded.size(), batch.size());
  batch.emplace_back();
  frame = EncodeSubmitBatch(batch);
  ASSERT_LT(frame.size(), 5 + kMaxFramePayload);
  EXPECT_FALSE(DecodeSubmitBatch(std::string_view(frame).substr(5), &decoded));
}

TEST(Codec, EncodeErrorClampsOversizedMessage) {
  // The length field is u16: a longer message must clamp first so the
  // field and the appended bytes agree (else DecodeError always rejects).
  const std::string message(70000, 'x');
  FrameAssembler assembler;
  assembler.Feed(EncodeError(7, message));
  MsgType type;
  std::string payload;
  ASSERT_TRUE(assembler.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kError);
  std::uint16_t code = 0;
  std::string out;
  ASSERT_TRUE(DecodeError(payload, &code, &out));
  EXPECT_EQ(code, 7);
  EXPECT_EQ(out.size(), 0xFFFFu);
}

TEST(FrameAssembler, ReassemblesByteAtATime) {
  const std::string frame =
      EncodeQueryRange(5, 0, 86400) + EncodeQueryStats();
  FrameAssembler assembler;
  MsgType type;
  std::string payload;
  int frames = 0;
  for (const char c : frame) {
    assembler.Feed(std::string_view(&c, 1));
    while (assembler.Next(&type, &payload)) ++frames;
  }
  EXPECT_EQ(frames, 2);
  EXPECT_FALSE(assembler.corrupt());
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(FrameAssembler, TruncatedFrameIsPendingNotCorrupt) {
  const std::string frame = EncodeQueryQuality(9);
  FrameAssembler assembler;
  assembler.Feed(std::string_view(frame.data(), frame.size() - 1));
  MsgType type;
  std::string payload;
  EXPECT_FALSE(assembler.Next(&type, &payload));
  EXPECT_FALSE(assembler.corrupt());
  EXPECT_GT(assembler.buffered(), 0u);
}

TEST(FrameAssembler, GarbagePoisonsTheStream) {
  {  // oversized length field
    FrameAssembler assembler;
    Encoder e;
    e.PutU32(kMaxFramePayload + 2);
    assembler.Feed(e.data());
    MsgType type;
    std::string payload;
    EXPECT_FALSE(assembler.Next(&type, &payload));
    EXPECT_TRUE(assembler.corrupt());
    // Poison is sticky: later valid frames are not parsed.
    assembler.Feed(EncodeQueryStats());
    EXPECT_FALSE(assembler.Next(&type, &payload));
  }
  {  // zero length
    FrameAssembler assembler;
    Encoder e;
    e.PutU32(0);
    assembler.Feed(e.data());
    MsgType type;
    std::string payload;
    EXPECT_FALSE(assembler.Next(&type, &payload));
    EXPECT_TRUE(assembler.corrupt());
  }
  {  // unknown message type
    FrameAssembler assembler;
    Encoder e;
    e.PutU32(1);
    e.PutU8(99);
    assembler.Feed(e.data());
    MsgType type;
    std::string payload;
    EXPECT_FALSE(assembler.Next(&type, &payload));
    EXPECT_TRUE(assembler.corrupt());
  }
}

// ---------------------------------------------------------------- engine

// The shard engine must classify exactly as a RollingAutocorr fed whole
// days, because StreamingClassifier shares its arithmetic.
TEST(ShardEngine, MatchesRollingAutocorrOnSampleStream) {
  const infer::AutocorrConfig config = SmallConfig();
  EngineConfig engine_config;
  engine_config.autocorr = config;
  ShardEngine engine(engine_config);
  infer::RollingAutocorr rolling(config);

  std::vector<float> far, near;
  std::vector<Sample> samples;
  for (std::int64_t day = 0; day < 10; ++day) {
    DayRows(0xC0FFEE, day, /*congested=*/true, far, near);
    samples.clear();
    RowsToSamples(/*link=*/4, /*vp=*/1, day, far, near, &samples);
    for (const Sample& s : samples) engine.Ingest(s);
    rolling.AddDay(far, near);

    const std::vector<VerdictRecord> verdicts = engine.CloseDay(day);
    if (!rolling.WindowFull()) {
      EXPECT_TRUE(verdicts.empty());
      continue;
    }
    const infer::DayClassification cls = rolling.Classify();
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].day, day);
    EXPECT_EQ(verdicts[0].link, 4u);
    EXPECT_EQ(verdicts[0].contributors, 1u);
    EXPECT_EQ(verdicts[0].recurring, cls.recurring);
    if (cls.recurring) {
      EXPECT_DOUBLE_EQ(verdicts[0].fraction, cls.fraction);
    } else {
      EXPECT_DOUBLE_EQ(verdicts[0].fraction, 0.0);
    }
  }
}

TEST(ShardEngine, MergesVpsLikeTheBatchLoop) {
  const infer::AutocorrConfig config = SmallConfig();
  EngineConfig engine_config;
  engine_config.autocorr = config;
  ShardEngine engine(engine_config);
  // VP 1 sees congestion, VP 2 sees a quiet link (same link id).
  infer::RollingAutocorr r1(config), r2(config);
  std::vector<float> far, near;
  std::vector<Sample> samples;
  for (std::int64_t day = 0; day < 9; ++day) {
    samples.clear();
    DayRows(0xAAA, day, true, far, near);
    RowsToSamples(6, 1, day, far, near, &samples);
    r1.AddDay(far, near);
    DayRows(0xBBB, day, false, far, near);
    RowsToSamples(6, 2, day, far, near, &samples);
    r2.AddDay(far, near);
    for (const Sample& s : samples) engine.Ingest(s);
    const std::vector<VerdictRecord> verdicts = engine.CloseDay(day);
    if (!r1.WindowFull()) continue;
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].contributors, 2u);
    const infer::DayClassification c1 = r1.Classify();
    const infer::DayClassification c2 = r2.Classify();
    double sum = 0.0;
    std::uint32_t asserting = 0;
    if (c1.recurring) {
      sum += c1.fraction;
      ++asserting;
    }
    if (c2.recurring) {
      sum += c2.fraction;
      ++asserting;
    }
    EXPECT_EQ(verdicts[0].asserting, asserting);
    const double want = asserting > 0 ? sum / asserting : 0.0;
    EXPECT_DOUBLE_EQ(verdicts[0].fraction, want);
  }
}

TEST(ShardEngine, LossSamplesDoNotFeedInference) {
  ShardEngine with_loss{EngineConfig{SmallConfig(), 0.04}};
  ShardEngine without{EngineConfig{SmallConfig(), 0.04}};
  std::vector<float> far, near;
  std::vector<Sample> samples;
  for (std::int64_t day = 0; day < 8; ++day) {
    samples.clear();
    DayRows(0xD0D0, day, true, far, near);
    RowsToSamples(3, 1, day, far, near, &samples);
    for (const Sample& s : samples) {
      with_loss.Ingest(s);
      without.Ingest(s);
    }
    with_loss.Ingest({day * stats::kSecPerDay + 1, 3, 1,
                      SampleKind::kLossRate, 0.02f});
    const auto a = with_loss.CloseDay(day);
    const auto b = without.CloseDay(day);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(ShardEngine, DropsSamplesForClosedDays) {
  ShardEngine engine{EngineConfig{SmallConfig(), 0.04}};
  std::vector<float> far, near;
  std::vector<Sample> samples;
  DayRows(0xF00D, 0, false, far, near);
  RowsToSamples(1, 1, 0, far, near, &samples);
  for (const Sample& s : samples) engine.Ingest(s);
  engine.CloseDay(0);
  const std::uint64_t ingested = engine.samples_ingested();
  // A straggler for the closed day must not re-open its bins.
  engine.Ingest({10, 1, 1, SampleKind::kFarRtt, 5.0f});
  EXPECT_EQ(engine.samples_ingested(), ingested);
  EXPECT_EQ(engine.late_samples(), 1u);
}

TEST(StreamingClassifier, CloseDayEvictsStaleOpenDays) {
  infer::StreamingClassifier state(SmallConfig());
  state.AddSample(3, 0, true, 1.0f);
  state.AddSample(5, 0, true, 1.0f);
  EXPECT_EQ(state.OpenDays(), 2u);
  // Days close in ascending order, so day 3 can never close once day 5
  // does — it must be evicted, not held forever.
  state.CloseDay(5);
  EXPECT_EQ(state.OpenDays(), 0u);
}

// --------------------------------------------------- replay determinism

ServiceConfig SmallServiceConfig(int shards) {
  ServiceConfig config;
  config.shards = shards;
  config.engine.autocorr = SmallConfig();
  return config;
}

TEST(CongestionService, VerdictLogIsIdenticalAtAnyShardCount) {
  const std::vector<Sample> stream = SyntheticStream(/*links=*/5, /*days=*/12);
  std::string reference;
  for (const int shards : {1, 2, 3, 5}) {
    CongestionService service(SmallServiceConfig(shards));
    service.Start();
    EXPECT_EQ(service.SubmitBatch(stream).accepted, stream.size());
    service.FinishStream();
    const std::string log = service.VerdictLogText();
    service.Stop();
    EXPECT_FALSE(log.empty());
    if (shards == 1) {
      reference = log;
    } else {
      EXPECT_EQ(log, reference) << "shard count " << shards
                                << " diverged from the 1-shard log";
    }
  }
  // The log covers every post-window day and a congested link asserts.
  EXPECT_NE(reference.find("day=11"), std::string::npos);
  EXPECT_NE(reference.find("recurring=1"), std::string::npos);
}

TEST(CongestionService, RecordedStreamReplaysIdentically) {
  const std::vector<Sample> stream = SyntheticStream(3, 10);
  const std::string path =
      ::testing::TempDir() + "/manic_serve_stream.bin";

  // Record in day-sized batches.
  {
    StreamWriter writer;
    ASSERT_TRUE(writer.Open(path));
    std::size_t i = 0;
    while (i < stream.size()) {
      const std::size_t n = std::min<std::size_t>(257, stream.size() - i);
      ASSERT_TRUE(writer.WriteBatch(
          std::span<const Sample>(stream.data() + i, n)));
      i += n;
    }
    ASSERT_TRUE(writer.Close());
    EXPECT_EQ(writer.samples_written(), stream.size());
  }

  CongestionService live(SmallServiceConfig(1));
  live.Start();
  EXPECT_EQ(live.SubmitBatch(stream).accepted, stream.size());
  live.FinishStream();
  const std::string live_log = live.VerdictLogText();
  live.Stop();

  CongestionService replayed(SmallServiceConfig(4));
  replayed.Start();
  const ReplayStats stats = ReplayFile(&replayed, path);
  EXPECT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.samples, stream.size());
  EXPECT_EQ(replayed.VerdictLogText(), live_log);
  replayed.Stop();
  std::remove(path.c_str());
}

TEST(ReplayFile, RejectsGarbageAndForeignFrames) {
  const std::string path = ::testing::TempDir() + "/manic_serve_bad.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::string frame = EncodeQueryStats();  // not a submit frame
    std::fwrite(frame.data(), 1, frame.size(), f);
    std::fclose(f);
  }
  CongestionService service(SmallServiceConfig(1));
  service.Start();
  EXPECT_FALSE(ReplayFile(&service, path).ok);
  service.Stop();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- queries

TEST(CongestionService, QueryPlaneSemantics) {
  const std::vector<Sample> stream = SyntheticStream(4, 10);
  CongestionService service(SmallServiceConfig(2));
  service.Start();
  EXPECT_EQ(service.SubmitBatch(stream).accepted, stream.size());
  service.FinishStream();

  // Link 2 is congested (even id); verdicts exist for days 5..9.
  const auto range =
      service.QueryRange(2, 0, 10 * stats::kSecPerDay);
  ASSERT_FALSE(range.empty());
  EXPECT_EQ(range.front().day, 5);
  EXPECT_EQ(range.back().day, 9);
  // Range excludes days outside [t0, t1).
  const auto partial = service.QueryRange(
      2, 6 * stats::kSecPerDay, 8 * stats::kSecPerDay);
  ASSERT_EQ(partial.size(), 2u);
  EXPECT_EQ(partial.front().day, 6);
  EXPECT_EQ(partial.back().day, 7);

  // Point query: latest verdict at or before t.
  const auto point =
      service.QueryPoint(2, 8 * stats::kSecPerDay + 7200);
  ASSERT_TRUE(point.has_value());
  EXPECT_EQ(point->day, 8);
  EXPECT_FALSE(service.QueryPoint(2, 0).has_value());
  EXPECT_FALSE(service.QueryPoint(999, 8 * stats::kSecPerDay).has_value());

  const auto quality = service.QueryQuality(2);
  ASSERT_TRUE(quality.has_value());
  EXPECT_GT(quality->far_coverage_frac, 0.8);
  EXPECT_EQ(quality->total_days, 10);
  EXPECT_FALSE(service.QueryQuality(999).has_value());

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.samples, stream.size());
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_EQ(stats.last_closed_day, 9);
  EXPECT_EQ(stats.links, 4u);
  EXPECT_EQ(stats.raw_points, 0u);  // retired: the service keeps no raw store
  service.Stop();
}

// QueryRange finds a link's first row by binary search. Its answer must be
// exactly what a scan of every row gives: rows whose day is on or after
// t0's day and starts before t1. The reference scan runs over the link's
// rows as the verdict log lists them.
TEST(CongestionService, QueryRangeMatchesALinearScan) {
  const std::vector<Sample> stream = SyntheticStream(3, 16);
  CongestionService service(SmallServiceConfig(2));
  service.Start();
  EXPECT_EQ(service.SubmitBatch(stream).accepted, stream.size());
  service.FinishStream();
  const std::string log = service.VerdictLogText();
  const TimeSec D = stats::kSecPerDay;

  for (topo::LinkId link = 1; link <= 3; ++link) {
    // The link's rows, in log order.
    std::vector<std::int64_t> days;
    const std::string tag = " link=" + std::to_string(link) + " ";
    for (std::size_t at = 0; at < log.size();) {
      const std::size_t end = log.find('\n', at);
      const std::string line = log.substr(at, end - at);
      if (line.find(tag) != std::string::npos) {
        days.push_back(std::stoll(line.substr(4)));
      }
      at = end + 1;
    }
    ASSERT_FALSE(days.empty());
    const auto scan = [&](TimeSec t0, TimeSec t1) {
      std::vector<std::int64_t> out;
      for (const std::int64_t d : days) {
        if (d >= stats::DayOf(t0) && d * D < t1) out.push_back(d);
      }
      return out;
    };
    const TimeSec first = days.front() * D, last = days.back() * D;
    std::vector<std::pair<TimeSec, TimeSec>> ranges = {
        {first + 3 * D + D / 2, first + 6 * D},      // t0 mid-day
        {first + D, first + 4 * D},                  // t1 on a day boundary
        {first + 2 * D + 7200, first + 2 * D + 60},  // t1 <= t0, same day
        {first + 5 * D, first + 2 * D},              // t1 <= t0
        {first + 4 * D, first + 4 * D},              // empty, t1 == t0
        {first - 30 * D, first - 2 * D},             // before the first
        {first - 30 * D, first + 1},                 // ends inside the first
        {last + D, last + 40 * D},                   // after the last
        {last + D / 2, last + 40 * D},               // starts inside the last
        {-1000 * D, 1000 * D},                       // everything
    };
    stats::Rng rng(link);
    for (int i = 0; i < 200; ++i) {
      const auto t0 = static_cast<TimeSec>(rng.UniformInt(30 * D)) - 5 * D;
      const auto t1 = static_cast<TimeSec>(rng.UniformInt(30 * D)) - 5 * D;
      ranges.emplace_back(t0, t1);
    }
    for (const auto& [t0, t1] : ranges) {
      std::vector<std::int64_t> got;
      for (const VerdictRecord& v : service.QueryRange(link, t0, t1)) {
        EXPECT_EQ(v.link, link);
        got.push_back(v.day);
      }
      EXPECT_EQ(got, scan(t0, t1))
          << "link " << link << " t0 " << t0 << " t1 " << t1;
    }
  }
  service.Stop();
}

TEST(CongestionService, ManualClockClosesDaysInLiveMode) {
  runtime::ManualClock clock(0);
  ServiceConfig config = SmallServiceConfig(1);
  config.clock = &clock;
  CongestionService service(config);
  service.Start();

  std::vector<float> far, near;
  std::vector<Sample> samples;
  for (std::int64_t day = 0; day < 8; ++day) {
    samples.clear();
    DayRows(0xE0E0, day, true, far, near);
    RowsToSamples(1, 1, day, far, near, &samples);
    EXPECT_EQ(service.SubmitBatch(samples).accepted, samples.size());
  }
  // Stream-mode watermark closed days 0..6 (day 7 is still open).
  EXPECT_EQ(service.LastClosedDay(), 6);
  // Advancing the event clock past midnight of day 8 closes day 7.
  clock.Set(8 * stats::kSecPerDay + 1);
  service.PollClock();
  EXPECT_EQ(service.LastClosedDay(), 7);
  service.Stop();
}

// -------------------------------------------------- ingest admission bounds

TEST(CongestionService, RejectsImplausibleTimestamps) {
  CongestionService service(SmallServiceConfig(2));
  service.Start();
  const std::vector<Sample> warmup = SyntheticStream(/*links=*/2, /*days=*/3);
  EXPECT_EQ(service.SubmitBatch(warmup).accepted, warmup.size());
  // One hostile sample with t near INT64_MAX must not send the close loop
  // walking ~1e14 days.
  EXPECT_EQ(service.Submit({std::numeric_limits<TimeSec>::max() - 1, 1, 1,
                            SampleKind::kFarRtt, 1.0f}),
            SubmitOutcome::kRejected);
  // A jump past the watermark beyond max_day_jump is rejected too...
  EXPECT_EQ(service.Submit({(2 + 400) * stats::kSecPerDay, 1, 1,
                            SampleKind::kFarRtt, 1.0f}),
            SubmitOutcome::kRejected);
  // ...while a plausible forward jump is not.
  EXPECT_EQ(service.Submit({5 * stats::kSecPerDay, 1, 1, SampleKind::kFarRtt,
                            1.0f}),
            SubmitOutcome::kAccepted);
  // Flush returns promptly because rejected samples never moved the
  // watermark.
  EXPECT_EQ(service.FinishStream(), 5);
  EXPECT_EQ(service.Stats().samples_rejected, 2u);
  service.Stop();
}

TEST(CongestionService, DropsAndCountsLateSamples) {
  const std::vector<Sample> stream = SyntheticStream(2, 8);
  CongestionService clean(SmallServiceConfig(2));
  CongestionService dirty(SmallServiceConfig(2));
  clean.Start();
  dirty.Start();
  EXPECT_EQ(clean.SubmitBatch(stream).accepted, stream.size());
  EXPECT_EQ(dirty.SubmitBatch(stream).accepted, stream.size());
  // The watermark sits in day 7, so day 1 closed long ago: a straggler for
  // it can never produce a verdict and must not leak open bins.
  EXPECT_EQ(dirty.Submit({stats::kSecPerDay + 7, 1, 1, SampleKind::kFarRtt,
                          99.0f}),
            SubmitOutcome::kLate);
  clean.FinishStream();
  dirty.FinishStream();
  EXPECT_EQ(dirty.Stats().samples_late, 1u);
  EXPECT_EQ(clean.Stats().samples_late, 0u);
  // The dropped straggler leaves the verdict log untouched.
  EXPECT_EQ(dirty.VerdictLogText(), clean.VerdictLogText());
  clean.Stop();
  dirty.Stop();
}

// ------------------------------------------------ run handover to shards

// Submits `batches` in order and returns the finished service's log and
// stats. A ring of 4 publishes every sample (a quarter ring is one) and
// parks the producer mid-batch; larger rings hand samples over in
// quarter-ring runs that end wherever the count falls, mid-batch or not.
struct FedRun {
  std::string log;
  ServiceStats stats;
};

FedRun FeedBatches(int shards, std::size_t ring_capacity,
                   const std::vector<std::vector<Sample>>& batches,
                   bool one_by_one) {
  ServiceConfig config = SmallServiceConfig(shards);
  config.ring_capacity = ring_capacity;
  CongestionService service(config);
  service.Start();
  for (const std::vector<Sample>& batch : batches) {
    if (one_by_one) {
      for (const Sample& s : batch) (void)service.Submit(s);
    } else {
      (void)service.SubmitBatch(batch);
    }
  }
  service.FinishStream();
  FedRun run{service.VerdictLogText(), service.Stats()};
  service.Stop();
  return run;
}

TEST(CongestionService, BatchBoundariesDoNotChangeTheLog) {
  // Six links (so at 4 shards every shard owns one) x 2 VPs x 9 days,
  // seeded through the row generator's hash key.
  constexpr std::uint64_t kSeed = 0x5eed;
  std::vector<Sample> stream;
  std::vector<float> far, near;
  for (std::int64_t day = 0; day < 9; ++day) {
    for (topo::LinkId link = 1; link <= 6; ++link) {
      for (topo::VpId vp = 1; vp <= 2; ++vp) {
        DayRows(kSeed ^ (link * 1000 + vp), day, link % 2 == 0, far, near);
        RowsToSamples(link, vp, day, far, near, &stream);
      }
    }
  }
  // One straggler for long-closed day 1, arriving as day 6 opens.
  const auto day6 = std::find_if(stream.begin(), stream.end(),
                                 [](const Sample& s) {
                                   return stats::DayOf(s.t) == 6;
                                 });
  stream.insert(day6, {stats::kSecPerDay + 7, 3, 1, SampleKind::kFarRtt,
                       99.0f});

  // Pair-day batches (each run of one day, link and VP), except that all of
  // days 3 and 4 go in one batch: it crosses midnight with samples for
  // every shard on both sides.
  std::vector<std::vector<Sample>> pair_days;
  const auto key = [](const Sample& s) {
    const std::int64_t day = stats::DayOf(s.t);
    if (day == 3 || day == 4) {
      return std::make_tuple(std::int64_t{3}, topo::LinkId{0}, topo::VpId{0});
    }
    return std::make_tuple(day, s.link, s.vp);
  };
  for (const Sample& s : stream) {
    if (pair_days.empty() || key(pair_days.back().back()) != key(s)) {
      pair_days.emplace_back();
    }
    pair_days.back().push_back(s);
  }
  // 7 other days x 12 pairs, the midnight-crossing batch, the straggler.
  ASSERT_EQ(pair_days.size(), 7u * 12u + 2u);

  const FedRun reference =
      FeedBatches(1, 4, {stream}, /*one_by_one=*/true);
  EXPECT_EQ(reference.stats.samples_late, 1u);
  EXPECT_EQ(reference.stats.last_closed_day, 8);
  EXPECT_NE(reference.log.find("recurring=1"), std::string::npos);
  // Runs of 1, 16 and 4,096 samples: the last is longer than any shard's
  // day, so there only the close markers and Stop publish.
  for (const std::size_t capacity : {std::size_t{4}, std::size_t{64},
                                     std::size_t{1} << 14}) {
    for (const int shards : {1, 4}) {
      for (const auto& [name, run] :
           {std::make_pair("sample by sample",
                           FeedBatches(shards, capacity, {stream}, true)),
            std::make_pair("one batch",
                           FeedBatches(shards, capacity, {stream}, false)),
            std::make_pair("pair-day batches",
                           FeedBatches(shards, capacity, pair_days, false))}) {
        ServiceStats stats = run.stats;
        EXPECT_EQ(stats.shards, static_cast<std::uint32_t>(shards));
        stats.shards = reference.stats.shards;
        EXPECT_EQ(run.log, reference.log)
            << name << " at " << shards << " shards, ring " << capacity;
        EXPECT_EQ(stats, reference.stats)
            << name << " at " << shards << " shards, ring " << capacity;
      }
    }
  }
}

// Polls (for at most ~5 s) until a service's or a shard's SamplesProcessed()
// equals `expected`; a run left staged on a ring never arrives, and the
// bounded wait reports it.
template <typename Counter>
bool SamplesArrive(const Counter& counter, std::uint64_t expected) {
  for (int poll = 0; poll < 5000; ++poll) {
    if (counter.SamplesProcessed() == expected) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(IngestShard, PublishesQuarterRingRunsAndEveryMarker) {
  IngestShardConfig config;
  config.engine.autocorr = SmallConfig();
  config.ring_capacity = 64;  // runs of 16
  constexpr std::uint64_t kRun = 16;
  // One link, 2 VPs: 96 samples a day.
  const std::vector<Sample> stream = SyntheticStream(/*links=*/1, /*days=*/2);
  const auto day1 = std::find_if(stream.begin(), stream.end(),
                                 [](const Sample& s) {
                                   return stats::DayOf(s.t) == 1;
                                 });
  ASSERT_EQ(day1 - stream.begin(), 96);
  const std::span<const Sample> all(stream);
  IngestShard shard(config);
  shard.Start();
  // A run of a quarter ring goes out on its own; a run of 15 stays staged.
  // Unpublished records are invisible to the worker, so once the run is
  // counted the count cannot move on.
  shard.PushRun(all.first(kRun));
  EXPECT_TRUE(SamplesArrive(shard, kRun)) << "a full run was not published";
  shard.PushRun(all.subspan(kRun, kRun - 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(shard.SamplesProcessed(), kRun) << "a partial run was published";
  // A close marker carries the partial run out with it. WaitClosed parks
  // for good on a marker left staged, so it runs under a bounded wait.
  shard.PushCloseDay(0);
  ASSERT_TRUE(SamplesArrive(shard, 2 * kRun - 1))
      << "the close marker left samples staged";
  auto closed = std::async(std::launch::async, [&] { shard.WaitClosed(0); });
  WaitOrAbort(closed, std::chrono::seconds(5),
              "the close marker was never published");
  EXPECT_TRUE(shard.TakeDayVerdicts().empty());  // no full window yet
  // So does a checkpoint marker.
  const std::string part = ::testing::TempDir() + "/manic_ingest_shard.part";
  const std::size_t day1_at = static_cast<std::size_t>(day1 - stream.begin());
  shard.PushRun(all.subspan(day1_at, 5));
  shard.PushCheckpointDay(1, part, /*sync=*/false, nullptr);
  ASSERT_TRUE(SamplesArrive(shard, 2 * kRun - 1 + 5))
      << "the checkpoint marker left samples staged";
  closed = std::async(std::launch::async, [&] { shard.WaitClosed(1); });
  WaitOrAbort(closed, std::chrono::seconds(5),
              "the checkpoint marker was never published");
  EXPECT_TRUE(shard.TakeCheckpointPart().ok);
  // A run longer than the ring publishes before it waits for room, and
  // its tail, a quarter ring, goes out when the run ends.
  shard.PushRun(all.subspan(day1_at + 5, 80));
  ASSERT_TRUE(SamplesArrive(shard, 2 * kRun - 1 + 5 + 80))
      << "a run longer than the ring left samples staged";
  // And Stop.
  shard.PushRun(all.subspan(day1_at + 85, 7));
  shard.Stop();
  EXPECT_EQ(shard.SamplesProcessed(), 2 * kRun - 1 + 92);
  std::remove(part.c_str());
}

TEST(CongestionService, SubmitAndRecoveryHandRunsOverWithoutAClose) {
  // Day 0 only, 8 links x 2 VPs: 384 samples for each of the two shards,
  // in two batches of 192 a shard, as key runs of 96 (one link's two VPs).
  // With 1,024 slots a hand-off is at least a quarter ring, 256 samples,
  // checked at the end of each key run: the first batch stays staged, the
  // second publishes three key runs a shard, and only a close or Stop
  // carries the last 96 a shard.
  constexpr std::uint64_t kRun = 3 * 96;
  const std::vector<Sample> day0 = SyntheticStream(/*links=*/8, /*days=*/1);
  ASSERT_EQ(day0.size(), 768u);
  const std::span<const Sample> first(day0.data(), day0.size() / 2);
  const std::span<const Sample> second(day0.data() + day0.size() / 2,
                                       day0.size() / 2);
  ServiceConfig config = SmallServiceConfig(2);
  config.ring_capacity = 1024;
  config.wal_fsync = WalFsync::kNone;
  const std::string wal_root =
      ::testing::TempDir() + "/manic_serve_handover_wal";
  std::filesystem::remove_all(wal_root);

  // Runs of at least a quarter ring arrive with no close; FinishStream or
  // Stop carries the rest.
  const auto carry = [&](CongestionService& service, bool finish,
                         const char* half) {
    EXPECT_TRUE(SamplesArrive(service, 2 * kRun))
        << half << ": a full run did not arrive without a close";
    EXPECT_EQ(service.LastClosedDay(), kNoDayClosed) << half;
    if (finish) {
      EXPECT_EQ(service.FinishStream(), 0) << half;
      EXPECT_EQ(service.SamplesProcessed(), day0.size())
          << half << ": FinishStream left samples staged";
    }
    EXPECT_EQ(service.CloseWalClean(), WalStatus::kOk) << half;
    service.Stop();
    EXPECT_EQ(service.SamplesProcessed(), day0.size())
        << half << ": Stop left samples staged";
  };
  for (const bool finish : {false, true}) {
    config.wal_dir = wal_root + (finish ? "/live-finish" : "/live-stop");
    CongestionService service(config);
    service.Start();
    ASSERT_TRUE(service.RecoverFromWal().ok);  // empty log: opens a segment
    EXPECT_EQ(service.SubmitBatch(first).accepted, first.size());
    // Under a quarter ring a shard, with no close: nothing is published.
    EXPECT_EQ(service.SamplesProcessed(), 0u);
    EXPECT_EQ(service.SubmitBatch(second).accepted, second.size());
    carry(service, finish, "live");
  }
  // The live-stop log holds the two batches and no close; each recovery
  // replays a copy of it.
  for (const bool finish : {false, true}) {
    config.wal_dir = wal_root + (finish ? "/recover-finish" : "/recover-stop");
    std::filesystem::copy(wal_root + "/live-stop", config.wal_dir,
                          std::filesystem::copy_options::recursive);
    CongestionService recovered(config);
    recovered.Start();
    const WalRecoverStats stats = recovered.RecoverFromWal();
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_EQ(stats.samples, day0.size());
    EXPECT_EQ(stats.closes, 0u);
    carry(recovered, finish, "recovered");
  }
  std::filesystem::remove_all(wal_root);
}

// ------------------------------------------- batch/live parity, mixed days

// The mini study (test_runtime's RunMiniStudy): this world, 16 VPs over 150
// days, enough that on some days a link's VPs disagree on recurrence, so
// the cross-VP merge's asserting-VP average shows.
scenario::UsBroadband MiniStudyWorld() {
  scenario::UsBroadbandOptions world_options;
  world_options.link_scale = 0.4;
  return scenario::MakeUsBroadband(world_options);
}

TEST(ServeParity, MiniStudyVerdictsMatchTheBatchStudyAtOneAndFourShards) {
  scenario::StudyOptions options;
  options.days = 150;
  options.max_vps = 16;
  options.runtime.threads = 2;
  std::map<std::pair<std::int64_t, std::uint64_t>, analysis::DayLinkRecord>
      batch;
  options.on_day_link = [&](const analysis::DayLinkRecord& r) {
    batch[{r.day, r.link_key}] = r;
  };
  {
    scenario::UsBroadband world = MiniStudyWorld();
    (void)scenario::RunLongitudinalStudy(world, options);
  }
  options.on_day_link = nullptr;
  ASSERT_FALSE(batch.empty());

  // The study's exact measurement rows, submitted as pair-day batches to a
  // 1-shard and a 4-shard service side by side.
  std::vector<std::unique_ptr<CongestionService>> services;
  for (const int shards : {1, 4}) {
    ServiceConfig config;
    config.shards = shards;
    config.engine.autocorr = options.autocorr;
    services.push_back(std::make_unique<CongestionService>(config));
    services.back()->Start();
  }
  scenario::UsBroadband world = MiniStudyWorld();  // discovery mutates it
  const TimeSec bin = options.autocorr.bin_width;
  std::vector<Sample> samples;
  std::uint64_t dropped = 0;
  scenario::ExportStudyStream(
      world, options,
      [&](topo::VpId vp, topo::LinkId link, std::int64_t day,
          std::span<const float> far, std::span<const float> near) {
        samples.clear();
        for (std::size_t i = 0; i < far.size(); ++i) {
          const TimeSec t = day * stats::kSecPerDay +
                            static_cast<TimeSec>(i) * bin + bin / 2;
          samples.push_back({t, link, vp,
                             std::isnan(far[i]) ? SampleKind::kFarMissing
                                                : SampleKind::kFarRtt,
                             std::isnan(far[i]) ? 0.0f : far[i]});
          samples.push_back({t, link, vp,
                             std::isnan(near[i]) ? SampleKind::kNearMissing
                                                 : SampleKind::kNearRtt,
                             std::isnan(near[i]) ? 0.0f : near[i]});
        }
        for (const auto& service : services) {
          const SubmitSummary sub = service->SubmitBatch(samples);
          dropped += sub.late + sub.rejected + sub.shed;
        }
      });
  EXPECT_EQ(dropped, 0u);

  for (const auto& service : services) {
    service->FinishStream();
    const std::string where =
        std::to_string(service->shards()) + " shard(s)";
    // Every batch day-link record has its live verdict: the same day, the
    // fraction to 1e-9 and the same congested flag.
    std::map<std::uint64_t, std::size_t> rows_per_link;
    std::size_t mismatched = 0;
    for (const auto& [key, record] : batch) {
      const auto live =
          service->QueryPoint(static_cast<topo::LinkId>(record.link_key),
                              key.first * stats::kSecPerDay);
      ++rows_per_link[record.link_key];
      if (!live.has_value() || live->day != record.day ||
          std::fabs(live->fraction - record.fraction) > 1e-9 ||
          live->congested !=
              (record.fraction >= analysis::kDayLinkThreshold)) {
        if (++mismatched <= 5) {
          ADD_FAILURE() << where << ": day " << record.day << " link "
                        << record.link_key << " batch fraction "
                        << record.fraction << " live "
                        << (live.has_value() ? live->fraction : -1.0);
        }
      }
    }
    EXPECT_EQ(mismatched, 0u) << where;
    // ... and no live verdict lacks a batch record. Count the days where a
    // link's contributing VPs disagreed on recurrence: without them the
    // fraction check could not tell the asserting-VP average apart from
    // an average over every contributor.
    std::size_t mixed_days = 0;
    for (const auto& [link, expected_rows] : rows_per_link) {
      const std::vector<VerdictRecord> rows = service->QueryRange(
          static_cast<topo::LinkId>(link),
          std::numeric_limits<TimeSec>::min() / 2,
          std::numeric_limits<TimeSec>::max() / 2);
      EXPECT_EQ(rows.size(), expected_rows) << where << ": link " << link;
      for (const VerdictRecord& v : rows) {
        if (v.asserting > 0 && v.asserting < v.contributors) ++mixed_days;
      }
    }
    EXPECT_GT(mixed_days, 0u) << where;
    service->Stop();
  }
  EXPECT_EQ(services[0]->VerdictLogText(), services[1]->VerdictLogText());
}

TEST(ReplayFile, RejectsOutOfBoundsTimestamps) {
  const std::string path = ::testing::TempDir() + "/manic_serve_oob.bin";
  {
    StreamWriter writer;
    ASSERT_TRUE(writer.Open(path));
    const std::vector<Sample> hostile = {
        {std::numeric_limits<TimeSec>::max() - 1, 1, 1, SampleKind::kFarRtt,
         1.0f}};
    ASSERT_TRUE(writer.WriteBatch(hostile));
    ASSERT_TRUE(writer.Close());
  }
  CongestionService service(SmallServiceConfig(1));
  service.Start();
  EXPECT_FALSE(ReplayFile(&service, path).ok);
  service.Stop();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- session

TEST(Session, HandlesFragmentedDelivery) {
  CongestionService service(SmallServiceConfig(1));
  service.Start();
  Session session(&service);

  std::string wire = EncodeHello();
  const std::vector<Sample> stream = SyntheticStream(1, 8);
  wire += EncodeSubmitBatch(stream);
  wire += EncodeFlush();
  wire += EncodeQueryRange(1, 0, 8 * stats::kSecPerDay);

  // Deliver in 7-byte fragments.
  std::string out;
  for (std::size_t i = 0; i < wire.size(); i += 7) {
    ASSERT_TRUE(session.Consume(wire.substr(i, 7), &out));
  }
  EXPECT_EQ(session.frames_handled(), 4u);

  FrameAssembler replies;
  replies.Feed(out);
  MsgType type;
  std::string payload;
  ASSERT_TRUE(replies.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kHelloAck);
  ASSERT_TRUE(replies.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kSubmitAck);
  ASSERT_TRUE(replies.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kFlushAck);
  std::int64_t last_day = 0;
  ASSERT_TRUE(DecodeFlushAck(payload, &last_day));
  EXPECT_EQ(last_day, 7);
  ASSERT_TRUE(replies.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kVerdicts);
  std::vector<VerdictRecord> verdicts;
  ASSERT_TRUE(DecodeVerdicts(payload, &verdicts));
  EXPECT_FALSE(verdicts.empty());
  service.Stop();
}

TEST(Session, RejectsQueryBeforeHello) {
  CongestionService service(SmallServiceConfig(1));
  Session session(&service);
  std::string out;
  EXPECT_FALSE(session.Consume(EncodeQueryStats(), &out));
  FrameAssembler replies;
  replies.Feed(out);
  MsgType type;
  std::string payload;
  ASSERT_TRUE(replies.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kError);
  std::uint16_t code = 0;
  std::string message;
  ASSERT_TRUE(DecodeError(payload, &code, &message));
  EXPECT_EQ(code, kErrUnexpected);
  // A dead session stays dead.
  EXPECT_FALSE(session.Consume(EncodeHello(), &out));
}

// v2 changed the submit record, so a v1 peer is refused at hello: its
// fixed-width batches would otherwise read as malformed (or, worse, as
// different samples).
TEST(Session, V1HelloIsRefusedWithBadVersion) {
  CongestionService service(SmallServiceConfig(1));
  Session session(&service);
  Encoder hello;
  hello.PutU32(1);
  std::string out;
  EXPECT_FALSE(
      session.Consume(EncodeFrame(MsgType::kHello, hello.data()), &out));
  EXPECT_FALSE(session.hello_done());
  FrameAssembler replies;
  replies.Feed(out);
  MsgType type;
  std::string payload;
  ASSERT_TRUE(replies.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kError);
  std::uint16_t code = 0;
  std::string message;
  ASSERT_TRUE(DecodeError(payload, &code, &message));
  EXPECT_EQ(code, kErrBadVersion);
  EXPECT_EQ(kProtocolVersion, 2u);
}

TEST(Session, RejectsGarbageBytes) {
  CongestionService service(SmallServiceConfig(1));
  Session session(&service);
  std::string out;
  ASSERT_TRUE(session.Consume(EncodeHello(), &out));
  out.clear();
  EXPECT_FALSE(session.Consume("\xff\xff\xff\xff garbage", &out));
  FrameAssembler replies;
  replies.Feed(out);
  MsgType type;
  std::string payload;
  ASSERT_TRUE(replies.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kError);
}

TEST(Session, OutOfBoundsTimestampDropsTheConnection) {
  CongestionService service(SmallServiceConfig(1));
  service.Start();
  Session session(&service);
  std::string out;
  ASSERT_TRUE(session.Consume(EncodeHello(), &out));
  out.clear();
  const std::vector<Sample> hostile = {
      {std::numeric_limits<TimeSec>::max() - 1, 1, 1, SampleKind::kFarRtt,
       1.0f}};
  EXPECT_FALSE(session.Consume(EncodeSubmitBatch(hostile), &out));
  FrameAssembler replies;
  replies.Feed(out);
  MsgType type;
  std::string payload;
  ASSERT_TRUE(replies.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kError);
  std::uint16_t code = 0;
  std::string message;
  ASSERT_TRUE(DecodeError(payload, &code, &message));
  EXPECT_EQ(code, kErrBadTimestamp);
  service.Stop();
}

// ----------------------------------------------------------------- daemon

// Runs a listening daemon's event loop on its own thread for the scope's
// lifetime; the destructor shuts the loop down and joins it. A failed
// ASSERT_* in a client block then returns without leaving a joinable thread
// behind (whose destructor would std::terminate the whole suite).
class DaemonLoop {
 public:
  explicit DaemonLoop(TcpDaemon& daemon)
      : daemon_(daemon), loop_([&daemon] { daemon.Run(); }) {}
  ~DaemonLoop() {
    daemon_.Shutdown();
    loop_.join();
  }
  DaemonLoop(const DaemonLoop&) = delete;
  DaemonLoop& operator=(const DaemonLoop&) = delete;

 private:
  TcpDaemon& daemon_;
  std::thread loop_;
};

TEST(TcpDaemon, ServesConcurrentClientsEndToEnd) {
  CongestionService service(SmallServiceConfig(2));
  service.Start();
  TcpDaemon daemon(&service);
  ASSERT_TRUE(daemon.Listen(0));
  DaemonLoop loop(daemon);

  {
    BlockingClient feeder;
    ASSERT_TRUE(feeder.Connect(daemon.port()));
    EXPECT_EQ(feeder.server_shards(), 2u);
    const std::vector<Sample> stream = SyntheticStream(3, 9);
    // Submit in chunks, exercising multiple frames.
    std::size_t i = 0;
    while (i < stream.size()) {
      const std::size_t n = std::min<std::size_t>(1000, stream.size() - i);
      ASSERT_TRUE(
          feeder.Submit(std::span<const Sample>(stream.data() + i, n)));
      i += n;
    }
    const auto last_day = feeder.Flush();
    ASSERT_TRUE(last_day.has_value());
    EXPECT_EQ(*last_day, 8);

    // A second concurrent client queries while the feeder is connected.
    BlockingClient reader;
    ASSERT_TRUE(reader.Connect(daemon.port()));
    const auto range = reader.QueryRange(2, 0, 9 * stats::kSecPerDay);
    ASSERT_TRUE(range.has_value());
    EXPECT_FALSE(range->empty());
    EXPECT_TRUE(range->back().recurring);
    const auto point = reader.QueryPoint(2, 8 * stats::kSecPerDay);
    ASSERT_TRUE(point.has_value());
    EXPECT_EQ(point->day, 8);
    const auto quality = reader.QueryQuality(2);
    ASSERT_TRUE(quality.has_value());
    EXPECT_GT(quality->days_observed, 0);
    const auto stats = reader.QueryStats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->shards, 2u);
    EXPECT_EQ(stats->last_closed_day, 8);
  }
}

TEST(TcpDaemon, DropsMisbehavingClientButSurvives) {
  CongestionService service(SmallServiceConfig(1));
  service.Start();
  TcpDaemon daemon(&service);
  ASSERT_TRUE(daemon.Listen(0));
  DaemonLoop loop(daemon);

  {
    // A raw socket that speaks pure garbage: the daemon must answer with a
    // kError frame and close the connection.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(daemon.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const char garbage[] = "\xff\xff\xff\xff not a frame at all";
    ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, 0), 0);
    // Read until the peer closes; the last complete frame must be an error.
    std::string bytes;
    char buf[512];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      bytes.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    FrameAssembler replies;
    replies.Feed(bytes);
    MsgType type;
    std::string payload;
    ASSERT_TRUE(replies.Next(&type, &payload));
    EXPECT_EQ(type, MsgType::kError);
    std::uint16_t code = 0;
    std::string message;
    ASSERT_TRUE(DecodeError(payload, &code, &message));
    EXPECT_EQ(code, kErrCorruptStream);

    // The daemon must still serve well-behaved clients afterwards.
    BlockingClient good;
    ASSERT_TRUE(good.Connect(daemon.port()));
    const auto stats = good.QueryStats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->shards, 1u);
  }
}

TEST(TcpDaemon, ShedsClientWhoseOutboxExceedsTheCap) {
  CongestionService service(SmallServiceConfig(1));
  service.Start();
  const std::vector<Sample> fill = SyntheticStream(/*links=*/5, /*days=*/12);
  EXPECT_EQ(service.SubmitBatch(fill).accepted, fill.size());
  service.FinishStream();
  TcpDaemon daemon(&service);
  // Handshake and stats replies fit under the cap; a multi-day verdict
  // range reply does not.
  daemon.set_max_outbox_bytes(128);
  ASSERT_TRUE(daemon.Listen(0));
  DaemonLoop loop(daemon);
  {
    BlockingClient client;
    ASSERT_TRUE(client.Connect(daemon.port()));
    // The oversized reply is flushed best-effort, then the peer is shed.
    const auto range = client.QueryRange(2, 0, 12 * stats::kSecPerDay);
    ASSERT_TRUE(range.has_value());
    EXPECT_FALSE(range->empty());
    EXPECT_FALSE(client.QueryStats().has_value());  // connection is gone

    // The daemon survives and serves a fresh client.
    BlockingClient fresh;
    ASSERT_TRUE(fresh.Connect(daemon.port()));
    EXPECT_TRUE(fresh.QueryStats().has_value());
  }
}

// The client refuses a batch over the sample cap without sending it (the
// daemon would drop the connection), so the connection stays usable.
TEST(TcpDaemon, ClientRefusesABatchOverTheSampleCap) {
  CongestionService service(SmallServiceConfig(1));
  service.Start();
  TcpDaemon daemon(&service);
  ASSERT_TRUE(daemon.Listen(0));
  DaemonLoop loop(daemon);
  BlockingClient client;
  ASSERT_TRUE(client.Connect(daemon.port()));
  const std::vector<Sample> over(kMaxSamplesPerFrame + 1);
  ASSERT_FALSE(client.Submit(over));
  EXPECT_EQ(client.last_error(), ClientError::kProtocol);
  const std::vector<Sample> day0 = SyntheticStream(/*links=*/2, /*days=*/1);
  ASSERT_TRUE(client.Submit(day0));
  const auto stats = client.QueryStats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->samples, day0.size());
}

// ------------------------------------------------------------------ clock

TEST(Clock, ManualClockSetAndAdvance) {
  runtime::ManualClock clock(100);
  EXPECT_EQ(clock.NowSec(), 100);
  clock.Advance(50);
  EXPECT_EQ(clock.NowSec(), 150);
  clock.Set(1000);
  EXPECT_EQ(clock.NowSec(), 1000);
}

TEST(Clock, WallClockIsMonotoneNonDecreasing) {
  runtime::WallClock clock;
  const stats::TimeSec a = clock.NowSec();
  const stats::TimeSec b = clock.NowSec();
  EXPECT_LE(a, b);
}

TEST(Verdict, FormatLineIsStable) {
  VerdictRecord v;
  v.day = 12;
  v.link = 7;
  v.recurring = true;
  v.congested = true;
  v.quality_ok = true;
  v.fraction = 0.125;
  v.contributors = 3;
  v.asserting = 2;
  v.far_coverage_frac = 0.9375;
  EXPECT_EQ(FormatVerdictLine(v),
            "day=12 link=7 recurring=1 congested=1 frac=0.125000000 "
            "vps=2/3 quality=1 farcov=0.937500\n");
}

}  // namespace
}  // namespace manic::serve
