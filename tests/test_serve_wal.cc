// Crash-safety tests for the serving plane's WAL (src/serve/wal) and its
// integration into CongestionService: round-trip and clean-shutdown
// markers, torn-tail truncation at EVERY byte boundary of the last record
// (mid-header and mid-payload), recovery idempotence (a crash during
// recovery loses nothing — the double-crash case), ENOSPC-mid-append
// degradation and the shed contract, watermark-driven deduplication, the
// pipelined day close (the closing batch returns while the closer syncs
// its marker; a failed marker sync never publishes), per-segment directory
// syncs, and the deterministic I/O fault script itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "runtime/clock.h"
#include "runtime/io_fault.h"
#include "serve/checkpoint.h"
#include "serve/codec.h"
#include "serve/replay.h"
#include "serve/sample.h"
#include "serve/service.h"
#include "serve/session.h"
#include "serve/wal.h"
#include "stats/calendar.h"

namespace manic::serve {
namespace {

namespace fs = std::filesystem;

// A scratch WAL directory, removed on destruction.
struct WalDir {
  explicit WalDir(const char* tag)
      : path(::testing::TempDir() + "/manic_wal_" + tag) {
    fs::remove_all(path);
  }
  ~WalDir() { fs::remove_all(path); }
  std::string path;
};

Sample MakeSample(std::int64_t day, int slot, topo::LinkId link,
                  topo::VpId vp = 1,
                  SampleKind kind = SampleKind::kFarRtt) {
  Sample s;
  s.t = day * stats::kSecPerDay + slot * 3600 + 1800;
  s.link = link;
  s.vp = vp;
  s.kind = kind;
  s.value = 10.0f + static_cast<float>(slot);
  return s;
}

std::vector<Sample> SmallBatch(std::int64_t day, int count) {
  std::vector<Sample> batch;
  for (int i = 0; i < count; ++i) {
    batch.push_back(MakeSample(day, i % 24, 1 + i % 3));
  }
  return batch;
}

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

ServiceConfig WalServiceConfig(const std::string& wal_dir, int shards = 1) {
  ServiceConfig config;
  config.shards = shards;
  config.engine.autocorr = SmallConfig();
  config.wal_dir = wal_dir;
  config.wal_fsync = WalFsync::kNone;  // crash model = process kill
  return config;
}

// Reads the whole single segment file of a one-incarnation WAL.
std::string SegmentBytes(const std::string& dir) {
  std::ifstream in(dir + "/wal-000001.seg", std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// ------------------------------------------------------------- round trip

TEST(WalWriter, RoundTripsSamplesAndCloses) {
  WalDir dir("roundtrip");
  const std::vector<Sample> batch1 = SmallBatch(5, 7);
  const std::vector<Sample> batch2 = SmallBatch(6, 3);
  {
    WalWriter writer;
    WalConfig config;
    config.dir = dir.path;
    ASSERT_EQ(writer.Open(config), WalStatus::kOk);
    EXPECT_EQ(writer.AppendSamples(batch1), WalStatus::kOk);
    EXPECT_EQ(writer.AppendClose(5), WalStatus::kOk);
    EXPECT_EQ(writer.AppendSamples(batch2), WalStatus::kOk);
    EXPECT_EQ(writer.records_appended(), 3u);
    writer.Abandon();  // unclean: what a crash leaves behind
  }
  std::vector<Sample> replayed;
  std::vector<std::int64_t> closes;
  const WalRecoverStats stats = ReadWal(
      dir.path,
      [&](std::span<const Sample> batch) {
        replayed.insert(replayed.end(), batch.begin(), batch.end());
      },
      [&](std::int64_t day) { closes.push_back(day); });
  EXPECT_TRUE(stats.ok) << stats.error;
  EXPECT_FALSE(stats.clean_shutdown);
  EXPECT_EQ(stats.segments, 1u);
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.samples, batch1.size() + batch2.size());
  EXPECT_EQ(stats.closes, 1u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  ASSERT_EQ(closes, (std::vector<std::int64_t>{5}));
  ASSERT_EQ(replayed.size(), batch1.size() + batch2.size());
  // Bit-exact replay, order preserved.
  for (std::size_t i = 0; i < batch1.size(); ++i) {
    EXPECT_EQ(replayed[i].t, batch1[i].t);
    EXPECT_EQ(replayed[i].link, batch1[i].link);
    EXPECT_EQ(replayed[i].value, batch1[i].value);
  }
}

TEST(WalWriter, CleanMarkerLifecycle) {
  WalDir dir("clean");
  WalConfig config;
  config.dir = dir.path;
  {
    WalWriter writer;
    ASSERT_EQ(writer.Open(config), WalStatus::kOk);
    EXPECT_EQ(writer.AppendSamples(SmallBatch(1, 2)), WalStatus::kOk);
    EXPECT_EQ(writer.CloseClean(), WalStatus::kOk);
  }
  EXPECT_TRUE(fs::exists(dir.path + "/wal-clean"));
  const WalRecoverStats stats =
      ReadWal(dir.path, [](std::span<const Sample>) {}, [](std::int64_t) {});
  EXPECT_TRUE(stats.ok);
  EXPECT_TRUE(stats.clean_shutdown);
  // Appending again invalidates the marker.
  WalWriter writer;
  ASSERT_EQ(writer.Open(config), WalStatus::kOk);
  EXPECT_FALSE(fs::exists(dir.path + "/wal-clean"));
  EXPECT_EQ(writer.segments_opened(), 1u);
}

TEST(WalWriter, SegmentsRotateAndReplayInOrder) {
  WalDir dir("rotate");
  WalConfig config;
  config.dir = dir.path;
  config.segment_bytes = 64;  // force a rotation on nearly every append
  WalWriter writer;
  ASSERT_EQ(writer.Open(config), WalStatus::kOk);
  for (std::int64_t day = 1; day <= 5; ++day) {
    ASSERT_EQ(writer.AppendSamples(SmallBatch(day, 4)), WalStatus::kOk);
    ASSERT_EQ(writer.AppendClose(day), WalStatus::kOk);
  }
  EXPECT_GT(writer.segments_opened(), 1u);
  writer.Abandon();
  std::vector<std::int64_t> closes;
  std::uint64_t samples = 0;
  const WalRecoverStats stats = ReadWal(
      dir.path,
      [&](std::span<const Sample> batch) { samples += batch.size(); },
      [&](std::int64_t day) { closes.push_back(day); });
  EXPECT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.segments, writer.segments_opened());
  EXPECT_EQ(samples, 20u);
  EXPECT_EQ(closes, (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
}

// Counts the writer's trips through the fault seams; injects nothing.
class RecordingIoHook final : public runtime::IoFaultHook {
 public:
  WriteFault WriteAt(std::uint64_t /*op*/, std::size_t /*len*/) const override {
    ++writes;
    return {};
  }
  bool FsyncOkAt(std::uint64_t /*op*/) const override {
    ++fsyncs;
    return true;
  }
  mutable std::uint64_t writes = 0;
  mutable std::uint64_t fsyncs = 0;
};

// Every segment file under dir with its bytes.
std::map<std::string, std::string> SegmentFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-0", 0) != 0) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    files[name] = std::string((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
  }
  return files;
}

// The writeback hint under kDayClose is only a hint: the same appends leave
// the same segment bytes under every policy, the fault seams see exactly
// one write per magic and per record and one fsync per durability point
// (each segment's directory sync is one, except under kNone),
// and the hints fire once per kWalWritebackBytes between syncs — never
// under kNone or kEveryAppend. The days are ~4 KiB records, more than
// 256 KiB a day, and the segment rolls after every second day's marker, so
// a cursor that survives a roll shows as an extra hint.
TEST(WalWriter, WritebackHintsLeaveBytesAndFaultSeamsUnchanged) {
  constexpr std::int64_t kDays = 4;
  constexpr int kRecordsPerDay = 140;
  constexpr int kSamplesPerRecord = 192;
  const auto record = [](std::int64_t day, int r) {
    std::vector<Sample> batch;
    for (int i = 0; i < kSamplesPerRecord; ++i) {
      batch.push_back(MakeSample(day, i % 24, 1 + r % 50,
                                 static_cast<topo::VpId>(1 + i / 24)));
    }
    return batch;
  };
  const std::size_t record_bytes = EncodeSubmitBatch(record(0, 0)).size();
  const std::size_t day_bytes =
      kRecordsPerDay * record_bytes + EncodeFlushAck(0).size();
  ASSERT_GT(kRecordsPerDay * record_bytes, 2 * kWalWritebackBytes);
  // The writer hints on the append that brings the unsynced, unhinted
  // bytes to kWalWritebackBytes.
  const std::uint64_t records_per_hint =
      (kWalWritebackBytes + record_bytes - 1) / record_bytes;
  const std::uint64_t hints_per_day = kRecordsPerDay / records_per_hint;
  ASSERT_EQ(hints_per_day, 2u);

  constexpr std::uint64_t kRecords = kDays * (kRecordsPerDay + 1);
  constexpr std::uint64_t kRolls = kDays / 2;
  std::map<std::string, std::string> first_bytes;
  for (const WalFsync policy :
       {WalFsync::kNone, WalFsync::kDayClose, WalFsync::kEveryAppend}) {
    SCOPED_TRACE(static_cast<int>(policy));
    WalDir dir("writeback_hints");
    RecordingIoHook hook;
    WalConfig config;
    config.dir = dir.path;
    config.fsync = policy;
    config.segment_bytes = 2 * day_bytes;
    config.fault_hook = &hook;
    WalWriter writer;
    ASSERT_EQ(writer.Open(config), WalStatus::kOk);
    for (std::int64_t day = 1; day <= kDays; ++day) {
      for (int r = 0; r < kRecordsPerDay; ++r) {
        ASSERT_EQ(writer.AppendSamples(record(day, r)), WalStatus::kOk);
      }
      ASSERT_EQ(writer.AppendClose(day), WalStatus::kOk);
    }
    ASSERT_EQ(writer.CloseClean(), WalStatus::kOk);

    EXPECT_EQ(writer.segments_opened(), kRolls + 1);
    EXPECT_EQ(hook.writes, writer.segments_opened() + kRecords);
    const std::uint64_t policy_syncs =
        policy == WalFsync::kNone       ? 0
        : policy == WalFsync::kDayClose ? kDays
                                        : kRecords;
    const std::uint64_t dir_syncs =
        policy == WalFsync::kNone ? 0 : writer.segments_opened();
    EXPECT_EQ(writer.dir_syncs(), dir_syncs);
    EXPECT_EQ(hook.fsyncs, policy_syncs + kRolls + 1 + dir_syncs);
    EXPECT_EQ(writer.writeback_hints(),
              policy == WalFsync::kDayClose ? kDays * hints_per_day : 0u);

    const std::map<std::string, std::string> bytes = SegmentFiles(dir.path);
    ASSERT_EQ(bytes.size(), kRolls + 1);
    if (first_bytes.empty()) {
      first_bytes = bytes;
    } else {
      EXPECT_TRUE(bytes == first_bytes);
    }
  }
}

// A new segment's directory entry becomes durable with the segment's first
// durability sync, whichever it is: the first record's under kEveryAppend,
// the first marker's under kDayClose (inline or deferred to a ticket), or
// the seal when a segment rolls before any. One per opened segment, across
// rolls; never under kNone, whose seals and clean close still fsync.
TEST(WalWriter, DirectorySyncsOncePerSegmentAndNeverUnderNone) {
  for (const WalFsync policy :
       {WalFsync::kNone, WalFsync::kDayClose, WalFsync::kEveryAppend}) {
    SCOPED_TRACE(static_cast<int>(policy));
    const bool none = policy == WalFsync::kNone;
    const bool every = policy == WalFsync::kEveryAppend;
    WalDir dir("dir_syncs");
    RecordingIoHook hook;
    WalConfig config;
    config.dir = dir.path;
    config.fsync = policy;
    config.fault_hook = &hook;
    WalWriter writer;
    ASSERT_EQ(writer.Open(config), WalStatus::kOk);
    EXPECT_EQ(writer.dir_syncs(), 0u);  // Open syncs nothing
    EXPECT_EQ(hook.fsyncs, 0u);

    // Segment 1: a record, then two markers.
    ASSERT_EQ(writer.AppendSamples(SmallBatch(1, 4)), WalStatus::kOk);
    EXPECT_EQ(writer.dir_syncs(), every ? 1u : 0u);
    ASSERT_EQ(writer.AppendClose(1), WalStatus::kOk);
    EXPECT_EQ(writer.dir_syncs(), none ? 0u : 1u);
    ASSERT_EQ(writer.AppendClose(2), WalStatus::kOk);
    EXPECT_EQ(writer.dir_syncs(), none ? 0u : 1u);

    // Segment 2: no marker before the roll, so the seal is under kDayClose
    // its first sync.
    ASSERT_EQ(writer.Roll(), WalStatus::kOk);
    EXPECT_EQ(writer.dir_syncs(), none ? 0u : 1u);
    ASSERT_EQ(writer.AppendSamples(SmallBatch(3, 4)), WalStatus::kOk);
    EXPECT_EQ(writer.dir_syncs(), none ? 0u : every ? 2u : 1u);
    ASSERT_EQ(writer.Roll(), WalStatus::kOk);
    EXPECT_EQ(writer.dir_syncs(), none ? 0u : 2u);

    // Segment 3: a deferred marker carries the directory sync in its ticket.
    WalSyncTicket ticket;
    ASSERT_EQ(writer.AppendCloseDeferred(3, &ticket), WalStatus::kOk);
    EXPECT_EQ(ticket.fd < 0, none);
    EXPECT_EQ(ticket.dir, !none);
    EXPECT_EQ(writer.dir_syncs(), none ? 0u : 3u);
    ASSERT_EQ(writer.SyncDeferred(ticket), WalStatus::kOk);
    EXPECT_EQ(ticket.fd, -1);
    EXPECT_EQ(writer.dir_syncs(), none ? 0u : 3u);
    ASSERT_EQ(writer.CloseClean(), WalStatus::kOk);

    EXPECT_EQ(writer.segments_opened(), 3u);
    EXPECT_EQ(writer.dir_syncs(), none ? 0u : writer.segments_opened());
    // Every sync went through the seam: under kNone only the two seals and
    // the clean close.
    if (none) {
      EXPECT_EQ(hook.fsyncs, 3u);
    }
  }
}

// A failed ticket sync surfaces, and so does a failed directory sync: the
// fault seam numbers the file's sync and then the directory's.
TEST(WalWriter, DeferredSyncFailuresSurface) {
  for (const std::int64_t fail_at : {0, 1}) {
    SCOPED_TRACE(fail_at);
    WalDir dir("deferred_fail");
    runtime::ScriptedIoFaults::Config fault_config;
    fault_config.fail_fsync_at = fail_at;
    runtime::ScriptedIoFaults faults(fault_config);
    WalConfig config;
    config.dir = dir.path;
    config.fault_hook = &faults;
    WalWriter writer;
    ASSERT_EQ(writer.Open(config), WalStatus::kOk);
    WalSyncTicket ticket;
    ASSERT_EQ(writer.AppendCloseDeferred(1, &ticket), WalStatus::kOk);
    EXPECT_EQ(ticket.op, 0u);
    EXPECT_TRUE(ticket.dir);
    EXPECT_EQ(writer.SyncDeferred(ticket), WalStatus::kIoError);
    // The next marker's sync is numbered after both.
    ASSERT_EQ(writer.AppendCloseDeferred(2, &ticket), WalStatus::kOk);
    EXPECT_EQ(ticket.op, 2u);
    EXPECT_FALSE(ticket.dir);
    EXPECT_EQ(writer.SyncDeferred(ticket), WalStatus::kOk);
  }
}

// ------------------------------------------------- torn-tail truncation

// The tentpole truncation test: cut the log at EVERY byte boundary inside
// the final record — through the 5-byte frame header and through the
// payload — and require recovery to replay exactly the intact prefix and
// chop the torn tail off the file.
TEST(WalRecovery, TruncationAtEveryByteOfLastRecord) {
  WalDir source("sweep_src");
  const std::vector<Sample> keep = SmallBatch(3, 5);
  const std::vector<Sample> torn = SmallBatch(4, 6);
  {
    WalWriter writer;
    WalConfig config;
    config.dir = source.path;
    ASSERT_EQ(writer.Open(config), WalStatus::kOk);
    ASSERT_EQ(writer.AppendSamples(keep), WalStatus::kOk);
    ASSERT_EQ(writer.AppendSamples(torn), WalStatus::kOk);
    writer.Abandon();
  }
  const std::string full = SegmentBytes(source.path);
  std::string first_record_frame;
  EncodeSubmitBatchTo(keep, &first_record_frame);
  const std::size_t intact_end = 10 /* magic */ + first_record_frame.size();
  ASSERT_LT(intact_end, full.size());

  for (std::size_t cut = intact_end; cut < full.size(); ++cut) {
    WalDir dir("sweep_cut");
    fs::create_directories(dir.path);
    {
      std::ofstream out(dir.path + "/wal-000001.seg", std::ios::binary);
      out.write(full.data(), static_cast<std::streamsize>(cut));
    }
    std::uint64_t samples = 0;
    const WalRecoverStats stats = ReadWal(
        dir.path,
        [&](std::span<const Sample> batch) { samples += batch.size(); },
        [](std::int64_t) { FAIL() << "no closes were logged"; });
    ASSERT_TRUE(stats.ok) << "cut at byte " << cut << ": " << stats.error;
    EXPECT_EQ(stats.records, 1u) << "cut at byte " << cut;
    EXPECT_EQ(samples, keep.size()) << "cut at byte " << cut;
    EXPECT_EQ(stats.truncated_bytes, cut - intact_end) << "cut " << cut;
    // The torn tail is gone from the file itself, not just the parse.
    EXPECT_EQ(fs::file_size(dir.path + "/wal-000001.seg"), intact_end);
  }
}

// A crash during recovery must lose nothing: recovery's only write is the
// torn-tail truncation, after which a second recovery replays the identical
// record stream — the double-crash scenario.
TEST(WalRecovery, RecoveryIsIdempotentAfterTornTail) {
  WalDir dir("double_crash");
  const std::vector<Sample> keep = SmallBatch(2, 9);
  {
    WalWriter writer;
    WalConfig config;
    config.dir = dir.path;
    ASSERT_EQ(writer.Open(config), WalStatus::kOk);
    ASSERT_EQ(writer.AppendSamples(keep), WalStatus::kOk);
    ASSERT_EQ(writer.AppendClose(2), WalStatus::kOk);
    writer.Abandon();
  }
  // Tear 7 bytes of a half-written record onto the tail.
  {
    std::ofstream out(dir.path + "/wal-000001.seg",
                      std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00\x00\x03\x09\x00", 7);
  }
  std::uint64_t first_samples = 0, second_samples = 0;
  const WalRecoverStats first = ReadWal(
      dir.path,
      [&](std::span<const Sample> b) { first_samples += b.size(); },
      [](std::int64_t) {});
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.truncated_bytes, 7u);
  const WalRecoverStats second = ReadWal(
      dir.path,
      [&](std::span<const Sample> b) { second_samples += b.size(); },
      [](std::int64_t) {});
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.truncated_bytes, 0u);  // nothing left to chop
  EXPECT_EQ(second.records, first.records);
  EXPECT_EQ(second_samples, first_samples);
}

TEST(WalRecovery, RejectsDamageThatIsNotATornTail) {
  // Torn bytes in a NON-final segment = damage, not interruption.
  WalDir dir("damage");
  WalConfig config;
  config.dir = dir.path;
  {
    WalWriter writer;
    ASSERT_EQ(writer.Open(config), WalStatus::kOk);
    ASSERT_EQ(writer.AppendSamples(SmallBatch(1, 2)), WalStatus::kOk);
    writer.Abandon();
  }
  {
    std::ofstream out(dir.path + "/wal-000001.seg",
                      std::ios::binary | std::ios::app);
    out.write("\x40\x00", 2);  // torn tail on segment 1...
  }
  {
    WalWriter writer;  // ...which a second incarnation makes non-final
    ASSERT_EQ(writer.Open(config), WalStatus::kOk);
    ASSERT_EQ(writer.AppendSamples(SmallBatch(2, 2)), WalStatus::kOk);
    writer.Abandon();
  }
  const WalRecoverStats stats =
      ReadWal(dir.path, [](std::span<const Sample>) {}, [](std::int64_t) {});
  EXPECT_FALSE(stats.ok);
  EXPECT_NE(stats.error.find("torn record inside non-final"),
            std::string::npos);
}

TEST(WalRecovery, ForeignFrameTypeIsAnError) {
  WalDir dir("foreign");
  fs::create_directories(dir.path);
  {
    std::ofstream out(dir.path + "/wal-000001.seg", std::ios::binary);
    out << "MANICWAL2\n" << EncodeQueryStats();  // not a WAL record type
  }
  const WalRecoverStats stats =
      ReadWal(dir.path, [](std::span<const Sample>) {}, [](std::int64_t) {});
  EXPECT_FALSE(stats.ok);
  EXPECT_NE(stats.error.find("foreign frame"), std::string::npos);
}

// A segment of the fixed-width v1 format (MANICWAL1) fails recovery with an
// error that names both formats; it is neither read with the v2 decoder
// nor chopped as a torn tail, and no fresh segment is opened past it.
TEST(WalRecovery, V1SegmentFailsRecoveryNamingTheFormat) {
  WalDir dir("v1_segment");
  fs::create_directories(dir.path);
  std::string v1 = "MANICWAL1\n";
  {
    Encoder batch;  // [u32 count] then [i64 t][u32 link][u32 vp][u8 kind][f32]
    batch.PutU32(2);
    for (const Sample& s : SmallBatch(3, 2)) {
      batch.PutI64(s.t);
      batch.PutU32(s.link);
      batch.PutU32(s.vp);
      batch.PutU8(static_cast<std::uint8_t>(s.kind));
      batch.PutF32(s.value);
    }
    v1 += EncodeFrame(MsgType::kSubmitBatch, batch.data());
    v1 += EncodeFlushAck(3);
    v1 += EncodeFrame(MsgType::kSubmitBatch, batch.data()).substr(0, 20);
  }
  const std::string segment = dir.path + "/wal-000001.seg";
  {
    std::ofstream out(segment, std::ios::binary);
    out << v1;
  }
  CongestionService service(WalServiceConfig(dir.path));
  const WalRecoverStats stats = service.RecoverFromWal();
  EXPECT_FALSE(stats.ok);
  EXPECT_NE(stats.error.find("MANICWAL1"), std::string::npos) << stats.error;
  EXPECT_NE(stats.error.find("MANICWAL2"), std::string::npos) << stats.error;
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  std::ifstream in(segment, std::ios::binary);
  EXPECT_EQ(std::string((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>()),
            v1);
  EXPECT_EQ(SegmentFiles(dir.path).size(), 1u);
  service.Stop();
}

TEST(WalRecovery, ShortFinalSegmentIsRemovedNotFatal) {
  // Killed while stamping the magic of a brand-new segment: nothing durable
  // was lost, the stub is removed.
  WalDir dir("stub");
  WalConfig config;
  config.dir = dir.path;
  {
    WalWriter writer;
    ASSERT_EQ(writer.Open(config), WalStatus::kOk);
    ASSERT_EQ(writer.AppendSamples(SmallBatch(1, 3)), WalStatus::kOk);
    writer.Abandon();
  }
  {
    std::ofstream out(dir.path + "/wal-000002.seg", std::ios::binary);
    out << "MANI";  // 4 of 10 magic bytes
  }
  std::uint64_t samples = 0;
  const WalRecoverStats stats = ReadWal(
      dir.path, [&](std::span<const Sample> b) { samples += b.size(); },
      [](std::int64_t) {});
  EXPECT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(samples, 3u);
  EXPECT_EQ(stats.truncated_bytes, 4u);
  EXPECT_FALSE(fs::exists(dir.path + "/wal-000002.seg"));
}

// A read error is not end of file: a segment that cannot be read (here a
// directory under a segment's name, whose read() fails with EISDIR) fails
// recovery, and nothing is removed or truncated — as the final segment it
// must not pass for a stub killed before its magic.
TEST(WalRecovery, ReadErrorFailsRecoveryWithoutTruncating) {
  for (const bool final_segment : {true, false}) {
    WalDir dir(final_segment ? "read_error_final" : "read_error_mid");
    WalConfig config;
    config.dir = dir.path;
    {
      WalWriter writer;
      ASSERT_EQ(writer.Open(config), WalStatus::kOk);
      ASSERT_EQ(writer.AppendSamples(SmallBatch(1, 3)), WalStatus::kOk);
      writer.Abandon();
    }
    const std::string unreadable = dir.path + "/wal-000002.seg";
    ASSERT_TRUE(fs::create_directory(unreadable));
    if (!final_segment) {
      WalWriter writer;  // opens wal-000003.seg past the directory
      ASSERT_EQ(writer.Open(config), WalStatus::kOk);
      ASSERT_EQ(writer.AppendSamples(SmallBatch(2, 3)), WalStatus::kOk);
      writer.Abandon();
      ASSERT_TRUE(fs::exists(dir.path + "/wal-000003.seg"));
    }
    const auto first_size = fs::file_size(dir.path + "/wal-000001.seg");
    const WalRecoverStats stats = ReadWal(
        dir.path, [](std::span<const Sample>) {}, [](std::int64_t) {});
    EXPECT_FALSE(stats.ok) << "final " << final_segment;
    EXPECT_NE(stats.error.find("cannot read wal segment"), std::string::npos)
        << stats.error;
    EXPECT_EQ(stats.truncated_bytes, 0u);
    EXPECT_TRUE(fs::is_directory(unreadable));
    EXPECT_EQ(fs::file_size(dir.path + "/wal-000001.seg"), first_size);
  }
}

// Recovery reads kWalReadChunkBytes at a time and carries a frame cut by a
// chunk end over to the next read. Records are laid out so chunk ends fall
// inside a length field, between the length field and the type byte,
// exactly after a header, and through a frame several chunks long (the
// largest submit batch a frame can carry, then one sample more, which the
// writer splits into two records); the replayed stream must be the
// appended one, bit for bit. Cutting the file inside that long frame must
// then chop exactly the torn frame off. Record sizes are measured with the
// encoder, as records are variable-width.
TEST(WalRecovery, RecordsStraddlingChunkBoundariesReplayIdentically) {
  struct Record {
    bool close = false;
    std::int64_t day = 0;
    std::vector<Sample> samples;
  };
  constexpr std::size_t kChunk = kWalReadChunkBytes;
  const std::size_t close_bytes = EncodeFlushAck(0).size();
  const std::size_t batch_header = EncodeSubmitBatch({}).size();
  // Wide, varied samples: a new key, a large delta and a value nearly
  // every time. Consumed front to back, enough for every batch below.
  std::vector<Sample> pool;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < 450'000; ++i) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    Sample s;
    s.t = static_cast<std::int64_t>(rng >> 20) - (std::int64_t{1} << 40);
    s.link = static_cast<topo::LinkId>(rng >> 7);
    s.vp = static_cast<topo::VpId>(rng >> 29);
    s.kind = static_cast<SampleKind>((rng >> 61) % 5);
    s.value = static_cast<float>(rng >> 40) * 0.001f;
    pool.push_back(s);
  }
  std::size_t pool_at = 0;
  WalDir dir("chunks");
  WalConfig config;
  config.dir = dir.path;
  WalWriter writer;
  ASSERT_EQ(writer.Open(config), WalStatus::kOk);
  std::vector<Record> written;
  std::size_t offset = 10;  // the segment magic
  const auto append_batch = [&](std::vector<Sample> samples) {
    const std::uint64_t records = writer.records_appended();
    ASSERT_EQ(writer.AppendSamples(samples), WalStatus::kOk);
    ASSERT_EQ(writer.records_appended(), records + 1);
    offset += EncodeSubmitBatch(samples).size();
    written.push_back(Record{false, 0, std::move(samples)});
  };
  const auto append_close = [&](std::int64_t day) {
    ASSERT_EQ(writer.AppendClose(day), WalStatus::kOk);
    offset += close_bytes;
    written.push_back(Record{true, day, {}});
  };
  // A batch of `frame_bytes` (at least batch_header + 64) bytes: the pool's
  // next samples up to a few bytes short, then fillers — the last sample
  // again with zero value bits, same key and same t, which encode to one
  // tag byte each.
  const auto batch_of = [&](std::size_t frame_bytes) {
    std::string frame;
    const std::size_t taken = EncodeSubmitBatchTo(
        std::span<const Sample>(pool).subspan(pool_at), &frame,
        frame_bytes - batch_header - 32);
    if (taken == 0) {
      ADD_FAILURE() << "sample pool exhausted";
      return std::vector<Sample>{};
    }
    std::vector<Sample> batch(pool.begin() + pool_at,
                              pool.begin() + pool_at + taken);
    pool_at += taken;
    Sample filler = batch.back();
    filler.value = 0.0f;
    const std::size_t filler_bytes =
        EncodeSubmitBatch(std::vector<Sample>{filler, filler}).size() -
        EncodeSubmitBatch(std::vector<Sample>{filler}).size();
    EXPECT_EQ(filler_bytes, 1u);
    batch.insert(batch.end(), frame_bytes - frame.size(), filler);
    EXPECT_EQ(EncodeSubmitBatch(batch).size(), frame_bytes);
    return batch;
  };
  const auto pad_to = [&](std::size_t target) {
    append_close(static_cast<std::int64_t>(written.size()));
    append_batch(batch_of(target - offset));
  };
  pad_to(kChunk - 1);  // the next length field: 1 byte, then 3 bytes
  append_batch(batch_of(batch_header + 1000));
  pad_to(2 * kChunk - 4);  // the next header: length | type
  append_close(-7);
  pad_to(3 * kChunk - 5);  // the next header ends exactly at the chunk end
  const std::size_t long_frame_at = offset;
  const std::size_t records_before_long = written.size();
  // The largest legal frame is one record; one sample more is two.
  std::vector<Sample> longest = batch_of(4 + 1 + kMaxFramePayload);
  append_batch(longest);
  Sample extra = pool[pool_at++];
  longest.push_back(extra);
  ASSERT_GT(EncodeSubmitBatch(longest).size(), 4 + 1 + kMaxFramePayload);
  ASSERT_EQ(writer.AppendSamples(longest), WalStatus::kOk);
  written.push_back(Record{false, 0, {longest.begin(), longest.end() - 1}});
  written.push_back(Record{false, 0, {extra}});
  offset += EncodeSubmitBatch({longest.begin(), longest.end() - 1}).size() +
            EncodeSubmitBatch(std::vector<Sample>{extra}).size();
  for (const std::size_t bytes : {batch_header + 64, batch_header + 100,
                                  batch_header + 200, batch_header + 20'000}) {
    append_batch(batch_of(bytes));
  }
  append_close(123456);
  writer.Abandon();
  const std::string segment = dir.path + "/wal-000001.seg";
  ASSERT_EQ(fs::file_size(segment), offset);
  ASSERT_GT(offset, long_frame_at + 4 * kChunk);

  std::vector<Record> replayed;
  WalRecoverStats stats = ReadWal(
      dir.path,
      [&](std::span<const Sample> batch) {
        replayed.push_back(Record{false, 0, {batch.begin(), batch.end()}});
      },
      [&](std::int64_t day) { replayed.push_back(Record{true, day, {}}); });
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.truncated_bytes, 0u);
  EXPECT_EQ(stats.records, written.size());
  ASSERT_EQ(replayed.size(), written.size());
  for (std::size_t r = 0; r < written.size(); ++r) {
    const Record& want = written[r];
    const Record& got = replayed[r];
    ASSERT_EQ(got.close, want.close) << "record " << r;
    ASSERT_EQ(got.day, want.day) << "record " << r;
    ASSERT_EQ(got.samples.size(), want.samples.size()) << "record " << r;
    for (std::size_t i = 0; i < want.samples.size(); ++i) {
      const Sample& a = got.samples[i];
      const Sample& b = want.samples[i];
      ASSERT_TRUE(a.t == b.t && a.link == b.link && a.vp == b.vp &&
                  a.kind == b.kind &&
                  std::bit_cast<std::uint32_t>(a.value) ==
                      std::bit_cast<std::uint32_t>(b.value))
          << "record " << r << " sample " << i;
    }
  }

  // Torn inside the long frame, two chunks past its start.
  const std::size_t cut = long_frame_at + 2 * kChunk + 7;
  fs::resize_file(segment, cut);
  std::uint64_t records = 0;
  stats = ReadWal(
      dir.path, [&](std::span<const Sample>) { ++records; },
      [&](std::int64_t) { ++records; });
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(records, records_before_long);
  EXPECT_EQ(stats.truncated_bytes, cut - long_frame_at);
  EXPECT_EQ(fs::file_size(segment), long_frame_at);
}

// ----------------------------------------------------- service integration

// Uncrashed WAL-on run vs a "crash" (drop the service mid-stream without
// CloseWalClean) + recovery + resume-from-watermark: byte-identical logs,
// at more than one shard count.
TEST(ServiceWal, CrashRecoveryMatchesUncrashedRunByteForByte) {
  std::vector<Sample> stream;
  for (std::int64_t day = 0; day < 9; ++day) {
    for (topo::LinkId link = 1; link <= 4; ++link) {
      for (int slot = 0; slot < 24; ++slot) {
        stream.push_back(MakeSample(day, slot, link));
        stream.push_back(
            MakeSample(day, slot, link, 1, SampleKind::kNearRtt));
      }
    }
  }
  for (const int shards : {1, 4}) {
    // Reference: no WAL, one uninterrupted pass.
    ServiceConfig plain;
    plain.shards = shards;
    plain.engine.autocorr = SmallConfig();
    CongestionService reference(plain);
    reference.Start();
    ASSERT_EQ(reference.SubmitBatch(stream).accepted, stream.size());
    reference.FinishStream();
    const std::string want = reference.VerdictLogText();
    reference.Stop();
    ASSERT_FALSE(want.empty());

    WalDir dir("svc_crash");
    std::uint64_t resume = 0;
    {
      // First incarnation: half the stream in odd-sized batches, then die
      // (scope exit without CloseWalClean = the crash).
      CongestionService victim(WalServiceConfig(dir.path, shards));
      ASSERT_TRUE(victim.RecoverFromWal().ok);
      std::size_t offset = 0;
      const std::size_t half = stream.size() / 2;
      while (offset < half) {
        const std::size_t n = std::min<std::size_t>(37, half - offset);
        const SubmitSummary summary = victim.SubmitBatch(
            std::span<const Sample>(stream.data() + offset, n));
        ASSERT_EQ(summary.accepted, n);
        offset += n;
      }
      resume = victim.Watermark().samples_consumed;
      EXPECT_EQ(resume, half);
      victim.Stop();
    }
    // Second incarnation: recover, resume at the watermark, finish.
    CongestionService recovered(WalServiceConfig(dir.path, shards));
    const WalRecoverStats stats = recovered.RecoverFromWal();
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_FALSE(stats.clean_shutdown);
    EXPECT_EQ(stats.samples, resume);
    EXPECT_EQ(recovered.Watermark().samples_consumed, resume);
    ASSERT_EQ(
        recovered
            .SubmitBatch(std::span<const Sample>(
                stream.data() + resume, stream.size() - resume))
            .accepted,
        stream.size() - resume);
    recovered.FinishStream();
    EXPECT_EQ(recovered.Watermark().samples_consumed, stream.size());
    EXPECT_EQ(recovered.VerdictLogText(), want) << "shards " << shards;
    EXPECT_EQ(recovered.CloseWalClean(), WalStatus::kOk);
    recovered.Stop();
  }
}

// One in-process SubmitBatch may carry more samples than one frame holds
// (a wire batch cannot: a frame's consumed subset re-encodes no larger).
// The WAL writes such a run as several records, each within
// kMaxFramePayload, and a restart replays them into the verdicts and counts
// of an uncrashed run. Written as one record, the log would read as
// corrupt framing and fail recovery.
TEST(ServiceWal, OversizedInProcessBatchRecovers) {
  // 250,000 samples in one call: RTTs of day kDay on eight links and three
  // VPs, each followed by a late sample 2,000 days older on another link,
  // so every sample changes key and t by a wide delta.
  constexpr std::int64_t kDay = 3000;
  std::vector<Sample> big;
  for (int i = 0; i < 125'000; ++i) {
    Sample s = MakeSample(kDay, i % 24, static_cast<topo::LinkId>(1 + i % 8),
                          static_cast<topo::VpId>(1 + (i / 8) % 3),
                          i % 2 == 0 ? SampleKind::kFarRtt
                                     : SampleKind::kNearRtt);
    s.value += static_cast<float>(i % 1000) * 0.001f;
    big.push_back(s);
    Sample late = s;
    late.t -= 2000 * stats::kSecPerDay + i % 97;
    late.link = static_cast<topo::LinkId>(100 + i % 5);
    big.push_back(late);
  }
  ASSERT_GT(EncodeSubmitBatch(big).size(), 5 + kMaxFramePayload);
  std::vector<Sample> rest;
  for (std::int64_t day = kDay + 1; day < kDay + 9; ++day) {
    for (topo::LinkId link = 1; link <= 8; ++link) {
      for (int slot = 0; slot < 24; ++slot) {
        rest.push_back(MakeSample(day, slot, link));
        rest.push_back(MakeSample(day, slot, link, 1, SampleKind::kNearRtt));
      }
    }
  }
  for (const int shards : {1, 2}) {
    SCOPED_TRACE(shards);
    ServiceConfig plain;
    plain.shards = shards;
    plain.engine.autocorr = SmallConfig();
    CongestionService reference(plain);
    reference.Start();
    const SubmitSummary summary = reference.SubmitBatch(big);
    ASSERT_EQ(summary.accepted, big.size() / 2);
    ASSERT_EQ(summary.late, big.size() / 2);
    ASSERT_EQ(reference.SubmitBatch(rest).accepted, rest.size());
    reference.FinishStream();
    reference.Stop();
    const std::string want = reference.VerdictLogText();
    ASSERT_FALSE(want.empty());

    WalDir dir("svc_oversized");
    const std::size_t before_crash = rest.size() / 2;
    {
      CongestionService victim(WalServiceConfig(dir.path, shards));
      ASSERT_TRUE(victim.RecoverFromWal().ok);
      ASSERT_EQ(victim.SubmitBatch(big).late, big.size() / 2);
      ASSERT_EQ(victim.SubmitBatch(std::span<const Sample>(rest).first(
                                       before_crash))
                    .accepted,
                before_crash);
      victim.Stop();  // a crash: no CloseWalClean
    }
    CongestionService recovered(WalServiceConfig(dir.path, shards));
    const WalRecoverStats stats = recovered.RecoverFromWal();
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_EQ(stats.samples, big.size() + before_crash);
    EXPECT_GT(stats.records, 2u);
    ASSERT_EQ(recovered.Watermark().samples_consumed, stats.samples);
    ASSERT_EQ(recovered
                  .SubmitBatch(std::span<const Sample>(rest).subspan(
                      before_crash))
                  .accepted,
              rest.size() - before_crash);
    recovered.FinishStream();
    recovered.Stop();
    EXPECT_EQ(recovered.VerdictLogText(), want);
    EXPECT_EQ(recovered.Stats(), reference.Stats());
    EXPECT_EQ(recovered.Watermark().samples_consumed,
              big.size() + rest.size());
  }
}

// An in-process SubmitBatch may also carry more samples than one frame may
// hold (kMaxSamplesPerFrame) while its bytes fit a frame. The WAL splits
// such a run by count too, since recovery refuses a record over the cap,
// and a restart replays it into the verdicts of an uncrashed run.
TEST(ServiceWal, InProcessBatchOverTheSampleCapRecovers) {
  constexpr std::int64_t kDay = 40;
  // cap + 1 RTTs of day kDay on eight links, one link after another.
  std::vector<Sample> big;
  for (std::uint32_t i = 0; i <= kMaxSamplesPerFrame; ++i) {
    Sample s = MakeSample(kDay, static_cast<int>(i / 2 % 24),
                          static_cast<topo::LinkId>(1 + i / 32769), 1,
                          i % 2 == 0 ? SampleKind::kFarRtt
                                     : SampleKind::kNearRtt);
    s.value += static_cast<float>(i % 1000) * 0.001f;
    big.push_back(s);
  }
  ASSERT_LT(EncodeSubmitBatch(big).size(), 5 + kMaxFramePayload);
  std::vector<Sample> rest;
  for (std::int64_t day = kDay + 1; day < kDay + 9; ++day) {
    for (topo::LinkId link = 1; link <= 8; ++link) {
      for (int slot = 0; slot < 24; ++slot) {
        rest.push_back(MakeSample(day, slot, link));
        rest.push_back(MakeSample(day, slot, link, 1, SampleKind::kNearRtt));
      }
    }
  }
  ServiceConfig plain;
  plain.shards = 2;
  plain.engine.autocorr = SmallConfig();
  CongestionService reference(plain);
  reference.Start();
  ASSERT_EQ(reference.SubmitBatch(big).accepted, big.size());
  ASSERT_EQ(reference.SubmitBatch(rest).accepted, rest.size());
  reference.FinishStream();
  reference.Stop();
  const std::string want = reference.VerdictLogText();
  ASSERT_FALSE(want.empty());

  WalDir dir("svc_over_cap");
  const std::size_t before_crash = rest.size() / 2;
  {
    CongestionService victim(WalServiceConfig(dir.path, 2));
    ASSERT_TRUE(victim.RecoverFromWal().ok);
    ASSERT_EQ(victim.SubmitBatch(big).accepted, big.size());
    ASSERT_EQ(
        victim.SubmitBatch(std::span<const Sample>(rest).first(before_crash))
            .accepted,
        before_crash);
    victim.Stop();  // a crash: no CloseWalClean
  }
  std::size_t largest = 0;
  ASSERT_TRUE(ReadWal(
                  dir.path,
                  [&](std::span<const Sample> batch) {
                    largest = std::max(largest, batch.size());
                  },
                  [](std::int64_t) {})
                  .ok);
  EXPECT_EQ(largest, std::size_t{kMaxSamplesPerFrame});
  CongestionService recovered(WalServiceConfig(dir.path, 2));
  const WalRecoverStats stats = recovered.RecoverFromWal();
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.samples, big.size() + before_crash);
  ASSERT_EQ(
      recovered.SubmitBatch(std::span<const Sample>(rest).subspan(before_crash))
          .accepted,
      rest.size() - before_crash);
  recovered.FinishStream();
  recovered.Stop();
  EXPECT_EQ(recovered.VerdictLogText(), want);
  EXPECT_EQ(recovered.Stats(), reference.Stats());
}

// Snapshots what the service has published at every fsync but the
// directory's. Under kDayClose with the default segment size, the syncs
// before CloseWalClean are exactly the day-close markers, in day order,
// plus the directory's as op 1, right after the first marker's. The hook
// runs on the service's closer thread, inside the sync of the close in
// flight.
class PublishedAtSync final : public runtime::IoFaultHook {
 public:
  static constexpr std::uint64_t kDirSyncOp = 1;
  bool FsyncOkAt(std::uint64_t op) const override {
    const CongestionService* svc = service.load(std::memory_order_acquire);
    if (svc != nullptr && op != kDirSyncOp) {
      closed.push_back(svc->LastClosedDay());
      logs.push_back(svc->VerdictLogText());
    }
    return true;
  }
  alignas(64) std::atomic<const CongestionService*> service{nullptr};
  alignas(64) mutable std::vector<std::int64_t> closed;
  mutable std::vector<std::string> logs;
};

// The log rows of days before `day` (rows are in close order).
std::string LogBeforeDay(const std::string& log, std::int64_t day) {
  std::string prefix;
  std::size_t at = 0;
  while (at < log.size()) {
    const std::size_t eol = log.find('\n', at);
    const std::string line = log.substr(at, eol + 1 - at);
    if (std::stoll(line.substr(line.find("day=") + 4)) >= day) break;
    prefix += line;
    at = eol + 1;
  }
  return prefix;
}

// The shards finalize a day while its close marker syncs, but day d's
// verdicts must still publish only after d's marker is durable: at the
// sync of d's marker the service shows days before d and nothing of d.
TEST(ServiceWal, DayIsNotPublishedBeforeItsMarkerSyncs) {
  constexpr std::int64_t kDays = 9;
  std::vector<Sample> stream;
  for (std::int64_t day = 0; day < kDays; ++day) {
    for (topo::LinkId link = 1; link <= 4; ++link) {
      for (int slot = 0; slot < 24; ++slot) {
        stream.push_back(MakeSample(day, slot, link));
        stream.push_back(
            MakeSample(day, slot, link, 1, SampleKind::kNearRtt));
      }
    }
  }
  for (const int shards : {1, 4}) {
    WalDir dir("sync_order");
    PublishedAtSync hook;
    ServiceConfig config = WalServiceConfig(dir.path, shards);
    config.wal_fsync = WalFsync::kDayClose;
    config.wal_fault_hook = &hook;
    CongestionService service(config);
    ASSERT_TRUE(service.RecoverFromWal().ok);
    hook.service.store(&service, std::memory_order_release);
    for (std::size_t offset = 0; offset < stream.size(); offset += 37) {
      const std::size_t n = std::min<std::size_t>(37, stream.size() - offset);
      ASSERT_EQ(service
                    .SubmitBatch(
                        std::span<const Sample>(stream.data() + offset, n))
                    .accepted,
                n);
    }
    EXPECT_EQ(service.FinishStream(), kDays - 1);
    // The query waits for the last close, so its sync has been recorded.
    const std::string log = service.VerdictLogText();
    hook.service.store(nullptr, std::memory_order_release);
    ASSERT_EQ(hook.closed.size(), static_cast<std::size_t>(kDays));
    for (std::int64_t day = 0; day < kDays; ++day) {
      const auto i = static_cast<std::size_t>(day);
      EXPECT_EQ(hook.closed[i], day == 0 ? kNoDayClosed : day - 1)
          << "shards " << shards << " day " << day;
      EXPECT_EQ(hook.logs[i], LogBeforeDay(log, day))
          << "shards " << shards << " day " << day;
    }
    // Non-vacuous: verdicts published between two marker syncs.
    EXPECT_FALSE(hook.logs.back().empty()) << "shards " << shards;
    EXPECT_EQ(service.CloseWalClean(), WalStatus::kOk);
    service.Stop();
  }
}

// One day's samples for links 1-4 (far and near, every slot).
std::vector<Sample> DaySamples(std::int64_t day) {
  std::vector<Sample> samples;
  for (topo::LinkId link = 1; link <= 4; ++link) {
    for (int slot = 0; slot < 24; ++slot) {
      samples.push_back(MakeSample(day, slot, link));
      samples.push_back(MakeSample(day, slot, link, 1, SampleKind::kNearRtt));
    }
  }
  return samples;
}

// The verdict log of days [0, days) of the DaySamples stream, without a WAL.
std::string DaysReferenceLog(std::int64_t days) {
  ServiceConfig plain;
  plain.engine.autocorr = SmallConfig();
  CongestionService reference(plain);
  reference.Start();
  for (std::int64_t day = 0; day < days; ++day) {
    EXPECT_EQ(reference.SubmitBatch(DaySamples(day)).shed, 0u);
  }
  reference.FinishStream();
  std::string log = reference.VerdictLogText();
  reference.Stop();
  return log;
}

std::size_t Lines(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

// Under kDayClose with the default segment size, the fsync ops of a fresh
// log are: day 0's marker, the directory, then one marker per day.
constexpr std::uint64_t MarkerSyncOp(std::int64_t day) {
  return day == 0 ? 0 : static_cast<std::uint64_t>(day) + 1;
}

// The marker sync of a day close fails on the closer. The closing batch's
// ack stands (it was written), the day is never published, the producer's
// next call sheds, queries keep answering from a consistent state, and a
// restart recovers what the log holds — the marker was written, so the day.
TEST(ServiceWal, FailedDayCloseSyncNeverPublishesTheDay) {
  // The first verdicts come at day 5, when SmallConfig's window fills.
  constexpr std::int64_t kFailedDay = 7;
  const std::string want = DaysReferenceLog(kFailedDay + 3);
  for (const int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    WalDir dir("failed_close_sync");
    runtime::ScriptedIoFaults::Config fault_config;
    fault_config.fail_fsync_at =
        static_cast<std::int64_t>(MarkerSyncOp(kFailedDay));
    runtime::ScriptedIoFaults faults(fault_config);
    ServiceConfig config = WalServiceConfig(dir.path, shards);
    config.wal_fsync = WalFsync::kDayClose;
    config.wal_fault_hook = &faults;
    std::uint64_t consumed = 0;
    {
      CongestionService service(config);
      ASSERT_TRUE(service.RecoverFromWal().ok);
      // Days 0..kFailedDay+1: the last batch closes kFailedDay.
      for (std::int64_t day = 0; day <= kFailedDay + 1; ++day) {
        const std::vector<Sample> batch = DaySamples(day);
        const SubmitSummary summary = service.SubmitBatch(batch);
        EXPECT_EQ(summary.accepted, batch.size()) << "day " << day;
        consumed += batch.size();
      }
      EXPECT_FALSE(service.degraded());  // not yet: the closer's news waits
      // Queries wait for the failed close and show the days before it.
      EXPECT_EQ(service.LastClosedDay(), kFailedDay - 1);
      const std::string published = service.VerdictLogText();
      EXPECT_EQ(published, LogBeforeDay(want, kFailedDay));
      ASSERT_FALSE(published.empty());
      const ServiceStats stats = service.Stats();
      EXPECT_EQ(stats.last_closed_day, kFailedDay - 1);
      EXPECT_EQ(stats.days_closed, kFailedDay);
      EXPECT_EQ(stats.verdicts, Lines(published));
      EXPECT_EQ(stats.samples, consumed);
      EXPECT_TRUE(service.QueryRange(1, kFailedDay * stats::kSecPerDay,
                                     (kFailedDay + 1) * stats::kSecPerDay)
                      .empty());

      // The producer's next call sheds, whole.
      const std::vector<Sample> next = DaySamples(kFailedDay + 2);
      const SubmitSummary shed = service.SubmitBatch(next);
      EXPECT_EQ(shed.accepted, 0u);
      EXPECT_EQ(shed.shed, next.size());
      EXPECT_TRUE(service.degraded());
      EXPECT_TRUE(service.Watermark().degraded);
      EXPECT_EQ(service.Watermark().samples_consumed, consumed);
      // A degraded service closes no more days: the accepted kFailedDay + 1
      // samples would otherwise publish that day with a hole before it.
      EXPECT_EQ(service.FinishStream(), kFailedDay - 1);
      EXPECT_EQ(service.LastClosedDay(), kFailedDay - 1);
      // The close walk stopped at the failed day: no later markers went out.
      EXPECT_EQ(service.Watermark().last_closed_day, kFailedDay);

      // Still answering, and still consistent.
      EXPECT_EQ(service.VerdictLogText(), published);
      const std::optional<VerdictRecord> point =
          service.QueryPoint(1, (kFailedDay + 2) * stats::kSecPerDay);
      ASSERT_TRUE(point.has_value());
      EXPECT_EQ(point->day, kFailedDay - 1);
      const ServiceStats after = service.Stats();
      EXPECT_EQ(after.verdicts, stats.verdicts);
      EXPECT_EQ(after.samples, consumed);
      EXPECT_EQ(after.last_closed_day, kFailedDay - 1);
      EXPECT_EQ(after.days_closed, kFailedDay);
      EXPECT_EQ(service.CloseWalClean(), WalStatus::kIoError);
      service.Stop();
    }
    // Restart without faults: the written marker and the acked batch come
    // back, so the failed day publishes now.
    CongestionService recovered(WalServiceConfig(dir.path, shards));
    const WalRecoverStats stats = recovered.RecoverFromWal();
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_EQ(stats.samples, consumed);
    EXPECT_EQ(stats.closes, static_cast<std::uint64_t>(kFailedDay + 1));
    EXPECT_EQ(recovered.Watermark().samples_consumed, consumed);
    EXPECT_EQ(recovered.LastClosedDay(), kFailedDay);
    EXPECT_EQ(recovered.VerdictLogText(), LogBeforeDay(want, kFailedDay + 1));
    recovered.Stop();
  }
}

// ENOSPC at each write of a day stream in turn — a sample record, a day
// close's pending-sample flush or its marker: the service publishes only
// days whose marker reached the log, and closes none once degraded, so
// what it answers live is exactly what a restart recovers.
TEST(ServiceWal, EnospcAtAnyWritePublishesOnlyWhatRecovers) {
  constexpr std::int64_t kDays = 9;
  std::vector<Sample> stream;
  for (std::int64_t day = 0; day < kDays; ++day) {
    const std::vector<Sample> samples = DaySamples(day);
    stream.insert(stream.end(), samples.begin(), samples.end());
  }
  for (const int shards : {1, 4}) {
    std::set<std::int64_t> published_through;
    bool degraded = true;
    // Op 0 is the segment magic; the sweep ends at the first op past the
    // stream's last write.
    for (std::int64_t op = 1; degraded; ++op) {
      ASSERT_LT(op, 200) << "the wall never missed";
      SCOPED_TRACE(testing::Message() << "shards " << shards << " op " << op);
      WalDir dir("enospc_sweep");
      runtime::ScriptedIoFaults::Config fault_config;
      fault_config.enospc_at_op = op;
      runtime::ScriptedIoFaults faults(fault_config);
      ServiceConfig config = WalServiceConfig(dir.path, shards);
      config.wal_fault_hook = &faults;
      std::int64_t live_day = kNoDayClosed;
      std::string live_log;
      {
        CongestionService service(config);
        ASSERT_TRUE(service.RecoverFromWal().ok);
        // Batches of 37 straddle the days, so closes land mid-batch with
        // samples pending ahead of the marker.
        for (std::size_t at = 0; at < stream.size(); at += 37) {
          const std::size_t n = std::min<std::size_t>(37, stream.size() - at);
          (void)service.SubmitBatch(
              std::span<const Sample>(stream.data() + at, n));
        }
        live_day = service.FinishStream();
        degraded = service.degraded();
        EXPECT_EQ(service.LastClosedDay(), live_day);
        EXPECT_EQ(service.Stats().days_closed,
                  live_day == kNoDayClosed ? 0 : live_day + 1);
        live_log = service.VerdictLogText();
        service.Stop();
      }
      CongestionService recovered(WalServiceConfig(dir.path, shards));
      ASSERT_TRUE(recovered.RecoverFromWal().ok);
      EXPECT_EQ(recovered.LastClosedDay(), live_day);
      EXPECT_EQ(recovered.VerdictLogText(), live_log);
      recovered.Stop();
      published_through.insert(live_day);
    }
    // Non-vacuous: the wall struck before every day's close in turn.
    EXPECT_EQ(published_through.size(), static_cast<std::size_t>(kDays + 1))
        << "shards " << shards;
  }
}

// Holds the closer inside chosen fsyncs until the test releases them. A
// hold that is never released gives up after a deadline and says so, so a
// producer that waits for the sync fails the test instead of hanging it.
class HeldSyncs final : public runtime::IoFaultHook {
 public:
  explicit HeldSyncs(std::vector<std::uint64_t> held) : held_(std::move(held)) {}
  bool FsyncOkAt(std::uint64_t op) const override {
    if (std::find(held_.begin(), held_.end(), op) == held_.end()) return true;
    std::unique_lock<std::mutex> lock(mu_);
    inside_ = static_cast<std::int64_t>(op);
    cv_.notify_all();
    if (!cv_.wait_for(lock, std::chrono::seconds(10), [&] {
          return released_ >= static_cast<std::int64_t>(op);
        })) {
      timed_out_ = true;
    }
    inside_ = -1;
    return true;
  }
  // True once the closer sits inside sync `op` (waits up to 10 s).
  bool WaitInside(std::uint64_t op) const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10), [&] {
      return inside_ == static_cast<std::int64_t>(op);
    });
  }
  bool Inside(std::uint64_t op) const {
    std::lock_guard<std::mutex> lock(mu_);
    return inside_ == static_cast<std::int64_t>(op);
  }
  void Release(std::uint64_t op) {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = static_cast<std::int64_t>(op);
    cv_.notify_all();
  }
  bool timed_out() const {
    std::lock_guard<std::mutex> lock(mu_);
    return timed_out_;
  }

 private:
  const std::vector<std::uint64_t> held_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::int64_t inside_ = -1;
  mutable std::int64_t released_ = -1;
  mutable bool timed_out_ = false;
};

// The day close is pipelined: the batch that closes day d returns while
// d's marker is still syncing on the closer, and d publishes only after
// that sync. A query on another thread blocks until the sync is let go and
// then sees d; producer-thread queries right after the closing batch
// returns see d too (read-your-writes), waiting for the sync if they must.
TEST(ServiceWal, ClosingBatchReturnsWhileItsMarkerSyncs) {
  // Verdicts start at day 5 (SmallConfig's window), so day kHeld has rows.
  constexpr std::int64_t kHeld = 6;
  constexpr std::int64_t kDays = kHeld + 3;
  const std::string want = DaysReferenceLog(kDays);
  for (const int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    WalDir dir("pipelined_close");
    HeldSyncs hook({MarkerSyncOp(kHeld), MarkerSyncOp(kHeld + 1)});
    ServiceConfig config = WalServiceConfig(dir.path, shards);
    config.wal_fsync = WalFsync::kDayClose;
    config.wal_fault_hook = &hook;
    CongestionService service(config);
    ASSERT_TRUE(service.RecoverFromWal().ok);
    for (std::int64_t day = 0; day <= kHeld; ++day) {
      ASSERT_EQ(service.SubmitBatch(DaySamples(day)).shed, 0u);
    }
    // The next batch closes day kHeld, whose marker sync the hook holds.
    const std::vector<Sample> closing = DaySamples(kHeld + 1);
    EXPECT_EQ(service.SubmitBatch(closing).accepted, closing.size());
    ASSERT_TRUE(hook.WaitInside(MarkerSyncOp(kHeld)));
    EXPECT_FALSE(hook.timed_out()) << "the closing batch waited for the sync";
    std::future<std::int64_t> reader = std::async(
        std::launch::async, [&service] { return service.LastClosedDay(); });
    EXPECT_EQ(reader.wait_for(std::chrono::milliseconds(100)),
              std::future_status::timeout)
        << "a query returned while the close was still syncing";
    EXPECT_TRUE(hook.Inside(MarkerSyncOp(kHeld)));
    hook.Release(MarkerSyncOp(kHeld));
    EXPECT_EQ(reader.get(), kHeld);

    // The next batch closes kHeld + 1; a helper lets its sync go a little
    // later, so the producer's own queries below find the close in flight.
    const std::vector<Sample> next = DaySamples(kHeld + 2);
    EXPECT_EQ(service.SubmitBatch(next).accepted, next.size());
    EXPECT_FALSE(hook.timed_out());
    std::thread releaser([&hook] {
      if (hook.WaitInside(MarkerSyncOp(kHeld + 1))) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      hook.Release(MarkerSyncOp(kHeld + 1));
    });
    EXPECT_EQ(service.LastClosedDay(), kHeld + 1);
    EXPECT_EQ(service.VerdictLogText(), LogBeforeDay(want, kHeld + 2));
    const std::vector<VerdictRecord> rows =
        service.QueryRange(1, (kHeld + 1) * stats::kSecPerDay,
                           (kHeld + 2) * stats::kSecPerDay);
    EXPECT_EQ(rows.size(), 1u);
    if (!rows.empty()) {
      EXPECT_EQ(rows[0].day, kHeld + 1);
    }
    releaser.join();
    EXPECT_FALSE(hook.timed_out());
    EXPECT_EQ(service.FinishStream(), kDays - 1);
    EXPECT_EQ(service.VerdictLogText(), want);
    EXPECT_EQ(service.CloseWalClean(), WalStatus::kOk);
    service.Stop();
  }
}

// ENOSPC mid-append: the batch that hit the wall reports shed (never
// acked), ingest sheds from then on, queries keep working, and a restart
// recovers exactly the durable prefix.
TEST(ServiceWal, EnospcDegradesShedsAndRecoversDurablePrefix) {
  WalDir dir("enospc");
  runtime::ScriptedIoFaults::Config fault_config;
  fault_config.enospc_at_op = 2;  // op 0 = magic, op 1 = first record, op 2 dies
  runtime::ScriptedIoFaults faults(fault_config);

  ServiceConfig config = WalServiceConfig(dir.path);
  config.wal_fault_hook = &faults;
  CongestionService service(config);
  ASSERT_TRUE(service.RecoverFromWal().ok);

  const std::vector<Sample> first = SmallBatch(1, 6);
  const SubmitSummary ok_batch = service.SubmitBatch(first);
  EXPECT_EQ(ok_batch.accepted, first.size());
  EXPECT_FALSE(service.degraded());
  EXPECT_EQ(service.Watermark().samples_consumed, first.size());

  // Fresh day-2 samples: the first advances the watermark, and the day-1
  // close's WAL flush is what hits the ENOSPC wall — degradation striking
  // mid-batch, inside CloseThrough, must still convert the ack to shed.
  const std::vector<Sample> doomed = SmallBatch(2, 4);
  const SubmitSummary bad_batch = service.SubmitBatch(doomed);
  EXPECT_EQ(bad_batch.accepted, 0u);
  EXPECT_EQ(bad_batch.shed, doomed.size());
  EXPECT_TRUE(service.degraded());
  // The durable watermark froze at the last successful flush.
  const WatermarkInfo info = service.Watermark();
  EXPECT_EQ(info.samples_consumed, first.size());
  EXPECT_TRUE(info.degraded);
  // Every later submit sheds without touching ingest state.
  EXPECT_EQ(service.Submit(MakeSample(1, 3, 2)), SubmitOutcome::kShed);
  // The query plane still answers.
  EXPECT_EQ(service.Stats().shards, 1u);
  EXPECT_EQ(service.CloseWalClean(), WalStatus::kIoError);
  service.Stop();

  // Restart without faults: exactly the durable prefix comes back.
  CongestionService recovered(WalServiceConfig(dir.path));
  const WalRecoverStats stats = recovered.RecoverFromWal();
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.samples, first.size());
  EXPECT_EQ(recovered.Watermark().samples_consumed, first.size());
  EXPECT_FALSE(recovered.degraded());
  recovered.Stop();
}

// The session layer turns a shed batch into kErrDegraded but keeps the
// connection: queries still answer on the same session.
TEST(ServiceWal, SessionKeepsConnectionWhenDegraded) {
  WalDir dir("sess_degraded");
  runtime::ScriptedIoFaults::Config fault_config;
  fault_config.enospc_at_op = 1;  // first record append fails
  runtime::ScriptedIoFaults faults(fault_config);
  ServiceConfig config = WalServiceConfig(dir.path);
  config.wal_fault_hook = &faults;
  CongestionService service(config);
  ASSERT_TRUE(service.RecoverFromWal().ok);

  Session session(&service);
  std::string out;
  ASSERT_TRUE(session.Consume(EncodeHello(), &out));
  out.clear();
  const std::vector<Sample> batch = SmallBatch(1, 3);
  // Shed batch: the session must answer kError(kErrDegraded) AND keep the
  // connection alive.
  ASSERT_TRUE(session.Consume(EncodeSubmitBatch(batch), &out));
  FrameAssembler assembler;
  assembler.Feed(out);
  MsgType type;
  std::string payload;
  ASSERT_TRUE(assembler.Next(&type, &payload));
  ASSERT_EQ(type, MsgType::kError);
  std::uint16_t code = 0;
  std::string message;
  ASSERT_TRUE(DecodeError(payload, &code, &message));
  EXPECT_EQ(code, kErrDegraded);
  // Still serving: a stats query round-trips on the same session.
  out.clear();
  ASSERT_TRUE(session.Consume(EncodeQueryStats(), &out));
  assembler.Feed(out);
  ASSERT_TRUE(assembler.Next(&type, &payload));
  EXPECT_EQ(type, MsgType::kStats);
  // And the watermark reply flags the degradation.
  out.clear();
  ASSERT_TRUE(session.Consume(EncodeGetWatermark(), &out));
  assembler.Feed(out);
  ASSERT_TRUE(assembler.Next(&type, &payload));
  ASSERT_EQ(type, MsgType::kWatermark);
  WatermarkInfo info;
  ASSERT_TRUE(DecodeWatermark(payload, &info));
  EXPECT_TRUE(info.degraded);
  EXPECT_EQ(info.samples_consumed, 0u);
  service.Stop();
}

// -------------------------------------------------------------- fault hook

TEST(ScriptedIoFaults, IsDeterministicAndSeedSensitive) {
  runtime::ScriptedIoFaults::Config config;
  config.seed = 42;
  config.short_write_prob = 0.3;
  config.eintr_prob = 0.2;
  const runtime::ScriptedIoFaults a(config);
  const runtime::ScriptedIoFaults b(config);
  config.seed = 43;
  const runtime::ScriptedIoFaults c(config);
  bool any_fault = false;
  bool any_divergence = false;
  for (std::uint64_t op = 0; op < 200; ++op) {
    const auto fa = a.WriteAt(op, 100);
    const auto fb = b.WriteAt(op, 100);
    EXPECT_EQ(static_cast<int>(fa.kind), static_cast<int>(fb.kind));
    EXPECT_EQ(fa.short_len, fb.short_len);
    if (fa.kind != runtime::IoFaultHook::WriteFault::Kind::kPass) {
      any_fault = true;
      if (fa.kind == runtime::IoFaultHook::WriteFault::Kind::kShort) {
        EXPECT_GE(fa.short_len, 1u);
        EXPECT_LT(fa.short_len, 100u);
      }
    }
    if (static_cast<int>(fa.kind) != static_cast<int>(c.WriteAt(op, 100).kind)) {
      any_divergence = true;
    }
  }
  EXPECT_TRUE(any_fault);
  EXPECT_TRUE(any_divergence);
  EXPECT_TRUE(a.FsyncOkAt(0));
  EXPECT_EQ(a.CrashBytesAt(0), -1);
}

// Short writes and EINTR are absorbed by the write loop: the log replays
// complete and bit-exact despite a hostile syscall layer.
TEST(ScriptedIoFaults, ShortWritesAndEintrDoNotCorruptTheLog) {
  WalDir dir("hostile");
  runtime::ScriptedIoFaults::Config fault_config;
  fault_config.seed = 7;
  fault_config.short_write_prob = 0.5;
  fault_config.eintr_prob = 0.3;
  runtime::ScriptedIoFaults faults(fault_config);
  WalConfig config;
  config.dir = dir.path;
  config.fault_hook = &faults;
  WalWriter writer;
  ASSERT_EQ(writer.Open(config), WalStatus::kOk);
  for (std::int64_t day = 1; day <= 4; ++day) {
    ASSERT_EQ(writer.AppendSamples(SmallBatch(day, 11)), WalStatus::kOk);
    ASSERT_EQ(writer.AppendClose(day), WalStatus::kOk);
  }
  writer.Abandon();
  std::uint64_t samples = 0;
  std::vector<std::int64_t> closes;
  const WalRecoverStats stats = ReadWal(
      dir.path,
      [&](std::span<const Sample> b) { samples += b.size(); },
      [&](std::int64_t day) { closes.push_back(day); });
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(samples, 44u);
  EXPECT_EQ(closes, (std::vector<std::int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(stats.truncated_bytes, 0u);
}

TEST(ScriptedIoFaults, FsyncFailureSurfacesAsIoError) {
  WalDir dir("fsync_fail");
  runtime::ScriptedIoFaults::Config fault_config;
  fault_config.fail_fsync_at = 0;
  runtime::ScriptedIoFaults faults(fault_config);
  WalConfig config;
  config.dir = dir.path;
  config.fsync = WalFsync::kEveryAppend;
  config.fault_hook = &faults;
  WalWriter writer;
  ASSERT_EQ(writer.Open(config), WalStatus::kOk);
  EXPECT_EQ(writer.AppendSamples(SmallBatch(1, 2)), WalStatus::kIoError);
}

// ------------------------------------------------------------------ codec

TEST(WalCodec, BufferReusingEncodersMatchTheAllocatingOnes) {
  const std::vector<Sample> batch = SmallBatch(2, 5);
  std::string to;
  EncodeSubmitBatchTo(batch, &to);
  EXPECT_EQ(to, EncodeSubmitBatch(batch));
  to.clear();
  EncodeFlushAckTo(1234, &to);
  EXPECT_EQ(to, EncodeFlushAck(1234));
  // Appending, not overwriting: the WAL reuses one buffer.
  std::string twice = to;
  EncodeFlushAckTo(1234, &twice);
  EXPECT_EQ(twice.size(), 2 * to.size());
}

// One kSubmitBatch frame, byte for byte: the WAL record format and the
// wire format are the same bytes, so this pins both. The samples cover a
// first key, a same-t sample with zero value bits, a key change with a
// negative delta, and -0.0f (non-zero bits, so a value follows).
TEST(WalCodec, SubmitBatchGoldenBytes) {
  std::vector<Sample> batch(4);
  batch[0].t = 259205;  // zigzag 518410: varint 8a d2 1f
  batch[0].link = 7;
  batch[0].vp = 2;
  batch[0].kind = SampleKind::kNearRtt;
  batch[0].value = 1.5f;  // 0x3FC00000
  batch[1] = batch[0];
  batch[1].kind = SampleKind::kFarMissing;
  batch[1].value = 0.0f;
  batch[2].t = -1;  // delta -259206, zigzag 518411: varint 8b d2 1f
  batch[2].link = 0x01020304;
  batch[2].vp = 9;
  batch[2].kind = SampleKind::kLossRate;
  batch[2].value = -0.25f;  // 0xBE800000
  batch[3] = batch[2];
  batch[3].t = 899;  // delta 900, zigzag 1800: varint 88 0e
  batch[3].kind = SampleKind::kNearRtt;
  batch[3].value = -0.0f;  // 0x80000000
  const std::string golden(
      "\x2d\x00\x00\x00"  // length: type + 44 payload bytes
      "\x03"              // kSubmitBatch
      "\x04\x00\x00\x00"  // count
      "\x19"              // tag: kNearRtt | key | value
      "\x07\x00\x00\x00"  // link
      "\x02\x00\x00\x00"  // vp
      "\x8a\xd2\x1f"      // t delta
      "\x00\x00\xc0\x3f"  // value
      "\x22"              // tag: kFarMissing | same t; no key, no value
      "\x1c"              // tag: kLossRate | key | value
      "\x04\x03\x02\x01"
      "\x09\x00\x00\x00"
      "\x8b\xd2\x1f"
      "\x00\x00\x80\xbe"
      "\x11"  // tag: kNearRtt | value
      "\x88\x0e"
      "\x00\x00\x00\x80",
      49);
  EXPECT_EQ(EncodeSubmitBatch(batch), golden);
  FrameView frame;
  ASSERT_EQ(ParseFrame(golden, &frame), FrameParse::kFrame);
  EXPECT_EQ(frame.type, MsgType::kSubmitBatch);
  EXPECT_EQ(frame.size, golden.size());
  std::vector<Sample> decoded;
  ASSERT_TRUE(DecodeSubmitBatch(frame.payload, &decoded));
  ASSERT_EQ(decoded.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(decoded[i].t, batch[i].t);
    EXPECT_EQ(decoded[i].link, batch[i].link);
    EXPECT_EQ(decoded[i].vp, batch[i].vp);
    EXPECT_EQ(decoded[i].kind, batch[i].kind);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(decoded[i].value),
              std::bit_cast<std::uint32_t>(batch[i].value));
  }
  // The payload must end with the last sample, and kinds stay bounded.
  std::string payload(frame.payload);
  EXPECT_FALSE(DecodeSubmitBatch(payload + '\0', &decoded));
  EXPECT_FALSE(DecodeSubmitBatch(payload.substr(0, payload.size() - 1),
                                 &decoded));
  payload[4] = '\x1d';  // kind 5
  EXPECT_FALSE(DecodeSubmitBatch(payload, &decoded));
}

// Bitwise sample equality: NaN payloads and -0.0f included.
bool SameSamples(std::span<const Sample> a, std::span<const Sample> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].t != b[i].t || a[i].link != b[i].link || a[i].vp != b[i].vp ||
        a[i].kind != b[i].kind ||
        std::bit_cast<std::uint32_t>(a[i].value) !=
            std::bit_cast<std::uint32_t>(b[i].value)) {
      return false;
    }
  }
  return true;
}

// A seeded batch drawn from every value class the record distinguishes:
// repeated, small, backwards and extreme timestamps (INT64_MIN/MAX, so
// deltas wrap), repeated and extreme keys, zero, -0.0f, NaN payloads,
// denormal and random value bits.
std::vector<Sample> ValueClassBatch(std::uint64_t seed, std::size_t count) {
  std::uint64_t rng = seed * 0x9e3779b97f4a7c15ULL + 1;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::uint32_t kValueBits[] = {
      0x00000000, 0x80000000, 0x7FC00000, 0x7FC00001, 0xFFFFFFFF,
      0x7F800000, 0x00000001, 0x3F800000};
  std::vector<Sample> batch;
  Sample prev;
  for (std::size_t i = 0; i < count; ++i) {
    Sample s = prev;
    const std::uint64_t r = next();
    // Steps wrap in uint64_t, as the decoder's sum does: prev.t may be
    // INT64_MIN or INT64_MAX.
    const auto step = [&prev](std::uint64_t delta) {
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(prev.t) +
                                       delta);
    };
    switch (r % 8) {
      case 0: break;  // same t
      case 1: s.t = step(900); break;
      case 2: s.t = step(0 - next() % 100000); break;
      case 3: s.t = kMin; break;
      case 4: s.t = kMax; break;
      case 5: s.t = 0; break;
      default: s.t = static_cast<std::int64_t>(next()); break;
    }
    switch ((r >> 3) % 6) {
      case 0:
      case 1: break;  // same key
      case 2: s.link = 0; s.vp = 0; break;
      case 3: s.link = 0xFFFFFFFF; s.vp = 0xFFFFFFFF; break;
      case 4: s.vp = static_cast<topo::VpId>(next()); break;
      default:
        s.link = static_cast<topo::LinkId>(next());
        s.vp = static_cast<topo::VpId>(next() % 30);
        break;
    }
    s.kind = static_cast<SampleKind>((r >> 6) % (kMaxSampleKind + 1));
    const std::uint64_t v = (r >> 9) % 10;
    s.value = std::bit_cast<float>(
        v < 8 ? kValueBits[v] : static_cast<std::uint32_t>(next()));
    batch.push_back(s);
    prev = s;
  }
  return batch;
}

// Any Sample sequence round-trips bit for bit, and the payload the encoder
// writes is the only spelling the decoder takes: decode then encode gives
// the same bytes.
TEST(WalCodec, SubmitBatchRoundTripsEveryValueClass) {
  std::vector<Sample> decoded;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    const std::vector<Sample> batch = ValueClassBatch(seed, seed % 64);
    const std::string frame = EncodeSubmitBatch(batch);
    FrameView view;
    ASSERT_EQ(ParseFrame(frame, &view), FrameParse::kFrame);
    ASSERT_TRUE(DecodeSubmitBatch(view.payload, &decoded));
    ASSERT_TRUE(SameSamples(decoded, batch));
    ASSERT_EQ(EncodeSubmitBatch(decoded), frame);
  }
}

// Every other spelling of a sample is rejected: each payload below would
// decode to a valid batch if the decoder were lenient.
TEST(WalCodec, SubmitBatchRejectsNonCanonicalForms) {
  const auto payload = [](std::string_view samples, std::uint32_t count = 1) {
    Encoder e;
    e.PutU32(count);
    e.PutBytes(samples);
    return e.Take();
  };
  std::vector<Sample> out;
  // Baseline: t = 1, key (1, 2), no value — accepted.
  const std::string key = std::string("\x01\x00\x00\x00\x02\x00\x00\x00", 8);
  ASSERT_TRUE(DecodeSubmitBatch(payload("\x08" + key + "\x02"), &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].t, 1);
  EXPECT_EQ(out[0].link, 1u);
  EXPECT_EQ(out[0].vp, 2u);
  // A key flag that repeats the previous key (here the initial (0, 0)).
  EXPECT_FALSE(DecodeSubmitBatch(
      payload(std::string("\x08", 1) + std::string(8, '\0') + "\x02"), &out));
  EXPECT_FALSE(DecodeSubmitBatch(
      payload("\x08" + key + "\x02" + "\x08" + key + "\x02", 2), &out));
  // A zero delta as a varint (tag, then varint 0) instead of the same-t
  // flag.
  EXPECT_FALSE(DecodeSubmitBatch(payload(std::string("\x00\x00", 2)), &out));
  // A padded varint: 1 spelled in two bytes.
  EXPECT_FALSE(DecodeSubmitBatch(payload(std::string("\x20\x00\x81\x00", 4),
                                         2),
                                 &out));
  EXPECT_TRUE(DecodeSubmitBatch(payload(std::string("\x20\x00\x02", 3), 2),
                                &out));
  // A value flag on zero bits.
  EXPECT_FALSE(DecodeSubmitBatch(
      payload(std::string("\x30\x00\x00\x00\x00", 5)), &out));
  EXPECT_TRUE(DecodeSubmitBatch(
      payload(std::string("\x30\x00\x00\x00\x80", 5)), &out));
  // Unused tag bits, and kinds past kMaxSampleKind.
  EXPECT_FALSE(DecodeSubmitBatch(payload("\x60"), &out));
  EXPECT_FALSE(DecodeSubmitBatch(payload("\xa0"), &out));
  for (const char kind : {'\x25', '\x26', '\x27'}) {
    EXPECT_FALSE(DecodeSubmitBatch(payload(std::string(1, kind)), &out));
  }
  EXPECT_TRUE(DecodeSubmitBatch(payload("\x24"), &out));
  // Varints (after a bare tag): ten bytes carry bit 63 and no more; an
  // eleventh never comes.
  const std::string tag_nine_ff = std::string(1, '\0') + std::string(9, '\xff');
  EXPECT_TRUE(DecodeSubmitBatch(payload(tag_nine_ff + "\x01"), &out));
  // zigzag 2^64 - 1 is the delta -2^63
  EXPECT_EQ(out[0].t, std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(DecodeSubmitBatch(payload(tag_nine_ff + "\x02"), &out));
  EXPECT_FALSE(DecodeSubmitBatch(payload(tag_nine_ff + "\x81\x00"), &out));
  EXPECT_FALSE(DecodeSubmitBatch(payload(tag_nine_ff), &out));
  // A count the payload cannot hold, and a count it holds more than.
  EXPECT_FALSE(DecodeSubmitBatch(payload("\x20\x20", 3), &out));
  EXPECT_FALSE(DecodeSubmitBatch(payload("\x20\x20", 1), &out));
  EXPECT_FALSE(DecodeSubmitBatch(payload("", 0xFFFFFFFF), &out));
}

// The decoder is a trust boundary: every prefix of a frame's payload and
// every single-byte change to it is decoded without a crash (UBSan runs
// this), and whatever it accepts re-encodes to exactly the bytes given.
TEST(WalCodec, SubmitBatchDecoderSurvivesCutsAndFlips) {
  std::vector<Sample> batch = ValueClassBatch(7, 24);
  batch.push_back(MakeSample(3, 5, 12));
  const std::string frame = EncodeSubmitBatch(batch);
  const std::string payload = frame.substr(5);
  std::vector<Sample> decoded;
  std::size_t accepted = 0;
  const auto check = [&](const std::string& bytes) {
    if (!DecodeSubmitBatch(bytes, &decoded)) return;
    ++accepted;
    ASSERT_EQ(EncodeSubmitBatch(decoded).substr(5), bytes);
  };
  for (std::size_t cut = 0; cut <= payload.size(); ++cut) {
    check(payload.substr(0, cut));
  }
  for (std::size_t at = 0; at < payload.size(); ++at) {
    std::string flipped = payload;
    for (int v = 0; v < 256; ++v) {
      if (static_cast<char>(v) == payload[at]) continue;
      flipped[at] = static_cast<char>(v);
      check(flipped);
    }
  }
  // The whole payload, and a few flips that stay canonical, are taken.
  EXPECT_GT(accepted, 1u);
}

// A study-shaped batch: one VP-link pair-day of 96 fifteen-minute bins, a
// far and a near RTT each, as perfbench and the continental study submit.
std::vector<Sample> StudyPairDay(std::int64_t day, topo::LinkId link,
                                 topo::VpId vp) {
  std::vector<Sample> batch;
  for (int bin = 0; bin < 96; ++bin) {
    Sample far;
    far.t = day * stats::kSecPerDay + bin * 900 + 450;
    far.link = link;
    far.vp = vp;
    far.kind = SampleKind::kFarRtt;
    far.value = 20.0f + 0.37f * static_cast<float>((bin * 7 + vp) % 11);
    Sample near = far;
    near.kind = SampleKind::kNearRtt;
    near.value = 0.5f * far.value + 0.01f;
    batch.push_back(far);
    batch.push_back(near);
  }
  return batch;
}

// The record's point: a pair-day batch repeats its key and steps t by one
// bin in far/near pairs, so it costs about 6 bytes a sample (21 in v1).
TEST(WalCodec, StudyBatchEncodesUnderSixAndAHalfBytesASample) {
  const std::vector<Sample> batch = StudyPairDay(600, 4242, 17);
  ASSERT_EQ(batch.size(), 192u);
  const std::size_t bytes = EncodeSubmitBatch(batch).size();
  EXPECT_LE(static_cast<double>(bytes) / 192.0, 6.5) << bytes << " bytes";
}

// The byte-denominated cadences follow the record format, so they stay the
// same per sample: the default segment holds as many study batches as
// 64 MiB of fixed-width v1 records did (the checkpoint cadence and the
// restart bound), and a study day of 154 pair-day batches still gets two
// writeback hints before its close.
TEST(WalCodec, SegmentAndWritebackCadenceStayPerSample) {
  const std::vector<Sample> batch = StudyPairDay(600, 4242, 17);
  constexpr std::size_t kV1BatchBytes = 5 + 4 + 21 * 192;
  const double v1_batches = static_cast<double>(std::size_t{64} << 20) /
                            static_cast<double>(kV1BatchBytes);
  const double batches = static_cast<double>(kWalDefaultSegmentBytes) /
                         static_cast<double>(EncodeSubmitBatch(batch).size());
  EXPECT_NEAR(batches / v1_batches, 1.0, 0.02);
  EXPECT_EQ(WalConfig{}.segment_bytes, kWalDefaultSegmentBytes);
  EXPECT_EQ(ServiceConfig{}.wal_segment_bytes, kWalDefaultSegmentBytes);

  WalDir dir("study_day_hints");
  WalConfig config;
  config.dir = dir.path;
  config.fsync = WalFsync::kDayClose;
  WalWriter writer;
  ASSERT_EQ(writer.Open(config), WalStatus::kOk);
  for (std::int64_t day = 600; day < 602; ++day) {
    for (int pair = 0; pair < 154; ++pair) {
      ASSERT_EQ(writer.AppendSamples(StudyPairDay(
                    day, static_cast<topo::LinkId>(100 + pair / 3),
                    static_cast<topo::VpId>(1 + pair % 3))),
                WalStatus::kOk);
    }
    ASSERT_EQ(writer.AppendClose(day), WalStatus::kOk);
    EXPECT_EQ(writer.writeback_hints(),
              2u * static_cast<std::uint64_t>(day - 599));
  }
  ASSERT_EQ(writer.CloseClean(), WalStatus::kOk);
}

// ParseFrame judges the length as soon as it is present and the type byte
// only once the frame is whole: a cut frame is kNeedMore whatever its type
// byte, which is what lets WAL recovery treat it as a torn tail.
TEST(WalCodec, ParseFrameJudgesLengthFirstAndTypeLast) {
  const std::string frame = EncodeFlushAck(42);
  FrameView view;
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_EQ(ParseFrame(std::string_view(frame).substr(0, cut), &view),
              FrameParse::kNeedMore)
        << "cut " << cut;
  }
  ASSERT_EQ(ParseFrame(frame + "tail", &view), FrameParse::kFrame);
  EXPECT_EQ(view.size, frame.size());
  EXPECT_EQ(view.type, MsgType::kFlushAck);
  std::string foreign = frame;
  foreign[4] = '\x63';  // not a message type
  EXPECT_EQ(ParseFrame(foreign.substr(0, 6), &view), FrameParse::kNeedMore);
  EXPECT_EQ(ParseFrame(foreign, &view), FrameParse::kCorrupt);
  const std::string zero("\0\0\0\0", 4);
  EXPECT_EQ(ParseFrame(zero, &view), FrameParse::kCorrupt);
  const std::string oversized("\x02\x00\x40\x00", 4);  // kMaxFramePayload + 2
  EXPECT_EQ(ParseFrame(oversized, &view), FrameParse::kCorrupt);
}

TEST(WalCodec, WatermarkRoundTripsAndRejectsJunk) {
  WatermarkInfo info;
  info.samples_consumed = 987654321;
  info.watermark_t = 123456789;
  info.last_closed_day = -42;
  info.degraded = true;
  info.saw_sample = true;
  const std::string frame = EncodeWatermark(info);
  FrameAssembler assembler;
  assembler.Feed(frame);
  MsgType type;
  std::string payload;
  ASSERT_TRUE(assembler.Next(&type, &payload));
  ASSERT_EQ(type, MsgType::kWatermark);
  WatermarkInfo decoded;
  ASSERT_TRUE(DecodeWatermark(payload, &decoded));
  EXPECT_EQ(decoded, info);
  // Short payloads and reserved flag bits are malformations.
  EXPECT_FALSE(DecodeWatermark(payload.substr(0, payload.size() - 1),
                               &decoded));
  std::string bad = payload;
  bad.back() = char(0x7F);
  EXPECT_FALSE(DecodeWatermark(bad, &decoded));
}

// ------------------------------------------------------------- replay tool

TEST(ReplayTornTail, TruncatedFinalFrameIsSkippedNotFatal) {
  const std::string path = ::testing::TempDir() + "/manic_wal_replay.bin";
  const std::vector<Sample> batch = SmallBatch(1, 4);
  {
    std::ofstream out(path, std::ios::binary);
    const std::string frame = EncodeSubmitBatch(batch);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    out.write(frame.data(), 9);  // torn second frame: header + 4 bytes
  }
  ServiceConfig config;
  config.engine.autocorr = SmallConfig();
  CongestionService service(config);
  service.Start();
  const ReplayStats stats = ReplayFile(&service, path);
  EXPECT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.frames, 1u);
  EXPECT_EQ(stats.samples, batch.size());
  EXPECT_EQ(stats.truncated_tail_bytes, 9u);
  service.Stop();
  std::remove(path.c_str());
}

// ------------------------------------------------------------ checkpoints

// Every file under dir with its size.
std::map<std::string, std::uintmax_t> DirFiles(const std::string& dir) {
  std::map<std::string, std::uintmax_t> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files[entry.path().filename().string()] = entry.file_size();
  }
  return files;
}

// A fixed-volume stream: `vps` VPs on link 1, every pair-day 24 far and 24
// near samples (a probed-but-unanswered slot is a marker pair instead), one
// batch per pair-day.
void PairDayBatch(std::int64_t day, topo::VpId vp, std::vector<Sample>* out) {
  out->clear();
  for (int slot = 0; slot < 24; ++slot) {
    const std::uint64_t h =
        static_cast<std::uint64_t>(day * 1000 + vp * 37 + slot) * 2654435761u;
    if (h % 20 == 0) {
      out->push_back(MakeSample(day, slot, 1, vp, SampleKind::kFarMissing));
      out->push_back(MakeSample(day, slot, 1, vp, SampleKind::kNearMissing));
      continue;
    }
    Sample far = MakeSample(day, slot, 1, vp, SampleKind::kFarRtt);
    far.value += static_cast<float>(h % 7);
    out->push_back(far);
    out->push_back(MakeSample(day, slot, 1, vp, SampleKind::kNearRtt));
  }
}

// Five clean restarts of one log, checkpoints included, leave the file set
// the first one left: a clean stop's fresh, record-less segment is removed
// by the next recovery instead of piling up.
TEST(WalRecovery, CleanRestartsDoNotAccumulateSegments) {
  WalDir dir("clean_restarts");
  ServiceConfig config = WalServiceConfig(dir.path, 2);
  config.wal_segment_bytes = 4096;
  std::vector<Sample> batch;
  {
    CongestionService service(config);
    ASSERT_TRUE(service.RecoverFromWal().ok);
    for (std::int64_t day = 0; day < 12; ++day) {
      for (topo::VpId vp = 1; vp <= 3; ++vp) {
        PairDayBatch(day, vp, &batch);
        ASSERT_EQ(service.SubmitBatch(batch).accepted, batch.size());
      }
    }
    EXPECT_GT(service.checkpoint_stats().written, 0u);
    ASSERT_EQ(service.CloseWalClean(), WalStatus::kOk);
  }
  std::map<std::string, std::uintmax_t> first;
  std::string log;
  for (int cycle = 0; cycle <= 5; ++cycle) {
    CongestionService service(config);
    const WalRecoverStats stats = service.RecoverFromWal();
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_TRUE(stats.clean_shutdown);
    EXPECT_GT(stats.checkpoint_bytes, 0u);
    ASSERT_EQ(service.CloseWalClean(), WalStatus::kOk);
    if (cycle == 0) {
      first = DirFiles(dir.path);
      log = service.VerdictLogText();
      continue;
    }
    EXPECT_EQ(DirFiles(dir.path), first) << "cycle " << cycle;
    EXPECT_EQ(service.VerdictLogText(), log) << "cycle " << cycle;
  }
  EXPECT_FALSE(log.empty());
}

// The manifest header's encoding, byte for byte. Its in-memory layout is
// the same bytes on a little-endian host (static_asserts in checkpoint.h).
TEST(CheckpointFormat, HeaderGoldenBytes) {
  CheckpointHeader header;
  header.first_live_segment = 7;
  header.parts_tag = 6;
  header.parts = 2;
  header.day = -3;
  header.window_days = 50;
  header.intervals_per_day = 96;
  runtime::BlobWriter out;
  EncodeCheckpointHeader(header, out);
  const std::string golden(
      "MANICCK1"                          // magic
      "\x02\x00\x00\x00"                  // version
      "\x07\x00\x00\x00"                  // first_live_segment
      "\x06\x00\x00\x00"                  // parts_tag
      "\x02\x00\x00\x00"                  // parts
      "\xfd\xff\xff\xff\xff\xff\xff\xff"  // day
      "\x32\x00\x00\x00"                  // window_days
      "\x60\x00\x00\x00",                 // intervals_per_day
      CheckpointHeader::kEncodedSize);
  EXPECT_EQ(out.str(), golden);
  if constexpr (std::endian::native == std::endian::little) {
    EXPECT_EQ(std::memcmp(&header, golden.data(), golden.size()), 0);
  }
  CheckpointHeader back;
  ASSERT_TRUE(DecodeCheckpointHeader(golden, &back));
  EXPECT_EQ(back.first_live_segment, 7u);
  EXPECT_EQ(back.parts_tag, 6u);
  EXPECT_EQ(back.parts, 2u);
  EXPECT_EQ(back.day, -3);
  EXPECT_EQ(back.window_days, 50u);
  EXPECT_EQ(back.intervals_per_day, 96u);
  std::string foreign = golden;
  foreign[0] = 'X';
  EXPECT_FALSE(DecodeCheckpointHeader(foreign, &back));
  std::string future = golden;
  future[8] = '\x03';  // an unknown version
  EXPECT_FALSE(DecodeCheckpointHeader(future, &back));
  EXPECT_EQ(back.version, 3u);
  std::string v1 = golden;
  v1[8] = '\x01';  // pair records with a raw section
  EXPECT_FALSE(DecodeCheckpointHeader(v1, &back));
  EXPECT_FALSE(DecodeCheckpointHeader(golden.substr(1), &back));
}

// Stray files of a checkpoint that never committed are ignored and removed;
// a committed checkpoint that is damaged fails recovery and removes nothing
// (the segments it covers are gone, so guessing would lose data).
TEST(ServiceCheckpoint, UncommittedIsIgnoredAndDamagedFailsRecovery) {
  WalDir dir("ckpt_damage");
  ServiceConfig config = WalServiceConfig(dir.path, 2);
  config.wal_segment_bytes = 4096;
  std::vector<Sample> batch;
  std::string want;
  {
    CongestionService service(config);
    ASSERT_TRUE(service.RecoverFromWal().ok);
    for (std::int64_t day = 0; day < 12; ++day) {
      for (topo::VpId vp = 1; vp <= 3; ++vp) {
        PairDayBatch(day, vp, &batch);
        ASSERT_EQ(service.SubmitBatch(batch).accepted, batch.size());
      }
    }
    ASSERT_GT(service.checkpoint_stats().written, 0u);
    EXPECT_GT(service.checkpoint_stats().retired_segments, 0u);
    want = service.VerdictLogText();
    service.Stop();  // a crash: no clean marker
  }
  const std::uint32_t committed = NewestCheckpoint(dir.path);
  ASSERT_GT(committed, 0u);
  for (const char* stray :
       {"ckpt-999999.tmp", "ckpt-999999.part-0", "ckpt-999998.part-1"}) {
    std::ofstream(dir.path + "/" + stray) << "torn";
  }
  {
    CongestionService service(config);
    const WalRecoverStats stats = service.RecoverFromWal();
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_GT(stats.checkpoint_bytes, 0u);
    EXPECT_EQ(service.VerdictLogText(), want);
    for (const auto& [name, size] : DirFiles(dir.path)) {
      EXPECT_EQ(name.find("99999"), std::string::npos) << name;
    }
    service.Stop();
  }
  // Flip one byte of the committed manifest's magic.
  const std::string manifest = CheckpointPath(dir.path, committed);
  {
    std::fstream f(manifest, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.put('X');
  }
  const std::map<std::string, std::uintmax_t> before = DirFiles(dir.path);
  CongestionService service(config);
  const WalRecoverStats stats = service.RecoverFromWal();
  EXPECT_FALSE(stats.ok);
  EXPECT_NE(stats.error.find("checkpoint"), std::string::npos) << stats.error;
  EXPECT_EQ(DirFiles(dir.path), before);
}

// A version-1 checkpoint (its pair records carried raw series) is refused:
// recovery fails naming both versions and leaves every file as it was, since
// the segments the checkpoint covers are gone.
TEST(ServiceCheckpoint, Version1CheckpointIsRefused) {
  WalDir dir("ckpt_v1");
  ServiceConfig config = WalServiceConfig(dir.path, 2);
  config.wal_segment_bytes = 4096;
  {
    CongestionService service(config);
    ASSERT_TRUE(service.RecoverFromWal().ok);
    std::vector<Sample> batch;
    for (std::int64_t day = 0; day < 12; ++day) {
      for (topo::VpId vp = 1; vp <= 3; ++vp) {
        PairDayBatch(day, vp, &batch);
        ASSERT_EQ(service.SubmitBatch(batch).accepted, batch.size());
      }
    }
    ASSERT_GT(service.checkpoint_stats().written, 0u);
    service.Stop();
  }
  const std::uint32_t committed = NewestCheckpoint(dir.path);
  ASSERT_GT(committed, 0u);
  {
    // The header's version field: bytes 8-11, little-endian.
    std::fstream f(CheckpointPath(dir.path, committed),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    f.write("\x01\x00\x00\x00", 4);
  }
  const std::map<std::string, std::uintmax_t> before = DirFiles(dir.path);
  CongestionService service(config);
  const WalRecoverStats stats = service.RecoverFromWal();
  EXPECT_FALSE(stats.ok);
  EXPECT_NE(stats.error.find("version 1"), std::string::npos) << stats.error;
  EXPECT_NE(stats.error.find("version 2"), std::string::npos) << stats.error;
  EXPECT_EQ(DirFiles(dir.path), before);
}

// Restart work stays flat with uptime, checked as counts: after 720
// streamed days, what a restart replays, the log plus checkpoint part bytes
// on disk, and the part bytes alone (the pair state a restart loads) are
// within 10% of their 60-day values. The manifest grows by exactly 36 bytes
// per extra verdict row: the verdict history is kept whole.
// Every day is the same volume, so once the first checkpoint rolls the log
// the work between checkpoints repeats with a fixed period; the segment
// size makes that period 11 days, which divides 720 - 60, so both restarts
// land at the same point of it.
TEST(ServiceCheckpoint, RestartWorkIsFlatFrom60To720Days) {
  constexpr topo::VpId kVps = 16;
  // The WAL bytes of one steady day: its first batch split by the sample
  // that closes the day before (one record, then the close marker, then
  // the batch's other 47 samples), and the other pairs' batches.
  std::vector<Sample> batch;
  PairDayBatch(1, 1, &batch);
  std::string frame;
  const auto frame_bytes = [&](std::size_t n) {
    frame.clear();
    EncodeSubmitBatchTo(std::span<const Sample>(batch.data(), n), &frame);
    return frame.size();
  };
  frame.clear();
  EncodeFlushAckTo(1, &frame);
  const std::size_t marker = frame.size();
  const std::size_t day_bytes = frame_bytes(1) + marker +
                                frame_bytes(batch.size() - 1) +
                                (kVps - 1) * frame_bytes(batch.size());
  struct Restart {
    std::uint64_t replayed = 0;
    std::uint64_t disk = 0;  // log and parts
    std::uint64_t part_bytes = 0;
    std::uint64_t manifest_bytes = 0;
    std::uint64_t verdicts = 0;
    std::uint64_t checkpoints = 0;
  };
  const auto run = [&](const char* tag, std::int64_t days) {
    WalDir dir(tag);
    ServiceConfig config = WalServiceConfig(dir.path);
    // Rolled at a close, a segment fills in the middle of the 11th day
    // after; the close that ends it checkpoints and rolls again.
    config.wal_segment_bytes = day_bytes * 21 / 2;
    Restart r;
    {
      CongestionService service(config);
      EXPECT_TRUE(service.RecoverFromWal().ok);
      for (std::int64_t day = 0; day < days; ++day) {
        for (topo::VpId vp = 1; vp <= kVps; ++vp) {
          PairDayBatch(day, vp, &batch);
          EXPECT_EQ(service.SubmitBatch(batch).accepted, batch.size());
        }
      }
      r.checkpoints = service.checkpoint_stats().written;
      service.Stop();  // a crash: the restart replays the tail
    }
    // Each commit retires the checkpoint before it, so every checkpoint
    // file on disk is the newest checkpoint's.
    for (const auto& [name, bytes] : DirFiles(dir.path)) {
      if (name.rfind("ckpt-", 0) != 0) {
        r.disk += bytes;
      } else if (name.find(".part-") != std::string::npos) {
        r.disk += bytes;
        r.part_bytes += bytes;
      } else {
        r.manifest_bytes += bytes;
      }
    }
    CongestionService restarted(config);
    const WalRecoverStats stats = restarted.RecoverFromWal();
    EXPECT_TRUE(stats.ok) << stats.error;
    restarted.Stop();
    r.replayed = stats.samples;
    r.verdicts = restarted.Stats().verdicts;
    return r;
  };
  const Restart short_run = run("flat60", 60);
  const Restart long_run = run("flat720", 720);
  ASSERT_GT(short_run.checkpoints, 2u);
  EXPECT_GT(long_run.checkpoints, 60u);
  const auto within_10pct = [](std::uint64_t got, std::uint64_t base) {
    return static_cast<double>(got) <= 1.1 * static_cast<double>(base) &&
           static_cast<double>(got) >= 0.9 * static_cast<double>(base);
  };
  EXPECT_GT(short_run.replayed, 0u);
  EXPECT_TRUE(within_10pct(long_run.replayed, short_run.replayed))
      << long_run.replayed << " vs " << short_run.replayed;
  EXPECT_TRUE(within_10pct(long_run.disk, short_run.disk))
      << long_run.disk << " vs " << short_run.disk;
  EXPECT_GT(short_run.part_bytes, 0u);
  EXPECT_TRUE(within_10pct(long_run.part_bytes, short_run.part_bytes))
      << long_run.part_bytes << " vs " << short_run.part_bytes;
  // Both restarts sit at the same point of the checkpoint period, so the
  // rows the manifest gained are the rows the service gained.
  EXPECT_GT(long_run.verdicts, short_run.verdicts);
  EXPECT_EQ(long_run.manifest_bytes - short_run.manifest_bytes,
            36 * (long_run.verdicts - short_run.verdicts));
}

// Feeds days [from, to) of the PairDayBatch stream, VPs 1..vps.
void FeedDays(CongestionService& service, std::int64_t from, std::int64_t to,
              topo::VpId vps) {
  std::vector<Sample> batch;
  for (std::int64_t day = from; day < to; ++day) {
    for (topo::VpId vp = 1; vp <= vps; ++vp) {
      PairDayBatch(day, vp, &batch);
      ASSERT_EQ(service.SubmitBatch(batch).accepted, batch.size());
    }
  }
}

// What a client can observe of a service, taken after Stop so every
// published sample has reached the raw store.
struct Observed {
  std::string log;
  ServiceStats stats;
  WatermarkInfo watermark;
  friend bool operator==(const Observed&, const Observed&) = default;
};

Observed Observe(CongestionService& service) {
  service.Stop();
  return {service.VerdictLogText(), service.Stats(), service.Watermark()};
}

// A full replay of days [0, days) of the stream: a log at the default
// segment size never checkpoints, so its restart replays every record.
Observed FullReplay(const char* tag, std::int64_t days, topo::VpId vps,
                    int shards) {
  WalDir dir(tag);
  const ServiceConfig config = WalServiceConfig(dir.path, shards);
  {
    CongestionService service(config);
    EXPECT_TRUE(service.RecoverFromWal().ok);
    FeedDays(service, 0, days, vps);
    EXPECT_EQ(service.checkpoint_stats().written, 0u);
    service.Stop();  // a crash
  }
  CongestionService restarted(config);
  const WalRecoverStats stats = restarted.RecoverFromWal();
  EXPECT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.checkpoint_bytes, 0u);
  return Observe(restarted);
}

// A wal_dir spelled with a trailing slash names its files "dir//ckpt-N"
// while the directory listing says "dir/ckpt-N": retirement must still
// keep the checkpoint it just committed, and each restart the one it
// loaded, or the next restart silently replays only the tail.
TEST(ServiceCheckpoint, TrailingSlashWalDirKeepsItsCheckpoint) {
  constexpr std::int64_t kDays = 14;
  const Observed want = FullReplay("slash_ref", kDays, 3, 2);
  WalDir dir("slash");
  ServiceConfig config = WalServiceConfig(dir.path + "/", 2);
  config.wal_segment_bytes = 4096;
  {
    CongestionService service(config);
    ASSERT_TRUE(service.RecoverFromWal().ok);
    FeedDays(service, 0, kDays, 3);
    ASSERT_GT(service.checkpoint_stats().written, 0u);
    EXPECT_GT(service.checkpoint_stats().retired_segments, 0u);
    ASSERT_GT(NewestCheckpoint(dir.path), 0u);
    service.Stop();  // a crash
  }
  for (int restart = 0; restart < 2; ++restart) {
    CongestionService service(config);
    const WalRecoverStats stats = service.RecoverFromWal();
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_GT(stats.checkpoint_bytes, 0u) << "restart " << restart;
    EXPECT_GT(NewestCheckpoint(dir.path), 0u) << "restart " << restart;
    EXPECT_TRUE(Observe(service) == want) << "restart " << restart;
  }
}

// Faults checkpoint files alone — a disk with room for the log's small
// appends but not for a checkpoint. Each checkpoint file's write ops from
// `enospc_from` on fail with ENOSPC, and its sync op `fail_sync` fails.
class CheckpointFaults final : public runtime::IoFaultHook {
 public:
  CheckpointFaults(std::uint64_t enospc_from, std::int64_t fail_sync)
      : enospc_from_(enospc_from), fail_sync_(fail_sync) {}
  WriteFault CheckpointWriteAt(std::uint64_t op,
                               std::size_t /*len*/) const override {
    WriteFault fault;
    if (op >= enospc_from_) fault.kind = WriteFault::Kind::kEnospc;
    return fault;
  }
  bool CheckpointFsyncOkAt(std::uint64_t op) const override {
    return static_cast<std::int64_t>(op) != fail_sync_;
  }

 private:
  std::uint64_t enospc_from_ = 0;
  std::int64_t fail_sync_ = -1;
};

std::size_t CountFiles(const std::string& dir, const std::string& prefix) {
  std::size_t n = 0;
  for (const auto& [name, size] : DirFiles(dir)) {
    if (name.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

// A checkpoint that fails before it is durable is dropped whole: the log
// keeps every segment, no checkpoint file is left for recovery to trust,
// ingest goes on acknowledging, and the next attempt waits for the next
// segment rotation instead of rewriting the checkpoint at every close.
// One shard holds the three pairs, so its part takes write ops 0-5 and a
// manifest's seventh write is its first failure in the second case; the
// third fails only a manifest's directory sync, after its rename.
TEST(ServiceCheckpoint, FailedCheckpointIsDroppedUntilTheNextRotation) {
  constexpr std::int64_t kDays = 24;
  const Observed want = FullReplay("ckpt_fail_ref", kDays, 3, 1);
  const struct {
    const char* what = nullptr;
    std::uint64_t enospc_from = 0;
    std::int64_t fail_sync = -1;
  } cases[] = {
      {"part write", 0, -1},
      {"manifest write", 6, -1},
      {"manifest directory sync", ~std::uint64_t{0}, 1},
  };
  for (const auto& c : cases) {
    WalDir dir("ckpt_fail");
    CheckpointFaults faults(c.enospc_from, c.fail_sync);
    ServiceConfig config = WalServiceConfig(dir.path, 1);
    config.wal_fsync = WalFsync::kDayClose;  // checkpoint syncs run
    // 8 KiB of fixed-width v1 records, scaled as kWalDefaultSegmentBytes
    // is: the same eight pair-day batches a segment.
    config.wal_segment_bytes = 8192 * 2 / 7;
    config.wal_fault_hook = &faults;
    {
      CongestionService service(config);
      ASSERT_TRUE(service.RecoverFromWal().ok);
      FeedDays(service, 0, kDays, 3);
      EXPECT_FALSE(service.degraded()) << c.what;
      const CheckpointStats& ckpt = service.checkpoint_stats();
      EXPECT_EQ(ckpt.written, 0u) << c.what;
      EXPECT_EQ(ckpt.retired_segments, 0u) << c.what;
      // One attempt per rotation at most; retrying at every close would
      // make about 20.
      const std::size_t segments = CountFiles(dir.path, "wal-");
      EXPECT_GE(ckpt.abandoned, 3u) << c.what;
      EXPECT_LT(ckpt.abandoned, segments) << c.what;
      EXPECT_EQ(CountFiles(dir.path, "ckpt-"), 0u) << c.what;
      service.Stop();  // a crash
    }
    CongestionService restarted(config);
    const WalRecoverStats stats = restarted.RecoverFromWal();
    ASSERT_TRUE(stats.ok) << c.what << ": " << stats.error;
    EXPECT_EQ(stats.checkpoint_bytes, 0u) << c.what;
    EXPECT_TRUE(Observe(restarted) == want) << c.what;
  }
}

// Short writes and EINTR reach checkpoint writes through the hook — the
// shard workers' part files and the producer's manifest alike — and syncs
// through its checkpoint sync seam; the write loop absorbs them, so
// checkpoints still commit and restarts match a full replay.
class ChoppyCheckpoints final : public runtime::IoFaultHook {
 public:
  WriteFault CheckpointWriteAt(std::uint64_t op,
                               std::size_t len) const override {
    writes.fetch_add(1, std::memory_order_relaxed);
    if (std::this_thread::get_id() != producer) {
      shard_writes.fetch_add(1, std::memory_order_relaxed);
    }
    WriteFault fault;
    if (op % 3 == 0) {
      fault.kind = WriteFault::Kind::kEintr;
    } else {
      fault.kind = WriteFault::Kind::kShort;
      fault.short_len = len / 2 + 1;
    }
    return fault;
  }
  bool CheckpointFsyncOkAt(std::uint64_t /*op*/) const override {
    syncs.fetch_add(1, std::memory_order_relaxed);
    if (std::this_thread::get_id() != producer) {
      shard_syncs.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }
  const std::thread::id producer = std::this_thread::get_id();
  // Read after the service stops (its threads joined), so relaxed
  // counters suffice.
  alignas(64) mutable std::atomic<std::uint64_t> writes{0};
  alignas(64) mutable std::atomic<std::uint64_t> shard_writes{0};
  alignas(64) mutable std::atomic<std::uint64_t> syncs{0};
  alignas(64) mutable std::atomic<std::uint64_t> shard_syncs{0};
};

TEST(ServiceCheckpoint, ShortWritesAndEintrStillCommit) {
  constexpr std::int64_t kDays = 14;
  const Observed want = FullReplay("choppy_ref", kDays, 3, 2);
  WalDir dir("choppy");
  ChoppyCheckpoints faults;
  ServiceConfig config = WalServiceConfig(dir.path, 2);
  config.wal_fsync = WalFsync::kDayClose;
  config.wal_segment_bytes = 4096;
  config.wal_fault_hook = &faults;
  {
    CongestionService service(config);
    ASSERT_TRUE(service.RecoverFromWal().ok);
    FeedDays(service, 0, kDays, 3);
    EXPECT_GT(service.checkpoint_stats().written, 0u);
    EXPECT_EQ(service.checkpoint_stats().abandoned, 0u);
    service.Stop();  // a crash
  }
  const auto count = [](const std::atomic<std::uint64_t>& n) {
    return n.load(std::memory_order_relaxed);
  };
  EXPECT_GT(count(faults.shard_writes), 0u);
  EXPECT_GT(count(faults.writes), count(faults.shard_writes));
  EXPECT_GT(count(faults.shard_syncs), 0u);
  EXPECT_GT(count(faults.syncs), count(faults.shard_syncs));
  CongestionService restarted(config);
  const WalRecoverStats stats = restarted.RecoverFromWal();
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_GT(stats.checkpoint_bytes, 0u);
  EXPECT_TRUE(Observe(restarted) == want);
}


// ------------------------------------------------------------ run admission

// SHA-256 (FIPS 180-4) of `data` as lowercase hex: the WAL golden pins
// segment bytes the way tests/golden/serve_verdicts.sha256 pins a log.
std::string Sha256Hex(std::string_view data) {
  static constexpr std::uint32_t kRound[64] = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::string msg(data);
  const std::uint64_t bits = std::uint64_t{data.size()} * 8;
  msg.push_back(static_cast<char>(0x80));
  while (msg.size() % 64 != 56) msg.push_back('\0');
  for (int i = 7; i >= 0; --i) msg.push_back(static_cast<char>(bits >> (8 * i)));
  for (std::size_t block = 0; block < msg.size(); block += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = 0;
      for (int b = 0; b < 4; ++b) {
        w[i] = (w[i] << 8) |
               static_cast<unsigned char>(msg[block + 4 * static_cast<std::size_t>(i) + b]);
      }
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                               std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                               std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t v[8];
    std::copy(h, h + 8, v);
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t e = v[4], a = v[0];
      const std::uint32_t t1 = v[7] +
                               (std::rotr(e, 6) ^ std::rotr(e, 11) ^
                                std::rotr(e, 25)) +
                               ((e & v[5]) ^ (~e & v[6])) + kRound[i] + w[i];
      const std::uint32_t t2 =
          (std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22)) +
          ((a & v[1]) ^ (a & v[2]) ^ (v[1] & v[2]));
      std::copy_backward(v, v + 7, v + 8);
      v[4] += t1;
      v[0] = t1 + t2;
    }
    for (int i = 0; i < 8; ++i) h[i] += v[i];
  }
  std::string hex;
  for (const std::uint32_t word : h) {
    char buf[9];
    std::snprintf(buf, sizeof buf, "%08x", word);
    hex += buf;
  }
  return hex;
}

// The admission tests' day jump: short, so far-future samples are cheap.
constexpr std::int64_t kAdmissionJump = 4;

// A seeded hostile stream over days [0, days): each day, every (link, vp)
// pair's hourly far and near samples as one key run, starting again at the
// day's first hour (behind the watermark, still in the open day). From day
// 1 on, about one sample in 48 is preceded by a hostile one: late (a
// closed day, or before the epoch), out of bounds (past kMaxAbsSampleDay,
// or at the int64 limits), far-future (past the day jump), on the open
// day's first or last second, or, rarely, from the next day (it closes the
// open day early, and the rest of that day arrives late). The first sample
// is out of bounds. The generator is local, so the stream never moves.
std::vector<Sample> HostileStream(std::uint64_t seed, std::int64_t days,
                                  topo::LinkId links) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  constexpr TimeSec kDay = stats::kSecPerDay;
  std::vector<Sample> stream;
  Sample s;
  s.link = 1;
  s.vp = 1;
  s.t = (kMaxAbsSampleDay + 1) * kDay;
  stream.push_back(s);
  const auto hostile = [&](std::int64_t day, Sample h) {
    const std::int64_t pick = static_cast<std::int64_t>(next() % 9);
    const TimeSec within = static_cast<TimeSec>(next() % kDay);
    switch (pick) {
      case 0:
      case 1:  // late: one of the last three days
        h.t = (day - 1 - static_cast<std::int64_t>(next() % 3)) * kDay + within;
        break;
      case 2:  // late: before the epoch
        h.t = -(3 + static_cast<std::int64_t>(next() % 100)) * kDay + within;
        break;
      case 3:  // out of bounds, either side
        h.t = (kMaxAbsSampleDay + 1 + static_cast<std::int64_t>(next() % 1000)) *
              kDay * (next() % 2 == 0 ? 1 : -1);
        break;
      case 4:  // the int64 limits
        h.t = next() % 2 == 0
                  ? std::numeric_limits<TimeSec>::max() - within
                  : std::numeric_limits<TimeSec>::min() + within;
        break;
      case 5:  // far-future: past the jump from any open day
        h.t = (day + kAdmissionJump + 3 +
               static_cast<std::int64_t>(next() % 20)) *
                  kDay +
              within;
        break;
      case 6:  // the open day's first second
        h.t = day * kDay;
        break;
      case 7:  // the open day's last second
        h.t = (day + 1) * kDay - 1;
        break;
      default:  // rarely the next day, else behind the watermark
        h.t = next() % 6 == 0 ? (day + 1) * kDay + within : day * kDay + within;
        break;
    }
    stream.push_back(h);
  };
  for (std::int64_t day = 0; day < days; ++day) {
    for (topo::LinkId link = 1; link <= links; ++link) {
      for (topo::VpId vp = 1; vp <= 2; ++vp) {
        for (int hour = 0; hour < 24; ++hour) {
          for (const SampleKind kind :
               {SampleKind::kFarRtt, SampleKind::kNearRtt}) {
            s.t = day * kDay + hour * 3600 + static_cast<TimeSec>(next() % 3600);
            s.link = link;
            s.vp = vp;
            s.kind = kind;
            if (next() % 16 == 0) {
              s.kind = kind == SampleKind::kFarRtt ? SampleKind::kFarMissing
                                                   : SampleKind::kNearMissing;
            } else if (next() % 64 == 0) {
              s.kind = SampleKind::kLossRate;
            }
            // Links with an even id run congested in the evening.
            const bool busy = link % 2 == 0 && hour >= 18 &&
                              kind == SampleKind::kFarRtt;
            s.value = 10.0f + static_cast<float>(next() % 400) * 0.01f +
                      (busy ? 25.0f : 0.0f);
            if (day > 0 && next() % 48 == 0) hostile(day, s);
            stream.push_back(s);
          }
        }
      }
    }
  }
  return stream;
}

// How one path feeds the stream: one call per cut, each starting at its
// cut and ending at the next. `single` sends every sample through Submit
// (the cuts are then every position); otherwise each call is a SubmitBatch.
// With a clock, the clock moves to clock[p] and PollClock runs before the
// call starting at p (always a cut).
struct Plan {
  std::vector<std::size_t> cuts;
  bool single = false;
  std::map<std::size_t, TimeSec> clock;
};

Plan SinglePlan(std::size_t n) {
  Plan plan;
  plan.single = true;
  for (std::size_t i = 0; i < n; ++i) plan.cuts.push_back(i);
  return plan;
}

Plan EvenPlan(std::size_t n, std::size_t split) {
  Plan plan;
  for (std::size_t i = 0; i < n; i += split) plan.cuts.push_back(i);
  return plan;
}

// Batches of 1 to 400 samples, cut at every clock move.
Plan RandomPlan(std::size_t n, std::uint64_t seed,
                const std::map<std::size_t, TimeSec>& clock) {
  std::uint64_t x = seed * 0x2545f4914f6cdd1dULL + 7;
  std::set<std::size_t> cuts = {0};
  for (std::size_t i = 0; i < n;) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    i += 1 + (x >> 33) % 400;
    if (i < n) cuts.insert(i);
  }
  for (const auto& [at, t] : clock) cuts.insert(at);
  Plan plan;
  plan.cuts.assign(cuts.begin(), cuts.end());
  plan.clock = clock;
  return plan;
}

// A clock that moves every 300 samples to a sane sample's time plus 0-4
// hours: sometimes into the next day, so PollClock closes the open day
// before the stream leaves it.
std::map<std::size_t, TimeSec> ClockMoves(const std::vector<Sample>& stream) {
  std::map<std::size_t, TimeSec> moves;
  for (std::size_t at = 0, k = 0; at < stream.size(); at += 300, ++k) {
    std::size_t sane = at;
    while (sane < stream.size() &&
           (stream[sane].t < 0 || stats::DayOf(stream[sane].t) > 1000)) {
      ++sane;
    }
    if (sane == stream.size()) break;
    moves[at] = stream[sane].t + static_cast<TimeSec>(k % 5) * 3600;
  }
  return moves;
}

// Records the index of the next WAL write, so a test can aim a scripted
// fault at the write a given call makes. Checkpoint writes are not counted.
struct WriteOpCounter final : runtime::IoFaultHook {
  WriteFault WriteAt(std::uint64_t op, std::size_t /*len*/) const override {
    next_op = op + 1;
    return {};
  }
  WriteFault CheckpointWriteAt(std::uint64_t /*op*/,
                               std::size_t /*len*/) const override {
    return {};
  }
  mutable std::uint64_t next_op = 0;
};

// Everything a path leaves behind.
struct PathResult {
  SubmitSummary summary;
  ServiceStats stats;  // shards zeroed: runs at 1 and 4 shards compare
  WatermarkInfo watermark;
  std::string log;
  std::string wal;     // the segment's bytes
  std::string logged;  // the segment decoded: every sample and close, in order
  // With a WriteOpCounter: the next write op before and after each call.
  std::vector<std::uint64_t> ops_before, ops_after;
};

std::string Logged(const std::string& dir) {
  std::string logged;
  const WalRecoverStats stats = ReadWal(
      dir,
      [&](std::span<const Sample> batch) {
        for (const Sample& s : batch) {
          logged += "s " + std::to_string(s.t) + " " + std::to_string(s.link) +
                    " " + std::to_string(s.vp) + " " +
                    std::to_string(static_cast<int>(s.kind)) + " " +
                    std::to_string(std::bit_cast<std::uint32_t>(s.value)) +
                    "\n";
        }
      },
      [&](std::int64_t day) { logged += "c " + std::to_string(day) + "\n"; });
  EXPECT_TRUE(stats.ok) << stats.error;
  return logged;
}

// Feeds `stream` to a fresh service with a WAL under `dir` along `plan`,
// then finishes the stream and closes the WAL, as a drained daemon does.
PathResult RunPath(const std::string& dir, const std::vector<Sample>& stream,
                   const Plan& plan, int shards,
                   runtime::IoFaultHook* hook = nullptr,
                   const WriteOpCounter* counter = nullptr) {
  runtime::ManualClock clock;
  ServiceConfig config = WalServiceConfig(dir, shards);
  config.max_day_jump = kAdmissionJump;
  if (!plan.clock.empty()) config.clock = &clock;
  config.wal_fault_hook = hook;
  PathResult r;
  {
    CongestionService service(config);
    EXPECT_TRUE(service.RecoverFromWal().ok);
    for (std::size_t k = 0; k < plan.cuts.size(); ++k) {
      const std::size_t begin = plan.cuts[k];
      const std::size_t end =
          k + 1 < plan.cuts.size() ? plan.cuts[k + 1] : stream.size();
      if (const auto move = plan.clock.find(begin); move != plan.clock.end()) {
        clock.Set(move->second);
        service.PollClock();
      }
      if (counter != nullptr) r.ops_before.push_back(counter->next_op);
      if (plan.single) {
        switch (service.Submit(stream[begin])) {
          case SubmitOutcome::kAccepted:
            ++r.summary.accepted;
            break;
          case SubmitOutcome::kLate:
            ++r.summary.late;
            break;
          case SubmitOutcome::kRejected:
            ++r.summary.rejected;
            break;
          case SubmitOutcome::kShed:
            ++r.summary.shed;
            break;
        }
      } else {
        const SubmitSummary got = service.SubmitBatch(
            std::span<const Sample>(stream).subspan(begin, end - begin));
        r.summary.accepted += got.accepted;
        r.summary.late += got.late;
        r.summary.rejected += got.rejected;
        r.summary.shed += got.shed;
      }
      if (counter != nullptr) r.ops_after.push_back(counter->next_op);
    }
    (void)service.FinishStream();
    (void)service.CloseWalClean();  // kIoError once degraded
    r.stats = service.Stats();
    r.stats.shards = 0;
    r.watermark = service.Watermark();
    r.log = service.VerdictLogText();
  }
  r.wal = SegmentBytes(dir);
  r.logged = Logged(dir);
  return r;
}

// Recovers a copy of `from` into a fresh service: the third path.
PathResult Replay(const std::string& from, const std::string& dir, int shards,
                  bool with_clock) {
  fs::copy(from, dir, fs::copy_options::recursive);
  // Past every logged sample, so the clock bound rejects none of them.
  runtime::ManualClock clock(std::int64_t{1000} * stats::kSecPerDay);
  ServiceConfig config = WalServiceConfig(dir, shards);
  config.max_day_jump = kAdmissionJump;
  if (with_clock) config.clock = &clock;
  CongestionService service(config);
  const WalRecoverStats stats = service.RecoverFromWal();
  EXPECT_TRUE(stats.ok) << stats.error;
  PathResult r;
  r.stats = service.Stats();
  r.stats.shards = 0;
  r.watermark = service.Watermark();
  r.log = service.VerdictLogText();
  return r;
}

void ExpectSameSummary(const SubmitSummary& a, const SubmitSummary& b,
                       const std::string& what) {
  EXPECT_EQ(a.accepted, b.accepted) << what;
  EXPECT_EQ(a.late, b.late) << what;
  EXPECT_EQ(a.rejected, b.rejected) << what;
  EXPECT_EQ(a.shed, b.shed) << what;
}

// Two live paths over one stream: the same answers, state, verdicts and
// logged stream (the record framing follows the calls; the samples and
// closes in it do not).
void ExpectSameLive(const PathResult& a, const PathResult& b,
                    const std::string& what) {
  ExpectSameSummary(a.summary, b.summary, what);
  EXPECT_TRUE(a.stats == b.stats) << what;
  EXPECT_TRUE(a.watermark == b.watermark) << what;
  EXPECT_TRUE(a.log == b.log) << what;
  EXPECT_TRUE(a.logged == b.logged) << what;
}

// A replay rebuilds the live service's durable state. Rejected samples are
// never logged, so a replay counts none, and the last closed day is the
// last durable (published) one.
void ExpectReplayed(const PathResult& live, const PathResult& replayed,
                    const std::string& what) {
  ServiceStats want = live.stats;
  want.samples_rejected = 0;
  EXPECT_TRUE(replayed.stats == want) << what;
  EXPECT_EQ(replayed.watermark.samples_consumed,
            live.watermark.samples_consumed)
      << what;
  EXPECT_EQ(replayed.watermark.watermark_t, live.watermark.watermark_t) << what;
  EXPECT_EQ(replayed.watermark.last_closed_day, live.stats.last_closed_day)
      << what;
  EXPECT_EQ(replayed.watermark.saw_sample, live.watermark.saw_sample) << what;
  EXPECT_TRUE(replayed.log == live.log) << what;
}

TEST(ServiceAdmission, Sha256MatchesTheStandardVectors) {
  EXPECT_EQ(Sha256Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

// The WAL is the durable record and disk_mb counts its bytes: admission in
// runs must write exactly the segments per-sample admission wrote, and
// reach the same answers. The hashes and counts were recorded from
// per-sample admission, from this stream at each split; every split must
// reproduce them at 1 and at 4 shards.
TEST(ServiceAdmission, WalSegmentsMatchTheirGoldenAtOneAndFourShards) {
  const std::vector<Sample> stream = HostileStream(29, 12, 4);
  struct Golden {
    std::size_t split = 0;
    const char* sha256 = nullptr;
  };
  const Golden kGolden[] = {
      {1, "d0fd78daca788118b53f39f85daebed6971bbd89c6c873f20e78682246cf6118"},
      {16, "cb20da7be5e6f14e8d928723ef7d81aaa99ea85e33db174f9ab351597f487a06"},
      {192, "7c2fb2853ea2793e082d628c1773ec8fb9c48c74992f65f3a78b6123d922c66d"},
      {4096, "c0e2a57a554a5e59d14ee996559adca46be5e764da5cd63a3c5f4fd84fa6876e"},
  };
  for (const Golden& golden : kGolden) {
    for (const int shards : {1, 4}) {
      const std::string what = "split " + std::to_string(golden.split) +
                               ", " + std::to_string(shards) + " shards";
      WalDir dir("admission_golden");
      const PathResult r =
          RunPath(dir.path, stream, EvenPlan(stream.size(), golden.split),
                  shards);
      EXPECT_EQ(Sha256Hex(r.wal), golden.sha256) << what;
      // The outcome does not depend on the split.
      EXPECT_EQ(r.summary.accepted, 3962u) << what;
      EXPECT_EQ(r.summary.late, 702u) << what;
      EXPECT_EQ(r.summary.rejected, 27u) << what;
      EXPECT_EQ(r.summary.shed, 0u) << what;
      EXPECT_EQ(r.stats.verdicts, 22u) << what;
      EXPECT_EQ(r.stats.days_closed, 12) << what;
      EXPECT_EQ(r.watermark.samples_consumed, 4664u) << what;
      EXPECT_EQ(r.watermark.watermark_t, 1036799) << what;
      EXPECT_EQ(Sha256Hex(r.log),
                "df40def49e5b01087afca04ed590784813a83001c8506eca2264e14f22ddc20b")
          << what;
    }
  }
}

// The open window never admits what the per-sample rule rejects: with the
// clock set back behind the watermark, the clock's admission bound is
// tighter than the window's days, and a sample inside them is rejected.
TEST(ServiceAdmission, ClockCapsTheOpenWindow) {
  runtime::ManualClock clock(10 * stats::kSecPerDay + 7200);
  ServiceConfig config = WalServiceConfig("", 2);
  config.max_day_jump = kAdmissionJump;
  config.clock = &clock;
  CongestionService service(config);
  service.Start();
  const Sample first = MakeSample(10, 3, 1);
  EXPECT_EQ(service.Submit(first), SubmitOutcome::kAccepted);
  // Day 10 is the open window. The clock falls back to day 3: its bound
  // is day 7.
  clock.Set(3 * stats::kSecPerDay);
  const std::vector<Sample> behind = {MakeSample(10, 1, 1), MakeSample(10, 2, 2),
                                      MakeSample(10, 0, 3)};
  EXPECT_EQ(service.Submit(behind[0]), SubmitOutcome::kRejected);
  SubmitSummary summary = service.SubmitBatch(behind);
  EXPECT_EQ(summary.rejected, 3u);
  EXPECT_EQ(summary.accepted, 0u);
  // At day 6 the bound is day 10 again.
  clock.Set(6 * stats::kSecPerDay);
  summary = service.SubmitBatch(behind);
  EXPECT_EQ(summary.accepted, 3u);
  EXPECT_EQ(service.Stats().samples_rejected, 4u);
  EXPECT_EQ(service.Watermark().watermark_t, first.t);
}

// The three callers of admission agree on one hostile stream: SubmitBatch
// at random splits, Submit one sample at a time, and WAL replay of each
// one's log, without a clock and with a ManualClock that PollClock follows.
TEST(ServiceAdmission, BatchSingleAndReplayPathsAgree) {
  const std::vector<Sample> stream = HostileStream(31, 12, 4);
  for (const bool with_clock : {false, true}) {
    const std::map<std::size_t, TimeSec> clock =
        with_clock ? ClockMoves(stream) : std::map<std::size_t, TimeSec>{};
    Plan single = SinglePlan(stream.size());
    single.clock = clock;
    const Plan batch = RandomPlan(stream.size(), 5, clock);
    const std::string tag = with_clock ? "clock" : "stream";
    WalDir one_dir("admission_one"), batch_dir("admission_batch"),
        batch4_dir("admission_batch4"), replay_one("admission_replay_one"),
        replay_batch("admission_replay_batch");
    const PathResult one = RunPath(one_dir.path, stream, single, 1);
    const PathResult batched = RunPath(batch_dir.path, stream, batch, 1);
    const PathResult batched4 = RunPath(batch4_dir.path, stream, batch, 4);
    EXPECT_GT(one.summary.late, 10u) << tag;
    EXPECT_GT(one.summary.rejected, 10u) << tag;
    EXPECT_GT(one.stats.verdicts, 0u) << tag;
    ExpectSameLive(one, batched, tag + ": Submit vs SubmitBatch");
    ExpectSameLive(batched, batched4, tag + ": 1 vs 4 shards");
    EXPECT_TRUE(batched.wal == batched4.wal) << tag << ": 1 vs 4 shards";
    ExpectReplayed(one, Replay(one_dir.path, replay_one.path, 4, with_clock),
                   tag + ": replay of the Submit log");
    ExpectReplayed(batched,
                   Replay(batch_dir.path, replay_batch.path, 1, with_clock),
                   tag + ": replay of the SubmitBatch log");
  }
}

// The same three paths when the disk fills: ENOSPC strikes the WAL marker
// of a day that a sample closes, and the rest of that sample's batch is
// shed in the same call. The sample opens its batch, so every path has
// acknowledged the same prefix when the fault lands. The marker is a
// different write op on each path; a fault-free pass with a
// WriteOpCounter finds it.
TEST(ServiceAdmission, PathsAgreeWhenEnospcStrikesMidBatch) {
  const std::vector<Sample> stream = HostileStream(37, 12, 4);
  for (const bool with_clock : {false, true}) {
    const std::map<std::size_t, TimeSec> clock =
        with_clock ? ClockMoves(stream) : std::map<std::size_t, TimeSec>{};
    const std::string tag = with_clock ? "clock" : "stream";
    Plan single = SinglePlan(stream.size());
    single.clock = clock;
    Plan batch = RandomPlan(stream.size(), 11, clock);
    // A closing call writes its record, then the day's marker: the marker
    // is the call's second write.
    const auto marker_op = [&](const Plan& plan, std::size_t call) {
      WalDir dir("admission_enospc_probe");
      WriteOpCounter counter;
      const PathResult probe =
          RunPath(dir.path, stream, plan, 1, &counter, &counter);
      EXPECT_GE(probe.ops_after[call] - probe.ops_before[call], 2u) << tag;
      return probe.ops_before[call] + 1;
    };
    // The first sample past mid-stream that closes a day, with no clock
    // move right after it.
    std::size_t closer = stream.size() / 2;
    {
      WalDir dir("admission_enospc_probe");
      WriteOpCounter counter;
      const PathResult probe =
          RunPath(dir.path, stream, single, 1, &counter, &counter);
      while (closer < stream.size() &&
             (probe.ops_after[closer] - probe.ops_before[closer] < 2 ||
              clock.contains(closer + 1))) {
        ++closer;
      }
      ASSERT_LT(closer, stream.size()) << tag;
    }
    std::erase(batch.cuts, closer + 1);
    const auto at = std::lower_bound(batch.cuts.begin(), batch.cuts.end(),
                                     closer);
    if (at == batch.cuts.end() || *at != closer) batch.cuts.insert(at, closer);
    const std::size_t batch_call = static_cast<std::size_t>(
        std::lower_bound(batch.cuts.begin(), batch.cuts.end(), closer) -
        batch.cuts.begin());
    runtime::ScriptedIoFaults::Config one_faults, batch_faults;
    one_faults.enospc_at_op =
        static_cast<std::int64_t>(marker_op(single, closer));
    batch_faults.enospc_at_op =
        static_cast<std::int64_t>(marker_op(batch, batch_call));
    runtime::ScriptedIoFaults one_hook(one_faults), batch_hook(batch_faults);
    WalDir one_dir("admission_enospc_one"),
        batch_dir("admission_enospc_batch"),
        batch4_dir("admission_enospc_batch4"),
        replay_one("admission_enospc_replay_one"),
        replay_batch("admission_enospc_replay_batch");
    const PathResult one = RunPath(one_dir.path, stream, single, 1, &one_hook);
    const PathResult batched =
        RunPath(batch_dir.path, stream, batch, 1, &batch_hook);
    const PathResult batched4 =
        RunPath(batch4_dir.path, stream, batch, 4, &batch_hook);
    EXPECT_TRUE(one.watermark.degraded) << tag;
    EXPECT_GT(one.summary.shed, 0u) << tag;
    EXPECT_GT(one.stats.verdicts, 0u) << tag;
    ExpectSameLive(one, batched, tag + ": Submit vs SubmitBatch");
    ExpectSameLive(batched, batched4, tag + ": 1 vs 4 shards");
    EXPECT_TRUE(batched.wal == batched4.wal) << tag << ": 1 vs 4 shards";
    ExpectReplayed(one, Replay(one_dir.path, replay_one.path, 4, with_clock),
                   tag + ": replay of the Submit log");
    ExpectReplayed(batched,
                   Replay(batch_dir.path, replay_batch.path, 1, with_clock),
                   tag + ": replay of the SubmitBatch log");
  }
}

}  // namespace
}  // namespace manic::serve
