// The always-on congestion service: N ingest shards behind a single-producer
// submit path, a deterministic day-close protocol, and a thread-safe query
// plane over the closed-day verdict index.
//
// Sharding: a link's samples always route to shard (link % shards), so each
// shard holds complete per-link state and per-day verdicts merge by simple
// concatenation + sort-by-link. Because every shard closes a day on its own
// complete link set, the canonical verdict log is byte-identical at ANY
// shard count — the headline replay guarantee, gated in CI.
//
// State: a shard keeps only what verdicts read — each pair's open days and
// rolling window (serve/engine.h). Raw samples are not stored; the WAL and
// the checkpoints are the durable record. ServiceStats::raw_points is
// always 0.
//
// Admission: Submit (a run of one), SubmitBatch and WAL replay share one
// run admission. Once a sample has been seen, the open window is every
// day after the last closed one through the watermark's day, capped at
// max_day_jump past the watermark and, with a clock, past the clock's day
// (read once per call). A sample inside it can be neither late, rejected
// nor day-closing, so it costs a compare, an optional watermark bump and a
// count; the pending WAL record takes a run of them in one insert, and
// each key run (consecutive samples of one link) reaches its shard in one
// hand-off. Every other sample — a first one, a late one, one out of
// bounds, one that enters a new day — takes the per-sample rule. Live, the
// window stays empty while a watermark bump would still close days. So
// every sample gets the answer the per-sample rule gives it, and the WAL
// records and verdicts do not depend on where runs begin or end (the
// ServiceAdmission tests).
//
// Day-close triggers:
//   stream mode  a submitted sample whose timestamp enters day d+1 closes
//                day d (the watermark advanced past it);
//   live mode    PollClock() closes every day that ended before clock-now;
//   end of stream FinishStream() closes through the watermark day itself.
// All three, and WAL replay, funnel into the same CloseThrough, which runs
// at most one close in flight. On the producer it (1) waits for the
// previous close to finish, (2) pushes an in-band kCloseDay marker to every
// shard, and (3) appends the pending samples and the day's WAL marker
// without syncing it; then it hands the day to the closer thread and
// returns. The closer (4) syncs the marker when the fsync policy asks for
// it, (5) waits for every shard's acknowledgment, and (6) merges the
// deposited verdict rows and quality rows into the index under mu_.
// Publishing stores rows only; VerdictLogText renders them as text when
// asked. So the batch that closes a day is acknowledged at the cost of an
// ordinary submit (under kDayClose an ack means "written", as for every
// other batch), the shards finalize while the marker syncs, and a day's
// verdicts still publish only after its marker is durable.
//
// Failure: a day whose marker does not become durable never publishes. A
// marker write that fails (ENOSPC) degrades on the producer and sheds the
// closing batch; the closer then collects the shards' deposits for the day
// but does not publish it. A marker sync that fails never publishes the
// day either; the producer degrades at its next call, which sheds. A
// degraded service closes no more days (PollClock and FinishStream close
// nothing), so the published days end at the last durable one — no hole,
// and a restart shows the same days.
// Drain points: the producer waits for the close in flight before the next
// day's markers, before a checkpoint commit, and in FinishStream (before
// and after its closes), CloseWalClean, Stop and RecoverFromWal, and before
// it abandons the WAL.
// Read-your-writes: every query waits for the close in flight, so anything
// ordered after the producer call that closed day d sees d. A fault hook
// that queries from inside the closer's own sync does not wait for itself.
// Submit and the close hand-off are single-producer (one thread — the
// daemon event loop); queries may come from any thread.
//
// Bounded restart: the first day close after each WAL segment rotation is a
// checkpoint close (serve/checkpoint.h). Its markers ask every shard to
// write its pairs as it finalizes the day, so each part is the state
// through the marker. The producer drains a checkpoint close right after
// handing it off, then commits. Commit order: (1) the close marker is
// synced; (2) the parts and the manifest are written and synced, the
// manifest renamed into place and the directory synced — the commit; (3)
// the WAL rolls to a fresh segment; (4) the covered segments and the
// previous checkpoint are deleted. A crash at any step recovers
// byte-identically: an uncommitted checkpoint is ignored (the segments it
// would cover are all still there), and recovery deletes whatever a
// committed one covers. RecoverFromWal loads the newest committed
// checkpoint and replays the segments that remain, so a restart replays at
// most one segment plus one day whatever the uptime.
// A checkpoint that fails before step (2) completes is deleted whole and
// tried again after the next rotation, not at the next close. The cadence
// is wal_segment_bytes; there is no other knob.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <span>
#include <thread>
#include <vector>

#include "infer/data_quality.h"
#include "runtime/clock.h"
#include "runtime/thread_annotations.h"
#include "serve/codec.h"
#include "serve/engine.h"
#include "serve/ingest.h"
#include "serve/sample.h"
#include "serve/verdict.h"
#include "serve/wal.h"

namespace manic::serve {

inline constexpr std::int64_t kNoDayClosed =
    std::numeric_limits<std::int64_t>::min();

// Absolute sanity bound on a sample's day index (~2700 years either side of
// the study epoch). Wire timestamps are untrusted: without a bound, one
// frame with t near INT64_MAX would make CloseThrough walk ~1e14 days and
// overflow the int day-count casts downstream.
inline constexpr std::int64_t kMaxAbsSampleDay = 1'000'000;

// Declaration order groups by concern (admission, sharding, durability).
struct ServiceConfig {
  EngineConfig engine;
  std::size_t ring_capacity = 1 << 14;
  // Live-mode event clock for PollClock(); leave null for pure stream mode
  // (replay), where day boundaries come from sample timestamps only.
  runtime::Clock* clock = nullptr;
  // A sample may run at most this many days ahead of the stream watermark
  // (and, in live mode, the clock) before it is rejected as implausible.
  // Bounds the work one submit frame can trigger: CloseThrough advances at
  // most this many days per accepted sample.
  std::int64_t max_day_jump = 366;
  int shards = 1;
  // Crash safety: when non-empty, every consumed sample and day close is
  // appended to the write-ahead log under this directory before it is
  // acknowledged, and RecoverFromWal() replays the log on startup so the
  // post-restart verdict log is byte-identical to an uncrashed run.
  std::string wal_dir;
  // kNone also skips the checkpoint syncs (the page cache is trusted).
  WalFsync wal_fsync = WalFsync::kDayClose;
  // Segment size, and so the checkpoint cadence (see the header comment).
  std::size_t wal_segment_bytes = kWalDefaultSegmentBytes;
  // Fault-injection seam behind the WAL's file writes; null = no faults.
  runtime::IoFaultHook* wal_fault_hook = nullptr;
};

// What Submit did with one sample. kLate and kRejected samples are dropped
// and counted (ServiceStats); kRejected additionally marks a misbehaving
// producer — the session layer drops the connection. kShed is the degraded
// (WAL out of space) answer: the sample was NOT consumed, the connection
// stays up, queries keep working.
enum class [[nodiscard]] SubmitOutcome : std::uint8_t {
  kAccepted,
  kLate,      // day at or before the last closed day
  kRejected,  // timestamp outside the admission bounds
  kShed,      // degraded mode: ingest refused, resubmit after recovery
};

struct [[nodiscard]] SubmitSummary {
  std::uint64_t accepted = 0;
  std::uint64_t late = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
};

// Background work of the bounded restart, for this process. Producer
// thread.
struct CheckpointStats {
  std::uint64_t written = 0;    // checkpoints committed
  std::uint64_t abandoned = 0;  // failed before the commit (WAL kept whole)
  std::uint64_t retired_segments = 0;  // WAL segments deleted after commits
};

class CongestionService {
 public:
  explicit CongestionService(ServiceConfig config = {});
  ~CongestionService();

  CongestionService(const CongestionService&) = delete;
  CongestionService& operator=(const CongestionService&) = delete;

  void Start();
  void Stop();

  // ---- crash safety (producer thread, before serving) -----------------------
  // Loads the newest committed checkpoint under config.wal_dir (if any),
  // deletes the segments it covers, replays the remaining WAL through the
  // shards (starting them if needed), then opens a fresh segment for new
  // appends. Call once, before the daemon loop runs. A no-op success when
  // wal_dir is empty. Idempotent under crashes: dying inside recovery loses
  // nothing. The checkpoint restores at any shard count.
  WalRecoverStats RecoverFromWal();
  // Graceful-drain epilogue: flushes the un-appended tail of consumed
  // samples, fsyncs, and stamps the clean-shutdown marker. kOk when no WAL
  // is configured.
  WalStatus CloseWalClean();
  // The durable ingest watermark (kGetWatermark reply). Producer thread.
  WatermarkInfo Watermark() const;
  // True once a WAL append has failed with ENOSPC: ingest is shed, queries
  // still served. Producer thread.
  bool degraded() const noexcept { return degraded_; }
  const CheckpointStats& checkpoint_stats() const noexcept {
    return checkpoint_stats_;
  }

  // ---- ingest (single producer thread) --------------------------------------
  SubmitOutcome Submit(const Sample& s);
  SubmitSummary SubmitBatch(std::span<const Sample> samples);
  // Live mode: closes every day that ended before the configured clock's
  // now. No-op without a clock.
  void PollClock();
  // Stream mode: closes through the watermark day (the newest day any
  // submitted sample touched) and waits for the last close to publish.
  // Returns the last published day.
  std::int64_t FinishStream();

  // ---- queries (any thread) --------------------------------------------------
  std::vector<VerdictRecord> QueryRange(topo::LinkId link, TimeSec t0,
                                        TimeSec t1) const;
  // Latest verdict at or before time t for the link.
  std::optional<VerdictRecord> QueryPoint(topo::LinkId link, TimeSec t) const;
  std::optional<infer::DataQuality> QueryQuality(topo::LinkId link) const;
  ServiceStats Stats() const;
  // Samples the shard workers have taken off their rings in this process
  // (IngestShard::SamplesProcessed, summed). A diagnostic that no verdict,
  // stat or query reads: it may trail ingest by up to a quarter ring (plus
  // one key run) per shard until the next day close, checkpoint or Stop, and
  // never counts a sample still staged on a ring.
  std::uint64_t SamplesProcessed() const;
  // The canonical, append-only verdict log (FormatVerdictLine rows, days in
  // close order, links ascending within a day) — what the replay gate diffs.
  // Rendered from the stored rows on each call.
  std::string VerdictLogText() const;
  std::int64_t LastClosedDay() const;  // kNoDayClosed before the first close

  int shards() const noexcept { return static_cast<int>(shards_.size()); }

 private:
  // The days no sample can be late in, rejected from, or close by moving
  // the watermark: timestamps in [begin, begin + width). Width 0: none.
  struct Window {
    TimeSec begin = 0;
    std::uint64_t width = 0;
  };
  // The open window (see the header comment). `clock_last_day` is the
  // clock's admission bound, kMaxAbsSampleDay without a clock.
  Window OpenWindow(bool live, std::int64_t clock_last_day) const;
  // The one admission path, for Submit, SubmitBatch and WAL replay. `live`
  // distinguishes normal ingest (WAL-append every consumed sample, let a
  // watermark advance close days) from WAL replay (no re-append; closes
  // come from replayed markers only, so clock-driven closes recover
  // deterministically too). Samples inside the open window are consumed a
  // run at a time; every other sample takes SubmitOne. Sheds the rest of
  // the batch once a live service degrades.
  SubmitSummary AdmitRun(std::span<const Sample> batch, bool live);
  // Consumes a run of admitted samples: the pending WAL record takes it in
  // one insert, and each key run (consecutive samples of one link) goes to
  // its shard in one PushRun.
  void ConsumeRun(std::span<const Sample> run, bool live);
  // The WAL side of consuming a run, accepted or late: live, it joins the
  // pending record; without a WAL, or in replay, it is only counted.
  void LogConsumed(std::span<const Sample> run, bool live);
  // One sample outside the open window: a first sample, a late one, one
  // out of bounds, or one that moves the watermark into a new day (which
  // joins the pending record and its shard's ring before the close marker).
  SubmitOutcome SubmitOne(const Sample& s, bool live);
  // Moves run_accepted_ into samples_accepted_: once per Submit, SubmitBatch
  // and replayed WAL record.
  void PublishAccepted();
  // One day close as the producer hands it to the closer.
  struct CloseJob {
    std::int64_t day = 0;
    bool checkpoint = false;
    bool publish = true;             // false: the marker was not written
    const WalWriter* wal = nullptr;  // runs `sync`
    WalSyncTicket sync;              // fd -1: nothing to sync
  };
  // Where the close hand-off stands (close_mu_).
  enum class CloseState : std::uint8_t { kIdle, kHanded, kRunning, kExit };

  // Closes each day through target_day in order (see the header comment):
  // drain the previous close, markers out to the shards, WAL marker
  // written, then the day goes to the closer.
  void CloseThrough(std::int64_t target_day);
  // Producer: gives `job` to the closer, spawning it at the first close.
  void HandOffClose(CloseJob job);
  // The closer thread: sync, collect, publish, one close at a time.
  void CloserLoop();
  // Producer: waits for the close in flight, if any; false when its marker
  // sync failed. `parts` receives what a checkpoint close's shards wrote.
  bool WaitClose(std::vector<CheckpointPart>* parts = nullptr);
  // Producer: WaitClose, degrading when the marker sync failed.
  void DrainClose();
  // Producer: DrainClose if the close in flight has already finished.
  void ReapClose();
  // Producer: drains, then joins the closer.
  void StopCloser();
  // Queries: waits for the close in flight (not on the closer itself).
  void AwaitClose() const;
  bool WalLive() const noexcept {
    return wal_ != nullptr && wal_->is_open() && !degraded_ && !replaying_;
  }
  // Steps (2)-(4) of a checkpoint close (see the header comment), after the
  // day published; `parts` are what the shards wrote.
  void CommitCheckpoint(std::int64_t day, std::uint32_t parts_tag,
                        const std::vector<CheckpointPart>& parts);
  // Restores the checkpoint ckpt-<first_live> into the stopped shards and
  // the service fields. False (with *error) when it is malformed.
  bool LoadCheckpoint(std::uint32_t first_live, std::uint32_t* parts_tag,
                      std::uint64_t* bytes, std::string* error);
  // Appends the pending run of consumed samples as one WAL record.
  WalStatus FlushWalPending();
  // The ENOSPC ladder: drop the WAL, shed ingest, keep the query plane.
  // Waits for the close in flight first: the closer may be syncing.
  void EnterDegraded();

  ServiceConfig config_;
  std::vector<std::unique_ptr<IngestShard>> shards_;
  bool running_ = false;

  // Producer-thread state (no lock: Submit/FinishStream are single-producer).
  bool saw_sample_ = false;
  TimeSec watermark_t_ = 0;
  std::int64_t producer_last_closed_ = kNoDayClosed;
  std::unique_ptr<WalWriter> wal_;
  std::vector<Sample> wal_pending_;  // consumed since the last WAL record
  // The durable consumption count (the kGetWatermark contract): with a WAL,
  // advanced only when a pending run reaches the log, so it never runs
  // ahead of what a restart can recover; without one, every consumed
  // sample counts immediately.
  std::uint64_t samples_consumed_ = 0;
  bool replaying_ = false;
  bool degraded_ = false;
  // The segment open after the last checkpoint roll (or recovery): a close
  // that finds the WAL on a later segment checkpoints.
  std::uint32_t checkpoint_base_segment_ = 0;
  std::uint64_t checkpoints_attempted_ = 0;  // the crash seam's ordinal
  CheckpointStats checkpoint_stats_;
  // Accepted since the last PublishAccepted, which moves them into
  // samples_accepted_ once per call.
  std::uint64_t run_accepted_ = 0;
  // A close was handed to the closer and not yet waited for.
  bool close_handed_ = false;
  // The ingest counters share one line: the producer alone writes all
  // three, and Stats() reads them with relaxed loads and never spins on
  // them. The line keeps them apart from the producer's plain fields and
  // from the query lock.
  alignas(64) std::atomic<std::uint64_t> samples_accepted_{0};
  std::atomic<std::uint64_t> samples_late_{0};
  std::atomic<std::uint64_t> samples_rejected_{0};

  // The close hand-off (see the header comment), on its own line: the
  // closer and the queries touch it, the producer at each close.
  alignas(64) mutable runtime::Mutex close_mu_;
  mutable runtime::CondVar close_cv_;
  CloseState close_state_ GUARDED_BY(close_mu_) = CloseState::kIdle;
  CloseJob close_job_ GUARDED_BY(close_mu_);
  bool close_failed_ GUARDED_BY(close_mu_) = false;  // the last close's sync
  std::vector<CheckpointPart> close_parts_ GUARDED_BY(close_mu_);

  alignas(64) mutable runtime::Mutex mu_;
  // Per link, its verdict rows in ascending day order.
  std::map<topo::LinkId, std::vector<VerdictRecord>> index_ GUARDED_BY(mu_);
  std::map<topo::LinkId, infer::DataQuality> quality_ GUARDED_BY(mu_);
  std::uint64_t verdict_rows_ GUARDED_BY(mu_) = 0;
  std::int64_t last_closed_day_ GUARDED_BY(mu_) = kNoDayClosed;
  std::int64_t days_closed_ GUARDED_BY(mu_) = 0;

  // The closer thread, spawned at the first close and joined in Stop();
  // declared after everything it uses.
  std::thread closer_;
};

}  // namespace manic::serve
