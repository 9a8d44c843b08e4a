// One ingest shard: an SPSC ring feeding a worker thread that owns a
// ShardEngine (the inference state: each pair's open days and rolling
// window). The shard keeps no raw samples — verdicts read only the window's
// bins, and the WAL and checkpoints are the durable record. The service
// routes every sample of a link to exactly one shard (link % shards), so a
// shard always holds complete per-link state and day-close verdicts never
// need a cross-shard merge.
//
// Samples move in runs (see serve/ring.h): PushRun stages a key run (a
// pair-day batch is one) on the ring and, once a quarter ring is staged
// (4,096 samples at the default 16,384 slots, ~21 pair-day batches),
// publishes, handing everything staged to the worker with one cursor store
// and one wake; the worker drains it in one pass. The quarter-ring check
// runs once per key run, so a publish can carry up to one key run more. A
// close marker or Stop carries out whatever is staged. A per-sample
// handover parked and woke the worker for every sample, ~0.8 us
// each on a 4-vCPU Xeon host; a publish per pair-day batch still paid one
// park/wake cycle per ~2 us of engine work. A producer that finds the ring
// full publishes before it parks (publish-before-wait), or the worker
// could never free a slot. Only the points where records become visible
// depend on the run length, never their order, so every marker sees the
// same samples ahead of it at any ring capacity.
//
// Day closes ride in-band: the producer pushes a kCloseDay control marker
// after the last sample of the day, the worker finalizes the day, deposits
// the verdicts (the engine keeps the day's per-link quality rows), and
// release-publishes closed_through_. The marker goes out in the same
// publish as the samples staged ahead of it (publish-before-marker): the
// service's collector then blocks in WaitClosed, and a marker still staged
// would reach the worker only at the producer's next publish — and ring
// order means the worker folds every day-d sample before it sees day d's
// close, whichever batch boundaries the stream had. The collector is the
// service's closer thread: it waits on closed_through_ and only then reads
// the deposits — the deposit slots are plain members, made safe by the
// acquire/release pair plus the service discipline of collecting day d
// before issuing the close for day d+1 (the producer waits for the closer
// to finish d, under the service's hand-off mutex, before it pushes d+1's
// marker, so each slot is read once per close).
//
// Checkpoints ride the same way: a checkpoint close marker makes the worker
// write its pairs to a part file (serve/checkpoint.h) right after it
// finalizes the day and before it publishes closed_through_, so the part is
// exactly the stream through the marker and is complete when WaitClosed
// returns. The worker streams the part one pair record at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "runtime/io_fault.h"
#include "serve/engine.h"
#include "serve/ring.h"
#include "serve/sample.h"
#include "serve/verdict.h"

namespace manic::serve {

struct IngestShardConfig {
  EngineConfig engine;
  std::size_t ring_capacity = 1 << 14;  // rounded up to a power of two
};

// What a shard's checkpoint close wrote: its part file's size, or a failure
// (the checkpoint is then abandoned; the WAL still holds everything).
struct [[nodiscard]] CheckpointPart {
  bool ok = false;
  std::uint64_t bytes = 0;
};

// The declaration order below narrates ownership (producer lane, worker
// state, handshake lines). The alignas(64) lines keep the producer's and the
// worker's hot fields off each other's cache lines; the padding they cost is
// paid once per shard, not per sample.
class IngestShard {
 public:
  explicit IngestShard(IngestShardConfig config = {});
  ~IngestShard();

  IngestShard(const IngestShard&) = delete;
  IngestShard& operator=(const IngestShard&) = delete;

  void Start();
  // Drains the ring and joins the worker. Idempotent.
  void Stop();

  // ---- producer side (one thread) -------------------------------------------
  // Stages a run of samples; the worker sees them once a quarter ring is
  // staged at the end of a run, or at the next close marker or Stop.
  // Blocks while the ring is full, publishing first.
  void PushRun(std::span<const Sample> run);
  // A run of one.
  void PushSample(const Sample& s) { PushRun(std::span<const Sample>(&s, 1)); }
  // Schedules the finalization of `day`, published together with every
  // staged sample. The producer must push close markers in ascending day
  // order, after every sample of that day.
  void PushCloseDay(std::int64_t day);
  // PushCloseDay that also checkpoints: after finalizing `day` the worker
  // writes its pairs to `part_path`, fdatasynced when `sync`, through
  // `hook`'s checkpoint seams (null: no faults).
  void PushCheckpointDay(std::int64_t day, std::string part_path, bool sync,
                         const runtime::IoFaultHook* hook);

  // ---- collector side (the service's closer thread) ------------------------
  // Blocks until the worker has finalized `day`.
  void WaitClosed(std::int64_t day);
  // Deposits for the most recently closed day. Valid only between
  // WaitClosed(d) returning and the next PushCloseDay — the service
  // collects each day before scheduling the next close (depth one).
  std::vector<VerdictRecord> TakeDayVerdicts();
  // Per-link quality as of the most recently closed day, ascending link —
  // the same validity window as TakeDayVerdicts.
  const std::vector<ShardEngine::LinkQuality>& LatestQuality() const {
    return engine_.DayQuality();
  }
  // The part the most recent checkpoint close wrote — the same validity
  // window as TakeDayVerdicts.
  CheckpointPart TakeCheckpointPart() const { return checkpoint_part_; }

  // ---- restore (only while the worker is stopped) --------------------------
  // Loads one checkpointed pair record (after its link and VP). False on a
  // malformed record or a pair already present.
  [[nodiscard]] bool RestorePair(topo::LinkId link, topo::VpId vp,
                                 runtime::BlobReader& in);
  // Every day through `day` is closed, as in the checkpointed service.
  void RestoreClosedThrough(std::int64_t day);

  // ---- counters (any thread) -------------------------------------------------
  // Advances once per drained run and before each day close is published.
  // A diagnostic: it may trail PushRun by up to a quarter ring (plus one key
  // run) of staged samples until the next close marker or Stop, but never a
  // closed day.
  std::uint64_t SamplesProcessed() const noexcept {
    return samples_.load(std::memory_order_relaxed);
  }

 private:
  enum class MsgKind : std::uint8_t {
    kSample,
    kCloseDay,
    kCheckpointDay,
    kStop,
  };
  struct Msg {
    MsgKind kind = MsgKind::kSample;
    Sample sample;
    std::int64_t day = 0;
  };
  // One ring slot per in-flight sample.
  static_assert(sizeof(Msg) <= 40);

  void WorkerLoop();
  // Moves the worker's run-local count into the shared counter.
  void PublishCounts();
  // The worker's kCloseDay handler: close the engine day, deposit, write the
  // checkpoint part when asked, publish.
  void FinalizeDay(std::int64_t day, bool checkpoint);
  CheckpointPart WriteCheckpointPart() const;

  SpscRing<Msg> ring_;
  std::thread worker_;
  bool running_ = false;

  // Worker-owned state; the collector reads the deposit slots only after
  // the closed_through_ acquire/release handshake.
  ShardEngine engine_;
  std::uint64_t run_samples_ = 0;  // not yet in samples_
  std::vector<VerdictRecord> day_verdicts_;
  // Checkpoint request (producer-written before the marker's ring publish)
  // and result (worker-written before the closed_through_ release).
  std::string checkpoint_path_;
  bool checkpoint_sync_ = false;
  const runtime::IoFaultHook* checkpoint_hook_ = nullptr;
  CheckpointPart checkpoint_part_;

  // closed_through_ is the collector-vs-worker handshake line; the stat
  // counter lives on its own line so worker counter bumps never invalidate
  // the line the collector spins on.
  alignas(64) std::atomic<std::int64_t> closed_through_{
      std::numeric_limits<std::int64_t>::min()};
  alignas(64) std::atomic<std::uint64_t> samples_{0};
};

}  // namespace manic::serve
