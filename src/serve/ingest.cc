#include "serve/ingest.h"

#include <string>
#include <utility>

#include "serve/checkpoint.h"

namespace manic::serve {

IngestShard::IngestShard(IngestShardConfig config)
    : ring_(config.ring_capacity),
      engine_(config.engine) {}

IngestShard::~IngestShard() { Stop(); }

void IngestShard::Start() {
  if (running_) return;
  running_ = true;
  worker_ = std::thread([this] { WorkerLoop(); });
}

void IngestShard::Stop() {
  if (!running_) return;
  Msg stop;
  stop.kind = MsgKind::kStop;
  ring_.Push(stop);  // publishes any staged samples ahead of the marker
  worker_.join();
  running_ = false;
}

void IngestShard::PushSample(const Sample& s) {
  Msg msg;
  msg.kind = MsgKind::kSample;
  msg.sample = s;
  ring_.Stage(msg);
  // A run is a quarter ring (at least one sample: Staged() >= 1 here).
  if (ring_.Staged() >= ring_.capacity() / 4) ring_.Publish();
}

void IngestShard::PushCloseDay(std::int64_t day) {
  Msg msg;
  msg.kind = MsgKind::kCloseDay;
  msg.day = day;
  // Publish-before-marker: Push publishes the staged samples and the marker
  // in one store, so WaitClosed(day) can never wait on a stranded run.
  ring_.Push(msg);
}

void IngestShard::PushCheckpointDay(std::int64_t day, std::string part_path,
                                    bool sync,
                                    const runtime::IoFaultHook* hook) {
  checkpoint_path_ = std::move(part_path);
  checkpoint_sync_ = sync;
  checkpoint_hook_ = hook;
  Msg msg;
  msg.kind = MsgKind::kCheckpointDay;
  msg.day = day;
  ring_.Push(msg);  // the release publish carries the request to the worker
}

void IngestShard::WaitClosed(std::int64_t day) {
  std::int64_t closed = closed_through_.load(std::memory_order_acquire);
  while (closed < day) {
    closed_through_.wait(closed, std::memory_order_acquire);
    closed = closed_through_.load(std::memory_order_acquire);
  }
}

std::vector<VerdictRecord> IngestShard::TakeDayVerdicts() {
  return std::move(day_verdicts_);
}

void IngestShard::WorkerLoop() {
  bool stopped = false;
  while (!stopped) {
    // One wake per published run; the counters move once per run.
    ring_.DrainRunBlocking([&](Msg& msg) {
      switch (msg.kind) {
        // The per-sample branch is the worker's steady state and carries
        // the linter's hot-path contract; day-close below is cold and
        // exempt.
        // manic-lint: hot-path(begin)
        case MsgKind::kSample:
          engine_.Ingest(msg.sample);
          ++run_samples_;
          break;
          // manic-lint: hot-path(end)
        case MsgKind::kCloseDay:
        case MsgKind::kCheckpointDay:
          FinalizeDay(msg.day, msg.kind == MsgKind::kCheckpointDay);
          break;
        case MsgKind::kStop:
          stopped = true;
          break;
      }
    });
    PublishCounts();
  }
}

void IngestShard::PublishCounts() {
  samples_.fetch_add(std::exchange(run_samples_, 0),
                     std::memory_order_relaxed);
}

void IngestShard::FinalizeDay(std::int64_t day, bool checkpoint) {
  PublishCounts();  // a reader after WaitClosed sees every counted sample
  day_verdicts_ = engine_.CloseDay(day);
  if (checkpoint) checkpoint_part_ = WriteCheckpointPart();
  closed_through_.store(day, std::memory_order_release);
  closed_through_.notify_all();
}

// One record per pair, ascending (link, vp): link, vp, the classifier.
CheckpointPart IngestShard::WriteCheckpointPart() const {
  CheckpointFile file;
  WalStatus status = file.Create(checkpoint_path_, checkpoint_hook_);
  runtime::BlobWriter record;  // one pair at a time, capacity reused
  engine_.ForEachPair([&](topo::LinkId link, topo::VpId vp,
                          ShardEngine::PairSlot slot) {
    if (status != WalStatus::kOk) return;
    record.Clear();
    record.PutU32(link);
    record.PutU32(vp);
    engine_.pair(slot).Save(record);
    status = file.AppendRecord(record.str());
  });
  if (status == WalStatus::kOk) status = file.Finish(checkpoint_sync_);
  CheckpointPart part;
  part.ok = status == WalStatus::kOk;
  part.bytes = file.bytes();
  return part;
}

bool IngestShard::RestorePair(topo::LinkId link, topo::VpId vp,
                              runtime::BlobReader& in) {
  const std::size_t pairs_before = engine_.pair_count();
  const ShardEngine::PairSlot slot = engine_.SlotOf(link, vp);
  return slot >= pairs_before && engine_.pair(slot).Load(in);
}

void IngestShard::RestoreClosedThrough(std::int64_t day) {
  engine_.RestoreClosedThrough(day);
  closed_through_.store(day, std::memory_order_relaxed);
}

}  // namespace manic::serve
