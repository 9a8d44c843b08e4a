#include "serve/service.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <utility>

#include "serve/checkpoint.h"
#include "stats/calendar.h"

namespace manic::serve {
namespace {

// The service whose closer runs on this thread, if any: a fault hook that
// queries from inside the closer's sync must not wait for its own close.
thread_local const CongestionService* t_closer_of = nullptr;

}  // namespace

CongestionService::CongestionService(ServiceConfig config)
    : config_(config) {
  if (config_.shards < 1) config_.shards = 1;
  IngestShardConfig shard_config;
  shard_config.engine = config_.engine;
  shard_config.ring_capacity = config_.ring_capacity;
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<IngestShard>(shard_config));
  }
}

CongestionService::~CongestionService() { Stop(); }

void CongestionService::Start() {
  if (running_) return;
  running_ = true;
  for (auto& shard : shards_) shard->Start();
}

void CongestionService::Stop() {
  StopCloser();
  if (!running_) return;
  for (auto& shard : shards_) shard->Stop();
  running_ = false;
}

SubmitOutcome CongestionService::Submit(const Sample& s) {
  // A batch of one: it flushes its own WAL record, so the caller's view
  // ("Submit returned") never runs ahead of the log. Batch for throughput.
  const SubmitSummary summary = SubmitBatch(std::span<const Sample>(&s, 1));
  if (summary.accepted > 0) return SubmitOutcome::kAccepted;
  if (summary.late > 0) return SubmitOutcome::kLate;
  if (summary.rejected > 0) return SubmitOutcome::kRejected;
  return SubmitOutcome::kShed;
}

CongestionService::Window CongestionService::OpenWindow(
    bool live, std::int64_t clock_last_day) const {
  if (!saw_sample_) return {};
  const std::int64_t watermark_day = stats::DayOf(watermark_t_);
  // Live, a watermark bump closes through the day before the watermark's;
  // it costs nothing only when those days are closed already (a recovered
  // log may end between a day's first sample and its marker).
  if (live && producer_last_closed_ < watermark_day - 1) return {};
  const std::int64_t first =
      std::max(producer_last_closed_ + 1, -kMaxAbsSampleDay);
  const std::int64_t last =
      std::min({watermark_day, watermark_day + config_.max_day_jump,
                clock_last_day, kMaxAbsSampleDay});
  if (last < first) return {};
  Window window;
  window.begin = stats::StartOfDay(first);
  window.width = static_cast<std::uint64_t>(stats::StartOfDay(last + 1) -
                                            window.begin);
  return window;
}

SubmitSummary CongestionService::AdmitRun(std::span<const Sample> batch,
                                          bool live) {
  SubmitSummary summary;
  // The clock's admission bound, read once per call: a live clock only
  // moves forward, so a later reading would admit at least as much.
  const std::int64_t clock_last_day =
      config_.clock == nullptr
          ? kMaxAbsSampleDay
          : stats::DayOf(config_.clock->NowSec()) + config_.max_day_jump;
  std::size_t i = 0;
  while (i < batch.size()) {
    if (live && degraded_) {
      summary.shed += batch.size() - i;
      break;
    }
    // The longest prefix inside the open window: one unsigned compare a
    // sample, and the newest timestamp.
    const Window window = OpenWindow(live, clock_last_day);
    TimeSec watermark = watermark_t_;
    std::size_t end = i;
    for (; end < batch.size(); ++end) {
      const TimeSec t = batch[end].t;
      if (static_cast<std::uint64_t>(t) -
              static_cast<std::uint64_t>(window.begin) >=
          window.width) {
        break;
      }
      watermark = std::max(watermark, t);
    }
    if (end > i) {
      ConsumeRun(batch.subspan(i, end - i), live);
      watermark_t_ = watermark;
      summary.accepted += end - i;
      i = end;
      if (i == batch.size()) break;
    }
    switch (SubmitOne(batch[i++], live)) {
      case SubmitOutcome::kAccepted:
        ++summary.accepted;
        break;
      case SubmitOutcome::kLate:
        ++summary.late;
        break;
      case SubmitOutcome::kRejected:
        ++summary.rejected;
        break;
      case SubmitOutcome::kShed:
        ++summary.shed;
        break;
    }
  }
  return summary;
}

void CongestionService::LogConsumed(std::span<const Sample> run, bool live) {
  if (live && WalLive()) {
    wal_pending_.insert(wal_pending_.end(), run.begin(), run.end());
  } else {
    samples_consumed_ += run.size();  // no WAL, or replaying what is durable
  }
}

void CongestionService::ConsumeRun(std::span<const Sample> run, bool live) {
  // Write-ahead: the run joins the pending WAL record before it reaches the
  // rings; the record is flushed before any ack or day close publishes.
  LogConsumed(run, live);
  // One hand-off per key run: a link's samples all route to one shard,
  // which hands its staged samples to its worker in quarter-ring runs.
  std::size_t begin = 0;
  for (std::size_t k = 1; k <= run.size(); ++k) {
    if (k == run.size() || run[k].link != run[begin].link) {
      shards_[run[begin].link % shards_.size()]->PushRun(
          run.subspan(begin, k - begin));
      begin = k;
    }
  }
  run_accepted_ += run.size();
}

SubmitOutcome CongestionService::SubmitOne(const Sample& s, bool live) {
  const std::int64_t day = stats::DayOf(s.t);
  // Admission bounds: the timestamp came off the wire, and an accepted
  // sample moves the watermark — which CloseThrough then walks day by day.
  // Anything absurdly far out (absolutely, or relative to the watermark /
  // live clock) is a hostile or broken producer, not data.
  bool rejected = day < -kMaxAbsSampleDay || day > kMaxAbsSampleDay;
  if (!rejected && saw_sample_ &&
      day > stats::DayOf(watermark_t_) + config_.max_day_jump) {
    rejected = true;
  }
  if (!rejected && config_.clock != nullptr &&
      day > stats::DayOf(config_.clock->NowSec()) + config_.max_day_jump) {
    rejected = true;
  }
  if (rejected) {
    samples_rejected_.fetch_add(1, std::memory_order_relaxed);
    return SubmitOutcome::kRejected;
  }
  if (!saw_sample_) {
    saw_sample_ = true;
    watermark_t_ = s.t;
    producer_last_closed_ = day - 1;
  }
  if (day <= producer_last_closed_) {
    // The day already closed: its verdict shipped, and the shards would
    // hold its bins open forever. Drop and count. Late samples are still
    // *consumed* — they advance the durable watermark — so they go to the
    // WAL too: replaying one lands on the identical closed day and drops
    // identically, keeping recovered counts exact.
    LogConsumed(std::span<const Sample>(&s, 1), live);
    samples_late_.fetch_add(1, std::memory_order_relaxed);
    return SubmitOutcome::kLate;
  }
  // Write-ahead, then staged before any close marker below, which carries
  // it out.
  LogConsumed(std::span<const Sample>(&s, 1), live);
  shards_[s.link % shards_.size()]->PushRun(std::span<const Sample>(&s, 1));
  ++run_accepted_;
  if (s.t > watermark_t_) {
    watermark_t_ = s.t;
    // The watermark entered a new day: every earlier day is complete. In
    // replay, closes come from the logged markers instead, so clock-driven
    // (PollClock) closes recover at their original stream positions.
    if (live) CloseThrough(stats::DayOf(watermark_t_) - 1);
  }
  return SubmitOutcome::kAccepted;
}

SubmitSummary CongestionService::SubmitBatch(std::span<const Sample> samples) {
  ReapClose();
  const bool was_degraded = degraded_;
  SubmitSummary summary = AdmitRun(samples, true);
  PublishAccepted();
  // One WAL record for the whole consumed run: the ack the session sends
  // after this return is the durability receipt — so if anything degraded
  // the WAL during this batch (the final flush here, or a day-close flush
  // mid-loop), the whole batch reports shed instead of acknowledged, even
  // though the samples already reached the rings (in-memory state is
  // allowed to run ahead of the log in degraded mode; a restart recovers
  // the durable prefix and the client resubmits the rest).
  if (WalLive() && FlushWalPending() != WalStatus::kOk) EnterDegraded();
  if (!was_degraded && degraded_) {
    summary.shed += summary.accepted + summary.late;
    summary.accepted = 0;
    summary.late = 0;
  }
  return summary;
}

WalRecoverStats CongestionService::RecoverFromWal() {
  WalRecoverStats stats;
  if (config_.wal_dir.empty()) {
    stats.ok = true;
    return stats;
  }
  DrainClose();
  // The newest committed checkpoint loads into quiescent shards; then every
  // segment it covers, and every other checkpoint file, is deleted (a crash
  // may have stopped the last retirement halfway).
  const std::uint32_t first_live = NewestCheckpoint(config_.wal_dir);
  std::uint32_t parts_tag = 0;
  std::uint64_t checkpoint_bytes = 0;
  if (first_live != 0) {
    Stop();
    if (!LoadCheckpoint(first_live, &parts_tag, &checkpoint_bytes,
                        &stats.error)) {
      return stats;
    }
  }
  (void)RetireCovered(config_.wal_dir, first_live, parts_tag);
  if (!running_) Start();  // replay needs the shard workers
  replaying_ = true;
  stats = ReadWal(
      config_.wal_dir,
      [this](std::span<const Sample> batch) {
        // The logged stream is exactly the consumed stream: re-admitting it
        // reproduces every accepted/late decision, because the watermark
        // and closed-day state evolve identically.
        (void)AdmitRun(batch, false);
        PublishAccepted();
      },
      [this](std::int64_t day) { CloseThrough(day); });
  DrainClose();  // the last replayed close, before wal_ is replaced
  replaying_ = false;
  stats.checkpoint_bytes = checkpoint_bytes;
  if (!stats.ok) return stats;
  // New appends land in a fresh segment past everything just replayed.
  wal_ = std::make_unique<WalWriter>();
  WalConfig wal_config;
  wal_config.dir = config_.wal_dir;
  wal_config.segment_bytes = config_.wal_segment_bytes;
  wal_config.fsync = config_.wal_fsync;
  wal_config.fault_hook = config_.wal_fault_hook;
  const WalStatus opened = wal_->Open(wal_config);
  if (opened != WalStatus::kOk) {
    stats.ok = false;
    stats.error = "cannot open a fresh wal segment under " + config_.wal_dir;
    EnterDegraded();
  }
  checkpoint_base_segment_ = wal_->segment_index();
  return stats;
}

WalStatus CongestionService::CloseWalClean() {
  DrainClose();
  if (wal_ == nullptr) return WalStatus::kOk;
  if (!WalLive()) return WalStatus::kIoError;  // degraded: nothing to stamp
  WalStatus status = FlushWalPending();
  if (status == WalStatus::kOk) status = wal_->CloseClean();
  if (status != WalStatus::kOk) EnterDegraded();
  return status;
}

WatermarkInfo CongestionService::Watermark() const {
  WatermarkInfo info;
  info.samples_consumed = samples_consumed_;
  info.watermark_t = watermark_t_;
  info.last_closed_day = producer_last_closed_;
  info.degraded = degraded_;
  info.saw_sample = saw_sample_;
  return info;
}

WalStatus CongestionService::FlushWalPending() {
  if (wal_pending_.empty()) return WalStatus::kOk;
  const WalStatus status = wal_->AppendSamples(wal_pending_);
  if (status == WalStatus::kOk) samples_consumed_ += wal_pending_.size();
  wal_pending_.clear();  // capacity retained: the buffer is reused forever
  return status;
}

void CongestionService::PublishAccepted() {
  samples_accepted_.fetch_add(std::exchange(run_accepted_, 0),
                              std::memory_order_relaxed);
}

void CongestionService::EnterDegraded() {
  // The closer may be syncing the segment Abandon closes; whatever its
  // sync says, the service degrades now.
  (void)WaitClose();
  degraded_ = true;
  wal_pending_.clear();
  if (wal_ != nullptr) wal_->Abandon();
}

void CongestionService::PollClock() {
  if (config_.clock == nullptr) return;
  ReapClose();
  const std::int64_t today = stats::DayOf(config_.clock->NowSec());
  if (!saw_sample_) {
    saw_sample_ = true;
    producer_last_closed_ = today - 1;
    return;
  }
  CloseThrough(today - 1);
}

std::int64_t CongestionService::FinishStream() {
  DrainClose();
  if (saw_sample_) CloseThrough(stats::DayOf(watermark_t_));
  // The stream ends here: the last close publishes (or fails) first, so
  // the day returned is the last one published.
  DrainClose();
  return LastClosedDay();
}

void CongestionService::CloseThrough(std::int64_t target_day) {
  while (producer_last_closed_ < target_day) {
    const std::int64_t day = producer_last_closed_ + 1;
    // Depth one: the previous close has published and collected every
    // shard's deposit before this day's markers go out, so the deposit
    // slots stay single-use (see ingest.h).
    DrainClose();
    // A degraded service closes no more days: a day publishes only once its
    // marker is durable, and after a failed close none can be, so the
    // published days end at the last durable one, without a hole.
    if (degraded_) return;
    // The first close after a segment rotation checkpoints (see the header
    // comment); its parts are named for the segment after the open one.
    const bool checkpoint =
        WalLive() && wal_->segment_index() != checkpoint_base_segment_;
    const std::uint32_t parts_tag = wal_ ? wal_->segment_index() + 1 : 0;
    // Broadcast the in-band close marker first, so the shards finalize the
    // day while the marker is written and synced. Every sample that can
    // contribute is already staged ahead of the marker (publish-before-
    // marker), and a shard's result is invisible until the closer publishes.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (checkpoint) {
        shards_[i]->PushCheckpointDay(
            day,
            CheckpointPartPath(config_.wal_dir, parts_tag,
                               static_cast<std::uint32_t>(i)),
            config_.wal_fsync != WalFsync::kNone, config_.wal_fault_hook);
      } else {
        shards_[i]->PushCloseDay(day);
      }
    }
    CloseJob job;
    job.day = day;
    job.checkpoint = checkpoint;
    job.wal = wal_.get();
    if (WalLive()) {
      // Durability order: every sample that can contribute to this close,
      // then the close marker, then (on the closer) its sync, then the
      // verdicts publish. A crash before the marker recovers to "day still
      // open" — the verdicts were never acknowledged to anyone.
      if (FlushWalPending() != WalStatus::kOk ||
          wal_->AppendCloseDeferred(day, &job.sync) != WalStatus::kOk) {
        EnterDegraded();
      }
    }
    // Degraded here means this day's flush or marker write just failed: the
    // closer collects the shards' deposits but does not publish the day.
    job.publish = !degraded_;
    HandOffClose(std::move(job));
    producer_last_closed_ = day;
    if (checkpoint) {
      std::vector<CheckpointPart> parts;
      if (!WaitClose(&parts)) EnterDegraded();
      CommitCheckpoint(day, parts_tag, parts);
    }
  }
}

void CongestionService::HandOffClose(CloseJob job) {
  if (!closer_.joinable()) closer_ = std::thread([this] { CloserLoop(); });
  {
    runtime::MutexLock lock(close_mu_);
    close_job_ = std::move(job);
    close_state_ = CloseState::kHanded;
  }
  close_cv_.notify_all();
  close_handed_ = true;
}

void CongestionService::CloserLoop() {
  t_closer_of = this;
  // Reused close after close.
  std::vector<VerdictRecord> merged;
  std::vector<CheckpointPart> parts;
  for (;;) {
    CloseJob job;
    {
      runtime::MutexLock lock(close_mu_);
      while (close_state_ == CloseState::kIdle) close_cv_.wait(close_mu_);
      if (close_state_ == CloseState::kExit) return;
      job = std::move(close_job_);
      close_state_ = CloseState::kRunning;
    }
    // The marker's durability point: the fault seam is consulted here,
    // with the op index the producer took at the append.
    const bool synced = job.sync.fd < 0 ||
                        job.wal->SyncDeferred(job.sync) == WalStatus::kOk;
    // Every shard's deposit. Each link lives on exactly one shard, so link
    // order is a total order over the merged rows — the log is
    // independent of the shard count.
    merged.clear();
    for (auto& shard : shards_) {
      shard->WaitClosed(job.day);
      const std::vector<VerdictRecord> part = shard->TakeDayVerdicts();
      merged.insert(merged.end(), part.begin(), part.end());
      if (job.checkpoint) parts.push_back(shard->TakeCheckpointPart());
    }
    std::sort(merged.begin(), merged.end(),
              [](const VerdictRecord& a, const VerdictRecord& b) {
                return a.link < b.link;
              });
    if (job.publish && synced) {
      runtime::MutexLock lock(mu_);
      for (const VerdictRecord& v : merged) {
        // std::map subscript keys cannot overflow, and these verdicts came
        // from shard-owned engines, not the wire.
        // manic-lint: allow(trust)
        index_[v.link].push_back(v);
      }
      verdict_rows_ += merged.size();
      for (auto& shard : shards_) {
        for (const auto& [link, q] : shard->LatestQuality()) {
          quality_[link] = q;
        }
      }
      last_closed_day_ = job.day;
      ++days_closed_;
    }
    {
      runtime::MutexLock lock(close_mu_);
      close_failed_ = !synced;
      close_parts_.swap(parts);
      parts.clear();
      close_state_ = CloseState::kIdle;
    }
    close_cv_.notify_all();
  }
}

bool CongestionService::WaitClose(std::vector<CheckpointPart>* parts) {
  if (!close_handed_) return true;
  close_handed_ = false;
  runtime::MutexLock lock(close_mu_);
  while (close_state_ != CloseState::kIdle) close_cv_.wait(close_mu_);
  if (parts != nullptr) parts->swap(close_parts_);
  return !close_failed_;
}

void CongestionService::DrainClose() {
  if (!WaitClose()) EnterDegraded();
}

void CongestionService::ReapClose() {
  if (!close_handed_) return;
  {
    runtime::MutexLock lock(close_mu_);
    if (close_state_ != CloseState::kIdle) return;
  }
  DrainClose();
}

void CongestionService::StopCloser() {
  DrainClose();
  if (!closer_.joinable()) return;
  {
    runtime::MutexLock lock(close_mu_);
    close_state_ = CloseState::kExit;
  }
  close_cv_.notify_all();
  closer_.join();
  runtime::MutexLock lock(close_mu_);
  close_state_ = CloseState::kIdle;
}

void CongestionService::AwaitClose() const {
  if (t_closer_of == this) return;
  runtime::MutexLock lock(close_mu_);
  while (close_state_ == CloseState::kHanded ||
         close_state_ == CloseState::kRunning) {
    close_cv_.wait(close_mu_);
  }
}

void CongestionService::CommitCheckpoint(
    std::int64_t day, std::uint32_t parts_tag,
    const std::vector<CheckpointPart>& parts) {
  using Step = runtime::IoFaultHook::CheckpointStep;
  const std::uint64_t ordinal = checkpoints_attempted_++;
  const auto crash_point = [&](Step step) {
    if (config_.wal_fault_hook != nullptr &&
        config_.wal_fault_hook->CrashInCheckpoint(ordinal, step)) {
      std::_Exit(42);
    }
  };
  const std::string& dir = config_.wal_dir;
  const bool sync = config_.wal_fsync != WalFsync::kNone;
  // Everything through the marker is in segments up to the open one.
  const std::uint32_t first_live = wal_->segment_index() + 1;
  const std::string path = CheckpointPath(dir, first_live);
  const std::string tmp = path + ".tmp";
  const auto abandon = [&] {
    // Nothing is retired yet, so the WAL still holds everything: drop every
    // file of this checkpoint — the manifest too, when only the directory
    // sync after its rename failed — and try again after the next segment
    // rotation, not at the next close (a disk too full for a checkpoint
    // would otherwise be asked for one at every close).
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    std::filesystem::remove(path, ec);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      std::filesystem::remove(
          CheckpointPartPath(dir, parts_tag, static_cast<std::uint32_t>(i)),
          ec);
    }
    if (wal_->is_open()) checkpoint_base_segment_ = wal_->segment_index();
    ++checkpoint_stats_.abandoned;
  };
  const auto written = [](const CheckpointPart& p) { return p.ok; };
  if (!WalLive() || !std::all_of(parts.begin(), parts.end(), written)) {
    abandon();
    return;
  }
  CheckpointFile file;
  WalStatus status = file.Create(tmp, config_.wal_fault_hook);
  runtime::BlobWriter record;  // one record at a time, capacity reused
  const auto put = [&] {
    if (status == WalStatus::kOk) status = file.AppendRecord(record.str());
    record.Clear();
  };

  CheckpointHeader header;
  header.first_live_segment = first_live;
  header.parts_tag = parts_tag;
  header.parts = static_cast<std::uint32_t>(parts.size());
  header.day = day;
  header.window_days =
      static_cast<std::uint32_t>(config_.engine.autocorr.window_days);
  header.intervals_per_day =
      static_cast<std::uint32_t>(config_.engine.autocorr.intervals_per_day);
  EncodeCheckpointHeader(header, record);
  if (status == WalStatus::kOk) status = file.Append(record.str());
  record.Clear();
  for (const CheckpointPart& part : parts) record.PutU64(part.bytes);
  put();
  // The counters the WAL prefix through the marker replays to. Rejected
  // samples are never logged, so a restart counts them afresh, as before.
  record.PutU32(saw_sample_ ? 1 : 0);
  record.PutI64(watermark_t_);
  record.PutI64(producer_last_closed_);
  record.PutU64(samples_consumed_);
  record.PutU64(samples_accepted_.load(std::memory_order_relaxed) +
                run_accepted_);
  record.PutU64(samples_late_.load(std::memory_order_relaxed));
  {
    runtime::MutexLock lock(mu_);
    record.PutU64(verdict_rows_);
    record.PutI64(last_closed_day_);
    record.PutI64(days_closed_);
    put();
    crash_point(Step::kMidWrite);
    record.PutU64(quality_.size());
    for (const auto& [link, q] : quality_) {
      record.PutU32(link);
      SaveQuality(q, record);
    }
    put();
  }
  // One record per link, the lock held per link so queries interleave.
  constexpr std::uint64_t kLastLink = std::numeric_limits<topo::LinkId>::max();
  for (std::uint64_t next = 0; next <= kLastLink;) {
    {
      runtime::MutexLock lock(mu_);
      const auto it = index_.lower_bound(static_cast<topo::LinkId>(next));
      if (it == index_.end()) break;
      record.PutU32(it->first);
      record.PutU64(it->second.size());
      for (const VerdictRecord& v : it->second) SaveVerdictRow(v, record);
      next = std::uint64_t{it->first} + 1;
    }
    put();
  }
  if (status == WalStatus::kOk) status = file.Finish(sync);
  if (status == WalStatus::kOk) status = file.CommitAs(path, dir, sync);
  if (status != WalStatus::kOk) {
    abandon();
    return;
  }
  crash_point(Step::kCommitted);
  if (wal_->Roll() != WalStatus::kOk) {
    EnterDegraded();  // the commit stands; only new appends are lost
    return;
  }
  crash_point(Step::kRolled);
  checkpoint_stats_.retired_segments +=
      RetireCovered(dir, first_live, parts_tag);
  checkpoint_base_segment_ = wal_->segment_index();
  ++checkpoint_stats_.written;
}

bool CongestionService::LoadCheckpoint(std::uint32_t first_live,
                                       std::uint32_t* parts_tag,
                                       std::uint64_t* bytes,
                                       std::string* error) {
  const std::string path = CheckpointPath(config_.wal_dir, first_live);
  const auto fail = [&](const char* what) {
    *error = std::string(what) + " in checkpoint " + path;
    return false;
  };
  CheckpointReader manifest;
  std::string buf;
  CheckpointHeader header;
  if (!manifest.Open(path) ||
      !manifest.ReadExact(CheckpointHeader::kEncodedSize, &buf) ||
      !DecodeCheckpointHeader(buf, &header)) {
    if (header.version != kCheckpointVersion) {
      *error = "checkpoint " + path + " has version " +
               std::to_string(header.version) + "; this build reads version " +
               std::to_string(kCheckpointVersion);
      return false;
    }
    return fail("bad header");
  }
  // Shard parts are bounded by the service's own shard limit.
  constexpr std::uint32_t kMaxParts = 4096;
  const infer::AutocorrConfig& shape = config_.engine.autocorr;
  if (header.first_live_segment != first_live || header.parts == 0 ||
      header.parts > kMaxParts ||
      header.window_days != static_cast<std::uint32_t>(shape.window_days) ||
      header.intervals_per_day !=
          static_cast<std::uint32_t>(shape.intervals_per_day)) {
    return fail("foreign shape");
  }
  *parts_tag = header.parts_tag;
  const auto next_record = [&] {
    return manifest.ReadRecord(&buf) == CheckpointReader::Next::kRecord;
  };

  std::vector<std::uint64_t> part_bytes(header.parts);
  if (!next_record()) return fail("missing part sizes");
  runtime::BlobReader in(buf);
  for (std::uint64_t& b : part_bytes) {
    if (!in.GetU64(&b)) return fail("short part sizes");
  }
  if (!in.AtEnd()) return fail("long part sizes");

  if (!next_record()) return fail("missing counters");
  in = runtime::BlobReader(buf);
  std::uint32_t saw = 0;
  std::uint64_t consumed = 0, accepted = 0, late = 0, saved_rows = 0;
  std::int64_t watermark = 0, last_closed = 0, last_closed_day = 0,
               days_closed = 0;
  // The day is checked like a wire sample's, and the row count against the
  // bytes that could hold it (36 per row).
  if (!in.GetU32(&saw) || saw > 1 || !in.GetI64(&watermark) ||
      !in.GetI64(&last_closed) || !in.GetU64(&consumed) ||
      !in.GetU64(&accepted) || !in.GetU64(&late) || !in.GetU64(&saved_rows) ||
      !in.GetI64(&last_closed_day) || !in.GetI64(&days_closed) ||
      !in.AtEnd() || last_closed < -kMaxAbsSampleDay ||
      last_closed > kMaxAbsSampleDay || last_closed != header.day ||
      last_closed_day != header.day || saved_rows > manifest.size() / 36 ||
      days_closed < 0) {
    return fail("bad counters");
  }
  const std::int64_t watermark_day = stats::DayOf(watermark);
  if (watermark_day < -kMaxAbsSampleDay || watermark_day > kMaxAbsSampleDay) {
    return fail("bad watermark");
  }
  saw_sample_ = saw == 1;
  watermark_t_ = watermark;
  producer_last_closed_ = last_closed;
  samples_consumed_ = consumed;
  samples_accepted_.store(accepted, std::memory_order_relaxed);
  samples_late_.store(late, std::memory_order_relaxed);

  runtime::MutexLock lock(mu_);
  verdict_rows_ = saved_rows;
  last_closed_day_ = last_closed_day;
  days_closed_ = days_closed;
  if (!next_record()) return fail("missing quality");
  in = runtime::BlobReader(buf);
  std::uint64_t graded = 0;
  if (!in.GetU64(&graded) || graded > in.remaining() / 4) {
    return fail("bad quality count");
  }
  for (std::uint64_t i = 0; i < graded; ++i) {
    std::uint32_t saved_link = 0;
    infer::DataQuality q;
    if (!in.GetU32(&saved_link) || !LoadQuality(in, &q) ||
        !quality_.emplace(saved_link, q).second) {
      return fail("bad quality");
    }
  }
  if (!in.AtEnd()) return fail("long quality");

  std::uint64_t rows_seen = 0;
  for (CheckpointReader::Next read = manifest.ReadRecord(&buf);
       read != CheckpointReader::Next::kEnd; read = manifest.ReadRecord(&buf)) {
    if (read == CheckpointReader::Next::kCorrupt) return fail("torn record");
    in = runtime::BlobReader(buf);
    std::uint32_t saved_link = 0;
    std::uint64_t n = 0;
    // 36 bytes per encoded row.
    if (!in.GetU32(&saved_link) || !in.GetU64(&n) ||
        n > in.remaining() / 36) {
      return fail("bad verdict rows");
    }
    const auto [slot, fresh] = index_.try_emplace(saved_link);
    if (!fresh) return fail("repeated link");
    std::vector<VerdictRecord>& link_rows = slot->second;
    link_rows.resize(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      if (!LoadVerdictRow(in, saved_link, &link_rows[i]) ||
          (i > 0 && link_rows[i].day <= link_rows[i - 1].day)) {
        return fail("bad verdict row");
      }
    }
    if (!in.AtEnd()) return fail("long verdict rows");
    rows_seen += n;
  }
  if (rows_seen != verdict_rows_) return fail("verdict row count mismatch");
  *bytes = manifest.size();

  // Pairs route by link, so any shard count restores.
  for (std::uint32_t k = 0; k < header.parts; ++k) {
    CheckpointReader part;
    if (!part.Open(CheckpointPartPath(config_.wal_dir, header.parts_tag, k)) ||
        part.size() != part_bytes[k]) {
      return fail("missing or resized part");
    }
    for (CheckpointReader::Next read = part.ReadRecord(&buf);
         read != CheckpointReader::Next::kEnd; read = part.ReadRecord(&buf)) {
      in = runtime::BlobReader(buf);
      std::uint32_t saved_link = 0, saved_vp = 0;
      if (read == CheckpointReader::Next::kCorrupt ||
          !in.GetU32(&saved_link) || !in.GetU32(&saved_vp) ||
          !shards_[saved_link % shards_.size()]->RestorePair(saved_link,
                                                             saved_vp, in) ||
          !in.AtEnd()) {
        return fail("bad pair record");
      }
    }
    *bytes += part.size();
  }
  for (auto& shard : shards_) shard->RestoreClosedThrough(header.day);
  return true;
}

std::vector<VerdictRecord> CongestionService::QueryRange(topo::LinkId link,
                                                         TimeSec t0,
                                                         TimeSec t1) const {
  AwaitClose();
  std::vector<VerdictRecord> out;
  const std::int64_t first_day = stats::DayOf(t0);
  runtime::MutexLock lock(mu_);
  const auto it = index_.find(link);
  if (it == index_.end()) return out;
  // Rows are in ascending day order: the first one on or after t0's day,
  // then every row whose day starts before t1.
  const auto& rows = it->second;
  auto pos = std::lower_bound(
      rows.begin(), rows.end(), first_day,
      [](const VerdictRecord& v, std::int64_t d) { return v.day < d; });
  for (; pos != rows.end() && pos->day * stats::kSecPerDay < t1; ++pos) {
    out.push_back(*pos);
  }
  return out;
}

std::optional<VerdictRecord> CongestionService::QueryPoint(topo::LinkId link,
                                                           TimeSec t) const {
  AwaitClose();
  const std::int64_t day = stats::DayOf(t);
  runtime::MutexLock lock(mu_);
  const auto it = index_.find(link);
  if (it == index_.end()) return std::nullopt;
  // Verdicts per link are appended in ascending day order; take the last
  // one at or before t's day.
  const auto& rows = it->second;
  const auto pos = std::upper_bound(
      rows.begin(), rows.end(), day,
      [](std::int64_t d, const VerdictRecord& v) { return d < v.day; });
  if (pos == rows.begin()) return std::nullopt;
  return *(pos - 1);
}

std::optional<infer::DataQuality> CongestionService::QueryQuality(
    topo::LinkId link) const {
  AwaitClose();
  runtime::MutexLock lock(mu_);
  const auto it = quality_.find(link);
  if (it == quality_.end()) return std::nullopt;
  return it->second;
}

ServiceStats CongestionService::Stats() const {
  AwaitClose();
  ServiceStats stats;
  stats.samples = samples_accepted_.load(std::memory_order_relaxed);
  stats.samples_late = samples_late_.load(std::memory_order_relaxed);
  stats.samples_rejected = samples_rejected_.load(std::memory_order_relaxed);
  stats.shards = static_cast<std::uint32_t>(shards_.size());
  runtime::MutexLock lock(mu_);
  stats.verdicts = verdict_rows_;
  stats.links = index_.size();
  stats.last_closed_day = last_closed_day_;
  stats.days_closed = days_closed_;
  return stats;
}

std::uint64_t CongestionService::SamplesProcessed() const {
  std::uint64_t processed = 0;
  for (const auto& shard : shards_) processed += shard->SamplesProcessed();
  return processed;
}

std::string CongestionService::VerdictLogText() const {
  AwaitClose();
  runtime::MutexLock lock(mu_);
  // Days closed in ascending order and links ascending within a day, so
  // (day, link) order is close order.
  std::vector<const VerdictRecord*> rows;
  rows.reserve(verdict_rows_);
  for (const auto& [link, link_rows] : index_) {
    for (const VerdictRecord& v : link_rows) rows.push_back(&v);
  }
  std::sort(rows.begin(), rows.end(),
            [](const VerdictRecord* a, const VerdictRecord* b) {
              return a->day != b->day ? a->day < b->day : a->link < b->link;
            });
  std::string log;
  for (const VerdictRecord* v : rows) log += FormatVerdictLine(*v);
  return log;
}

std::int64_t CongestionService::LastClosedDay() const {
  AwaitClose();
  runtime::MutexLock lock(mu_);
  return last_closed_day_;
}

}  // namespace manic::serve
