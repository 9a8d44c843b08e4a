#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "stats/calendar.h"

namespace manic::serve {

CongestionService::CongestionService(ServiceConfig config)
    : config_(config) {
  if (config_.shards < 1) config_.shards = 1;
  IngestShardConfig shard_config;
  shard_config.engine = config_.engine;
  shard_config.ring_capacity = config_.ring_capacity;
  shard_config.store_raw = config_.store_raw;
  shard_config.retention_horizon_s = config_.retention_horizon_s;
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
  if (!running_) return;
  for (auto& shard : shards_) shard->Stop();
  running_ = false;
}

SubmitOutcome CongestionService::Submit(const Sample& s) {
  const bool was_degraded = degraded_;
  SubmitOutcome outcome = SubmitOne(s, true);
  PublishShards();
  // The single-sample path flushes per call so the caller's view ("Submit
  // returned") never runs ahead of the log. Batch for throughput.
  if (WalLive() && FlushWalPending() != WalStatus::kOk) EnterDegraded();
  // Degradation may also strike inside SubmitOne's day-close walk, so the
  // shed conversion keys off the transition itself: consumed in memory but
  // not durable must never read as acknowledged.
  if (!was_degraded && degraded_ &&
      (outcome == SubmitOutcome::kAccepted ||
       outcome == SubmitOutcome::kLate)) {
    outcome = SubmitOutcome::kShed;
  }
  return outcome;
}

SubmitOutcome CongestionService::SubmitOne(const Sample& s, bool live) {
  if (live && degraded_) return SubmitOutcome::kShed;
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
    if (live && WalLive()) {
      wal_pending_.push_back(s);
    } else {
      ++samples_consumed_;  // no WAL, or replaying what is already durable
    }
    samples_late_.fetch_add(1, std::memory_order_relaxed);
    return SubmitOutcome::kLate;
  }
  // Write-ahead: the sample joins the pending WAL record before it reaches
  // the rings; the record is flushed before any ack or day close publishes.
  if (live && WalLive()) {
    wal_pending_.push_back(s);
  } else {
    ++samples_consumed_;  // no WAL, or replaying what is already durable
  }
  // Staged only: the caller publishes every shard once per call (or a
  // close marker below carries the run out with it).
  shards_[s.link % shards_.size()]->PushSample(s);
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
  SubmitSummary summary;
  const bool was_degraded = degraded_;
  for (const Sample& s : samples) {
    switch (SubmitOne(s, true)) {
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
  PublishShards();
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
  if (!running_) Start();  // replay needs the shard workers
  replaying_ = true;
  stats = ReadWal(
      config_.wal_dir,
      [this](std::span<const Sample> batch) {
        // The logged stream is exactly the consumed stream: re-admitting it
        // reproduces every accepted/late decision, because the watermark
        // and closed-day state evolve identically.
        for (const Sample& s : batch) {
          const SubmitOutcome replayed = SubmitOne(s, false);
          (void)replayed;  // logged samples re-admit deterministically
        }
        PublishShards();
      },
      [this](std::int64_t day) { CloseThrough(day); });
  replaying_ = false;
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
  return stats;
}

WalStatus CongestionService::CloseWalClean() {
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

void CongestionService::PublishShards() {
  for (auto& shard : shards_) shard->Publish();
  samples_accepted_.fetch_add(std::exchange(run_accepted_, 0),
                              std::memory_order_relaxed);
}

void CongestionService::EnterDegraded() {
  degraded_ = true;
  wal_pending_.clear();
  if (wal_ != nullptr) wal_->Abandon();
}

void CongestionService::PollClock() {
  if (config_.clock == nullptr) return;
  const std::int64_t today = stats::DayOf(config_.clock->NowSec());
  if (!saw_sample_) {
    saw_sample_ = true;
    producer_last_closed_ = today - 1;
    return;
  }
  CloseThrough(today - 1);
}

std::int64_t CongestionService::FinishStream() {
  if (saw_sample_) CloseThrough(stats::DayOf(watermark_t_));
  return producer_last_closed_;
}

void CongestionService::CloseThrough(std::int64_t target_day) {
  while (producer_last_closed_ < target_day) {
    const std::int64_t day = producer_last_closed_ + 1;
    // Broadcast the in-band close marker first, so the shards finalize the
    // day while the producer makes it durable below. Every sample that can
    // contribute is already staged ahead of the marker (publish-before-
    // marker), and a shard's result is invisible until the publish at the
    // end of this iteration.
    for (auto& shard : shards_) shard->PushCloseDay(day);
    if (WalLive()) {
      // Durability order: every sample that can contribute to this close,
      // then the close marker (fsynced under kDayClose), then (below) the
      // verdicts publish. A crash before the marker recovers to "day still
      // open" — the verdicts were never acknowledged to anyone.
      if (FlushWalPending() != WalStatus::kOk ||
          wal_->AppendClose(day) != WalStatus::kOk) {
        EnterDegraded();
      }
    }
    // Wait for every shard to deposit; collecting before the next close is
    // what keeps the deposit slots race-free (see ingest.h).
    std::vector<VerdictRecord> merged;
    for (auto& shard : shards_) {
      shard->WaitClosed(day);
      std::vector<VerdictRecord> part = shard->TakeDayVerdicts();
      merged.insert(merged.end(), part.begin(), part.end());
    }
    // Each link lives on exactly one shard, so link order is a total order
    // over the merged rows — the log is independent of the shard count.
    std::sort(merged.begin(), merged.end(),
              [](const VerdictRecord& a, const VerdictRecord& b) {
                return a.link < b.link;
              });
    {
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
      last_closed_day_ = day;
      ++days_closed_;
    }
    producer_last_closed_ = day;
  }
}

std::vector<VerdictRecord> CongestionService::QueryRange(topo::LinkId link,
                                                         TimeSec t0,
                                                         TimeSec t1) const {
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
  runtime::MutexLock lock(mu_);
  const auto it = quality_.find(link);
  if (it == quality_.end()) return std::nullopt;
  return it->second;
}

ServiceStats CongestionService::Stats() const {
  ServiceStats stats;
  stats.samples = samples_accepted_.load(std::memory_order_relaxed);
  stats.samples_late = samples_late_.load(std::memory_order_relaxed);
  stats.samples_rejected = samples_rejected_.load(std::memory_order_relaxed);
  stats.shards = static_cast<std::uint32_t>(shards_.size());
  for (const auto& shard : shards_) stats.raw_points += shard->RawPoints();
  runtime::MutexLock lock(mu_);
  stats.verdicts = verdict_rows_;
  stats.links = index_.size();
  stats.last_closed_day = last_closed_day_;
  stats.days_closed = days_closed_;
  return stats;
}

std::string CongestionService::VerdictLogText() const {
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
  runtime::MutexLock lock(mu_);
  return last_closed_day_;
}

}  // namespace manic::serve
