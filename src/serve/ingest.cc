#include "serve/ingest.h"

#include <algorithm>
#include <limits>
#include <string>

namespace manic::serve {
namespace {

std::uint64_t PairKey(topo::LinkId link, topo::VpId vp) {
  return (static_cast<std::uint64_t>(link) << 32) | vp;
}

tsdb::TagSet PairTags(topo::LinkId link, topo::VpId vp) {
  tsdb::TagSet tags;
  tags.Set("link", std::to_string(link));
  tags.Set("vp", std::to_string(vp));
  return tags;
}

}  // namespace

IngestShard::IngestShard(IngestShardConfig config)
    : config_(config),
      ring_(config.ring_capacity),
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
}

void IngestShard::Publish() { ring_.Publish(); }

void IngestShard::PushCloseDay(std::int64_t day) {
  Msg msg;
  msg.kind = MsgKind::kCloseDay;
  msg.day = day;
  // Publish-before-marker: Push publishes the staged samples and the marker
  // in one store, so WaitClosed(day) can never wait on a stranded run.
  ring_.Push(msg);
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
    // One wake per published run; the sample counter moves once per run.
    std::uint64_t samples = 0;
    ring_.DrainRunBlocking([&](Msg& msg) {
      switch (msg.kind) {
        // The per-sample branch is the worker's steady state and carries
        // the linter's hot-path contract; day-close below is cold and
        // exempt.
        // manic-lint: hot-path(begin)
        case MsgKind::kSample:
          engine_.Ingest(msg.sample);
          if (config_.store_raw) Store(msg.sample);
          ++samples;
          break;
          // manic-lint: hot-path(end)
        case MsgKind::kCloseDay:
          FinalizeDay(msg.day);
          break;
        case MsgKind::kStop:
          stopped = true;
          break;
      }
    });
    samples_.fetch_add(samples, std::memory_order_relaxed);
  }
}

void IngestShard::FinalizeDay(std::int64_t day) {
  day_verdicts_ = engine_.CloseDay(day);
  // Saturate the study day-count so an extreme day index cannot overflow
  // the int cast.
  quality_ = engine_.QualitySnapshot(
      day >= 0 ? static_cast<int>(std::min<std::int64_t>(
                     day, std::numeric_limits<int>::max() - 1)) +
                     1
               : 0);
  if (config_.store_raw && config_.retention_horizon_s > 0) {
    const std::size_t dropped =
        db_.EnforceRetention("tslp_rtt", config_.retention_horizon_s) +
        db_.EnforceRetention("tslp_loss", config_.retention_horizon_s);
    raw_points_.fetch_sub(dropped, std::memory_order_relaxed);
  }
  closed_through_.store(day, std::memory_order_release);
  closed_through_.notify_all();
}

tsdb::Database::SeriesHandle IngestShard::RttHandle(topo::LinkId link,
                                                    topo::VpId vp,
                                                    bool far_side) {
  auto& cache = far_side ? far_handles_ : near_handles_;
  const std::uint64_t key = PairKey(link, vp);
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  tsdb::TagSet tags = PairTags(link, vp);
  tags.Set("side", far_side ? "far" : "near");
  const tsdb::Database::SeriesHandle handle = db_.OpenSeries("tslp_rtt", tags);
  cache.emplace(key, handle);
  return handle;
}

tsdb::Database::SeriesHandle IngestShard::LossHandle(topo::LinkId link,
                                                     topo::VpId vp) {
  const std::uint64_t key = PairKey(link, vp);
  const auto it = loss_handles_.find(key);
  if (it != loss_handles_.end()) return it->second;
  const tsdb::Database::SeriesHandle handle =
      db_.OpenSeries("tslp_loss", PairTags(link, vp));
  loss_handles_.emplace(key, handle);
  return handle;
}

void IngestShard::Store(const Sample& s) {
  switch (s.kind) {
    case SampleKind::kFarRtt:
    case SampleKind::kNearRtt:
      db_.Append(RttHandle(s.link, s.vp, s.kind == SampleKind::kFarRtt), s.t,
                 s.value);
      raw_points_.fetch_add(1, std::memory_order_relaxed);
      break;
    case SampleKind::kFarMissing:
    case SampleKind::kNearMissing:
      db_.AppendMissing(
          RttHandle(s.link, s.vp, s.kind == SampleKind::kFarMissing), s.t);
      break;
    case SampleKind::kLossRate:
      db_.Append(LossHandle(s.link, s.vp), s.t, s.value);
      raw_points_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

}  // namespace manic::serve
