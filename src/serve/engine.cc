#include "serve/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/calendar.h"

namespace manic::serve {

ShardEngine::ShardEngine(EngineConfig config) : config_(config) {}

ShardEngine::PairSlot ShardEngine::AddPair(topo::LinkId link,
                                           topo::VpId vp) {
  const auto slot = static_cast<PairSlot>(pairs_.size());
  pairs_.emplace_back(config_.autocorr);
  slot_of_.emplace(PairKey(link, vp), slot);
  return slot;
}

// Per-sample admission: runs once for every record off the wire, so it is
// fenced by the linter's hot-path contract — no allocation, locking, or I/O.
// manic-lint: hot-path(begin)
void ShardEngine::IngestAt(PairSlot slot, const Sample& s) {
  if (s.kind == SampleKind::kLossRate) {
    ++samples_;
    return;
  }

  const std::int64_t day = stats::DayOf(s.t);
  if (has_closed_ && day <= closed_through_) {
    ++late_;
    return;
  }
  ++samples_;
  const std::int64_t within = s.t - day * stats::kSecPerDay;
  int interval = static_cast<int>(within / config_.autocorr.bin_width);
  if (interval < 0) interval = 0;
  if (interval >= config_.autocorr.intervals_per_day) {
    interval = config_.autocorr.intervals_per_day - 1;
  }

  const bool far_side =
      s.kind == SampleKind::kFarRtt || s.kind == SampleKind::kFarMissing;
  const bool missing =
      s.kind == SampleKind::kFarMissing || s.kind == SampleKind::kNearMissing;
  const float value_ms =
      missing ? std::numeric_limits<float>::quiet_NaN() : s.value;
  pairs_[slot].AddSample(day, interval, far_side, value_ms);
}
// manic-lint: hot-path(end)

std::vector<VerdictRecord> ShardEngine::CloseDay(std::int64_t day) {
  has_closed_ = true;
  closed_through_ = day;
  // Study day-count for the quality grade, saturated so an extreme day
  // index cannot overflow the int cast.
  const int total_days =
      day >= 0 ? static_cast<int>(std::min<std::int64_t>(
                     day, std::numeric_limits<int>::max() - 1)) +
                     1
               : 0;
  std::vector<VerdictRecord> verdicts;
  quality_.clear();
  for (auto it = slot_of_.begin(); it != slot_of_.end();) {
    const topo::LinkId link = LinkOf(it->first);
    double fraction_sum = 0.0;
    std::uint32_t contributors = 0;
    std::uint32_t asserting = 0;
    infer::LinkQualityAccumulator acc;
    bool measured = false;
    for (; it != slot_of_.end() && LinkOf(it->first) == link; ++it) {
      infer::StreamingClassifier& state = pairs_[it->second];
      const infer::StreamingClassifier::DayOutcome outcome =
          state.CloseDay(day);
      if (outcome.classification) {
        ++contributors;
        if (outcome.classification->recurring) {
          ++asserting;
          fraction_sum += outcome.classification->fraction;
        }
      }
      if (state.quality().far_total > 0) {
        acc.Add(state.quality());
        measured = true;
      }
    }
    if (measured) quality_.emplace_back(link, acc.Finish(total_days));
    // Same gate as the batch loop: a link gets a verdict on every day at
    // least one of its VPs had a full window (today_observed), with the
    // fraction averaged over recurring-asserting VPs (0 when none assert).
    if (contributors == 0) continue;
    VerdictRecord v;
    v.day = day;
    v.link = link;
    v.contributors = contributors;
    v.asserting = asserting;
    v.recurring = asserting > 0;
    v.fraction =
        asserting > 0 ? fraction_sum / static_cast<double>(asserting) : 0.0;
    v.congested = v.fraction >= config_.congested_threshold_frac;
    if (measured && day >= 0) {
      const infer::DataQuality& q = quality_.back().second;
      v.quality_ok = q.Acceptable(config_.autocorr.quality);
      v.far_coverage_frac = q.far_coverage_frac;
    }
    verdicts.push_back(v);
  }
  return verdicts;
}

std::map<topo::LinkId, infer::DataQuality> ShardEngine::QualitySnapshot(
    int total_days) const {
  std::map<topo::LinkId, infer::DataQuality> out(quality_.begin(),
                                                 quality_.end());
  // Every other field is independent of the day count it is graded over.
  for (auto& [link, q] : out) q.total_days = total_days;
  return out;
}

}  // namespace manic::serve
