#include "infer/streaming.h"

#include <algorithm>
#include <limits>

namespace manic::infer {

DataQuality LinkQualityAccumulator::Finish(int total_days) const {
  DataQuality q;
  q.far_coverage_frac = far_total == 0
                            ? 0.0
                            : static_cast<double>(far_present) /
                                  static_cast<double>(far_total);
  q.near_coverage_frac = near_total == 0
                             ? 0.0
                             : static_cast<double>(near_present) /
                                   static_cast<double>(near_total);
  q.longest_gap_intervals = static_cast<int>(gap);
  q.days_observed = static_cast<int>(days_observed);
  q.total_days = total_days;
  q.vp_churn_events = static_cast<int>(churn);
  return q;
}

StreamingClassifier::StreamingClassifier(AutocorrConfig config)
    : config_(config), rolling_(config) {}

std::size_t StreamingClassifier::OpenDays() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(open_.begin(), open_.end(),
                    [](const OpenDay& od) { return od.open; }));
}

// The first sample of a day: reuses a free slot's bins, or grows the set
// when every slot is open.
StreamingClassifier::OpenDay& StreamingClassifier::Open(std::int64_t day) {
  for (std::size_t i = 0; i < open_.size(); ++i) {
    if (open_[i].open && open_[i].day == day) return open_[last_ = i];
  }
  std::size_t i = 0;
  while (i < open_.size() && open_[i].open) ++i;
  if (i == open_.size()) {
    open_.emplace_back();
    open_[i].far.resize(static_cast<std::size_t>(config_.intervals_per_day));
    open_[i].near.resize(static_cast<std::size_t>(config_.intervals_per_day));
  }
  OpenDay& od = open_[last_ = i];
  od.day = day;
  od.open = true;
  std::fill(od.far.begin(), od.far.end(),
            std::numeric_limits<float>::quiet_NaN());
  std::fill(od.near.begin(), od.near.end(),
            std::numeric_limits<float>::quiet_NaN());
  return od;
}

// Called for every sample the serving plane ingests; fenced by the linter's
// hot-path contract. A sample for the day the previous one opened finds its
// slot directly; any other day goes through Open, which allocates only when
// more days are open at once than ever before.
// manic-lint: hot-path(begin)
void StreamingClassifier::AddSample(std::int64_t day, int interval,
                                    bool far_side, float value_ms) {
  if (interval < 0 || interval >= config_.intervals_per_day) return;
  OpenDay& od = last_ < open_.size() && open_[last_].open &&
                        open_[last_].day == day
                    ? open_[last_]
                    : Open(day);
  if (std::isnan(value_ms)) return;  // marker: the day is now open, bin stays NaN
  float& slot = far_side ? od.far[static_cast<std::size_t>(interval)]
                         : od.near[static_cast<std::size_t>(interval)];
  slot = std::isnan(slot) ? value_ms : std::min(slot, value_ms);
}
// manic-lint: hot-path(end)

StreamingClassifier::DayOutcome StreamingClassifier::CloseDay(
    std::int64_t day) {
  DayOutcome outcome;
  // Days close in ascending order, so any earlier day still open here can
  // never be finalized — free its slot rather than hold it forever.
  OpenDay* closing = nullptr;
  for (OpenDay& od : open_) {
    if (!od.open || od.day > day) continue;
    if (od.day == day) closing = &od;
    od.open = false;
  }
  if (closing == nullptr) return outcome;  // invisible day: nothing recorded
  outcome.observed = true;
  rolling_.AddDay(closing->far, closing->near);
  if (day >= 0) quality_.AddDay(closing->far, closing->near);
  if (day >= 0 && rolling_.WindowFull()) {
    outcome.classification = rolling_.Classify();
  }
  return outcome;
}

}  // namespace manic::infer
