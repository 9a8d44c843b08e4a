#include "infer/streaming.h"

#include <algorithm>
#include <limits>

#include "runtime/checkpoint.h"

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

void QualityTally::Save(runtime::BlobWriter& out) const {
  for (const std::int64_t v :
       {far_present, far_total, near_present, near_total, prefix_gap,
        suffix_gap, max_gap, days_observed, churn}) {
    out.PutI64(v);
  }
  out.PutU32((any_bin ? 1u : 0u) | (has_days ? 2u : 0u) |
             (first_day_observed ? 4u : 0u) | (last_day_observed ? 8u : 0u));
}

bool QualityTally::Load(runtime::BlobReader& in) {
  std::uint32_t flags = 0;
  if (!in.GetI64(&far_present) || !in.GetI64(&far_total) ||
      !in.GetI64(&near_present) || !in.GetI64(&near_total) ||
      !in.GetI64(&prefix_gap) || !in.GetI64(&suffix_gap) ||
      !in.GetI64(&max_gap) || !in.GetI64(&days_observed) ||
      !in.GetI64(&churn) || !in.GetU32(&flags) || flags > 15u) {
    return false;
  }
  // Every field is a count.
  if (far_present < 0 || far_total < 0 || near_present < 0 ||
      near_total < 0 || prefix_gap < 0 || suffix_gap < 0 || max_gap < 0 ||
      days_observed < 0 || churn < 0) {
    return false;
  }
  any_bin = (flags & 1u) != 0;
  has_days = (flags & 2u) != 0;
  first_day_observed = (flags & 4u) != 0;
  last_day_observed = (flags & 8u) != 0;
  return true;
}

void StreamingClassifier::Save(runtime::BlobWriter& out) const {
  std::vector<const OpenDay*> open;
  for (const OpenDay& od : open_) {
    if (od.open) open.push_back(&od);
  }
  std::sort(open.begin(), open.end(),
            [](const OpenDay* a, const OpenDay* b) { return a->day < b->day; });
  out.PutU32(static_cast<std::uint32_t>(open.size()));
  for (const OpenDay* od : open) {
    out.PutI64(od->day);
    for (const float v : od->far) out.PutFloat(v);
    for (const float v : od->near) out.PutFloat(v);
  }
  rolling_.Save(out);
  quality_.Save(out);
}

bool StreamingClassifier::Load(runtime::BlobReader& in) {
  open_.clear();
  last_ = 0;
  std::uint32_t open = 0;
  // Each open day is at least a day index plus two rows of floats.
  const std::size_t row_bytes =
      4 * static_cast<std::size_t>(config_.intervals_per_day);
  if (!in.GetU32(&open) || open > in.remaining() / (8 + 2 * row_bytes)) {
    return false;
  }
  std::int64_t previous = 0;
  for (std::uint32_t i = 0; i < open; ++i) {
    std::int64_t day = 0;
    if (!in.GetI64(&day) || (i > 0 && day <= previous)) return false;
    previous = day;
    OpenDay& od = Open(day);
    for (float& v : od.far) {
      if (!in.GetFloat(&v)) return false;
    }
    for (float& v : od.near) {
      if (!in.GetFloat(&v)) return false;
    }
  }
  return rolling_.Load(in) && quality_.Load(in);
}

}  // namespace manic::infer
