#include "infer/rolling.h"

#include <algorithm>
#include <cmath>

#include "runtime/checkpoint.h"

namespace manic::infer {

RollingAutocorr::RollingAutocorr(AutocorrConfig config)
    : config_(config),
      counts_(static_cast<std::size_t>(config.intervals_per_day), 0) {}

void RollingAutocorr::FlagDay(std::size_t slot) {
  const double far_thr = far_min_ + config_.elevation_ms;
  const double near_thr = near_min_ + config_.elevation_ms;
  const std::size_t row = Row(slot);
  const float* far = far_.data() + row;
  const float* near = near_.data() + row;
  std::uint8_t* flags = flags_.data() + row;
  // A NaN bin compares false, so a missing far bin is never elevated and a
  // missing near bin never vetoes one.
  for (std::size_t s = 0; s < counts_.size(); ++s) {
    const bool elevated = static_cast<double>(far[s]) > far_thr &&
                          !(static_cast<double>(near[s]) > near_thr);
    flags[s] = elevated ? 1 : 0;
    counts_[s] += elevated ? 1 : 0;
  }
}

void RollingAutocorr::RecomputeFlags() {
  std::fill(counts_.begin(), counts_.end(), 0);
  for (int d = 0; d < days_; ++d) FlagDay(Slot(d));
}

void RollingAutocorr::EnsureRings() {
  if (!far_.empty()) return;
  const std::size_t window = static_cast<std::size_t>(config_.window_days);
  far_.resize(window * counts_.size());
  near_.resize(window * counts_.size());
  flags_.resize(window * counts_.size());
  day_far_min_.resize(window);
  day_near_min_.resize(window);
  day_defined_.resize(window);
}

void RollingAutocorr::SummarizeDay(std::size_t slot) {
  const std::size_t row = Row(slot);
  float far_min = std::numeric_limits<float>::infinity();
  float near_min = std::numeric_limits<float>::infinity();
  int defined = 0;
  for (std::size_t s = 0; s < counts_.size(); ++s) {
    const float fv = far_[row + s];
    const float nv = near_[row + s];
    if (!DayGrid::Missing(fv)) {
      far_min = std::min(far_min, fv);
      ++defined;
    }
    if (!DayGrid::Missing(nv)) near_min = std::min(near_min, nv);
  }
  day_far_min_[slot] = far_min;
  day_near_min_[slot] = near_min;
  day_defined_[slot] = defined;
  defined_ += static_cast<std::size_t>(defined);
  far_min_ = std::min(far_min_, static_cast<double>(far_min));
  near_min_ = std::min(near_min_, static_cast<double>(near_min));
}

void RollingAutocorr::AddDay(std::span<const float> far,
                             std::span<const float> near) {
  const std::size_t intervals = counts_.size();
  EnsureRings();
  const double old_far_min = far_min_;
  const double old_near_min = near_min_;

  // The next free slot, which in a full window is the oldest day's.
  const std::size_t slot = Slot(days_);
  if (days_ == config_.window_days) {
    // Evict the oldest day; the new day takes its slot.
    oldest_ = (oldest_ + 1) % config_.window_days;
    --days_;
    defined_ -= static_cast<std::size_t>(day_defined_[slot]);
    const std::uint8_t* flags = flags_.data() + Row(slot);
    for (std::size_t s = 0; s < intervals; ++s) counts_[s] -= flags[s];
    if (static_cast<double>(day_far_min_[slot]) <= far_min_ ||
        static_cast<double>(day_near_min_[slot]) <= near_min_) {
      // The evicted day held a window minimum: take it again over the
      // remaining days' minima.
      far_min_ = std::numeric_limits<double>::infinity();
      near_min_ = std::numeric_limits<double>::infinity();
      for (int d = 0; d < days_; ++d) {
        const std::size_t held = Slot(d);
        far_min_ = std::min(far_min_, static_cast<double>(day_far_min_[held]));
        near_min_ =
            std::min(near_min_, static_cast<double>(day_near_min_[held]));
      }
    }
  }

  std::copy_n(far.begin(), intervals, far_.begin() + Row(slot));
  std::copy_n(near.begin(), intervals, near_.begin() + Row(slot));
  SummarizeDay(slot);
  ++days_;

  // Flags depend only on the two thresholds: while neither moves, every
  // held day keeps its flags and only the new day needs them.
  if (far_min_ != old_far_min || near_min_ != old_near_min) {
    RecomputeFlags();
  } else {
    FlagDay(slot);
  }
}

void RollingAutocorr::Save(runtime::BlobWriter& out) const {
  out.PutU32(static_cast<std::uint32_t>(days_));
  for (int d = 0; d < days_; ++d) {
    const std::size_t row = Row(Slot(d));
    for (std::size_t s = 0; s < counts_.size(); ++s) {
      out.PutFloat(far_[row + s]);
    }
    for (std::size_t s = 0; s < counts_.size(); ++s) {
      out.PutFloat(near_[row + s]);
    }
  }
}

bool RollingAutocorr::Load(runtime::BlobReader& in) {
  *this = RollingAutocorr(config_);
  EnsureRings();
  std::uint32_t days = 0;
  if (!in.GetU32(&days) || days > day_defined_.size()) return false;
  // Held days fill slots 0..days-1, oldest first.
  for (std::size_t slot = 0; slot < days; ++slot) {
    const std::size_t row = Row(slot);
    for (std::size_t s = 0; s < counts_.size(); ++s) {
      if (!in.GetFloat(&far_[row + s])) return false;
    }
    for (std::size_t s = 0; s < counts_.size(); ++s) {
      if (!in.GetFloat(&near_[row + s])) return false;
    }
    SummarizeDay(slot);
  }
  days_ = static_cast<int>(days);
  RecomputeFlags();
  return true;
}

DayClassification RollingAutocorr::Classify() const {
  DayClassification cls;
  if (days_ == 0) return cls;

  // Usable-data guard and threshold mirroring the batch implementation
  // (an all-missing window reports the batch's 0 ms minimum).
  const std::size_t total =
      static_cast<std::size_t>(days_) * counts_.size();
  cls.threshold_ms =
      (std::isfinite(far_min_) ? far_min_ : 0.0) + config_.elevation_ms;
  if (defined_ < total / 4) {
    cls.reject = RejectReason::kInsufficientData;
    return cls;
  }

  const auto det = detail::DetectRecurringWindow(
      counts_, days_,
      [&](int d, int s) {
        return flags_[Row(Slot(d)) + static_cast<std::size_t>(s)] != 0;
      },
      config_);
  cls.reject = det.reject;
  cls.recurring = det.recurring;
  cls.window_start = det.window_start;
  cls.window_len = det.window_len;
  if (!det.recurring) return cls;

  const std::uint8_t* today = flags_.data() + Row(Slot(days_ - 1));
  cls.congested_intervals.reserve(static_cast<std::size_t>(det.window_len));
  for (int k = 0, s = det.window_start; k < det.window_len; ++k) {
    if (today[s] != 0) cls.congested_intervals.push_back(s);
    if (++s == config_.intervals_per_day) s = 0;
  }
  cls.congested = !cls.congested_intervals.empty();
  cls.fraction = static_cast<double>(cls.congested_intervals.size()) /
                 config_.intervals_per_day;
  return cls;
}

AutocorrResult RollingAutocorr::AnalyzeBatch() const {
  DayGrid far(days_, config_.intervals_per_day);
  DayGrid near(days_, config_.intervals_per_day);
  for (int d = 0; d < days_; ++d) {
    const std::size_t row = Row(Slot(d));
    for (int s = 0; s < config_.intervals_per_day; ++s) {
      far.Set(d, s, far_[row + static_cast<std::size_t>(s)]);
      near.Set(d, s, near_[row + static_cast<std::size_t>(s)]);
    }
  }
  return AnalyzeWindow(far, near, config_);
}

}  // namespace manic::infer
