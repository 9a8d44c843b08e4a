// The autocorrelation congestion-inference method (§4.2) — the paper's
// primary detector. Raw TSLP latencies are aggregated into 15-minute
// minimum bins; over a 50-day window, each interval-of-day accumulates the
// number of days on which the far-side RTT exceeded (window min RTT + 7 ms)
// while the near side was NOT elevated (near-side elevation indicates
// congestion inside the access network and is excluded). A recurring
// congestion window is the contiguous run of intervals around the peak
// count; false-positive filters reject series with ambiguous multi-modal
// peaks or peaks driven by disjoint day sets. Each day is then classified
// and assigned a congestion level = elevated in-window intervals / 96.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "stats/timeseries.h"

namespace manic::infer {

using stats::TimeSec;

// Acceptance thresholds for the per-link DataQuality verdict (data_quality.h):
// how much of the window must actually have been observed before an
// inference is trusted — the automated stand-in for the paper's operator
// validation of sparse links.
struct DataQualityConfig {
  double min_coverage_frac = 0.5;  // far-side bins present / total bins
  int max_gap_intervals = 2 * 96;  // longest run of missing far bins (2 days)
  int min_days_observed = 7;       // days with at least one far bin
};

struct AutocorrConfig {
  int window_days = 50;
  int intervals_per_day = 96;   // 15-minute bins
  double elevation_ms = 7.0;    // threshold above window min RTT
  int min_elevated_days = 7;    // peak support needed to assert recurrence
  double adjacency_frac = 0.5;  // adjacent interval keeps window if
                                // count >= frac * peak count
  double rival_frac = 0.8;      // disjoint rival peak triggering the filters
  double rival_day_overlap = 0.3;  // Jaccard below this => different days
                                   // drive different peaks => reject
  TimeSec bin_width = 900;
  DataQualityConfig quality;
};

// A days x intervals grid of per-bin minimum RTTs; NaN marks missing bins.
class DayGrid {
 public:
  DayGrid(int days, int intervals)
      : days_(days),
        intervals_(intervals),
        values_(static_cast<std::size_t>(days) * intervals,
                std::numeric_limits<float>::quiet_NaN()) {}

  int days() const noexcept { return days_; }
  int intervals() const noexcept { return intervals_; }
  float At(int day, int interval) const noexcept {
    return values_[static_cast<std::size_t>(day) * intervals_ + interval];
  }
  void Set(int day, int interval, float v) noexcept {
    values_[static_cast<std::size_t>(day) * intervals_ + interval] = v;
  }
  std::span<const float> Row(int day) const noexcept {
    return {values_.data() + static_cast<std::size_t>(day) * intervals_,
            static_cast<std::size_t>(intervals_)};
  }
  static bool Missing(float v) noexcept { return std::isnan(v); }

  // Builds a grid from a raw time series over [t0, t0 + days*86400) using
  // minimum aggregation per bin.
  static DayGrid FromSeries(const stats::TimeSeries& series, TimeSec t0,
                            int days, TimeSec bin_width);

 private:
  int days_ = 0;
  int intervals_ = 0;
  std::vector<float> values_;
};

enum class RejectReason : std::uint8_t {
  kNone,
  kInsufficientData,   // too few usable bins
  kNoPeak,             // peak support below min_elevated_days
  kAmbiguousWindows,   // several candidate windows across the day
  kInconsistentDays,   // different days drive different peaks
  kLowCoverage,        // DataQuality verdict below the acceptance thresholds
};

struct AutocorrResult {
  bool recurring = false;
  RejectReason reject = RejectReason::kNone;
  // Recurring congestion window in interval-of-day units; may wrap midnight
  // (start + len can exceed intervals_per_day; reduce modulo).
  int window_start = 0;
  int window_len = 0;
  double min_rtt_ms = 0.0;
  double threshold_ms = 0.0;
  std::vector<int> counts;               // elevated-day count per interval
  std::vector<std::uint8_t> day_congested;  // per window day
  std::vector<double> day_fraction;         // congestion level per day

  bool InWindow(int interval, int intervals_per_day) const noexcept {
    if (!recurring) return false;
    const int rel = (interval - window_start + intervals_per_day) %
                    intervals_per_day;
    return rel < window_len;
  }
};

// Batch analysis of one link-from-one-VP over a window (far and near grids
// must have identical dimensions).
AutocorrResult AnalyzeWindow(const DayGrid& far, const DayGrid& near,
                             const AutocorrConfig& config = {});

namespace detail {

// Window detection shared by the batch and rolling implementations so they
// cannot diverge: given per-interval elevated-day counts and an accessor for
// the (day, interval) elevation flags, finds the recurring window and
// applies the rival-peak rejection filters.
struct WindowDetection {
  bool recurring = false;
  RejectReason reject = RejectReason::kNone;
  int window_start = 0;
  int window_len = 0;
  int peak_interval = 0;
  int peak_count = 0;
};

template <typename ElevatedFn>  // bool(int day, int interval)
WindowDetection DetectRecurringWindow(std::span<const int> counts, int days,
                                      const ElevatedFn& elevated,
                                      const AutocorrConfig& cfg) {
  WindowDetection det;
  const int I = static_cast<int>(counts.size());

  int peak = 0, peak_s = 0;
  for (int s = 0; s < I; ++s) {
    if (counts[static_cast<std::size_t>(s)] > peak) {
      peak = counts[static_cast<std::size_t>(s)];
      peak_s = s;
    }
  }
  det.peak_interval = peak_s;
  det.peak_count = peak;
  if (peak < cfg.min_elevated_days) {
    det.reject = RejectReason::kNoPeak;
    return det;
  }

  const int keep =
      std::max(1, static_cast<int>(std::ceil(cfg.adjacency_frac * peak)));
  int left = peak_s;
  int len = 1;
  while (len < I) {
    const int next_left = left == 0 ? I - 1 : left - 1;
    if (counts[static_cast<std::size_t>(next_left)] >= keep) {
      left = next_left;
      ++len;
    } else {
      break;
    }
  }
  int right = peak_s;
  while (len < I) {
    const int next_right = right == I - 1 ? 0 : right + 1;
    if (next_right == left) break;
    if (counts[static_cast<std::size_t>(next_right)] >= keep) {
      right = next_right;
      ++len;
    } else {
      break;
    }
  }
  det.window_start = left;
  det.window_len = len;

  // A rival is any interval neither in the window nor next to it, i.e. at
  // an offset of len + 1 or more from the interval just left of the window
  // (going round midnight). A window of I - 2 or more leaves no rival.
  const auto near_window = [&](int s) {
    int rel = s - left + 1;
    if (rel < 0) rel += I;
    if (rel >= I) rel -= I;
    return rel < len + 2;
  };
  int rival_s = -1, rival = 0;
  for (int s = 0; s < I; ++s) {
    if (near_window(s)) continue;
    if (counts[static_cast<std::size_t>(s)] > rival) {
      rival = counts[static_cast<std::size_t>(s)];
      rival_s = s;
    }
  }
  if (rival_s >= 0 && rival >= cfg.rival_frac * peak) {
    int both = 0, either = 0;
    for (int d = 0; d < days; ++d) {
      const bool a = elevated(d, peak_s);
      const bool b = elevated(d, rival_s);
      if (a && b) ++both;
      if (a || b) ++either;
    }
    const double jaccard =
        either > 0 ? static_cast<double>(both) / either : 0.0;
    det.reject = jaccard < cfg.rival_day_overlap
                     ? RejectReason::kInconsistentDays
                     : RejectReason::kAmbiguousWindows;
    return det;
  }
  det.recurring = true;
  return det;
}

}  // namespace detail

// Merges per-VP inferences for the same link (§4.2 final stage): a link is
// recurring-congested if any VP asserts it; day fractions are averaged over
// the VPs that observed the day and asserted recurrence.
AutocorrResult MergeVpInferences(std::span<const AutocorrResult> per_vp,
                                 const AutocorrConfig& config = {});

}  // namespace manic::infer
