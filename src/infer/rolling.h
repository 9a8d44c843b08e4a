// Incremental (rolling-window) variant of the autocorrelation method, used
// by the longitudinal benches that classify every day of a 22-month study
// for ~1000 links and by every (VP, link) pair of the serving plane: instead
// of rescanning the 50x96 grid per day, it maintains per-interval
// elevated-day counts and updates them as days enter and leave the window.
// Guaranteed (and differential-tested against AnalyzeWindow) to classify the
// newest day exactly as the batch AnalyzeWindow would on the same window.
//
// State layout: one flat window_days x intervals ring each for the far bins,
// the near bins and the elevation flags, plus per-day minima and defined-bin
// counts. The rings are allocated on the first AddDay and reused forever
// after, so a day costs no allocation. A running defined-bin count makes
// Classify O(intervals); the per-day minima give the window minimum on
// eviction, and the flags are recomputed only when a threshold moves.
//
// Save/Load checkpoint the window exactly: the held days oldest first, each
// as its far and near rows by bit pattern. The minima, defined-bin counts,
// flags and per-interval counts are functions of those rows (flags always
// match the current thresholds), so Load rebuilds them instead of trusting
// them from disk, and the ring slot layout is not part of the format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "infer/autocorr.h"

namespace manic::runtime {
class BlobReader;
class BlobWriter;
}  // namespace manic::runtime

namespace manic::infer {

struct DayClassification {
  bool recurring = false;       // link shows recurring congestion this window
  RejectReason reject = RejectReason::kNone;
  bool congested = false;       // the newest day, inside the recurring window
  double fraction = 0.0;        // congestion level of the newest day
  int window_start = 0;
  int window_len = 0;
  double threshold_ms = 0.0;
  // Interval-of-day indices (within the recurring window) that were elevated
  // on the newest day — the per-interval detail Fig 9's histograms consume.
  std::vector<int> congested_intervals;
};

class RollingAutocorr {
 public:
  explicit RollingAutocorr(AutocorrConfig config = {});

  // Appends one day of per-interval minimum RTTs (NaN = missing bin) for
  // the far and near side; evicts the oldest day once the window is full.
  void AddDay(std::span<const float> far, std::span<const float> near);

  // True once window_days days have been accumulated.
  bool WindowFull() const noexcept { return days_ >= config_.window_days; }
  int DaysHeld() const noexcept { return days_; }

  // Classification of the newest day against the current window.
  DayClassification Classify() const;

  // Batch-equivalent view of the current window (for tests).
  AutocorrResult AnalyzeBatch() const;

  // Appends the window's logical state (see the header comment).
  void Save(runtime::BlobWriter& out) const;
  // Replaces the state with a saved window of this config's shape. False on
  // a malformed blob or one holding more than window_days days.
  [[nodiscard]] bool Load(runtime::BlobReader& in);

 private:
  // Ring slot of the i-th held day, oldest first.
  std::size_t Slot(int i) const noexcept {
    return static_cast<std::size_t>((oldest_ + i) % config_.window_days);
  }
  std::size_t Row(std::size_t slot) const noexcept {
    return slot * static_cast<std::size_t>(config_.intervals_per_day);
  }
  // Allocates the rings on first use.
  void EnsureRings();
  // Records the minima and defined-bin count of the rows in `slot` and adds
  // them to the window totals.
  void SummarizeDay(std::size_t slot);
  // Flags the day in `slot` against the current thresholds and adds its
  // flags to counts_.
  void FlagDay(std::size_t slot);
  void RecomputeFlags();

  AutocorrConfig config_;
  std::vector<float> far_;            // window_days x intervals ring
  std::vector<float> near_;           // window_days x intervals ring
  std::vector<std::uint8_t> flags_;   // elevated per (slot, interval)
  std::vector<float> day_far_min_;    // per slot
  std::vector<float> day_near_min_;   // per slot
  std::vector<int> day_defined_;      // far bins present, per slot
  std::vector<int> counts_;           // elevated days per interval
  int oldest_ = 0;                    // slot of the oldest held day
  int days_ = 0;                      // days held
  std::size_t defined_ = 0;           // far bins present in the window
  double far_min_ = std::numeric_limits<double>::infinity();
  double near_min_ = std::numeric_limits<double>::infinity();
};

}  // namespace manic::infer
