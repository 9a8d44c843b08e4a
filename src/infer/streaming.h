// Incremental, O(1)-per-sample inference state for the serving plane
// (src/serve) — and the exact same arithmetic the batch study driver runs,
// so a live daemon fed a recorded stream reproduces the batch pipeline's
// verdicts bit for bit:
//
//   QualityTally          streaming per-(VP, link) data-quality bookkeeping
//                         (lifted from the study driver, which now consumes
//                         it from here). Built to segment-merge exactly:
//                         Append()ing tallies over adjacent day ranges
//                         equals one tally over the union.
//   LinkQualityAccumulator folds per-VP tallies into the per-link
//                         DataQuality verdict exactly as the driver's
//                         link-quality rollup does.
//   StreamingClassifier   one (VP, link) pair's live state: open-day
//                         minimum-RTT bins filled one sample at a time,
//                         closed days pushed into a RollingAutocorr window.
//                         AddSample is O(1) and CloseDay O(intervals); once
//                         a pair has run, neither allocates (open-day bins
//                         and the window rings are reused).
//
// Each class saves and loads its logical state exactly (runtime::BlobWriter,
// floats and doubles by bit pattern) for the serving plane's checkpoints.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "infer/data_quality.h"
#include "infer/rolling.h"

namespace manic::infer {

// Streaming data-quality bookkeeping for one VP-link pair: coverage counts,
// the longest run of missing far bins (time-ordered across day boundaries),
// and day-level observed/unobserved churn. Every field is an exact count,
// so the sharded study path's per-chunk tallies fold to the same integers
// the serial path streams.
struct QualityTally {
  std::int64_t far_present = 0, far_total = 0;
  std::int64_t near_present = 0, near_total = 0;
  // Gap segment over far bins (in intervals). Invariant when no far bin has
  // been seen yet: prefix_gap == suffix_gap == max_gap == far_total, which
  // lets Append() treat an all-missing neighbor as one long run.
  std::int64_t prefix_gap = 0, suffix_gap = 0, max_gap = 0;
  std::int64_t days_observed = 0;
  std::int64_t churn = 0;  // day-level observed <-> unobserved transitions
  bool any_bin = false;
  bool has_days = false;
  bool first_day_observed = false, last_day_observed = false;

  void AddDay(const std::vector<float>& far, const std::vector<float>& near) {
    bool day_observed = false;
    for (const float v : far) {
      ++far_total;
      if (std::isnan(v)) {
        ++suffix_gap;
      } else {
        ++far_present;
        day_observed = true;
        if (!any_bin) {
          prefix_gap = suffix_gap;
          any_bin = true;
        }
        max_gap = std::max(max_gap, suffix_gap);
        suffix_gap = 0;
      }
    }
    if (any_bin) {
      max_gap = std::max(max_gap, suffix_gap);
    } else {
      prefix_gap = max_gap = far_total;  // suffix_gap already == far_total
    }
    for (const float v : near) {
      ++near_total;
      if (!std::isnan(v)) ++near_present;
    }
    if (day_observed) ++days_observed;
    if (has_days && last_day_observed != day_observed) ++churn;
    if (!has_days) {
      first_day_observed = day_observed;
      has_days = true;
    }
    last_day_observed = day_observed;
  }

  // Folds `b` (the tally over the immediately following day range) in.
  void Append(const QualityTally& b) {
    max_gap = std::max({max_gap, b.max_gap, suffix_gap + b.prefix_gap});
    if (!any_bin) prefix_gap = far_total + b.prefix_gap;
    suffix_gap = b.any_bin ? b.suffix_gap : suffix_gap + b.far_total;
    any_bin = any_bin || b.any_bin;
    if (!any_bin) {
      prefix_gap = suffix_gap = max_gap = far_total + b.far_total;
    }
    far_present += b.far_present;
    far_total += b.far_total;
    near_present += b.near_present;
    near_total += b.near_total;
    days_observed += b.days_observed;
    churn += b.churn + ((has_days && b.has_days &&
                         last_day_observed != b.first_day_observed)
                            ? 1
                            : 0);
    if (!has_days) first_day_observed = b.first_day_observed;
    if (b.has_days) last_day_observed = b.last_day_observed;
    has_days = has_days || b.has_days;
  }

  void Save(runtime::BlobWriter& out) const;
  // False on a malformed blob.
  [[nodiscard]] bool Load(runtime::BlobReader& in);
};

// Per-link DataQuality from per-VP tallies: coverage counts sum across
// contributing VPs, the gap and days-observed verdicts take the
// best-informed single VP's worst gap / best day count, and churn events
// sum (each VP's appearances and disappearances all degrade confidence).
// Tallies that never saw a bin (far_total == 0) must be skipped by the
// caller — only measured pairs contribute, so link-quality maps only cover
// measured links.
struct LinkQualityAccumulator {
  std::int64_t far_present = 0, far_total = 0;
  std::int64_t near_present = 0, near_total = 0;
  std::int64_t gap = 0, days_observed = 0, churn = 0;

  void Add(const QualityTally& t) {
    far_present += t.far_present;
    far_total += t.far_total;
    near_present += t.near_present;
    near_total += t.near_total;
    gap = std::max(gap, t.max_gap);
    days_observed = std::max(days_observed, t.days_observed);
    churn += t.churn;
  }

  DataQuality Finish(int total_days) const;
};

// Live classification state for one (VP, link) pair. Samples land in
// open-day bins (minimum aggregation, NaN = probed-but-unanswered marker);
// CloseDay folds a finished day into the rolling autocorrelation window and
// the quality tally, and classifies it exactly as the batch driver's
// per-day loop would: AddDay for every day that produced any record,
// quality only from day 0 on, a classification only once the window is
// full. Because the ingest feed can cross a day boundary before the day is
// closed (the boundary is only known once a later sample arrives), up to a
// handful of days may be open at once. Open days live in a small set of
// slots whose bin buffers are reused: a closed day frees its slot, and a new
// slot is only allocated when more days are open at once than ever before.
class StreamingClassifier {
 public:
  explicit StreamingClassifier(AutocorrConfig config = {});

  // O(1): records one probed slot of day `day`. A NaN value marks the slot
  // probed-but-unanswered (the day still counts as observed); duplicate
  // (day, interval) values keep the minimum.
  void AddSample(std::int64_t day, int interval, bool far_side,
                 float value_ms);

  struct DayOutcome {
    bool observed = false;  // any record landed on this day
    // Set when the day was observed, non-negative, and the rolling window
    // is full — the same gate the batch daily loop applies.
    std::optional<DayClassification> classification;
  };
  // Finalizes `day`. Days must be closed in ascending order; closing a day
  // that received no record is a no-op (an invisible day, exactly like a
  // batch pair outside its visibility window).
  DayOutcome CloseDay(std::int64_t day);

  const QualityTally& quality() const noexcept { return quality_; }
  bool WindowFull() const noexcept { return rolling_.WindowFull(); }

  // The pair's logical state: its open days in ascending day order (each
  // with both bin rows), the rolling window, and the quality tally.
  void Save(runtime::BlobWriter& out) const;
  // Replaces the state with a saved one of this config's shape. False on a
  // malformed blob.
  [[nodiscard]] bool Load(runtime::BlobReader& in);
  int DaysHeld() const noexcept { return rolling_.DaysHeld(); }
  std::size_t OpenDays() const noexcept;

 private:
  struct OpenDay {
    std::int64_t day = 0;
    bool open = false;
    std::vector<float> far, near;  // intervals_per_day bins, kept on reuse
  };
  // The open slot of `day`, opened (all bins NaN) when the day has none.
  OpenDay& Open(std::int64_t day);

  AutocorrConfig config_;
  std::vector<OpenDay> open_;
  std::size_t last_ = 0;  // slot the previous sample landed in
  RollingAutocorr rolling_;
  QualityTally quality_;
};

}  // namespace manic::infer
