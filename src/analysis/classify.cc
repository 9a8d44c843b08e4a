#include "analysis/classify.h"

#include "tslp/tslp.h"

namespace manic::analysis {

double GridMin(const infer::DayGrid& grid) {
  double min = 1e18;
  for (int d = 0; d < grid.days(); ++d) {
    for (int s = 0; s < grid.intervals(); ++s) {
      const float v = grid.At(d, s);
      if (!infer::DayGrid::Missing(v)) {
        min = std::min(min, static_cast<double>(v));
      }
    }
  }
  return min;
}

bool LinkInference::IntervalCongested(TimeSec t, const infer::DayGrid& far,
                                      const infer::DayGrid& near,
                                      double near_min) const {
  if (!result.recurring) return false;
  const TimeSec rel = t - t0;
  if (rel < 0) return false;
  const int day = static_cast<int>(rel / 86400);
  if (day >= days) return false;
  const int interval = static_cast<int>((rel % 86400) / config.bin_width);
  if (!result.InWindow(interval, config.intervals_per_day)) return false;
  // The day must contribute elevation in this very interval.
  const float fv = far.At(day, interval);
  if (infer::DayGrid::Missing(fv) ||
      fv <= static_cast<float>(result.threshold_ms)) {
    return false;
  }
  const float nv = near.At(day, interval);
  // Near-side elevation excludes the interval (§4.2).
  if (!infer::DayGrid::Missing(nv) &&
      nv > static_cast<float>(near_min + config.elevation_ms)) {
    return false;
  }
  return true;
}

bool LinkInference::DayCongested(TimeSec t) const {
  if (!result.recurring) return false;
  const TimeSec rel = t - t0;
  if (rel < 0) return false;
  const int day = static_cast<int>(rel / 86400);
  if (day >= days || day >= static_cast<int>(result.day_congested.size())) {
    return false;
  }
  return result.day_congested[static_cast<std::size_t>(day)] != 0;
}

LinkGrids LoadGrids(const tsdb::Database& db, const std::string& vp_name,
                    Ipv4Addr far_addr, TimeSec t0, int days,
                    const AutocorrConfig& config) {
  const stats::TimeSeries far_series = db.QueryMerged(
      tslp::kMeasurementRtt,
      tslp::TslpScheduler::Tags(vp_name, far_addr, tslp::kSideFar), t0,
      t0 + static_cast<TimeSec>(days) * 86400);
  const stats::TimeSeries near_series = db.QueryMerged(
      tslp::kMeasurementRtt,
      tslp::TslpScheduler::Tags(vp_name, far_addr, tslp::kSideNear), t0,
      t0 + static_cast<TimeSec>(days) * 86400);
  return {infer::DayGrid::FromSeries(far_series, t0, days, config.bin_width),
          infer::DayGrid::FromSeries(near_series, t0, days, config.bin_width)};
}

LinkInference InferLink(const tsdb::Database& db, const std::string& vp_name,
                        Ipv4Addr far_addr, TimeSec t0, int days,
                        const AutocorrConfig& config) {
  LinkInference inference;
  inference.t0 = t0;
  inference.days = days;
  inference.config = config;
  const LinkGrids grids = LoadGrids(db, vp_name, far_addr, t0, days, config);
  inference.result = infer::AnalyzeWindow(grids.far, grids.near, config);
  inference.quality = infer::AssessGrids(grids.far, grids.near);
  // Quality gate: a window the VP barely observed cannot support a verdict
  // either way. kInsufficientData (AnalyzeWindow's own floor) is kept when
  // it already fired; otherwise low coverage overrides whatever the
  // detector concluded.
  if (!inference.quality.Acceptable(config.quality) &&
      inference.result.reject != infer::RejectReason::kInsufficientData) {
    inference.result.recurring = false;
    inference.result.reject = infer::RejectReason::kLowCoverage;
  }
  return inference;
}

}  // namespace manic::analysis
