#include "analysis/loss_validation.h"

#include <cmath>

#include "tslp/tslp.h"

namespace manic::analysis {

void Table1Summary::Add(const MonthLinkResult& r) {
  if (!r.eligible) return;
  ++month_links_total;
  if (!r.significant_far_diff) return;
  ++with_significant_diff;
  if (r.far_end_test && r.localization_test) {
    ++both_tests;
  } else if (r.far_end_test) {
    ++far_only;
  } else {
    ++contradicting;
  }
}

MonthLinkResult EvaluateMonthLink(const tsdb::Database& db,
                                  const LinkInference& inference,
                                  const infer::DayGrid& far_grid,
                                  const infer::DayGrid& near_grid,
                                  const std::string& vp_name,
                                  Ipv4Addr far_addr, TimeSec month_start,
                                  TimeSec month_end, int probes_per_window,
                                  double alpha) {
  MonthLinkResult result;
  result.vp = vp_name;
  result.far_addr = far_addr;

  // Eligibility 1: at least one day in the month with >= 4% congestion.
  bool any_congested_day = false;
  if (inference.result.recurring) {
    for (TimeSec day_start = month_start; day_start < month_end;
         day_start += 86400) {
      const int day = static_cast<int>((day_start - inference.t0) / 86400);
      if (day < 0 ||
          day >= static_cast<int>(inference.result.day_fraction.size())) {
        continue;
      }
      if (inference.result.day_fraction[static_cast<std::size_t>(day)] >=
          0.04) {
        any_congested_day = true;
        break;
      }
    }
  }
  if (!any_congested_day) return result;

  // Loss series for the month.
  const stats::TimeSeries far_loss = db.QueryMerged(
      lossprobe::kMeasurementLoss,
      tslp::TslpScheduler::Tags(vp_name, far_addr, tslp::kSideFar),
      month_start, month_end);
  const stats::TimeSeries near_loss = db.QueryMerged(
      lossprobe::kMeasurementLoss,
      tslp::TslpScheduler::Tags(vp_name, far_addr, tslp::kSideNear),
      month_start, month_end);
  // Eligibility 2: both ends responded (non-trivial data, not 100% loss).
  if (far_loss.size() < 100 || near_loss.size() < 100) return result;
  double far_mean = 0.0;
  for (const auto& p : far_loss.points()) far_mean += p.value;
  far_mean /= static_cast<double>(far_loss.size());
  if (far_mean > 95.0) return result;  // far interface effectively silent
  result.eligible = true;

  // Accumulate Binomial counts over congested / uncongested windows.
  long long cong_lost = 0, cong_trials = 0;
  long long uncong_lost = 0, uncong_trials = 0;
  long long near_cong_lost = 0, near_cong_trials = 0;
  const double near_min = GridMin(near_grid);
  for (const auto& p : far_loss.points()) {
    const long long lost = std::llround(p.value / 100.0 * probes_per_window);
    if (inference.IntervalCongested(p.t, far_grid, near_grid, near_min)) {
      cong_lost += lost;
      cong_trials += probes_per_window;
      ++result.congested_windows;
    } else {
      uncong_lost += lost;
      uncong_trials += probes_per_window;
      ++result.uncongested_windows;
    }
  }
  for (const auto& p : near_loss.points()) {
    if (inference.IntervalCongested(p.t, far_grid, near_grid, near_min)) {
      near_cong_lost += std::llround(p.value / 100.0 * probes_per_window);
      near_cong_trials += probes_per_window;
    }
  }
  if (cong_trials == 0 || uncong_trials == 0) {
    result.eligible = false;  // no classified split within the month
    return result;
  }
  result.far_congested = static_cast<double>(cong_lost) / cong_trials;
  result.far_uncongested = static_cast<double>(uncong_lost) / uncong_trials;
  result.near_congested = near_cong_trials > 0
                              ? static_cast<double>(near_cong_lost) /
                                    near_cong_trials
                              : 0.0;

  // Significance of the far-end difference (either sign).
  const auto diff = stats::BinomialProportionTest(cong_lost, cong_trials,
                                                  uncong_lost, uncong_trials);
  result.significant_far_diff = diff.Significant(alpha);
  if (!result.significant_far_diff) return result;

  // Far-end test: loss significantly HIGHER during congestion.
  result.far_end_test = diff.statistic > 0.0;

  // Localization test: far loss (congested) significantly exceeds near loss
  // (congested).
  const auto loc = stats::BinomialProportionTest(
      cong_lost, cong_trials, near_cong_lost,
      near_cong_trials > 0 ? near_cong_trials : 1);
  result.localization_test =
      result.far_end_test && loc.Significant(alpha) && loc.statistic > 0.0;
  return result;
}

}  // namespace manic::analysis
