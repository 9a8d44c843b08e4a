// Table 1 (§5.1): validation of congestion inferences against high-frequency
// loss measurements over month-links (March - December 2017). For every
// (VP, link) with an inferred-congested month, a month of 5-minute loss
// windows (300 probes per interface per window) is collected; month-links
// with a statistically significant far-end loss difference between congested
// and uncongested periods are scored against the far-end test and the
// localization test (binomial proportion test, p < 0.05).
//
// Measurement pathologies are injected to reproduce the paper's bottom rows:
// a small fraction of far routers ICMP-rate-limit (constant 60-90% response
// loss), and some month-links suffer high-loss episodes uncorrelated with
// latency. Shape criteria: the large majority of significant month-links
// pass both tests (paper: 81%), a small set passes only the far-end test
// (8%), and a residue contradicts (11%).
#include <cstdio>

#include "analysis/loss_validation.h"
#include "analysis/report.h"
#include "scenario/driver.h"
#include "stats/calendar.h"
#include "tslp/tslp.h"

using namespace manic;

int main() {
  std::puts("=== Table 1: correlation between congestion inference and loss "
            "(Mar - Dec 2017) ===");
  scenario::UsBroadband world = scenario::MakeUsBroadband();
  sim::SimNetwork& net = *world.net;
  stats::Rng rng(0x7AB1E1);

  const infer::AutocorrConfig cfg;
  analysis::Table1Summary summary;
  std::set<topo::Asn> access_seen, tcp_seen;
  int campaigns = 0;

  for (const topo::VpId vp : world.vps) {
    const sim::TimeSec discovery =
        stats::StudyMonthStartDay(11) * stats::kSecPerDay;
    const auto links = scenario::DiscoverVpLinks(world, vp, discovery);
    tsdb::Database db;

    for (const auto& dl : links) {
      // Measurement pathologies (the paper's §5.1 discussion):
      //  - ~3% of far routers ICMP-rate-limit constantly (60-90% loss at all
      //    times; the paper kept 5 such month-links in its top row),
      //  - ~7% of month-links see strong high-loss episodes uncorrelated
      //    with latency (morning blocks) -> far loss *higher* outside the
      //    congested periods: the contradicting row,
      //  - ~5% have the near side sharing the far side's loss (congestion
      //    inside the access network or a border-mapping error): the far-end
      //    test passes but localization fails.
      const bool rate_limited =
          stats::Rng::HashToUnit(0xA57, dl.info->link) < 0.03;
      const bool episodic =
          !rate_limited &&
          stats::Rng::HashToUnit(0xA58, vp, dl.info->link) < 0.07;
      const bool near_shares_fate =
          !rate_limited && !episodic &&
          stats::Rng::HashToUnit(0xA5A, vp, dl.info->link) < 0.05;

      scenario::TslpSynthesizer synth(
          net, dl.info->link, dl.base_far_ms, dl.base_near_ms,
          stats::Rng::HashMix(99, vp, dl.info->link));

      for (int month = 12; month < 22; ++month) {
        const std::int64_t month_start_day = stats::StudyMonthStartDay(month);
        const std::int64_t month_days = stats::DaysInStudyMonth(month);
        const std::int64_t win_end_day = month_start_day + month_days;
        const std::int64_t win_start_day = win_end_day - cfg.window_days;

        // Inference over the 50-day window ending with the month.
        infer::DayGrid far(cfg.window_days, 96), near(cfg.window_days, 96);
        std::vector<float> frow, nrow;
        for (int d = 0; d < cfg.window_days; ++d) {
          synth.Day(win_start_day + d, frow, nrow);
          for (int s = 0; s < 96; ++s) {
            far.Set(d, s, frow[static_cast<std::size_t>(s)]);
            near.Set(d, s, nrow[static_cast<std::size_t>(s)]);
          }
        }
        analysis::LinkInference inference;
        inference.t0 = win_start_day * stats::kSecPerDay;
        inference.days = cfg.window_days;
        inference.config = cfg;
        inference.result = infer::AnalyzeWindow(far, near, cfg);

        // Reactive gate: only links with a significantly congested month get
        // the high-rate loss probing (§3.3).
        bool any_congested_day = false;
        if (inference.result.recurring) {
          for (std::int64_t d = month_start_day; d < win_end_day; ++d) {
            const std::int64_t idx = d - win_start_day;
            if (idx >= 0 &&
                idx < static_cast<std::int64_t>(
                          inference.result.day_fraction.size()) &&
                inference.result.day_fraction[static_cast<std::size_t>(idx)] >=
                    0.04) {
              any_congested_day = true;
              break;
            }
          }
        }
        if (!any_congested_day) continue;
        ++campaigns;

        // Month-long loss campaign (aggregate Binomial windows), with the
        // injected pathologies.
        const sim::TimeSec m0 = month_start_day * stats::kSecPerDay;
        const sim::TimeSec m1 = win_end_day * stats::kSecPerDay;
        const double rl_loss =
            rate_limited
                ? 0.60 + 0.3 * stats::Rng::HashToUnit(0xA59, dl.info->link)
                : 0.0;
        // Episodic artifact: 4-hour high-loss blocks on ~6 random days,
        // placed in the local morning (uncorrelated with evening latency).
        std::set<std::int64_t> episode_days;
        if (episodic) {
          for (int k = 0; k < 10; ++k) {
            episode_days.insert(month_start_day +
                                static_cast<std::int64_t>(
                                    rng.UniformInt(static_cast<std::uint64_t>(
                                        month_days))));
          }
        }
        for (sim::TimeSec t = m0; t < m1; t += 300) {
          const auto exp_far =
              net.ExpectProbe(vp, dl.dest, dl.far_ttl, sim::FlowId{dl.flow},
                              t + 150);
          const auto exp_near =
              net.ExpectProbe(vp, dl.dest, dl.far_ttl - 1,
                              sim::FlowId{dl.flow}, t + 150);
          double p_far = exp_far.reachable ? exp_far.loss_prob : 1.0;
          double p_near = exp_near.reachable ? exp_near.loss_prob : 1.0;
          p_far = std::min(1.0, p_far + rl_loss);
          const double hour = stats::LocalHour(t, dl.vp_utc_offset);
          if (episode_days.contains(stats::DayOf(t)) && hour >= 6.0 &&
              hour < 13.0) {
            p_far = std::min(1.0, p_far + 0.45);
          }
          if (near_shares_fate) p_near = std::max(p_near, p_far);
          db.Write(lossprobe::kMeasurementLoss,
                   tslp::TslpScheduler::Tags(dl.vp_name, dl.far_addr,
                                             tslp::kSideFar),
                   t, 100.0 * rng.Binomial(300, p_far) / 300.0);
          db.Write(lossprobe::kMeasurementLoss,
                   tslp::TslpScheduler::Tags(dl.vp_name, dl.far_addr,
                                             tslp::kSideNear),
                   t, 100.0 * rng.Binomial(300, p_near) / 300.0);
        }

        const analysis::MonthLinkResult r = analysis::EvaluateMonthLink(
            db, inference, far, near, dl.vp_name, dl.far_addr, m0, m1);
        summary.Add(r);
        if (r.eligible) {
          access_seen.insert(dl.info->access);
          tcp_seen.insert(dl.info->tcp);
        }
      }
    }
  }

  std::printf(
      "\nEligible month-links: %d (across %zu access + %zu transit/content "
      "providers; paper: 380 across 6 + 31)\n",
      summary.month_links_total, access_seen.size(), tcp_seen.size());
  std::printf("With significant far-end loss difference: %d (paper: 145)\n\n",
              summary.with_significant_diff);

  analysis::TextTable table({"Far-End Higher During Congestion",
                             "Far-End Higher than Near-End", "# Month-Links",
                             "% Month-Links", "(paper)"});
  const double n = std::max(1, summary.with_significant_diff);
  table.AddRow({"True", "True", std::to_string(summary.both_tests),
                analysis::TextTable::Fmt(100.0 * summary.both_tests / n, 0),
                "81"});
  table.AddRow({"True", "False", std::to_string(summary.far_only),
                analysis::TextTable::Fmt(100.0 * summary.far_only / n, 0),
                "8"});
  table.AddRow({"False", "-", std::to_string(summary.contradicting),
                analysis::TextTable::Fmt(100.0 * summary.contradicting / n, 0),
                "11"});
  std::fputs(table.Render().c_str(), stdout);
  std::printf("\nLoss campaigns run: %d\n", campaigns);
  return 0;
}
