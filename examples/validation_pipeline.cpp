// Validation pipeline: the §5 methodology in miniature on one link. Infers
// congestion with the autocorrelation method, then checks the inference
// three independent ways exactly as the paper does: (1) high-frequency loss
// probing with the far-end and localization binomial tests, (2) NDT
// throughput congested-vs-uncongested with a t-test, (3) streaming QoE.
#include <cstdio>

#include "analysis/classify.h"
#include "analysis/loss_validation.h"
#include "bdrmap/bdrmap.h"
#include "lossprobe/lossprobe.h"
#include "ndt/ndt.h"
#include "scenario/small.h"
#include "stats/descriptive.h"
#include "stats/tests.h"
#include "tslp/tslp.h"
#include "ytstream/ytstream.h"

using namespace manic;

int main() {
  std::puts("=== Validating a congestion inference three ways ===\n");
  scenario::SmallScenario world = scenario::MakeSmallScenario();
  tsdb::Database db;

  // Discover + probe for 50 days (5-minute TSLP rounds).
  bdrmap::Bdrmap bdrmap(*world.net, world.vp);
  const auto borders = bdrmap.RunCycle(9 * 3600);
  tslp::TslpScheduler tslp(*world.net, world.vp, db);
  tslp.UpdateProbingSet(borders);
  std::puts("Probing 50 days of TSLP (this is the slow, faithful path)...");
  for (sim::TimeSec t = 0; t < 50 * 86400; t += 300) tslp.RunRound(t);

  const topo::Ipv4Addr far =
      world.topo->iface(world.topo->link(world.peering_nyc).iface_b).addr;
  const analysis::LinkInference inference =
      analysis::InferLink(db, "vp-nyc", far, 0, 50);
  const analysis::LinkGrids grids = analysis::LoadGrids(db, "vp-nyc", far, 0, 50);
  const double near_min = analysis::GridMin(grids.near);
  std::printf("Autocorrelation over 50 days: recurring=%s, window %02d:%02d "
              "UTC + %d x 15 min\n\n",
              inference.result.recurring ? "YES" : "no",
              inference.result.window_start / 4,
              (inference.result.window_start % 4) * 15,
              inference.result.window_len);

  // (1) Loss validation: a month of 5-minute loss windows, then the two
  //     binomial tests of §5.1.
  const bdrmap::BorderLink* blink = borders.FindByFarAddr(far);
  lossprobe::LossProber loss(*world.net, world.vp, db);
  loss.SetTargetsDirect({{far, blink->dests.front().dst,
                          blink->dests.front().flow,
                          blink->dests.front().far_ttl}});
  loss.RunCampaign(0, 31LL * 86400);
  const analysis::MonthLinkResult month = analysis::EvaluateMonthLink(
      db, inference, grids.far, grids.near, "vp-nyc", far, 0, 31LL * 86400);
  std::puts("(1) Loss-rate validation (binomial proportion tests, p<0.05):");
  std::printf("    far loss congested %.2f%% vs uncongested %.2f%%  -> "
              "far-end test %s\n",
              100 * month.far_congested, 100 * month.far_uncongested,
              month.far_end_test ? "PASS" : "fail");
  std::printf("    far loss %.2f%% vs near loss %.2f%% during congestion -> "
              "localization test %s\n\n",
              100 * month.far_congested, 100 * month.near_congested,
              month.localization_test ? "PASS" : "fail");

  // (2) NDT throughput, classified by the inference. The server must be one
  //     whose downloads actually ride the congested link (served from the
  //     NYC border; LAX-served destinations hot-potato around it).
  auto nyc_dest = [&](std::uint16_t flow) {
    for (std::size_t k = 0; k < 64; ++k) {
      const auto dst =
          *world.topo->DestinationIn(scenario::SmallScenario::kContent, k);
      const auto& path = world.net->PathFromVp(world.vp, dst, sim::FlowId{flow});
      if (path.reached && !path.hops.empty() &&
          path.hops.back().router == world.content_nyc) {
        bool via_nyc = false;
        for (const auto& hop : path.hops) {
          via_nyc = via_nyc || hop.via_link == world.peering_nyc;
        }
        if (via_nyc) return dst;
      }
    }
    return *world.topo->DestinationIn(scenario::SmallScenario::kContent, 0);
  };
  ndt::NdtClient::Config ndtcfg;
  ndtcfg.access_plan_mbps = 25.0;
  ndt::NdtClient ndt(*world.net, world.vp, ndtcfg);
  std::vector<double> down_c, down_u;
  for (sim::TimeSec t = 0; t < 14 * 86400; t += 3600) {
    const auto r = ndt.RunTest({"srv", nyc_dest(0x4E44), 200}, t);
    if (!r.ok) continue;
    (inference.IntervalCongested(t, grids.far, grids.near, near_min) ? down_c
                                                                     : down_u)
        .push_back(r.download_mbps);
  }
  const auto ttest = stats::WelchTTest(down_u, down_c);
  std::puts("(2) NDT throughput validation (t-test):");
  std::printf("    download: uncongested %.1f Mbps vs congested %.1f Mbps "
              "(p=%.4g) -> %s\n\n",
              stats::Mean(down_u), stats::Mean(down_c), ttest.p_value,
              ttest.Significant() ? "SIGNIFICANT drop" : "no difference");

  // (3) Streaming QoE.
  ytstream::YoutubeClient yt(*world.net, world.vp);
  int fail_c = 0, n_c = 0, fail_u = 0, n_u = 0;
  double on_c = 0.0, on_u = 0.0;
  int onn_c = 0, onn_u = 0;
  for (sim::TimeSec t = 0; t < 14 * 86400; t += 2 * 3600) {
    const auto r = yt.Stream(nyc_dest(0x5954), {}, t);
    const bool congested =
        inference.IntervalCongested(t, grids.far, grids.near, near_min);
    if (congested) {
      ++n_c;
      fail_c += r.failed;
      if (r.completed) {
        on_c += r.on_throughput_mbps;
        ++onn_c;
      }
    } else {
      ++n_u;
      fail_u += r.failed;
      if (r.completed) {
        on_u += r.on_throughput_mbps;
        ++onn_u;
      }
    }
  }
  std::puts("(3) Streaming QoE validation:");
  std::printf("    ON-period throughput: uncongested %.1f vs congested %.1f "
              "Mbps\n",
              onn_u ? on_u / onn_u : 0.0, onn_c ? on_c / onn_c : 0.0);
  std::printf("    failure rate: uncongested %.1f%% vs congested %.1f%%\n",
              100.0 * fail_u / std::max(1, n_u),
              100.0 * fail_c / std::max(1, n_c));
  return 0;
}
