// Tests for the application-level measurement modules: NDT throughput (Mathis
// model, pacing, server selection, congested-vs-quiet throughput drop, border
// link identification) and YouTube streaming emulation (startup delay,
// ON-period throughput, failures under saturation).
#include <gtest/gtest.h>

#include "bdrmap/bdrmap.h"
#include "ndt/ndt.h"
#include "scenario/small.h"
#include "tslp/tslp.h"
#include "ytstream/ytstream.h"

namespace manic {
namespace {

using scenario::MakeSmallScenario;
using scenario::SmallScenario;

constexpr sim::TimeSec kQuiet = 9 * 3600;
constexpr sim::TimeSec kPeak = 26 * 3600;

class AppsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    s_ = MakeSmallScenario();
    bdrmap::Bdrmap bdrmap(*s_.net, s_.vp);
    const auto borders = bdrmap.RunCycle(kQuiet);
    for (const auto& link : borders.links) {
      known_far_.insert(link.far_addr.value());
    }
    // A far address on the congested NYC peering.
    const topo::Link& l = s_.topo->link(s_.peering_nyc);
    nyc_far_ = s_.topo
                   ->iface(s_.topo->IfaceOn(
                       l, l.as_a == SmallScenario::kAccess ? l.router_b
                                                           : l.router_a))
                   .addr;
  }

  // A ContentCo destination served from the NYC border (so the download
  // crosses the congested queue) under the measuring client's flow id.
  topo::Ipv4Addr CongestedDest(std::uint16_t flow = 0x4E44) {
    for (std::size_t k = 0; k < 32; ++k) {
      const auto dst = *s_.topo->DestinationIn(SmallScenario::kContent, k);
      const auto& path = s_.net->PathFromVp(s_.vp, dst, sim::FlowId{flow});
      if (path.reached && !path.hops.empty() &&
          path.hops.back().router == s_.content_nyc) {
        bool via_nyc = false;
        for (const auto& hop : path.hops) {
          via_nyc = via_nyc || hop.via_link == s_.peering_nyc;
        }
        if (via_nyc) return dst;
      }
    }
    ADD_FAILURE() << "no NYC-served destination found";
    return topo::Ipv4Addr(0);
  }

  scenario::SmallScenario s_;
  std::set<std::uint32_t> known_far_;
  topo::Ipv4Addr nyc_far_;
};

TEST(Mathis, ThroughputModelShape) {
  // Lower loss or lower RTT => higher throughput; always capped.
  const double cap = 100.0;
  const double t1 = ndt::NdtClient::MathisThroughputMbps(30, 0.001, 1460, cap);
  const double t2 = ndt::NdtClient::MathisThroughputMbps(30, 0.01, 1460, cap);
  const double t3 = ndt::NdtClient::MathisThroughputMbps(60, 0.001, 1460, cap);
  EXPECT_GT(t1, t2);
  EXPECT_GT(t1, t3);
  EXPECT_LE(t1, cap);
  EXPECT_DOUBLE_EQ(
      ndt::NdtClient::MathisThroughputMbps(10, 1e-9, 1460, cap), cap);
  // Known value: RTT 30 ms, p = 0.0027 -> ~9.5 Mbps (cf. Table 2 scale).
  EXPECT_NEAR(ndt::NdtClient::MathisThroughputMbps(30, 0.0027, 1460, cap),
              9.2, 1.5);
}

TEST(NdtPacing, PeakAndOffPeakCadence) {
  // 19:00 local (peak): due every 15 minutes.
  const sim::TimeSec peak_base = 24 * 3600;  // 19:00 at UTC-5
  EXPECT_TRUE(ndt::NdtClient::TestDueAt(peak_base, -5));
  EXPECT_TRUE(ndt::NdtClient::TestDueAt(peak_base + 15 * 60, -5));
  EXPECT_FALSE(ndt::NdtClient::TestDueAt(peak_base + 5 * 60, -5));
  // 04:00 local: hourly only.
  const sim::TimeSec offpeak = 9 * 3600;
  EXPECT_TRUE(ndt::NdtClient::TestDueAt(offpeak, -5));
  EXPECT_FALSE(ndt::NdtClient::TestDueAt(offpeak + 15 * 60, -5));
}

TEST_F(AppsTest, NdtThroughputDropsDuringCongestion) {
  ndt::NdtClient client(*s_.net, s_.vp);
  const ndt::NdtServer server{"ndt-nyc", CongestedDest(),
                              SmallScenario::kContent};
  const ndt::NdtResult quiet = client.RunTest(server, kQuiet, known_far_);
  const ndt::NdtResult peak = client.RunTest(server, kPeak, known_far_);
  ASSERT_TRUE(quiet.ok);
  ASSERT_TRUE(peak.ok);
  EXPECT_GT(quiet.download_mbps, 2.0 * peak.download_mbps);
  EXPECT_GT(quiet.download_mbps, 20.0);
  // The upload direction carries no loss (only the shared RTT inflation from
  // the reverse queue), so its relative drop is much smaller than the
  // download's collapse.
  EXPECT_GT(peak.upload_mbps / quiet.upload_mbps,
            4.0 * peak.download_mbps / quiet.download_mbps);
  // The forward border link is identified.
  ASSERT_TRUE(peak.forward_link.has_value());
  EXPECT_EQ(*peak.forward_link, nyc_far_);
}

TEST_F(AppsTest, NdtServerSelectionPicksCongestedPath) {
  ndt::NdtClient client(*s_.net, s_.vp);
  std::vector<ndt::NdtServer> servers;
  servers.push_back({"ndt-content", CongestedDest(), SmallScenario::kContent});
  servers.push_back({"ndt-transit",
                     *s_.topo->DestinationIn(SmallScenario::kTransit, 0),
                     SmallScenario::kTransit});
  const auto picked =
      client.SelectServer(servers, {nyc_far_.value()}, kQuiet);
  ASSERT_TRUE(picked.has_value());
  EXPECT_EQ(picked->name, "ndt-content");
  // No congested addr on any path -> nothing selectable.
  EXPECT_FALSE(client.SelectServer(servers, {12345u}, kQuiet).has_value());
}

TEST_F(AppsTest, YoutubeQuietStreamCompletes) {
  ytstream::YoutubeClient client(*s_.net, s_.vp);
  ytstream::VideoSpec video;
  const auto r = client.Stream(CongestedDest(0x5954), video, kQuiet, known_far_);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.rebuffer_events, 0);
  EXPECT_GT(r.on_throughput_mbps, video.bitrate_mbps);
  EXPECT_LT(r.startup_delay_s, 2.0);
  ASSERT_TRUE(r.forward_link.has_value());
  EXPECT_EQ(*r.forward_link, nyc_far_);
}

TEST_F(AppsTest, YoutubePeakStreamDegradesOrFails) {
  ytstream::YoutubeClient client(*s_.net, s_.vp);
  ytstream::VideoSpec video;
  const auto quiet = client.Stream(CongestedDest(0x5954), video, kQuiet, known_far_);
  const auto peak = client.Stream(CongestedDest(0x5954), video, kPeak, known_far_);
  ASSERT_TRUE(quiet.completed);
  // At u=1.3 the loss rate collapses TCP throughput below the bitrate: the
  // player cannot sustain the representation.
  EXPECT_TRUE(peak.failed || peak.on_throughput_mbps < quiet.on_throughput_mbps);
  if (!peak.failed) {
    EXPECT_GT(peak.startup_delay_s, quiet.startup_delay_s);
  }
}

TEST_F(AppsTest, YoutubeStartupDelayScalesWithThroughput) {
  ytstream::YoutubeClient client(*s_.net, s_.vp);
  ytstream::VideoSpec slow = {};
  slow.bitrate_mbps = 1.0;
  ytstream::VideoSpec fast = {};
  fast.bitrate_mbps = 8.0;
  const auto a = client.Stream(CongestedDest(0x5954), slow, kQuiet, known_far_);
  const auto b = client.Stream(CongestedDest(0x5954), fast, kQuiet, known_far_);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_LT(a.startup_delay_s, b.startup_delay_s);
}

}  // namespace
}  // namespace manic
