// Tests for the analysis layer: day-link aggregation (Tables 3/4, Figs 7/8),
// time-of-day histograms (Fig 9), text reports, the DB->inference bridge,
// and the Table 1 month-link loss validation machinery.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/classify.h"
#include "analysis/daylink.h"
#include "analysis/loss_validation.h"
#include "analysis/report.h"
#include "stats/rng.h"
#include "stats/timeseries.h"
#include "tslp/tslp.h"

namespace manic::analysis {
namespace {

TEST(DayLinkTable, PairAndTable3Aggregation) {
  DayLinkTable table;
  // AP 1 - TCP 10: 10 days on one link, 4 congested.
  for (int d = 0; d < 10; ++d) {
    table.Add({d, 100, 1, 10, d < 4 ? 0.10 : 0.0, true});
  }
  // AP 1 - TCP 11: never congested.
  for (int d = 0; d < 10; ++d) {
    table.Add({d, 101, 1, 11, 0.0, true});
  }
  // AP 2 - TCP 10: below the 4% threshold (never counted congested).
  for (int d = 0; d < 10; ++d) {
    table.Add({d, 102, 2, 10, 0.02, true});
  }

  const auto& pairs = table.Pairs();
  EXPECT_DOUBLE_EQ(pairs.at({1, 10}).PercentCongested(), 40.0);
  EXPECT_DOUBLE_EQ(pairs.at({1, 11}).PercentCongested(), 0.0);
  EXPECT_DOUBLE_EQ(pairs.at({2, 10}).PercentCongested(), 0.0);

  const auto table3 = table.Table3();
  ASSERT_EQ(table3.size(), 2u);
  EXPECT_EQ(table3[0].access, 1u);
  EXPECT_EQ(table3[0].observed_tcps, 2);
  EXPECT_EQ(table3[0].congested_tcps, 1);
  EXPECT_DOUBLE_EQ(table3[0].pct_congested_day_links, 20.0);  // 4 of 20
  EXPECT_EQ(table3[1].congested_tcps, 0);
}

TEST(DayLinkTable, MonthlySeriesAndRanking) {
  DayLinkTable table;
  // Month 0 (2016-03, 31 days): link congested 50% of days at 20% level.
  for (int d = 0; d < 31; ++d) {
    table.Add({d, 200, 1, 10, d % 2 == 0 ? 0.20 : 0.0, true});
  }
  // Month 1: clean.
  for (int d = 31; d < 61; ++d) {
    table.Add({d, 200, 1, 10, 0.0, true});
  }
  const auto monthly = table.MonthlyCongestedPct(1, 10);
  EXPECT_NEAR(monthly[0], 100.0 * 16 / 31, 0.01);
  EXPECT_DOUBLE_EQ(monthly[1], 0.0);
  EXPECT_DOUBLE_EQ(monthly[5], -1.0);  // no observations

  const auto mean = table.MonthlyMeanCongestion(1, 10);
  EXPECT_NEAR(mean[0], 20.0, 0.01);  // over day-links with any congestion
  EXPECT_DOUBLE_EQ(mean[1], -1.0);   // fraction>0 never seen in month 1

  table.Add({0, 300, 2, 20, 0.50, true});
  const auto top = table.TopCongestedTcps(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 20u);  // 100% for its single day-link
  EXPECT_EQ(top[1], 10u);
}

TEST(DayLinkTable, SetsAndCounts) {
  DayLinkTable table;
  table.Add({0, 1, 7922, 15169, 0.1, true});
  table.Add({0, 2, 7922, 6453, 0.0, true});
  table.Add({0, 3, 701, 15169, 0.0, true});
  table.Add({0, 4, 701, 15169, 0.0, false});  // unobserved: ignored
  EXPECT_EQ(table.TotalRecords(), 3);
  EXPECT_EQ(table.AccessNetworks().size(), 2u);
  EXPECT_EQ(table.TcpsOf(7922).size(), 2u);
  EXPECT_EQ(table.TcpsOf(701).size(), 1u);
}

TEST(TimeOfDayHistogram, ModesAndFccShare) {
  TimeOfDayHistogram hist;
  // 100 congested intervals centered on 20-21h weekdays, 10 at noon.
  for (int i = 0; i < 100; ++i) hist.Add(20.5, false);
  for (int i = 0; i < 10; ++i) hist.Add(12.0, false);
  for (int i = 0; i < 5; ++i) hist.Add(19.5, true);
  EXPECT_EQ(hist.ModeHour(false), 20);
  EXPECT_EQ(hist.Total(false), 110);
  EXPECT_EQ(hist.Total(true), 5);
  EXPECT_NEAR(hist.FccPeakShare(false), 100.0 / 110.0, 1e-9);
  EXPECT_DOUBLE_EQ(hist.FccPeakShare(true), 1.0);
  const auto norm = hist.Normalized(false);
  EXPECT_NEAR(norm[20], 100.0 / 110.0, 1e-9);
  EXPECT_NEAR(norm[12], 10.0 / 110.0, 1e-9);
  EXPECT_DOUBLE_EQ(norm[3], 0.0);
}

TEST(Report, TextTableRendersAligned) {
  TextTable table({"Name", "Value"});
  table.AddRow({"alpha", "1.25"});
  table.AddRow({"beta-long-name", "33.10"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("beta-long-name"), std::string::npos);
  // All lines same width.
  std::size_t first_len = out.find('\n');
  for (std::size_t pos = 0; pos < out.size();) {
    const std::size_t next = out.find('\n', pos);
    EXPECT_EQ(next - pos, first_len);
    pos = next + 1;
  }
  EXPECT_EQ(TextTable::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::FmtOrDash(-1.0), "-");
}

TEST(Report, Sparkline) {
  const std::string line = Sparkline({0.0, 1.0, 2.0, -1.0, 4.0});
  EXPECT_FALSE(line.empty());
  // The missing slot renders as a space.
  EXPECT_NE(line.find(' '), std::string::npos);
  EXPECT_EQ(Sparkline({}), "");
}

// ---- DB -> inference bridge -------------------------------------------------

class ClassifyTest : public ::testing::Test {
 protected:
  // Writes synthetic TSLP series: far elevated +25 ms during 20:00-23:00 on
  // the first 40 of 50 days.
  void SetUp() override {
    stats::Rng rng(3);
    for (int d = 0; d < 50; ++d) {
      for (int bin = 0; bin < 96; ++bin) {
        const stats::TimeSec t = d * 86400 + bin * 900;
        double far = 15.0 + rng.NextDouble();
        if (d < 40 && bin >= 80 && bin < 92) far += 25.0;
        db_.Write(tslp::kMeasurementRtt,
                  tslp::TslpScheduler::Tags("vp1", far_addr_, tslp::kSideFar),
                  t, far);
        db_.Write(tslp::kMeasurementRtt,
                  tslp::TslpScheduler::Tags("vp1", far_addr_, tslp::kSideNear),
                  t, 7.0 + rng.NextDouble());
      }
    }
  }
  tsdb::Database db_;
  Ipv4Addr far_addr_ = topo::Ipv4Addr(10, 0, 0, 1);
};

TEST_F(ClassifyTest, InferLinkFindsRecurringWindow) {
  const LinkInference inference = InferLink(db_, "vp1", far_addr_, 0, 50);
  ASSERT_TRUE(inference.result.recurring);
  EXPECT_NEAR(inference.result.window_start, 80, 2);
  const LinkGrids grids = LoadGrids(db_, "vp1", far_addr_, 0, 50);
  const double near_min = GridMin(grids.near);
  // Congested interval on an elevated day.
  EXPECT_TRUE(inference.IntervalCongested(86400 * 5 + 85 * 900, grids.far,
                                          grids.near, near_min));
  // Same time of day, but on an un-elevated day.
  EXPECT_FALSE(inference.IntervalCongested(86400 * 45 + 85 * 900, grids.far,
                                           grids.near, near_min));
  // Outside the window.
  EXPECT_FALSE(inference.IntervalCongested(86400 * 5 + 40 * 900, grids.far,
                                           grids.near, near_min));
  EXPECT_TRUE(inference.DayCongested(86400 * 5));
  EXPECT_FALSE(inference.DayCongested(86400 * 45));
}

TEST_F(ClassifyTest, UnknownLinkYieldsNoInference) {
  const LinkInference inference =
      InferLink(db_, "vp1", topo::Ipv4Addr(9, 9, 9, 9), 0, 50);
  EXPECT_FALSE(inference.result.recurring);
  EXPECT_EQ(inference.result.reject, infer::RejectReason::kInsufficientData);
}

// ---- Table 1 month-link machinery --------------------------------------------

class LossValidationTest : public ClassifyTest {
 protected:
  // Loss series over the first month: far loss high inside congested
  // intervals, low elsewhere; near loss always low.
  void WriteLoss(double far_congested_pct, double far_quiet_pct,
                 double near_pct) {
    stats::Rng rng(5);
    for (int d = 0; d < 31; ++d) {
      for (int bin = 0; bin < 96; ++bin) {
        const stats::TimeSec t = d * 86400 + bin * 900;
        const bool hot = d < 40 && bin >= 80 && bin < 92;
        const double far = (hot ? far_congested_pct : far_quiet_pct) *
                           (0.8 + 0.4 * rng.NextDouble());
        db_.Write(lossprobe::kMeasurementLoss,
                  tslp::TslpScheduler::Tags("vp1", far_addr_, tslp::kSideFar),
                  t, far);
        db_.Write(lossprobe::kMeasurementLoss,
                  tslp::TslpScheduler::Tags("vp1", far_addr_, tslp::kSideNear),
                  t, near_pct * (0.8 + 0.4 * rng.NextDouble()));
      }
    }
  }
};

TEST_F(LossValidationTest, ConsistentMonthLinkPassesBothTests) {
  WriteLoss(8.0, 0.1, 0.1);
  const LinkInference inference = InferLink(db_, "vp1", far_addr_, 0, 50);
  const LinkGrids grids = LoadGrids(db_, "vp1", far_addr_, 0, 50);
  const MonthLinkResult r =
      EvaluateMonthLink(db_, inference, grids.far, grids.near, "vp1",
                        far_addr_, 0, 31LL * 86400);
  ASSERT_TRUE(r.eligible);
  ASSERT_TRUE(r.significant_far_diff);
  EXPECT_TRUE(r.far_end_test);
  EXPECT_TRUE(r.localization_test);
  EXPECT_GT(r.far_congested, r.far_uncongested);
  EXPECT_GT(r.congested_windows, 100);
  Table1Summary summary;
  summary.Add(r);
  EXPECT_EQ(summary.both_tests, 1);
}

TEST_F(LossValidationTest, NearLossBreaksLocalization) {
  // Far and near loss both elevated during congestion: far-end test passes
  // but localization fails (congestion not attributable to the link).
  WriteLoss(8.0, 0.1, 8.0);
  const LinkInference inference = InferLink(db_, "vp1", far_addr_, 0, 50);
  const LinkGrids grids = LoadGrids(db_, "vp1", far_addr_, 0, 50);
  const MonthLinkResult r =
      EvaluateMonthLink(db_, inference, grids.far, grids.near, "vp1",
                        far_addr_, 0, 31LL * 86400);
  ASSERT_TRUE(r.eligible);
  ASSERT_TRUE(r.significant_far_diff);
  EXPECT_TRUE(r.far_end_test);
  EXPECT_FALSE(r.localization_test);
}

TEST_F(LossValidationTest, InvertedLossContradicts) {
  // Far loss *lower* during congested periods (the paper's bottom row).
  WriteLoss(0.1, 6.0, 0.1);
  const LinkInference inference = InferLink(db_, "vp1", far_addr_, 0, 50);
  const LinkGrids grids = LoadGrids(db_, "vp1", far_addr_, 0, 50);
  const MonthLinkResult r =
      EvaluateMonthLink(db_, inference, grids.far, grids.near, "vp1",
                        far_addr_, 0, 31LL * 86400);
  ASSERT_TRUE(r.eligible);
  ASSERT_TRUE(r.significant_far_diff);
  EXPECT_FALSE(r.far_end_test);
  Table1Summary summary;
  summary.Add(r);
  EXPECT_EQ(summary.contradicting, 1);
}

TEST_F(LossValidationTest, UncongestedLinkIneligible) {
  // No loss data at all and no congested days -> filtered out.
  tsdb::Database empty;
  const LinkInference none = InferLink(empty, "vp1", far_addr_, 0, 50);
  const LinkGrids grids = LoadGrids(empty, "vp1", far_addr_, 0, 50);
  const MonthLinkResult r = EvaluateMonthLink(
      empty, none, grids.far, grids.near, "vp1", far_addr_, 0, 31LL * 86400);
  EXPECT_FALSE(r.eligible);
}

}  // namespace
}  // namespace manic::analysis
