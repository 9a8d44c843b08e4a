// Tests for the congestion-inference core: the level-shift (CUSUM+t-test+
// Huber) detector and the autocorrelation method, including its
// false-positive filters, near-side exclusion, per-day congestion levels,
// multi-VP merging, and the batch/rolling equivalence property.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "infer/autocorr.h"
#include "infer/level_shift.h"
#include "infer/rolling.h"
#include "infer/streaming.h"
#include "runtime/checkpoint.h"
#include "stats/rng.h"

namespace manic::infer {
namespace {

constexpr TimeSec kBin5m = 300;

// A 5-min-binned latency series: `days` long, baseline + noise, elevated by
// `shift` during [start_h, end_h) each day.
stats::TimeSeries DiurnalSeries(int days, double base, double noise_sigma,
                                double shift, double start_h, double end_h,
                                std::uint64_t seed) {
  stats::Rng rng(seed);
  stats::TimeSeries ts;
  for (int d = 0; d < days; ++d) {
    for (int bin = 0; bin < 288; ++bin) {
      const double h = bin / 12.0;
      double v = base + std::fabs(rng.Normal(0.0, noise_sigma));
      if (h >= start_h && h < end_h) v += shift;
      ts.Append(d * 86400 + bin * kBin5m, v);
    }
  }
  return ts;
}

// ------------------------------------------------------------- level shift

TEST(LevelShift, FlatSeriesHasNoEvents) {
  const auto ts = DiurnalSeries(2, 10.0, 0.4, 0.0, 0, 0, 1);
  const LevelShiftResult r = DetectLevelShifts(ts);
  EXPECT_FALSE(r.HasCongestion());
  EXPECT_GT(r.sigma, 0.0);
  EXPECT_GT(r.delta, 0.0);
}

TEST(LevelShift, DetectsEveningElevation) {
  const auto ts = DiurnalSeries(2, 10.0, 0.4, 30.0, 20.0, 23.0, 2);
  const LevelShiftResult r = DetectLevelShifts(ts);
  ASSERT_TRUE(r.HasCongestion());
  // Both evenings detected.
  EXPECT_GE(r.events.size(), 2u);
  // Event levels reflect the shift.
  for (const LevelShiftEvent& e : r.events) {
    EXPECT_GT(e.elevated_ms, e.baseline_ms + 20.0);
    // Duration close to 3 hours (within one cutoff window either way).
    EXPECT_GT(e.DurationSec(), 1.5 * 3600);
    EXPECT_LT(e.DurationSec(), 4.5 * 3600);
  }
  // IsCongestedAt agrees with the injected window on day 0 (21:30).
  EXPECT_TRUE(r.IsCongestedAt(static_cast<TimeSec>(21.5 * 3600)));
  EXPECT_FALSE(r.IsCongestedAt(static_cast<TimeSec>(12 * 3600)));
}

TEST(LevelShift, CongestedSecondsAccounting) {
  const auto ts = DiurnalSeries(1, 10.0, 0.3, 25.0, 20.0, 22.0, 3);
  const LevelShiftResult r = DetectLevelShifts(ts);
  ASSERT_TRUE(r.HasCongestion());
  const double secs = r.CongestedSeconds(0, 86400);
  EXPECT_NEAR(secs, 2 * 3600, 3600);
}

TEST(LevelShift, HuberRejectsIsolatedSpikes) {
  // Slow-path ICMP spikes: large but isolated outliers must not become
  // events (the paper's P parameter exists for exactly this).
  stats::Rng rng(4);
  stats::TimeSeries ts;
  for (int bin = 0; bin < 288 * 2; ++bin) {
    double v = 10.0 + std::fabs(rng.Normal(0.0, 0.4));
    if (bin % 37 == 0) v += 60.0;  // isolated spikes
    ts.Append(bin * kBin5m, v);
  }
  const LevelShiftResult r = DetectLevelShifts(ts);
  EXPECT_FALSE(r.HasCongestion());
}

TEST(LevelShift, TooShortSeriesIsEmptyResult) {
  stats::TimeSeries ts;
  for (int i = 0; i < 10; ++i) ts.Append(i * kBin5m, 10.0);
  const LevelShiftResult r = DetectLevelShifts(ts);
  EXPECT_TRUE(r.events.empty());
  EXPECT_TRUE(r.shift_points.empty());
}

// Shift magnitude sweep: tiny shifts stay undetected, large ones detected.
class LevelShiftMagnitude : public ::testing::TestWithParam<double> {};

TEST_P(LevelShiftMagnitude, DetectionThresholdBehaviour) {
  const double shift = GetParam();
  const auto ts = DiurnalSeries(2, 10.0, 0.5, shift, 19.0, 23.0, 5);
  const LevelShiftResult r = DetectLevelShifts(ts);
  if (shift >= 5.0) {
    EXPECT_TRUE(r.HasCongestion()) << "shift=" << shift;
  } else if (shift <= 0.2) {
    EXPECT_FALSE(r.HasCongestion()) << "shift=" << shift;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LevelShiftMagnitude,
                         ::testing::Values(0.0, 0.1, 0.2, 5.0, 10.0, 25.0,
                                           60.0));

// ----------------------------------------------------------- autocorrelation

// Builds far/near grids: far elevated by `shift` during window intervals on
// `elevated_days` of the days; near flat unless near_elevated.
struct GridSpec {
  int days = 50;
  double base = 12.0;
  double noise = 0.5;
  double shift = 20.0;
  int win_start = 80;  // 20:00
  int win_len = 12;    // 3 hours
  int elevated_days = 40;
  bool near_elevated = false;
  std::uint64_t seed = 7;
};

std::pair<DayGrid, DayGrid> MakeGrids(const GridSpec& spec) {
  stats::Rng rng(spec.seed);
  DayGrid far(spec.days, 96), near(spec.days, 96);
  for (int d = 0; d < spec.days; ++d) {
    const bool elevated_today = d < spec.elevated_days;
    for (int s = 0; s < 96; ++s) {
      const bool in_window =
          ((s - spec.win_start) % 96 + 96) % 96 < spec.win_len;
      double fv = spec.base + std::fabs(rng.Normal(0.0, spec.noise));
      double nv = spec.base / 2 + std::fabs(rng.Normal(0.0, spec.noise));
      if (elevated_today && in_window) {
        fv += spec.shift;
        if (spec.near_elevated) nv += spec.shift;
      }
      far.Set(d, s, static_cast<float>(fv));
      near.Set(d, s, static_cast<float>(nv));
    }
  }
  return {std::move(far), std::move(near)};
}

TEST(Autocorr, DetectsRecurringEveningWindow) {
  const auto [far, near] = MakeGrids({});
  const AutocorrResult r = AnalyzeWindow(far, near);
  ASSERT_TRUE(r.recurring);
  EXPECT_EQ(r.reject, RejectReason::kNone);
  // Window roughly matches the injected one.
  EXPECT_NEAR(r.window_start, 80, 2);
  EXPECT_NEAR(r.window_len, 12, 4);
  // Day classification: first 40 days congested, last 10 not.
  int congested = 0;
  for (int d = 0; d < 50; ++d) congested += r.day_congested[d];
  EXPECT_NEAR(congested, 40, 2);
  // Congestion level of an elevated day ~ 12/96.
  EXPECT_NEAR(r.day_fraction[0], 12.0 / 96.0, 0.03);
  EXPECT_DOUBLE_EQ(r.day_fraction[45], 0.0);
}

TEST(Autocorr, ThresholdIsMinPlusSeven) {
  const auto [far, near] = MakeGrids({});
  const AutocorrResult r = AnalyzeWindow(far, near);
  EXPECT_NEAR(r.min_rtt_ms, 12.0, 0.5);
  EXPECT_DOUBLE_EQ(r.threshold_ms, r.min_rtt_ms + 7.0);
}

TEST(Autocorr, NearSideElevationExcluded) {
  GridSpec spec;
  spec.near_elevated = true;  // congestion inside the access network
  const auto [far, near] = MakeGrids(spec);
  const AutocorrResult r = AnalyzeWindow(far, near);
  EXPECT_FALSE(r.recurring);
  EXPECT_EQ(r.reject, RejectReason::kNoPeak);
}

TEST(Autocorr, SmallShiftBelowSevenMsIgnored) {
  GridSpec spec;
  spec.shift = 4.0;  // below the 7 ms elevation threshold
  const auto [far, near] = MakeGrids(spec);
  const AutocorrResult r = AnalyzeWindow(far, near);
  EXPECT_FALSE(r.recurring);
}

TEST(Autocorr, FewElevatedDaysRejected) {
  GridSpec spec;
  spec.elevated_days = 4;  // below min_elevated_days (7)
  const auto [far, near] = MakeGrids(spec);
  const AutocorrResult r = AnalyzeWindow(far, near);
  EXPECT_FALSE(r.recurring);
  EXPECT_EQ(r.reject, RejectReason::kNoPeak);
}

TEST(Autocorr, DisjointDaySetsDrivingRivalPeaksRejected) {
  // Days 0..24 elevated at 20:00-23:00; days 25..49 elevated at 08:00-11:00:
  // "different days contribute to different peaks" -> reject.
  stats::Rng rng(9);
  DayGrid far(50, 96), near(50, 96);
  for (int d = 0; d < 50; ++d) {
    for (int s = 0; s < 96; ++s) {
      double fv = 12.0 + std::fabs(rng.Normal(0.0, 0.5));
      const bool evening = s >= 80 && s < 92;
      const bool morning = s >= 32 && s < 44;
      if (d < 25 && evening) fv += 20.0;
      if (d >= 25 && morning) fv += 20.0;
      far.Set(d, s, static_cast<float>(fv));
      near.Set(d, s, static_cast<float>(6.0 + std::fabs(rng.Normal(0.0, 0.5))));
    }
  }
  const AutocorrResult r = AnalyzeWindow(far, near);
  EXPECT_FALSE(r.recurring);
  EXPECT_EQ(r.reject, RejectReason::kInconsistentDays);
}

TEST(Autocorr, SameDaysTwoPeaksAmbiguous) {
  // The same days are elevated both morning and evening with a clean gap:
  // candidate windows distributed across the day -> ambiguous.
  stats::Rng rng(10);
  DayGrid far(50, 96), near(50, 96);
  for (int d = 0; d < 50; ++d) {
    for (int s = 0; s < 96; ++s) {
      double fv = 12.0 + std::fabs(rng.Normal(0.0, 0.5));
      if (d < 40 && ((s >= 80 && s < 92) || (s >= 32 && s < 44))) fv += 20.0;
      far.Set(d, s, static_cast<float>(fv));
      near.Set(d, s, static_cast<float>(6.0 + std::fabs(rng.Normal(0.0, 0.5))));
    }
  }
  const AutocorrResult r = AnalyzeWindow(far, near);
  EXPECT_FALSE(r.recurring);
  EXPECT_EQ(r.reject, RejectReason::kAmbiguousWindows);
}

TEST(Autocorr, InsufficientDataRejected) {
  DayGrid far(50, 96), near(50, 96);  // everything missing
  far.Set(0, 0, 10.0f);
  const AutocorrResult r = AnalyzeWindow(far, near);
  EXPECT_FALSE(r.recurring);
  EXPECT_EQ(r.reject, RejectReason::kInsufficientData);
}

TEST(Autocorr, MissingBinsTolerated) {
  GridSpec spec;
  const auto [far_full, near_full] = MakeGrids(spec);
  DayGrid far = far_full, near = near_full;
  stats::Rng rng(11);
  // Knock out 20% of bins.
  for (int d = 0; d < far.days(); ++d) {
    for (int s = 0; s < 96; ++s) {
      if (rng.Bernoulli(0.2)) {
        far.Set(d, s, std::numeric_limits<float>::quiet_NaN());
      }
    }
  }
  const AutocorrResult r = AnalyzeWindow(far, near);
  EXPECT_TRUE(r.recurring);
}

TEST(Autocorr, MidnightWrappingWindow) {
  GridSpec spec;
  spec.win_start = 90;  // 22:30 .. 01:30
  const auto [far, near] = MakeGrids(spec);
  const AutocorrResult r = AnalyzeWindow(far, near);
  ASSERT_TRUE(r.recurring);
  EXPECT_TRUE(r.InWindow(95, 96));
  EXPECT_TRUE(r.InWindow(0, 96));
  EXPECT_FALSE(r.InWindow(48, 96));
}

TEST(Autocorr, DayGridFromSeriesMinAggregates) {
  stats::TimeSeries ts;
  ts.Append(0, 20.0);
  ts.Append(100, 15.0);          // same 15-min bin -> min 15
  ts.Append(900, 30.0);          // second bin
  ts.Append(86400 + 450, 12.0);  // day 1, bin 0
  const DayGrid grid = DayGrid::FromSeries(ts, 0, 2, 900);
  EXPECT_FLOAT_EQ(grid.At(0, 0), 15.0f);
  EXPECT_FLOAT_EQ(grid.At(0, 1), 30.0f);
  EXPECT_TRUE(DayGrid::Missing(grid.At(0, 2)));
  EXPECT_FLOAT_EQ(grid.At(1, 0), 12.0f);
}

TEST(Autocorr, MergeAcrossVps) {
  const auto [far1, near1] = MakeGrids({});
  GridSpec quiet;
  quiet.shift = 0.0;
  const auto [far2, near2] = MakeGrids(quiet);
  const AutocorrResult a = AnalyzeWindow(far1, near1);
  const AutocorrResult b = AnalyzeWindow(far2, near2);
  ASSERT_TRUE(a.recurring);
  ASSERT_FALSE(b.recurring);
  const std::vector<AutocorrResult> both{a, b};
  const AutocorrResult merged = MergeVpInferences(both);
  EXPECT_TRUE(merged.recurring);
  // Fractions averaged over asserting VPs only (here: just VP a).
  EXPECT_NEAR(merged.day_fraction[0], a.day_fraction[0], 1e-12);
  const std::vector<AutocorrResult> none{b};
  EXPECT_FALSE(MergeVpInferences(none).recurring);
  EXPECT_FALSE(MergeVpInferences({}).recurring);
}

// ------------------------------------------------------ rolling equivalence

TEST(Rolling, MatchesBatchDayByDay) {
  // 120 days with a regime change at day 60 (congestion appears) and a
  // baseline drop at day 90 (forces threshold recomputation on the fly).
  stats::Rng rng(13);
  AutocorrConfig cfg;
  RollingAutocorr rolling(cfg);

  for (int d = 0; d < 120; ++d) {
    std::vector<float> far(96), near(96);
    const double base = d >= 90 ? 9.0 : 12.0;
    for (int s = 0; s < 96; ++s) {
      double fv = base + std::fabs(rng.Normal(0.0, 0.5));
      if (d >= 60 && s >= 78 && s < 90) fv += 18.0;
      far[s] = static_cast<float>(fv);
      near[s] = static_cast<float>(5.0 + std::fabs(rng.Normal(0.0, 0.4)));
      if (rng.Bernoulli(0.05)) {
        far[s] = std::numeric_limits<float>::quiet_NaN();
      }
    }
    rolling.AddDay(far, near);
    if (!rolling.WindowFull()) continue;

    const DayClassification cls = rolling.Classify();
    const AutocorrResult batch = rolling.AnalyzeBatch();
    ASSERT_EQ(cls.recurring, batch.recurring) << "day " << d;
    ASSERT_EQ(cls.reject, batch.reject) << "day " << d;
    if (batch.recurring) {
      EXPECT_EQ(cls.window_start, batch.window_start) << "day " << d;
      EXPECT_EQ(cls.window_len, batch.window_len) << "day " << d;
      EXPECT_EQ(cls.congested, batch.day_congested.back() != 0) << "day " << d;
      EXPECT_NEAR(cls.fraction, batch.day_fraction.back(), 1e-12) << "day " << d;
    }
  }
}

TEST(Rolling, WindowFillsAndEvicts) {
  AutocorrConfig cfg;
  cfg.window_days = 5;
  RollingAutocorr rolling(cfg);
  std::vector<float> row(96, 10.0f);
  for (int d = 0; d < 8; ++d) rolling.AddDay(row, row);
  EXPECT_TRUE(rolling.WindowFull());
  EXPECT_EQ(rolling.DaysHeld(), 5);
}

// Load reads each held row in one piece: a blob cut anywhere short of its
// end (in the day count, mid-row, between the far and near rows) is
// refused, and the whole blob restores the window bit for bit.
TEST(Rolling, LoadRestoresTheWindowAndRefusesEveryTruncation) {
  AutocorrConfig cfg;
  cfg.window_days = 5;
  RollingAutocorr saved(cfg);
  stats::Rng rng(29);
  // Seven days into a five-day window: the ring has wrapped.
  for (int d = 0; d < 7; ++d) {
    std::vector<float> far(96), near(96, 5.0f);
    for (int s = 0; s < 96; ++s) {
      far[s] = static_cast<float>(11.0 + std::fabs(rng.Normal(0.0, 0.4)) +
                                  (s >= 80 && s < 90 ? 25.0 : 0.0));
    }
    far[static_cast<std::size_t>(d)] = std::numeric_limits<float>::quiet_NaN();
    saved.AddDay(far, near);
  }
  runtime::BlobWriter out;
  saved.Save(out);
  const std::string blob = out.Take();
  ASSERT_EQ(blob.size(), 4u + 5u * 2u * 96u * 4u);
  RollingAutocorr loaded(cfg);
  runtime::BlobReader in(blob);
  ASSERT_TRUE(loaded.Load(in));
  EXPECT_TRUE(in.AtEnd());
  runtime::BlobWriter again;
  loaded.Save(again);
  EXPECT_EQ(again.str(), blob);
  const DayClassification want = saved.Classify();
  const DayClassification got = loaded.Classify();
  EXPECT_EQ(got.recurring, want.recurring);
  EXPECT_EQ(got.congested, want.congested);
  EXPECT_EQ(got.fraction, want.fraction);
  EXPECT_EQ(got.threshold_ms, want.threshold_ms);
  EXPECT_EQ(got.congested_intervals, want.congested_intervals);
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    RollingAutocorr partial(cfg);
    runtime::BlobReader short_in(std::string_view(blob).substr(0, cut));
    EXPECT_FALSE(partial.Load(short_in)) << "cut at byte " << cut;
  }
}

TEST(Rolling, DetectsOnsetOfCongestion) {
  AutocorrConfig cfg;
  RollingAutocorr rolling(cfg);
  stats::Rng rng(15);
  int first_congested_day = -1;
  for (int d = 0; d < 80; ++d) {
    std::vector<float> far(96), near(96);
    for (int s = 0; s < 96; ++s) {
      double fv = 11.0 + std::fabs(rng.Normal(0.0, 0.4));
      if (d >= 50 && s >= 80 && s < 90) fv += 25.0;
      far[s] = static_cast<float>(fv);
      near[s] = 5.0f;
    }
    rolling.AddDay(far, near);
    if (rolling.WindowFull() && first_congested_day < 0) {
      const DayClassification cls = rolling.Classify();
      if (cls.recurring && cls.congested) first_congested_day = d;
    }
  }
  // Needs min_elevated_days (7) days of evidence after onset at day 50.
  ASSERT_GE(first_congested_day, 50 + cfg.min_elevated_days - 1);
  EXPECT_LE(first_congested_day, 50 + cfg.min_elevated_days + 2);
}

// ---------------------------------------------------------- streaming state

constexpr float kNaNf = std::numeric_limits<float>::quiet_NaN();

// Random day rows for the streaming tests: ~`missing` of bins NaN, a few
// all-missing days sprinkled in for churn.
std::vector<float> RandomRow(stats::Rng& rng, int intervals, double missing) {
  std::vector<float> row(static_cast<std::size_t>(intervals));
  for (auto& v : row) {
    v = rng.NextDouble() < missing
            ? kNaNf
            : static_cast<float>(10.0 + rng.NextDouble());
  }
  return row;
}

// Segment-merge exactness: Append()ing tallies over adjacent day ranges must
// equal one tally streamed over the union — the invariant the sharded study
// path and the serving plane's per-shard quality snapshots both rely on.
TEST(QualityTally, AppendEqualsStreamingOverTheUnion) {
  stats::Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const int days = 1 + static_cast<int>(rng.UniformInt(12));
    const int split = static_cast<int>(
        rng.UniformInt(static_cast<std::uint64_t>(days) + 1));
    const double missing = trial % 5 == 0 ? 1.0 : 0.3;  // some all-missing
    QualityTally whole, left, right;
    for (int d = 0; d < days; ++d) {
      const auto far = RandomRow(rng, 24, missing);
      const auto near = RandomRow(rng, 24, missing);
      whole.AddDay(far, near);
      (d < split ? left : right).AddDay(far, near);
    }
    left.Append(right);
    EXPECT_EQ(left.far_present, whole.far_present);
    EXPECT_EQ(left.far_total, whole.far_total);
    EXPECT_EQ(left.near_present, whole.near_present);
    EXPECT_EQ(left.max_gap, whole.max_gap);
    EXPECT_EQ(left.prefix_gap, whole.prefix_gap);
    EXPECT_EQ(left.suffix_gap, whole.suffix_gap);
    EXPECT_EQ(left.days_observed, whole.days_observed);
    EXPECT_EQ(left.churn, whole.churn);
    EXPECT_EQ(left.any_bin, whole.any_bin);
  }
}

TEST(QualityTally, GapSpansDayBoundaries) {
  QualityTally t;
  // Day 1: present until the last 3 bins; day 2: first 5 bins missing.
  std::vector<float> d1(24, 10.0f), d2(24, 10.0f), near(24, 5.0f);
  for (int i = 21; i < 24; ++i) d1[static_cast<std::size_t>(i)] = kNaNf;
  for (int i = 0; i < 5; ++i) d2[static_cast<std::size_t>(i)] = kNaNf;
  t.AddDay(d1, near);
  t.AddDay(d2, near);
  EXPECT_EQ(t.max_gap, 8);  // 3 trailing + 5 leading, one run
  EXPECT_EQ(t.days_observed, 2);
  EXPECT_EQ(t.churn, 0);
}

TEST(LinkQualityAccumulator, FoldsVpsLikeTheDriverRollup) {
  QualityTally a, b;
  std::vector<float> full(24, 10.0f), near(24, 5.0f);
  std::vector<float> holey(24, 10.0f);
  for (int i = 4; i < 14; ++i) holey[static_cast<std::size_t>(i)] = kNaNf;
  a.AddDay(full, near);
  a.AddDay(full, near);
  b.AddDay(holey, near);
  LinkQualityAccumulator acc;
  acc.Add(a);
  acc.Add(b);
  const DataQuality q = acc.Finish(2);
  // Coverage sums across VPs; gap is the worst single-VP gap; days_observed
  // is the best-informed VP's count; total_days comes from the caller.
  EXPECT_DOUBLE_EQ(q.far_coverage_frac, (48.0 + 14.0) / 72.0);
  EXPECT_EQ(q.longest_gap_intervals, 10);
  EXPECT_EQ(q.days_observed, 2);
  EXPECT_EQ(q.total_days, 2);
  EXPECT_EQ(q.vp_churn_events, 0);
}

// The serving plane's core equivalence: a StreamingClassifier fed one sample
// at a time (out-of-order intervals, duplicate slots, NaN markers) must
// classify every day exactly as a RollingAutocorr fed whole rows.
TEST(StreamingClassifier, MatchesRollingAutocorrSampleBySample) {
  AutocorrConfig cfg;
  cfg.window_days = 8;
  cfg.intervals_per_day = 24;
  cfg.bin_width = 3600;
  cfg.min_elevated_days = 3;
  StreamingClassifier streaming(cfg);
  RollingAutocorr rolling(cfg);
  QualityTally reference_quality;

  stats::Rng rng(77);
  for (std::int64_t day = 0; day < 30; ++day) {
    std::vector<float> far = RandomRow(rng, 24, 0.1);
    std::vector<float> near = RandomRow(rng, 24, 0.1);
    // Evening elevation on most days.
    if (day % 5 != 0) {
      for (int s = 18; s < 21; ++s) {
        if (!std::isnan(far[static_cast<std::size_t>(s)])) {
          far[static_cast<std::size_t>(s)] += 20.0f;
        }
      }
    }
    // Feed in a scrambled interval order, near before far, with a duplicate
    // higher value that the min-aggregation must ignore.
    std::vector<int> order(24);
    for (int s = 0; s < 24; ++s) order[static_cast<std::size_t>(s)] = s;
    for (int s = 23; s > 0; --s) {
      std::swap(order[static_cast<std::size_t>(s)],
                order[rng.UniformInt(static_cast<std::uint64_t>(s) + 1)]);
    }
    for (const int s : order) {
      const float f = far[static_cast<std::size_t>(s)];
      const float n = near[static_cast<std::size_t>(s)];
      streaming.AddSample(day, s, /*far_side=*/false, n);
      streaming.AddSample(day, s, /*far_side=*/true, f);
      if (!std::isnan(f)) {
        streaming.AddSample(day, s, /*far_side=*/true, f + 5.0f);  // dup, worse
      }
    }
    rolling.AddDay(far, near);
    reference_quality.AddDay(far, near);

    const auto outcome = streaming.CloseDay(day);
    ASSERT_TRUE(outcome.observed);
    ASSERT_EQ(outcome.classification.has_value(), rolling.WindowFull());
    if (!outcome.classification) continue;
    const DayClassification want = rolling.Classify();
    const DayClassification& got = *outcome.classification;
    EXPECT_EQ(got.recurring, want.recurring);
    EXPECT_EQ(got.congested, want.congested);
    EXPECT_DOUBLE_EQ(got.fraction, want.fraction);
    EXPECT_EQ(got.window_start, want.window_start);
    EXPECT_EQ(got.window_len, want.window_len);
  }
  EXPECT_EQ(streaming.quality().far_present, reference_quality.far_present);
  EXPECT_EQ(streaming.quality().max_gap, reference_quality.max_gap);
  EXPECT_EQ(streaming.quality().churn, reference_quality.churn);
}

TEST(StreamingClassifier, UnobservedDaysCloseAsNoOps) {
  AutocorrConfig cfg;
  cfg.window_days = 4;
  cfg.intervals_per_day = 24;
  cfg.bin_width = 3600;
  StreamingClassifier streaming(cfg);
  // Day 0 observed, day 1 invisible, day 2 observed.
  streaming.AddSample(0, 3, true, 10.0f);
  streaming.AddSample(0, 3, false, 5.0f);
  EXPECT_TRUE(streaming.CloseDay(0).observed);
  EXPECT_FALSE(streaming.CloseDay(1).observed);
  streaming.AddSample(2, 7, true, 11.0f);
  EXPECT_TRUE(streaming.CloseDay(2).observed);
  // Invisible days contribute nothing: two days held, no quality rows for
  // day 1, and a churn count of zero (invisible != observed-empty).
  EXPECT_EQ(streaming.DaysHeld(), 2);
  EXPECT_EQ(streaming.quality().days_observed, 2);
  EXPECT_EQ(streaming.OpenDays(), 0u);
}

}  // namespace
}  // namespace manic::infer
