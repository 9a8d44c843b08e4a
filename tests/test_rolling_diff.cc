// Differential fuzz tests of the incremental inference state against the
// batch oracle: RollingAutocorr, StreamingClassifier and ShardEngine are run
// on seeded streams and every classified day is compared, field by field,
// with AnalyzeWindow over the same window (and, for the engine, with the
// batch loop's cross-VP merge and quality fold). The last test runs the
// same generator through two WAL-on services, one checkpointing and one
// not, and compares them after every restart.
//
// The day generator mixes the cases the incremental bookkeeping must get
// right: NaN-sprinkled and all-missing days, outages long enough to starve
// the usable-data guard, new window minima that are later evicted, values
// quantized so that several days tie the window minimum, and recurring
// windows that wrap midnight. Each test counts the cases it met and fails
// if one never occurred, so a generator change cannot quietly stop covering
// them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "infer/autocorr.h"
#include "infer/rolling.h"
#include "infer/streaming.h"
#include "serve/engine.h"
#include "serve/sample.h"
#include "serve/service.h"
#include "stats/calendar.h"
#include "stats/rng.h"

namespace manic {
namespace {

using infer::AutocorrConfig;
using infer::DayClassification;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

struct Day {
  std::vector<float> far, near;
};

AutocorrConfig SmallConfig() {
  AutocorrConfig cfg;
  cfg.window_days = 8;
  cfg.intervals_per_day = 24;
  cfg.bin_width = 3600;
  cfg.min_elevated_days = 3;
  return cfg;
}

// Seeded day source with regimes: a baseline that sometimes drops (a new
// window minimum, evicted window_days later), outages of mostly-missing
// days, and a daily peak whose position moves and may wrap midnight. Values are
// quantized to 0.25 ms so equal minima on different days are common.
class DayGenerator {
 public:
  DayGenerator(std::uint64_t seed, int intervals)
      : rng_(seed),
        intervals_(intervals),
        peak_len_(std::max(5, intervals / 5)),
        peak_start_(intervals - 2) {}

  Day Next() {
    if (outage_left_ > 0) {
      --outage_left_;
    } else if (rng_.Bernoulli(0.03)) {
      outage_left_ = 4 + static_cast<int>(rng_.UniformInt(12));
    }
    if (rng_.Bernoulli(0.08)) base_ = rng_.Bernoulli(0.5) ? 8.0 : 12.0;
    if (rng_.Bernoulli(0.05)) {
      peak_start_ = static_cast<int>(
          rng_.UniformInt(static_cast<std::uint64_t>(intervals_)));
    }
    const double miss = outage_left_ > 0 ? 0.95 : rng_.Bernoulli(0.1) ? 0.5
                                                                       : 0.05;
    const bool all_missing = rng_.Bernoulli(0.04);
    const bool congested = rng_.Bernoulli(0.7);
    const double near_bump = rng_.Bernoulli(0.1) ? 9.0 : 0.0;
    Day day{std::vector<float>(static_cast<std::size_t>(intervals_), kNaN),
            std::vector<float>(static_cast<std::size_t>(intervals_), kNaN)};
    for (int s = 0; s < intervals_; ++s) {
      const auto i = static_cast<std::size_t>(s);
      const int rel = (s - peak_start_ + intervals_) % intervals_;
      const bool in_peak = congested && rel < peak_len_;
      if (!all_missing && !rng_.Bernoulli(miss)) {
        const double noise = std::floor(rng_.NextDouble() * 3.0) * 0.25;
        day.far[i] = Quantize(base_ + noise + (in_peak ? 15.0 : 0.0));
      }
      if (!all_missing && !rng_.Bernoulli(miss)) {
        day.near[i] = Quantize(0.5 * base_ + (in_peak ? near_bump : 0.0));
      }
    }
    return day;
  }

 private:
  static float Quantize(double v) {
    return static_cast<float>(std::round(v * 4.0) / 4.0);
  }

  stats::Rng rng_;
  double base_ = 12.0;
  int intervals_ = 0;
  int peak_len_ = 0;
  int peak_start_ = 0;  // starts across midnight
  int outage_left_ = 0;
};

double MinOf(const std::deque<Day>& window, bool far_side) {
  double m = std::numeric_limits<double>::infinity();
  for (const Day& d : window) {
    for (const float v : far_side ? d.far : d.near) {
      if (!std::isnan(v)) m = std::min(m, static_cast<double>(v));
    }
  }
  return m;
}

// The batch oracle: AnalyzeWindow over `window` (oldest first), reduced to
// the newest day's DayClassification.
DayClassification Oracle(const std::deque<Day>& window,
                         const AutocorrConfig& cfg) {
  const int days = static_cast<int>(window.size());
  const int intervals = cfg.intervals_per_day;
  infer::DayGrid far(days, intervals), near(days, intervals);
  for (int d = 0; d < days; ++d) {
    for (int s = 0; s < intervals; ++s) {
      far.Set(d, s, window[static_cast<std::size_t>(d)].far[static_cast<std::size_t>(s)]);
      near.Set(d, s, window[static_cast<std::size_t>(d)].near[static_cast<std::size_t>(s)]);
    }
  }
  const infer::AutocorrResult r = infer::AnalyzeWindow(far, near, cfg);
  DayClassification cls;
  cls.recurring = r.recurring;
  cls.reject = r.reject;
  cls.window_start = r.window_start;
  cls.window_len = r.window_len;
  cls.threshold_ms = r.threshold_ms;
  if (!r.recurring) return cls;
  const double near_min = MinOf(window, false);
  const double near_thr =
      (std::isfinite(near_min) ? near_min : 0.0) + cfg.elevation_ms;
  const Day& today = window.back();
  for (int k = 0; k < r.window_len; ++k) {
    const int s = (r.window_start + k) % intervals;
    const float fv = today.far[static_cast<std::size_t>(s)];
    const float nv = today.near[static_cast<std::size_t>(s)];
    if (!std::isnan(fv) && fv > r.threshold_ms &&
        (std::isnan(nv) || nv <= near_thr)) {
      cls.congested_intervals.push_back(s);
    }
  }
  cls.congested = !cls.congested_intervals.empty();
  cls.fraction = static_cast<double>(cls.congested_intervals.size()) /
                 static_cast<double>(intervals);
  // The interval list above must agree with the batch per-day verdict.
  EXPECT_EQ(cls.fraction, r.day_fraction.back());
  EXPECT_EQ(cls.congested, r.day_congested.back() != 0);
  return cls;
}

void ExpectSame(const DayClassification& got, const DayClassification& want,
                const std::string& where) {
  EXPECT_EQ(got.recurring, want.recurring) << where;
  EXPECT_EQ(got.reject, want.reject) << where;
  EXPECT_EQ(got.congested, want.congested) << where;
  EXPECT_EQ(got.fraction, want.fraction) << where;
  EXPECT_EQ(got.window_start, want.window_start) << where;
  EXPECT_EQ(got.window_len, want.window_len) << where;
  EXPECT_EQ(got.threshold_ms, want.threshold_ms) << where;
  EXPECT_EQ(got.congested_intervals, want.congested_intervals) << where;
}

// The cases a run met; every one must be non-zero at the end.
struct Coverage {
  int all_missing_days = 0;
  int insufficient_data = 0;
  int min_moved_on_eviction = 0;      // the evicted day held a minimum
  int tied_min_evicted = 0;           // ...that another day tied
  int eviction_minima_unchanged = 0;  // both minima survive an eviction
  int wrapped_windows = 0;            // recurring window crosses midnight
  int recurring = 0;

  void Check(const char* what) const {
    EXPECT_GT(all_missing_days, 0) << what;
    EXPECT_GT(insufficient_data, 0) << what;
    EXPECT_GT(min_moved_on_eviction, 0) << what;
    EXPECT_GT(tied_min_evicted, 0) << what;
    EXPECT_GT(eviction_minima_unchanged, 0) << what;
    EXPECT_GT(wrapped_windows, 0) << what;
    EXPECT_GT(recurring, 0) << what;
  }
};

// Pushes `day` into the reference window (evicting at window_days) and
// records which eviction case it was.
void PushReference(std::deque<Day>& window, const Day& day, int window_days,
                   Coverage& cov) {
  if (std::none_of(day.far.begin(), day.far.end(),
                   [](float v) { return !std::isnan(v); })) {
    ++cov.all_missing_days;
  }
  if (static_cast<int>(window.size()) == window_days) {
    const double far_before = MinOf(window, true);
    const double near_before = MinOf(window, false);
    std::deque<Day> rest(window.begin() + 1, window.end());
    const double far_after = MinOf(rest, true);
    const double near_after = MinOf(rest, false);
    if (far_after != far_before || near_after != near_before) {
      ++cov.min_moved_on_eviction;
    } else {
      ++cov.eviction_minima_unchanged;
      std::deque<Day> oldest(window.begin(), window.begin() + 1);
      if (std::isfinite(far_before) && MinOf(oldest, true) == far_before) {
        ++cov.tied_min_evicted;
      }
    }
    window.pop_front();
  }
  window.push_back(day);
}

void Count(const DayClassification& want, int intervals, Coverage& cov) {
  if (want.reject == infer::RejectReason::kInsufficientData) {
    ++cov.insufficient_data;
  }
  if (want.recurring) {
    ++cov.recurring;
    if (want.window_start + want.window_len > intervals) ++cov.wrapped_windows;
  }
}

std::string Where(std::uint64_t seed, std::int64_t day) {
  std::ostringstream os;
  os << "seed " << seed << " day " << day;
  return os.str();
}

// ------------------------------------------------------ window detection

// DetectRecurringWindow is shared by the batch oracle and the rolling
// analyzer, so the differential tests below cannot see a fault in it. Its
// window growth and rival exclusion are checked here against their plain
// definitions on random count vectors: the window is the run of intervals
// with count >= ceil(adjacency_frac * peak) grown left, then right, from
// the first peak; a rival is the first-highest interval more than one
// interval (round midnight) from every window interval.
TEST(WindowDetection, MatchesItsDefinitionOnRandomCounts) {
  stats::Rng rng(99);
  AutocorrConfig cfg;
  cfg.min_elevated_days = 1;
  int rivals = 0, wrapped = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    // With a rival fraction above the adjacency fraction, an interval next
    // to the window can never be a rival, so both orders are drawn.
    cfg.adjacency_frac = 0.3 + 0.7 * rng.NextDouble();
    cfg.rival_frac = 0.3 + 0.7 * rng.NextDouble();
    const int I = 1 + static_cast<int>(rng.UniformInt(30));
    std::vector<int> counts(static_cast<std::size_t>(I));
    for (int& c : counts) c = static_cast<int>(rng.UniformInt(6));
    const auto det = infer::detail::DetectRecurringWindow(
        counts, 1, [](int, int) { return true; }, cfg);
    const auto at = [&](int s) {
      return counts[static_cast<std::size_t>(((s % I) + I) % I)];
    };
    const int peak_s = static_cast<int>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
    const int peak = at(peak_s);
    if (peak < cfg.min_elevated_days) {
      EXPECT_EQ(det.reject, infer::RejectReason::kNoPeak);
      continue;
    }
    const int keep = std::max(
        1, static_cast<int>(std::ceil(cfg.adjacency_frac * peak)));
    int left = peak_s, len = 1;
    while (len < I && at(left - 1) >= keep) {
      left = ((left - 1) % I + I) % I;
      ++len;
    }
    for (int right = peak_s + 1;
         len < I && (right % I) != left && at(right) >= keep; ++right) {
      ++len;
    }
    ASSERT_EQ(det.window_start, left) << "trial " << trial;
    ASSERT_EQ(det.window_len, len) << "trial " << trial;
    if (left + len > I) ++wrapped;
    int rival_s = -1, rival = 0;
    for (int s = 0; s < I; ++s) {
      bool near = false;
      for (int k = 0; k < len; ++k) {
        const int gap = std::abs(s - (left + k) % I);
        near = near || std::min(gap, I - gap) <= 1;
      }
      if (!near && at(s) > rival) {
        rival = at(s);
        rival_s = s;
      }
    }
    const bool rejected = rival_s >= 0 && rival >= cfg.rival_frac * peak;
    rivals += rejected ? 1 : 0;
    ASSERT_EQ(det.recurring, !rejected) << "trial " << trial;
  }
  EXPECT_GT(rivals, 1000);
  EXPECT_GT(wrapped, 1000);
}

// ------------------------------------------------------------ RollingAutocorr

TEST(RollingDifferential, MatchesAnalyzeWindowEveryDay) {
  struct Run {
    AutocorrConfig cfg;
    int days = 0;
  };
  for (const Run& run : {Run{SmallConfig(), 600}, Run{AutocorrConfig{}, 160}}) {
    Coverage cov;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      DayGenerator gen(seed, run.cfg.intervals_per_day);
      infer::RollingAutocorr rolling(run.cfg);
      std::deque<Day> window;
      for (int d = 0; d < run.days; ++d) {
        const Day day = gen.Next();
        rolling.AddDay(day.far, day.near);
        PushReference(window, day, run.cfg.window_days, cov);
        ASSERT_EQ(rolling.DaysHeld(), static_cast<int>(window.size()));
        const DayClassification want = Oracle(window, run.cfg);
        Count(want, run.cfg.intervals_per_day, cov);
        ExpectSame(rolling.Classify(), want, Where(seed, d));
        if (HasFailure()) return;
      }
    }
    cov.Check(run.cfg.window_days == 8 ? "small config" : "default config");
  }
}

// -------------------------------------------------------- StreamingClassifier

// Feeds one day as samples in a seeded order: every bin of both sides (a
// NaN bin as a missing marker or not at all), plus a worse duplicate that
// the minimum must ignore. Returns the samples in feed order.
struct Feed {
  std::int64_t day = 0;
  int interval = 0;
  bool far_side = false;
  float value = 0.0f;
};

std::vector<Feed> DayFeed(std::int64_t day_index, const Day& day,
                          stats::Rng& rng) {
  std::vector<Feed> feed;
  for (int s = 0; s < static_cast<int>(day.far.size()); ++s) {
    for (const bool far_side : {true, false}) {
      const float v = (far_side ? day.far : day.near)[static_cast<std::size_t>(s)];
      if (std::isnan(v)) {
        if (rng.Bernoulli(0.5)) feed.push_back({day_index, s, far_side, kNaN});
        continue;
      }
      feed.push_back({day_index, s, far_side, v});
      if (rng.Bernoulli(0.2)) feed.push_back({day_index, s, far_side, v + 3.0f});
    }
  }
  // A visible day always opens, even when every bin is missing.
  feed.push_back({day_index, 0, true, kNaN});
  for (std::size_t i = feed.size(); i > 1; --i) {
    std::swap(feed[i - 1], feed[rng.UniformInt(i)]);
  }
  return feed;
}

TEST(StreamingDifferential, MatchesAnalyzeWindowWithOutOfOrderAndSkippedDays) {
  const AutocorrConfig cfg = SmallConfig();
  Coverage cov;
  int early_samples = 0, invisible = 0, stranded = 0;
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    stats::Rng rng(seed * 7919);
    DayGenerator gen(seed, cfg.intervals_per_day);
    infer::StreamingClassifier streaming(cfg);
    std::deque<Day> window;
    const std::int64_t first = -6, last = 500;
    // Per day: its rows, whether it is visible (gets samples) and whether it
    // is closed or stranded (a later close evicts it unclosed).
    std::map<std::int64_t, Day> rows;
    std::map<std::int64_t, std::vector<Feed>> pending;
    for (std::int64_t d = first; d <= last + 1; ++d) {
      rows[d] = gen.Next();
      if (rng.Bernoulli(0.08)) continue;  // invisible: no record at all
      pending[d] = DayFeed(d, rows[d], rng);
    }
    const auto feed_some = [&](std::int64_t d, std::size_t n) {
      auto& f = pending[d];
      n = std::min(n, f.size());
      for (std::size_t i = 0; i < n; ++i) {
        streaming.AddSample(f[i].day, f[i].interval, f[i].far_side, f[i].value);
      }
      f.erase(f.begin(), f.begin() + static_cast<std::ptrdiff_t>(n));
    };
    for (std::int64_t d = first; d <= last; ++d) {
      const bool visible = pending.count(d) > 0;
      feed_some(d, std::numeric_limits<std::size_t>::max());
      // Early arrivals: part of the next day's samples before this close.
      if (pending.count(d + 1) > 0 && rng.Bernoulli(0.5)) {
        const std::size_t n = rng.UniformInt(pending[d + 1].size() + 1);
        early_samples += static_cast<int>(n);
        feed_some(d + 1, n);
      }
      if (visible && rng.Bernoulli(0.05)) {
        ++stranded;  // never closed: the next close must evict it
        continue;
      }
      if (!visible) ++invisible;
      const infer::StreamingClassifier::DayOutcome outcome =
          streaming.CloseDay(d);
      ASSERT_EQ(outcome.observed, visible) << Where(seed, d);
      if (!visible) continue;
      PushReference(window, rows[d], cfg.window_days, cov);
      ASSERT_EQ(streaming.DaysHeld(), static_cast<int>(window.size()));
      const bool classified =
          d >= 0 && static_cast<int>(window.size()) == cfg.window_days;
      ASSERT_EQ(outcome.classification.has_value(), classified)
          << Where(seed, d);
      if (!classified) continue;
      const DayClassification want = Oracle(window, cfg);
      Count(want, cfg.intervals_per_day, cov);
      ExpectSame(*outcome.classification, want, Where(seed, d));
      if (HasFailure()) return;
    }
    EXPECT_LE(streaming.OpenDays(), 1u);  // at most day last+1's early part
  }
  cov.Check("streaming");
  EXPECT_GT(early_samples, 0);
  EXPECT_GT(invisible, 0);
  EXPECT_GT(stranded, 0);
}

// ---------------------------------------------------------------- ShardEngine

// Links 1..7, link k measured by k VPs; samples of a day arrive pair by
// pair in a seeded order, so pairs are first seen out of (link, vp) order.
// Every verdict and the per-link quality must match the batch loop: each
// pair classified by AnalyzeWindow, merged over VPs in ascending VP order.
TEST(EngineDifferential, MatchesBatchMergeForOneToSevenVpsPerLink) {
  const AutocorrConfig cfg = SmallConfig();
  serve::EngineConfig engine_config;
  engine_config.autocorr = cfg;
  serve::ShardEngine engine(engine_config);

  struct PairRef {
    topo::LinkId link = 0;
    topo::VpId vp = 0;
    DayGenerator gen;
    std::deque<Day> window;
    infer::QualityTally quality;
  };
  std::vector<PairRef> pairs;
  for (topo::LinkId link = 1; link <= 7; ++link) {
    for (topo::VpId v = 0; v < link; ++v) {
      const topo::VpId vp = 40 - 5 * v;  // descending ids within a link
      pairs.push_back({link, vp, DayGenerator(link * 100 + vp, 24), {}, {}});
    }
  }
  // Batch order: ascending (link, vp).
  std::vector<std::size_t> batch_order(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) batch_order[i] = i;
  std::sort(batch_order.begin(), batch_order.end(),
            [&](std::size_t a, std::size_t b) {
              return std::tie(pairs[a].link, pairs[a].vp) <
                     std::tie(pairs[b].link, pairs[b].vp);
            });

  stats::Rng rng(2024);
  Coverage cov;
  int verdicts_checked = 0;
  for (std::int64_t day = -4; day < 160; ++day) {
    std::vector<std::size_t> feed_order(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) feed_order[i] = i;
    for (std::size_t i = feed_order.size(); i > 1; --i) {
      std::swap(feed_order[i - 1], feed_order[rng.UniformInt(i)]);
    }
    std::vector<bool> visible(pairs.size());
    std::vector<Day> today(pairs.size());
    for (const std::size_t p : feed_order) {
      today[p] = pairs[p].gen.Next();
      visible[p] = !rng.Bernoulli(0.06);
      if (!visible[p]) continue;
      for (const Feed& f : DayFeed(day, today[p], rng)) {
        const bool missing = std::isnan(f.value);
        const serve::SampleKind kind =
            f.far_side ? (missing ? serve::SampleKind::kFarMissing
                                  : serve::SampleKind::kFarRtt)
                       : (missing ? serve::SampleKind::kNearMissing
                                  : serve::SampleKind::kNearRtt);
        engine.Ingest({day * stats::kSecPerDay + f.interval * 3600 + 60,
                       pairs[p].link, pairs[p].vp, kind,
                       missing ? 0.0f : f.value});
      }
    }
    const std::vector<serve::VerdictRecord> got = engine.CloseDay(day);

    // The batch loop over the same day.
    std::vector<serve::VerdictRecord> want;
    std::map<topo::LinkId, infer::DataQuality> want_quality;
    for (std::size_t i = 0; i < batch_order.size();) {
      const topo::LinkId link = pairs[batch_order[i]].link;
      double sum = 0.0;
      std::uint32_t contributors = 0, asserting = 0;
      infer::LinkQualityAccumulator acc;
      bool measured = false;
      for (; i < batch_order.size() && pairs[batch_order[i]].link == link; ++i) {
        const std::size_t p = batch_order[i];
        PairRef& ref = pairs[p];
        if (visible[p]) {
          PushReference(ref.window, today[p], cfg.window_days, cov);
          if (day >= 0) ref.quality.AddDay(today[p].far, today[p].near);
          if (day >= 0 &&
              static_cast<int>(ref.window.size()) == cfg.window_days) {
            const DayClassification cls = Oracle(ref.window, cfg);
            Count(cls, cfg.intervals_per_day, cov);
            ++contributors;
            if (cls.recurring) {
              ++asserting;
              sum += cls.fraction;
            }
          }
        }
        if (ref.quality.far_total > 0) {
          acc.Add(ref.quality);
          measured = true;
        }
      }
      const infer::DataQuality q = acc.Finish(static_cast<int>(day) + 1);
      if (measured) want_quality[link] = q;
      if (contributors == 0) continue;
      serve::VerdictRecord v;
      v.day = day;
      v.link = link;
      v.contributors = contributors;
      v.asserting = asserting;
      v.recurring = asserting > 0;
      v.fraction = asserting > 0 ? sum / asserting : 0.0;
      v.congested = v.fraction >= engine_config.congested_threshold_frac;
      if (measured) {
        v.quality_ok = q.Acceptable(cfg.quality);
        v.far_coverage_frac = q.far_coverage_frac;
      }
      want.push_back(v);
    }
    ASSERT_EQ(got.size(), want.size()) << "day " << day;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "day " << day << " row " << i;
    }
    verdicts_checked += static_cast<int>(got.size());
    const auto snapshot = engine.QualitySnapshot(static_cast<int>(day) + 1);
    ASSERT_EQ(snapshot.size(), want_quality.size()) << "day " << day;
    for (const auto& [link, q] : want_quality) {
      const auto it = snapshot.find(link);
      ASSERT_NE(it, snapshot.end()) << "day " << day << " link " << link;
      EXPECT_EQ(it->second.far_coverage_frac, q.far_coverage_frac);
      EXPECT_EQ(it->second.near_coverage_frac, q.near_coverage_frac);
      EXPECT_EQ(it->second.longest_gap_intervals, q.longest_gap_intervals);
      EXPECT_EQ(it->second.days_observed, q.days_observed);
      EXPECT_EQ(it->second.total_days, q.total_days);
      EXPECT_EQ(it->second.vp_churn_events, q.vp_churn_events);
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(verdicts_checked, 7 * 100);
  EXPECT_GT(cov.recurring, 0);
  EXPECT_GT(cov.min_moved_on_eviction, 0);
}

// --------------------------------------------------------- checkpoints

// Everything a client can observe of a service, compared field by field.
// Both services are stopped first, so every published sample has reached
// the raw store.
void ExpectSameService(const serve::CongestionService& got,
                       const serve::CongestionService& want,
                       const std::string& where) {
  EXPECT_EQ(got.VerdictLogText(), want.VerdictLogText()) << where;
  EXPECT_EQ(got.Stats(), want.Stats()) << where;
  EXPECT_EQ(got.Watermark(), want.Watermark()) << where;
  for (topo::LinkId link = 1; link <= 4; ++link) {
    const auto g = got.QueryQuality(link);
    const auto w = want.QueryQuality(link);
    ASSERT_EQ(g.has_value(), w.has_value()) << where << " link " << link;
    if (!g) continue;
    EXPECT_EQ(g->far_coverage_frac, w->far_coverage_frac) << where;
    EXPECT_EQ(g->near_coverage_frac, w->near_coverage_frac) << where;
    EXPECT_EQ(g->longest_gap_intervals, w->longest_gap_intervals) << where;
    EXPECT_EQ(g->days_observed, w->days_observed) << where;
    EXPECT_EQ(g->total_days, w->total_days) << where;
    EXPECT_EQ(g->vp_churn_events, w->vp_churn_events) << where;
  }
}

// Links 1..3, link k measured by k VPs, fed day by day from DayGenerator
// through DayFeed (NaN markers, worse duplicates, shuffled order). Now and
// then a sample runs two or three days ahead: it closes the days before it
// at once, is held as a far-future open day, and the rest of its day and
// the skipped days arrive late.
std::vector<serve::Sample> CheckpointStream(std::uint64_t seed, int days,
                                            int* ahead) {
  stats::Rng rng(seed);
  std::vector<std::pair<topo::LinkId, DayGenerator>> pairs;
  for (topo::LinkId link = 1; link <= 3; ++link) {
    for (topo::VpId vp = 1; vp <= link; ++vp) {
      pairs.emplace_back(link * 100 + vp,
                         DayGenerator(seed + link * 10 + vp, 24));
    }
  }
  std::vector<serve::Sample> stream;
  for (std::int64_t day = -2; day < days; ++day) {
    for (auto& [key, gen] : pairs) {
      const Day rows = gen.Next();
      if (rng.Bernoulli(0.05)) continue;  // an invisible pair-day
      for (const Feed& f : DayFeed(day, rows, rng)) {
        const bool missing = std::isnan(f.value);
        const serve::SampleKind kind =
            f.far_side ? (missing ? serve::SampleKind::kFarMissing
                                  : serve::SampleKind::kFarRtt)
                       : (missing ? serve::SampleKind::kNearMissing
                                  : serve::SampleKind::kNearRtt);
        stream.push_back({day * stats::kSecPerDay + f.interval * 3600 + 60,
                          static_cast<topo::LinkId>(key / 100),
                          static_cast<topo::VpId>(key % 100), kind,
                          missing ? 0.0f : f.value});
      }
    }
    if (rng.Bernoulli(0.12)) {
      serve::Sample far = stream.back();
      far.t += (2 + static_cast<std::int64_t>(rng.UniformInt(2))) *
               stats::kSecPerDay;
      far.kind = serve::SampleKind::kFarRtt;
      far.value = 9.0f;
      stream.push_back(far);
      ++*ahead;
    }
  }
  return stream;
}

// One stream through two WAL-on services: A's segments are small enough to
// checkpoint every few days, B's are the default size, so B never does and
// every restart replays its whole log. Each phase restarts both at the next
// shard count (1, 2, 4, 1, ...), so a checkpoint written at one shard count
// always restores at another; the two must agree after the restart and
// again after the phase's share of the stream. Odd phases end with a clean
// stop, even ones with a crash (no clean marker).
TEST(CheckpointDifferential, RestartsMatchAFullReplayAtAnyShardCount) {
  namespace fs = std::filesystem;
  int ahead = 0;
  const std::vector<serve::Sample> stream = CheckpointStream(77, 70, &ahead);
  const std::string root = ::testing::TempDir() + "/manic_ckpt_diff";
  fs::remove_all(root);
  const auto config = [&](const char* name, int shards, bool small) {
    serve::ServiceConfig c;
    c.engine.autocorr = SmallConfig();
    c.shards = shards;
    c.wal_dir = root + "/" + name;
    c.wal_fsync = serve::WalFsync::kNone;  // the crash model is a kill
    // 24 KiB of fixed-width v1 records, scaled as kWalDefaultSegmentBytes
    // is, so a segment holds the same samples.
    if (small) c.wal_segment_bytes = (24 << 10) * 2 / 7;
    return c;
  };
  constexpr int kPhases = 7;
  const int shard_counts[] = {1, 2, 4};
  std::size_t offset = 0;
  std::uint64_t written = 0, restored = 0;
  stats::Rng rng(5);
  for (int phase = 0; phase < kPhases; ++phase) {
    const int shards = shard_counts[phase % 3];
    const std::string where = "phase " + std::to_string(phase);
    serve::CongestionService a(config("a", shards, true));
    serve::CongestionService b(config("b", shards, false));
    const serve::WalRecoverStats ra = a.RecoverFromWal();
    const serve::WalRecoverStats rb = b.RecoverFromWal();
    ASSERT_TRUE(ra.ok) << ra.error;
    ASSERT_TRUE(rb.ok) << rb.error;
    EXPECT_EQ(rb.checkpoint_bytes, 0u);
    if (ra.checkpoint_bytes > 0) {
      ++restored;
      EXPECT_LT(ra.samples, rb.samples) << where;
    }
    a.Stop();
    b.Stop();
    ExpectSameService(a, b, where + " after restart");
    if (HasFailure()) return;
    a.Start();
    b.Start();
    const std::size_t end = phase + 1 == kPhases
                                ? stream.size()
                                : stream.size() * (phase + 1) / kPhases;
    while (offset < end) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.UniformInt(150), end - offset);
      const std::span<const serve::Sample> batch(stream.data() + offset, n);
      const serve::SubmitSummary sa = a.SubmitBatch(batch);
      const serve::SubmitSummary sb = b.SubmitBatch(batch);
      ASSERT_EQ(sa.accepted, sb.accepted);
      ASSERT_EQ(sa.late, sb.late);
      offset += n;
    }
    if (phase + 1 == kPhases) {
      EXPECT_EQ(a.FinishStream(), b.FinishStream());
    }
    written += a.checkpoint_stats().written;
    EXPECT_EQ(b.checkpoint_stats().written, 0u);
    a.Stop();
    b.Stop();
    ExpectSameService(a, b, where + " after the stream");
    if (HasFailure()) return;
    if (phase % 2 == 1) {
      EXPECT_EQ(a.CloseWalClean(), serve::WalStatus::kOk);
      EXPECT_EQ(b.CloseWalClean(), serve::WalStatus::kOk);
    }
  }
  // Non-vacuous: A checkpointed and restored from checkpoints, the stream
  // ran ahead and produced late samples.
  EXPECT_GT(written, 10u);
  EXPECT_GE(restored, static_cast<std::uint64_t>(kPhases - 2));
  EXPECT_GT(ahead, 3);
  serve::CongestionService last(config("a", 1, true));
  ASSERT_TRUE(last.RecoverFromWal().ok);
  last.Stop();
  EXPECT_GT(last.Stats().samples_late, 0u);
  fs::remove_all(root);
}

}  // namespace
}  // namespace manic
