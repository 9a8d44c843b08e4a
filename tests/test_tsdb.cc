// Tests for the tagged time-series database (InfluxDB substitute): tag
// matching, queries, merged/downsampled reads, retention, and CSV export.
#include <gtest/gtest.h>

#include "tsdb/tsdb.h"

namespace manic::tsdb {
namespace {

TEST(TagSet, SetGetAndCanonical) {
  TagSet tags{{"vp", "mry-us"}, {"side", "far"}};
  tags.Set("link", "10.0.0.1");
  ASSERT_NE(tags.Get("vp"), nullptr);
  EXPECT_EQ(*tags.Get("vp"), "mry-us");
  EXPECT_EQ(tags.Get("absent"), nullptr);
  EXPECT_EQ(tags.Canonical(), "link=10.0.0.1,side=far,vp=mry-us");
  tags.Set("side", "near");
  EXPECT_EQ(*tags.Get("side"), "near");
}

TEST(TagSet, SubsetMatching) {
  const TagSet full{{"vp", "a"}, {"side", "far"}, {"link", "x"}};
  EXPECT_TRUE(full.Matches(TagSet{}));
  EXPECT_TRUE(full.Matches(TagSet{{"side", "far"}}));
  EXPECT_TRUE(full.Matches(TagSet{{"side", "far"}, {"vp", "a"}}));
  EXPECT_FALSE(full.Matches(TagSet{{"side", "near"}}));
  EXPECT_FALSE(full.Matches(TagSet{{"other", "far"}}));
}

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 10; ++i) {
      db_.Write("rtt", TagSet{{"vp", "a"}, {"side", "far"}}, i * 300, 10.0 + i);
      db_.Write("rtt", TagSet{{"vp", "a"}, {"side", "near"}}, i * 300, 5.0);
      db_.Write("rtt", TagSet{{"vp", "b"}, {"side", "far"}}, i * 300, 20.0);
    }
  }
  Database db_;
};

TEST_F(DatabaseTest, QueryByTags) {
  EXPECT_EQ(db_.Query("rtt").size(), 3u);
  EXPECT_EQ(db_.Query("rtt", TagSet{{"vp", "a"}}).size(), 2u);
  EXPECT_EQ(db_.Query("rtt", TagSet{{"side", "far"}}).size(), 2u);
  EXPECT_EQ(db_.Query("rtt", TagSet{{"vp", "b"}, {"side", "near"}}).size(), 0u);
  EXPECT_EQ(db_.Query("absent").size(), 0u);
}

TEST_F(DatabaseTest, SeriesContent) {
  const auto refs = db_.Query("rtt", TagSet{{"vp", "a"}, {"side", "far"}});
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].series->size(), 10u);
  EXPECT_DOUBLE_EQ((*refs[0].series)[3].value, 13.0);
}

TEST_F(DatabaseTest, QueryMergedSortsAcrossSeries) {
  const auto merged = db_.QueryMerged("rtt", TagSet{{"side", "far"}}, 0, 3000);
  EXPECT_EQ(merged.size(), 20u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].t, merged[i].t);
  }
}

TEST_F(DatabaseTest, QueryMergedRespectsRange) {
  const auto merged =
      db_.QueryMerged("rtt", TagSet{{"vp", "a"}, {"side", "far"}}, 600, 1200);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].t, 600);
  EXPECT_EQ(merged[1].t, 900);
}

TEST_F(DatabaseTest, Downsampled) {
  const auto ds = db_.QueryDownsampled("rtt", TagSet{{"vp", "a"}, {"side", "far"}},
                                       0, 3000, 900, stats::BinAgg::kMin);
  ASSERT_EQ(ds.size(), 4u);
  EXPECT_DOUBLE_EQ(ds[0].value, 10.0);
  EXPECT_DOUBLE_EQ(ds[1].value, 13.0);
}

TEST_F(DatabaseTest, RetentionDropsOldPoints) {
  const std::size_t dropped = db_.EnforceRetention("rtt", 900);
  EXPECT_GT(dropped, 0u);
  const auto refs = db_.Query("rtt", TagSet{{"vp", "a"}, {"side", "far"}});
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].series->size(), 4u);  // newest point at 2700, horizon 900
  EXPECT_EQ(refs[0].series->front().t, 1800);
}

TEST_F(DatabaseTest, CountsAndMeasurements) {
  EXPECT_EQ(db_.SeriesCount("rtt"), 3u);
  EXPECT_EQ(db_.TotalPoints(), 30u);
  const auto measurements = db_.Measurements();
  ASSERT_EQ(measurements.size(), 1u);
  EXPECT_EQ(measurements[0], "rtt");
}

TEST_F(DatabaseTest, CsvExport) {
  const std::string csv =
      db_.ExportCsv("rtt", TagSet{{"vp", "b"}});
  // Header + 10 rows.
  std::size_t lines = 0;
  for (const char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 11u);
  EXPECT_NE(csv.find("side=far,vp=b"), std::string::npos);
}

TEST_F(DatabaseTest, LineProtocolRoundTrip) {
  std::ostringstream out;
  db_.SaveLineProtocol(out);
  Database restored;
  std::istringstream in(out.str());
  std::size_t rejected = 123;
  const std::size_t loaded = restored.LoadLineProtocol(in, &rejected);
  EXPECT_EQ(loaded, db_.TotalPoints());
  EXPECT_EQ(rejected, 0u);
  EXPECT_EQ(restored.TotalPoints(), db_.TotalPoints());
  EXPECT_EQ(restored.SeriesCount("rtt"), db_.SeriesCount("rtt"));
  // Identical data, series by series.
  for (const SeriesRef& ref : db_.Query("rtt")) {
    const auto match = restored.Query("rtt", *ref.tags);
    ASSERT_EQ(match.size(), 1u) << ref.tags->Canonical();
    ASSERT_EQ(match[0].series->size(), ref.series->size());
    for (std::size_t i = 0; i < ref.series->size(); ++i) {
      EXPECT_EQ((*match[0].series)[i], (*ref.series)[i]);
    }
  }
}

TEST(Database, LineProtocolRejectsMalformed) {
  Database db;
  std::istringstream in(
      "# comment\n"
      "rtt,vp=a value=10 100\n"         // ok
      "rtt,vp=a value=11 200\n"         // ok
      "rtt,vp=a value=9 50\n"           // non-monotonic -> rejected
      "nomeasurement\n"                 // malformed
      ",vp=a value=1 1\n"               // empty measurement
      "rtt,=x value=1 300\n"            // empty tag key
      "rtt,vp=a count=1 300\n"          // wrong field name
      "rtt,vp=a value=zz 300\n"         // bad number
      "rtt,vp=a value=1 zz\n");         // bad timestamp
  std::size_t rejected = 0;
  const std::size_t loaded = db.LoadLineProtocol(in, &rejected);
  EXPECT_EQ(loaded, 2u);
  EXPECT_EQ(rejected, 7u);
  EXPECT_EQ(db.TotalPoints(), 2u);
}

TEST(Database, NonMonotonicWriteThrows) {
  Database db;
  db.Write("m", TagSet{}, 100, 1.0);
  EXPECT_THROW(db.Write("m", TagSet{}, 50, 1.0), std::invalid_argument);
  // Different series are independent.
  db.Write("m", TagSet{{"k", "v"}}, 50, 1.0);
}

// ---- gap markers and coverage ----------------------------------------------

TEST(Database, CoverageCountsPresentAndMarkedMissing) {
  Database db;
  const TagSet tags{{"vp", "a"}};
  db.Write("m", tags, 0, 1.0);
  db.Write("m", tags, 100, 1.0);
  db.Write("m", tags, 200, 1.0);
  // Probed-but-unanswered slots: explicit gap markers, not silent holes.
  db.WriteMissing("m", tags, 300);
  db.WriteMissing("m", tags, 400);
  db.WriteMissing("m", tags, 500);
  db.WriteMissing("m", tags, 600);
  db.Write("m", tags, 700, 1.0);
  const auto cov = db.Coverage("m", TagSet{}, 0, 1000);
  EXPECT_EQ(cov.present, 4);
  EXPECT_EQ(cov.missing, 4);
  EXPECT_DOUBLE_EQ(cov.CoverageFrac(), 0.5);
  // The longest run with no *present* point: markers do not fill gaps
  // (200 -> 700), and the trailing stretch to the window edge is shorter.
  EXPECT_EQ(cov.longest_gap_s, 500);
}

TEST(Database, CoverageGapClampsToWindowEdges) {
  Database db;
  const TagSet tags{{"vp", "a"}};
  db.Write("m", tags, 900, 1.0);
  // Only one point, late in the window: the leading gap dominates.
  const auto cov = db.Coverage("m", TagSet{}, 0, 1000);
  EXPECT_EQ(cov.present, 1);
  EXPECT_EQ(cov.longest_gap_s, 900);
}

TEST(Database, CoverageWithNoDataSpansTheWindow) {
  Database db;
  const auto cov = db.Coverage("absent", TagSet{}, 100, 500);
  EXPECT_EQ(cov.present, 0);
  EXPECT_EQ(cov.missing, 0);
  EXPECT_EQ(cov.longest_gap_s, 400);
  EXPECT_DOUBLE_EQ(cov.CoverageFrac(), 0.0);
}

TEST(Database, CoverageMergesMatchingSeries) {
  // Two destinations probing one link: a slot is covered when either saw it.
  Database db;
  db.Write("m", TagSet{{"dst", "a"}, {"side", "far"}}, 0, 1.0);
  db.Write("m", TagSet{{"dst", "b"}, {"side", "far"}}, 500, 1.0);
  db.WriteMissing("m", TagSet{{"dst", "a"}, {"side", "far"}}, 500);
  const auto cov = db.Coverage("m", TagSet{{"side", "far"}}, 0, 1000);
  EXPECT_EQ(cov.present, 2);
  EXPECT_EQ(cov.missing, 1);
  EXPECT_EQ(cov.longest_gap_s, 500);
}

TEST(Database, MissingMarkersAreNotExported) {
  // The real backend has no "probed but empty" rows; markers must stay out
  // of the CSV export while the data points flow through.
  Database db;
  const TagSet tags{{"vp", "a"}};
  db.Write("m", tags, 0, 1.0);
  db.WriteMissing("m", tags, 300);
  const std::string csv = db.ExportCsv("m");
  EXPECT_NE(csv.find("1"), std::string::npos);
  EXPECT_EQ(csv.find("300"), std::string::npos);
}

// ---- retention -----------------------------------------------------------

// One series of points every 300 s, every fifth slot a gap marker instead.
Database::SeriesHandle FillSeries(Database& db, TimeSec from, TimeSec to) {
  const Database::SeriesHandle h =
      db.OpenSeries("m", TagSet{{"vp", "a"}, {"side", "far"}});
  for (TimeSec t = from; t < to; t += 300) {
    if ((t / 300) % 5 == 0) {
      EXPECT_TRUE(db.AppendMissing(h, t));
    } else {
      EXPECT_TRUE(db.Append(h, t, static_cast<double>(t % 977)));
    }
  }
  return h;
}

TEST(Database, RetentionDropsGapMarkersToo) {
  Database db;
  const Database::SeriesHandle h = FillSeries(db, 0, 30000);
  const TimeSec newest = 29700;
  EXPECT_GT(db.EnforceRetention("m", 3000), 0u);
  ASSERT_FALSE(db.Markers(h).empty());
  EXPECT_GE(db.Markers(h).front().t, newest - 3000);
  EXPECT_GE(db.Points(h).front().t, newest - 3000);
  // Nothing older than the horizon is left to count.
  const auto cov = db.Coverage("m", TagSet{}, 0, newest + 1);
  EXPECT_EQ(cov.missing, static_cast<std::int64_t>(db.Markers(h).size()));
  EXPECT_EQ(cov.present, static_cast<std::int64_t>(db.Points(h).size()));
}

TEST(Database, RepeatedTrimsEqualOneTrim) {
  // Trimming at every "close" while the series grows leaves exactly what
  // one trim at the end does, point for point and marker for marker.
  Database every, once;
  const Database::SeriesHandle a =
      every.OpenSeries("m", TagSet{{"vp", "a"}, {"side", "far"}});
  std::size_t dropped_every = 0;
  for (TimeSec day = 0; day < 40; ++day) {
    FillSeries(every, day * 9000, (day + 1) * 9000);
    dropped_every += every.EnforceRetention("m", 5 * 9000);
  }
  const Database::SeriesHandle b = FillSeries(once, 0, 40 * 9000);
  const std::size_t dropped_once = once.EnforceRetention("m", 5 * 9000);
  EXPECT_EQ(dropped_every, dropped_once);
  ASSERT_EQ(every.Points(a).size(), once.Points(b).size());
  for (std::size_t i = 0; i < once.Points(b).size(); ++i) {
    EXPECT_EQ(every.Points(a)[i], once.Points(b)[i]) << i;
  }
  ASSERT_EQ(every.Markers(a).size(), once.Markers(b).size());
  for (std::size_t i = 0; i < once.Markers(b).size(); ++i) {
    EXPECT_EQ(every.Markers(a)[i], once.Markers(b)[i]) << i;
  }
  // Appends still land after trims.
  EXPECT_TRUE(every.Append(a, 40 * 9000, 1.0));
  EXPECT_EQ(every.Points(a).back().t, 40 * 9000);
}

TEST(Database, CoverageIsUnchangedInsideTheHorizon) {
  Database db;
  FillSeries(db, 0, 50000);
  const TimeSec newest = 49800;
  const TimeSec horizon = 7200;
  const auto before = db.Coverage("m", TagSet{}, newest - horizon, newest + 1);
  EXPECT_GT(db.EnforceRetention("m", horizon), 0u);
  const auto after = db.Coverage("m", TagSet{}, newest - horizon, newest + 1);
  EXPECT_EQ(after.present, before.present);
  EXPECT_EQ(after.missing, before.missing);
  EXPECT_EQ(after.longest_gap_s, before.longest_gap_s);
}

TEST(Database, StreamedAppendRefusesAnOlderPoint) {
  Database db;
  const Database::SeriesHandle h = db.OpenSeries("m", TagSet{{"vp", "a"}});
  EXPECT_TRUE(db.Append(h, 600, 1.0));
  EXPECT_FALSE(db.Append(h, 300, 2.0));  // out of order: not stored
  EXPECT_TRUE(db.Append(h, 600, 3.0));
  EXPECT_TRUE(db.AppendMissing(h, 900));
  EXPECT_FALSE(db.AppendMissing(h, 0));
  EXPECT_EQ(db.Points(h).size(), 2u);
  EXPECT_EQ(db.Markers(h).size(), 1u);
}

}  // namespace
}  // namespace manic::tsdb
