// A small tagged time-series database, standing in for the paper's InfluxDB
// backend (§3, Figure 1). Series are identified by a measurement name plus a
// set of key=value tags (e.g. measurement "tslp_rtt" tagged with vp, link,
// side, destination). Supports subset-matching queries over tags, time-range
// slicing, min/mean downsampling, retention, and CSV export (the Grafana
// front-end substitute is plain text output from the bench harnesses).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "stats/timeseries.h"

namespace manic::tsdb {

using stats::TimeSec;

// Sorted key=value tag set. Keys are unique.
class TagSet {
 public:
  TagSet() = default;
  TagSet(std::initializer_list<std::pair<std::string, std::string>> kvs);

  void Set(std::string key, std::string value);
  const std::string* Get(std::string_view key) const noexcept;

  // True if every tag in `filter` is present with an equal value here.
  bool Matches(const TagSet& filter) const noexcept;

  // Canonical "k1=v1,k2=v2" encoding (keys sorted); usable as a map key.
  std::string Canonical() const;

  const std::vector<std::pair<std::string, std::string>>& entries() const noexcept {
    return entries_;
  }

  friend bool operator==(const TagSet&, const TagSet&) = default;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;  // sorted by key
};

struct SeriesRef {
  const TagSet* tags = nullptr;
  const stats::TimeSeries* series = nullptr;
};

// Not internally synchronized: queries hand out SeriesRef pointers that a
// concurrent Write could invalidate. Parallel producers append through
// BufferedWriter (writer.h), which drains here in canonical order on one
// thread.
class Database {
 private:
  struct Series;

 public:
  // Appends one point to the series (measurement, tags). Creates the series
  // on first write. Timestamps within one series must be non-decreasing.
  void Write(std::string_view measurement, const TagSet& tags, TimeSec t,
             double value);

  // ---- streaming append path ----------------------------------------------
  // The per-sample ingest path (src/serve) appends millions of points into a
  // handful of series; re-canonicalizing the tag set and re-walking two maps
  // per point would dominate. OpenSeries resolves (measurement, tags) once —
  // creating the series if needed — and hands back a handle whose appends
  // are O(1) amortized. Handles stay valid for the Database's lifetime
  // (series nodes are never erased; EnforceRetention only trims points).
  class SeriesHandle {
   public:
    SeriesHandle() = default;
    explicit operator bool() const noexcept { return series_ != nullptr; }

   private:
    friend class Database;
    explicit SeriesHandle(Series* series) : series_(series) {}
    Series* series_ = nullptr;
  };
  SeriesHandle OpenSeries(std::string_view measurement, const TagSet& tags);
  // Timestamps are non-decreasing per series, as for Write/WriteMissing, but
  // a streamed point older than the series' newest is refused (false, not
  // stored) instead of thrown: streamed timestamps come off the wire and
  // may arrive out of order within a day.
  bool Append(SeriesHandle handle, TimeSec t, double value);
  bool AppendMissing(SeriesHandle handle, TimeSec t);
  // The series' points and gap markers (marker values are unused, 0), in
  // time order — what a checkpoint of the raw store saves per handle.
  const stats::TimeSeries& Points(SeriesHandle handle) const noexcept {
    return handle.series_->data;
  }
  const stats::TimeSeries& Markers(SeriesHandle handle) const noexcept {
    return handle.series_->missing;
  }

  // Marks time t of the series as probed-but-unanswered: the collector was
  // alive and scheduled the measurement, but nothing came back. Gap markers
  // make "no data because we asked and got nothing" distinguishable from
  // "no data because telemetry was silently lost" (an unmarked hole), which
  // is what Coverage() quantifies. Markers live beside the data and are not
  // exported via CSV or line protocol (the real backend has no such row).
  void WriteMissing(std::string_view measurement, const TagSet& tags,
                    TimeSec t);

  // Coverage accounting over [t0, t1) for every series matching `filter`,
  // combined: how many points are present, how many probed slots came back
  // empty, and the longest interval with no present point (clamped to the
  // window edges; t1 - t0 when nothing is present).
  struct [[nodiscard]] CoverageStats {
    std::int64_t present = 0;
    std::int64_t missing = 0;
    TimeSec longest_gap_s = 0;

    double CoverageFrac() const noexcept {
      const std::int64_t total = present + missing;
      return total > 0 ? static_cast<double>(present) / static_cast<double>(total)
                       : 0.0;
    }
  };
  CoverageStats Coverage(std::string_view measurement, const TagSet& filter,
                         TimeSec t0, TimeSec t1) const;

  // All series of a measurement whose tags match `filter` (subset match).
  std::vector<SeriesRef> Query(std::string_view measurement,
                               const TagSet& filter = {}) const;

  // Concatenated points of all matching series restricted to [t0, t1),
  // re-sorted by time. Useful when several destinations probe one link.
  stats::TimeSeries QueryMerged(std::string_view measurement,
                                const TagSet& filter, TimeSec t0,
                                TimeSec t1) const;

  // Downsampled view of the merged matching data.
  stats::TimeSeries QueryDownsampled(std::string_view measurement,
                                     const TagSet& filter, TimeSec t0,
                                     TimeSec t1, TimeSec bin_width,
                                     stats::BinAgg agg) const;

  // Drops points and gap markers older than `horizon` seconds before the
  // series' newest point or marker, per series, for one measurement.
  // Returns the data points dropped (markers are trimmed but not counted).
  // Amortized O(points dropped): the kept points are never copied per call.
  std::size_t EnforceRetention(std::string_view measurement, TimeSec horizon);

  // Number of series stored for a measurement.
  std::size_t SeriesCount(std::string_view measurement) const noexcept;

  // Total points across all measurements.
  std::size_t TotalPoints() const noexcept;

  std::vector<std::string> Measurements() const;

  // CSV export: measurement,tags,time,value — one row per point.
  std::string ExportCsv(std::string_view measurement,
                        const TagSet& filter = {}) const;

  // Persistence in InfluxDB line protocol
  // (`measurement,k=v,k=v value=<v> <t>`), the format the deployed system's
  // backend speaks. Save writes every measurement; Load appends parsed
  // points (returns the number of points loaded; malformed lines are
  // skipped and counted in *rejected if provided).
  void SaveLineProtocol(std::ostream& os) const;
  std::size_t LoadLineProtocol(std::istream& is,
                               std::size_t* rejected = nullptr);

 private:
  struct Series {
    TagSet tags;
    stats::TimeSeries data;
    // Probed-but-unanswered slots (value unused, kept 0); same monotonic
    // timestamp contract as `data`.
    stats::TimeSeries missing;
  };
  Series& ResolveSeries(std::string_view measurement, const TagSet& tags);
  // measurement -> canonical tag string -> series
  std::map<std::string, std::map<std::string, Series>, std::less<>> tables_;
};

}  // namespace manic::tsdb
