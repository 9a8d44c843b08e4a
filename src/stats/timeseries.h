// A simple time series: (unix-seconds, value) points in non-decreasing time
// order. Both congestion-inference methods operate on *minimum-per-bin*
// aggregations of raw TSLP series (§4.1, §4.2), so binning with a selectable
// aggregator is the workhorse here.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace manic::stats {

using TimeSec = std::int64_t;

struct Point {
  TimeSec t = 0;
  double value = 0.0;
  friend bool operator==(const Point&, const Point&) = default;
};
// One per series point: t and value, no padding.
static_assert(sizeof(Point) <= 16);

enum class BinAgg { kMin, kMax, kMean, kCount, kSum };

class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::vector<Point> points);

  // Appends a point; time must be >= the last appended time.
  void Append(TimeSec t, double value);

  std::size_t size() const noexcept { return points_.size() - head_; }
  bool empty() const noexcept { return size() == 0; }
  const Point& operator[](std::size_t i) const noexcept {
    return points_[head_ + i];
  }
  std::span<const Point> points() const noexcept {
    return std::span<const Point>(points_).subspan(head_);
  }
  const Point& front() const noexcept { return points_[head_]; }
  const Point& back() const noexcept { return points_.back(); }

  // All values, in time order.
  std::vector<double> Values() const;

  // Points with t in [t0, t1).
  TimeSeries Slice(TimeSec t0, TimeSec t1) const;

  // Index of the first point with t >= t0 (== size() if none).
  std::size_t LowerBound(TimeSec t0) const noexcept;

  // Aggregates points into fixed-width bins aligned to `origin`
  // (bin k covers [origin + k*width, origin + (k+1)*width)). Bins with no
  // points are omitted. The returned series timestamps each bin at its start.
  TimeSeries Bin(TimeSec width, BinAgg agg, TimeSec origin = 0) const;

  // Like Bin, but produces a dense vector over [t0, t1): one slot per bin,
  // nullopt where the bin is empty. Used by the autocorrelation method,
  // which needs positional (interval-of-day) alignment.
  std::vector<std::optional<double>> BinDense(TimeSec t0, TimeSec t1,
                                              TimeSec width, BinAgg agg) const;

  // Drops every point with t < cutoff; returns how many. Amortized O(points
  // dropped): the dead prefix is skipped, and moved out only once it is at
  // least as long as the live points.
  std::size_t EraseBefore(TimeSec cutoff);

  void Clear() noexcept {
    points_.clear();
    head_ = 0;
  }

 private:
  std::vector<Point> points_;
  std::size_t head_ = 0;  // points_[0, head_) are erased
};

}  // namespace manic::stats
