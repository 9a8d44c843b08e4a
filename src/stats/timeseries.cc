#include "stats/timeseries.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace manic::stats {

TimeSeries::TimeSeries(std::vector<Point> points) : points_(std::move(points)) {
  assert(std::is_sorted(points_.begin(), points_.end(),
                        [](const Point& a, const Point& b) { return a.t < b.t; }));
}

void TimeSeries::Append(TimeSec t, double value) {
  if (!empty() && t < points_.back().t) {
    throw std::invalid_argument("TimeSeries::Append: non-monotonic timestamp");
  }
  points_.push_back({t, value});
}

std::vector<double> TimeSeries::Values() const {
  std::vector<double> out;
  out.reserve(size());
  for (const Point& p : points()) out.push_back(p.value);
  return out;
}

std::size_t TimeSeries::LowerBound(TimeSec t0) const noexcept {
  const std::span<const Point> live = points();
  const auto it = std::lower_bound(
      live.begin(), live.end(), t0,
      [](const Point& p, TimeSec t) { return p.t < t; });
  return static_cast<std::size_t>(it - live.begin());
}

TimeSeries TimeSeries::Slice(TimeSec t0, TimeSec t1) const {
  TimeSeries out;
  const std::size_t lo = LowerBound(t0);
  for (std::size_t i = lo; i < size() && (*this)[i].t < t1; ++i) {
    out.points_.push_back((*this)[i]);
  }
  return out;
}

std::size_t TimeSeries::EraseBefore(TimeSec cutoff) {
  const std::size_t dropped = LowerBound(cutoff);
  head_ += dropped;
  if (head_ >= size()) {
    points_.erase(points_.begin(),
                  points_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  return dropped;
}

namespace {

struct BinState {
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::size_t count = 0;
  void Add(double v) noexcept {
    if (count == 0) {
      min = max = v;
    } else {
      min = std::min(min, v);
      max = std::max(max, v);
    }
    sum += v;
    ++count;
  }
  double Result(BinAgg agg) const noexcept {
    switch (agg) {
      case BinAgg::kMin: return min;
      case BinAgg::kMax: return max;
      case BinAgg::kMean: return sum / static_cast<double>(count);
      case BinAgg::kCount: return static_cast<double>(count);
      case BinAgg::kSum: return sum;
    }
    return 0.0;
  }
};

TimeSec FloorDiv(TimeSec a, TimeSec b) noexcept {
  TimeSec q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

}  // namespace

TimeSeries TimeSeries::Bin(TimeSec width, BinAgg agg, TimeSec origin) const {
  if (width <= 0) throw std::invalid_argument("TimeSeries::Bin: width <= 0");
  TimeSeries out;
  BinState state;
  TimeSec current_bin = 0;
  bool open = false;
  for (const Point& p : points()) {
    const TimeSec bin = FloorDiv(p.t - origin, width);
    if (open && bin != current_bin) {
      out.points_.push_back({origin + current_bin * width, state.Result(agg)});
      state = BinState{};
    }
    current_bin = bin;
    open = true;
    state.Add(p.value);
  }
  if (open) {
    out.points_.push_back({origin + current_bin * width, state.Result(agg)});
  }
  return out;
}

std::vector<std::optional<double>> TimeSeries::BinDense(TimeSec t0, TimeSec t1,
                                                        TimeSec width,
                                                        BinAgg agg) const {
  if (width <= 0) throw std::invalid_argument("BinDense: width <= 0");
  if (t1 <= t0) return {};
  const std::size_t nbins =
      static_cast<std::size_t>((t1 - t0 + width - 1) / width);
  std::vector<BinState> states(nbins);
  const std::size_t lo = LowerBound(t0);
  for (std::size_t i = lo; i < size() && (*this)[i].t < t1; ++i) {
    const std::size_t bin =
        static_cast<std::size_t>(((*this)[i].t - t0) / width);
    states[bin].Add((*this)[i].value);
  }
  std::vector<std::optional<double>> out(nbins);
  for (std::size_t i = 0; i < nbins; ++i) {
    if (states[i].count > 0) out[i] = states[i].Result(agg);
  }
  return out;
}

}  // namespace manic::stats
