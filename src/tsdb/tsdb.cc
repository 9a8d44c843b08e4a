#include "tsdb/tsdb.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>

namespace manic::tsdb {

TagSet::TagSet(std::initializer_list<std::pair<std::string, std::string>> kvs) {
  for (const auto& [k, v] : kvs) Set(k, v);
}

void TagSet::Set(std::string key, std::string value) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const auto& e, const std::string& k) { return e.first < k; });
  if (it != entries_.end() && it->first == key) {
    it->second = std::move(value);
  } else {
    entries_.insert(it, {std::move(key), std::move(value)});
  }
}

const std::string* TagSet::Get(std::string_view key) const noexcept {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const auto& e, std::string_view k) { return e.first < k; });
  if (it != entries_.end() && it->first == key) return &it->second;
  return nullptr;
}

bool TagSet::Matches(const TagSet& filter) const noexcept {
  for (const auto& [k, v] : filter.entries_) {
    const std::string* mine = Get(k);
    if (mine == nullptr || *mine != v) return false;
  }
  return true;
}

std::string TagSet::Canonical() const {
  std::string out;
  for (const auto& [k, v] : entries_) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

Database::Series& Database::ResolveSeries(std::string_view measurement,
                                          const TagSet& tags) {
  auto& table = tables_[std::string(measurement)];
  const std::string key = tags.Canonical();
  auto it = table.find(key);
  if (it == table.end()) {
    it = table.emplace(key, Series{tags, {}, {}}).first;
  }
  return it->second;
}

void Database::Write(std::string_view measurement, const TagSet& tags,
                     TimeSec t, double value) {
  ResolveSeries(measurement, tags).data.Append(t, value);
}

void Database::WriteMissing(std::string_view measurement, const TagSet& tags,
                            TimeSec t) {
  ResolveSeries(measurement, tags).missing.Append(t, 0.0);
}

Database::SeriesHandle Database::OpenSeries(std::string_view measurement,
                                            const TagSet& tags) {
  return SeriesHandle(&ResolveSeries(measurement, tags));
}

namespace {

bool AppendInOrder(stats::TimeSeries& series, TimeSec t, double value) {
  if (!series.empty() && t < series.back().t) return false;
  series.Append(t, value);
  return true;
}

}  // namespace

bool Database::Append(SeriesHandle handle, TimeSec t, double value) {
  return handle.series_ != nullptr &&
         AppendInOrder(handle.series_->data, t, value);
}

bool Database::AppendMissing(SeriesHandle handle, TimeSec t) {
  return handle.series_ != nullptr &&
         AppendInOrder(handle.series_->missing, t, 0.0);
}

Database::CoverageStats Database::Coverage(std::string_view measurement,
                                           const TagSet& filter, TimeSec t0,
                                           TimeSec t1) const {
  CoverageStats stats;
  std::vector<TimeSec> present_times;
  const auto table = tables_.find(measurement);
  if (table == tables_.end()) {
    stats.longest_gap_s = t1 - t0;
    return stats;
  }
  for (const auto& [key, series] : table->second) {
    if (!series.tags.Matches(filter)) continue;
    for (std::size_t i = series.data.LowerBound(t0);
         i < series.data.size() && series.data[i].t < t1; ++i) {
      ++stats.present;
      present_times.push_back(series.data[i].t);
    }
    for (std::size_t i = series.missing.LowerBound(t0);
         i < series.missing.size() && series.missing[i].t < t1; ++i) {
      ++stats.missing;
    }
  }
  if (present_times.empty()) {
    stats.longest_gap_s = t1 - t0;
    return stats;
  }
  std::sort(present_times.begin(), present_times.end());
  TimeSec longest = present_times.front() - t0;  // leading gap
  for (std::size_t i = 1; i < present_times.size(); ++i) {
    longest = std::max(longest, present_times[i] - present_times[i - 1]);
  }
  longest = std::max(longest, (t1 - 1) - present_times.back());  // trailing
  stats.longest_gap_s = std::max<TimeSec>(longest, 0);
  return stats;
}

std::vector<SeriesRef> Database::Query(std::string_view measurement,
                                       const TagSet& filter) const {
  std::vector<SeriesRef> out;
  const auto table = tables_.find(measurement);
  if (table == tables_.end()) return out;
  for (const auto& [key, series] : table->second) {
    if (series.tags.Matches(filter)) {
      out.push_back({&series.tags, &series.data});
    }
  }
  return out;
}

stats::TimeSeries Database::QueryMerged(std::string_view measurement,
                                        const TagSet& filter, TimeSec t0,
                                        TimeSec t1) const {
  std::vector<stats::Point> pts;
  for (const SeriesRef& ref : Query(measurement, filter)) {
    const std::size_t lo = ref.series->LowerBound(t0);
    for (std::size_t i = lo; i < ref.series->size() && (*ref.series)[i].t < t1;
         ++i) {
      pts.push_back((*ref.series)[i]);
    }
  }
  std::sort(pts.begin(), pts.end(),
            [](const stats::Point& a, const stats::Point& b) { return a.t < b.t; });
  return stats::TimeSeries(std::move(pts));
}

stats::TimeSeries Database::QueryDownsampled(std::string_view measurement,
                                             const TagSet& filter, TimeSec t0,
                                             TimeSec t1, TimeSec bin_width,
                                             stats::BinAgg agg) const {
  return QueryMerged(measurement, filter, t0, t1).Bin(bin_width, agg, t0);
}

std::size_t Database::EnforceRetention(std::string_view measurement,
                                       TimeSec horizon) {
  const auto table = tables_.find(measurement);
  if (table == tables_.end()) return 0;
  std::size_t dropped = 0;
  for (auto& [key, series] : table->second) {
    if (series.data.empty() && series.missing.empty()) continue;
    TimeSec newest = series.data.empty() ? series.missing.back().t
                                         : series.data.back().t;
    if (!series.missing.empty()) {
      newest = std::max(newest, series.missing.back().t);
    }
    const TimeSec cutoff = newest - horizon;
    dropped += series.data.EraseBefore(cutoff);
    (void)series.missing.EraseBefore(cutoff);  // markers are not points
  }
  return dropped;
}

std::size_t Database::SeriesCount(std::string_view measurement) const noexcept {
  const auto table = tables_.find(measurement);
  return table == tables_.end() ? 0 : table->second.size();
}

std::size_t Database::TotalPoints() const noexcept {
  std::size_t n = 0;
  for (const auto& [name, table] : tables_) {
    for (const auto& [key, series] : table) n += series.data.size();
  }
  return n;
}

std::vector<std::string> Database::Measurements() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, table] : tables_) out.push_back(name);
  return out;
}

std::string Database::ExportCsv(std::string_view measurement,
                                const TagSet& filter) const {
  std::ostringstream os;
  os << "measurement,tags,time,value\n";
  for (const SeriesRef& ref : Query(measurement, filter)) {
    const std::string tags = ref.tags->Canonical();
    for (const stats::Point& p : ref.series->points()) {
      os << measurement << ',' << tags << ',' << p.t << ',' << p.value << '\n';
    }
  }
  return os.str();
}

void Database::SaveLineProtocol(std::ostream& os) const {
  for (const auto& [name, table] : tables_) {
    for (const auto& [key, series] : table) {
      std::string prefix = name;
      for (const auto& [k, v] : series.tags.entries()) {
        prefix += ',';
        prefix += k;
        prefix += '=';
        prefix += v;
      }
      for (const stats::Point& p : series.data.points()) {
        os << prefix << " value=" << p.value << ' ' << p.t << '\n';
      }
    }
  }
}

std::size_t Database::LoadLineProtocol(std::istream& is,
                                       std::size_t* rejected) {
  std::size_t loaded = 0;
  std::size_t bad = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    // <measurement>[,k=v]* <space> value=<v> <space> <t>
    const auto first_space = line.find(' ');
    const auto second_space =
        first_space == std::string::npos ? std::string::npos
                                         : line.find(' ', first_space + 1);
    if (second_space == std::string::npos) {
      ++bad;
      continue;
    }
    const std::string_view head =
        std::string_view(line).substr(0, first_space);
    const std::string_view field = std::string_view(line).substr(
        first_space + 1, second_space - first_space - 1);
    const std::string_view stamp =
        std::string_view(line).substr(second_space + 1);

    if (!field.starts_with("value=")) {
      ++bad;
      continue;
    }
    double value = 0.0;
    const std::string_view num = field.substr(6);
    const auto [vp, vec] =
        std::from_chars(num.data(), num.data() + num.size(), value);
    TimeSec t = 0;
    const auto [tp, tec] =
        std::from_chars(stamp.data(), stamp.data() + stamp.size(), t);
    if (vec != std::errc{} || vp != num.data() + num.size() ||
        tec != std::errc{} || tp != stamp.data() + stamp.size()) {
      ++bad;
      continue;
    }

    const auto comma = head.find(',');
    const std::string measurement(head.substr(0, comma));
    if (measurement.empty()) {
      ++bad;
      continue;
    }
    TagSet tags;
    bool tags_ok = true;
    std::string_view rest =
        comma == std::string_view::npos ? std::string_view{}
                                        : head.substr(comma + 1);
    while (!rest.empty()) {
      const auto next = rest.find(',');
      const std::string_view kv = rest.substr(0, next);
      rest = next == std::string_view::npos ? std::string_view{}
                                            : rest.substr(next + 1);
      const auto eq = kv.find('=');
      if (eq == std::string_view::npos || eq == 0) {
        tags_ok = false;
        break;
      }
      tags.Set(std::string(kv.substr(0, eq)), std::string(kv.substr(eq + 1)));
    }
    if (!tags_ok) {
      ++bad;
      continue;
    }
    try {
      Write(measurement, tags, t, value);
      ++loaded;
    } catch (const std::invalid_argument&) {
      ++bad;  // non-monotonic timestamp within a series
    }
  }
  if (rejected != nullptr) *rejected = bad;
  return loaded;
}

}  // namespace manic::tsdb
