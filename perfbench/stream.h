// The seeded synthetic TSLP stream and query mix the serve workloads replay.
//
// The stream's shape follows the study feed examples/continental_study
// replays through the service (ExportStudyStream): one batch per VP-link
// pair per day, day-major, pair-minor, 96 fifteen-minute bins a day of
// far/near minimum RTTs. Its links are a scaled-down copy of the default
// study world's: the same VPs-per-link histogram and the same congested
// share, divided by `scale` (see kStudyVpsPerLink). About 2% of bins are
// missing on both sides, and congested links are elevated at an evening peak
// every day (a per-link start hour and length). The seed decides which link
// gets which VP count, congestion, peak and base RTT, and which bins go
// missing; the input's size is the same for every seed. Every sample is a
// pure function of (seed, link, vp, day, bin), so the stream is regenerated
// batch by batch instead of being held in memory, and the generator's truth
// — which links are congested, which days have verdicts — is known without
// running any inference.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/sample.h"

namespace perfbench {

// Links of the default study world (MakeUsBroadband, bdrmap discovery from
// all 29 VPs) by the number of VPs that see them: entry k counts the links
// seen by k VPs. 458 links, 1,205 VP-link pairs; 73 of the 458 links are
// scheduled congested.
inline constexpr std::array<int, 8> kStudyVpsPerLink = {0,  168, 60, 120,
                                                        67, 6,   0,  37};
inline constexpr double kStudyCongestedShare = 73.0 / 458.0;
// Share of bins missing on both sides.
inline constexpr double kMissingShare = 0.02;
// The service's default rolling window.
inline constexpr int kWindowDays = 50;

struct StreamConfig {
  // Links per VP count: kStudyVpsPerLink divided by `scale`, rounded, every
  // VP count above `max_vps` folded into `max_vps`.
  int scale = 8;
  int max_vps = 7;
  int days = 120;
  std::uint64_t seed = 0;
};

struct LinkSpec {
  manic::topo::LinkId link = 0;
  int vps = 1;
  bool congested = false;
  int peak_start_bin = 0;
  int peak_bins = 0;
  float base_ms = 0.0f;
  float elevation_ms = 0.0f;
};

// One VP-link pair: the unit of one submitted batch per day.
struct Pair {
  std::size_t link_index = 0;
  manic::topo::VpId vp = 1;
};

class Stream {
 public:
  explicit Stream(const StreamConfig& config);

  const std::vector<LinkSpec>& links() const noexcept { return links_; }
  const std::vector<Pair>& pairs() const noexcept { return pairs_; }
  int days() const noexcept { return config_.days; }

  // All samples of one pair-day (bins in time order): the unit a client
  // submits as one batch. Replaces `*out`.
  void Batch(int day, std::size_t pair_index,
             std::vector<manic::serve::Sample>* out) const;

  // ---- truth and input properties -----------------------------------------
  std::uint64_t total_samples() const noexcept { return total_samples_; }
  // First day with a verdict (the rolling window is full) and the number of
  // verdict rows the whole stream yields.
  int first_verdict_day() const noexcept { return kWindowDays - 1; }
  std::uint64_t ExpectedVerdicts() const;
  // Histogram of VPs per link (index = VP count).
  std::array<int, 8> VpHistogram() const;
  double MissingShare() const;
  double CongestedLinkShare() const;
  // Order-sensitive hash of every sample in submission order.
  std::uint64_t Digest() const;
  // One line: the input properties the engine's behaviour depends on.
  std::string Describe() const;

 private:
  StreamConfig config_;
  std::vector<LinkSpec> links_;
  std::vector<Pair> pairs_;
  std::uint64_t total_samples_ = 0;
  std::uint64_t missing_bins_ = 0;
};

// The query plane's request mix, modelled on the repository's one wire
// query caller (examples/serve_quickstart): for every link a range, a point
// and a quality query, then one stats query.
enum class QueryKind : std::uint8_t { kPoint, kRange, kQuality, kStats };

struct Query {
  QueryKind kind = QueryKind::kPoint;
  std::size_t link_index = 0;
  std::int64_t day = 0;  // point: the queried day; range: its first day
};

inline constexpr int kRangeDays = 30;

// `rounds` rounds; each visits every link once, in a seeded order, with a
// 30-day range, a point and a quality query (seeded days), and ends with
// one stats query.
std::vector<Query> MakeQueryMix(const Stream& stream, std::size_t rounds,
                                std::uint64_t seed);
std::uint64_t QueryMixDigest(const std::vector<Query>& mix);

}  // namespace perfbench
