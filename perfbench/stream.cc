#include "stream.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "stats/calendar.h"
#include "stats/rng.h"

namespace perfbench {

using manic::serve::Sample;
using manic::serve::SampleKind;
using manic::stats::Rng;

namespace {

constexpr int kBins = 96;  // 15-minute bins, the service's default
constexpr manic::stats::TimeSec kBinWidth = 900;

// Salts separating the independent draws made from one seed.
enum Salt : std::uint64_t {
  kSaltVps = 1,
  kSaltCongested,
  kSaltPeakStart,
  kSaltPeakLen,
  kSaltBase,
  kSaltElevation,
  kSaltMissing,
  kSaltJitter,
  kSaltQuery,
};

std::uint64_t Fold(std::uint64_t h, std::uint64_t v) {
  return Rng::HashMix(h, v, 0x5bd1e995);
}

// Rank of each of 0..n-1 in a seeded shuffle. Assigning properties by rank
// keeps their counts fixed (every seed has the same VP histogram and the
// same number of congested links) while the seed picks which link gets
// which, so input size does not vary with the seed.
std::vector<std::size_t> ShuffledRanks(std::size_t n, std::uint64_t seed,
                                       std::uint64_t salt) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return Rng::HashMix(seed, salt, a) < Rng::HashMix(seed, salt, b);
  });
  std::vector<std::size_t> rank(n);
  for (std::size_t r = 0; r < n; ++r) rank[order[r]] = r;
  return rank;
}

}  // namespace

Stream::Stream(const StreamConfig& config) : config_(config) {
  const std::uint64_t s = config_.seed;
  // VP count of every link, in ascending order; a seeded rank picks which
  // link gets which.
  std::vector<int> vp_counts;
  for (std::size_t k = 1; k < kStudyVpsPerLink.size(); ++k) {
    const int links = (kStudyVpsPerLink[k] + config_.scale / 2) / config_.scale;
    const int vps = std::min(static_cast<int>(k), config_.max_vps);
    vp_counts.insert(vp_counts.end(), static_cast<std::size_t>(links), vps);
  }
  const std::size_t n = vp_counts.size();
  const std::vector<std::size_t> vp_rank = ShuffledRanks(n, s, kSaltVps);
  const std::vector<std::size_t> congested_rank =
      ShuffledRanks(n, s, kSaltCongested);
  const auto congested_links = static_cast<std::size_t>(
      kStudyCongestedShare * static_cast<double>(n) + 0.5);
  for (std::size_t i = 0; i < n; ++i) {
    LinkSpec spec;
    spec.link = static_cast<manic::topo::LinkId>(i + 1);
    spec.vps = vp_counts[vp_rank[i]];
    spec.congested = congested_rank[i] < congested_links;
    // Evening peak: starts 17:00-20:45, lasts 2-4 hours.
    spec.peak_start_bin =
        68 + static_cast<int>(Rng::HashToUnit(s, kSaltPeakStart, i) * 16);
    spec.peak_bins =
        8 + static_cast<int>(Rng::HashToUnit(s, kSaltPeakLen, i) * 9);
    spec.base_ms =
        static_cast<float>(8.0 + 30.0 * Rng::HashToUnit(s, kSaltBase, i));
    spec.elevation_ms = static_cast<float>(
        15.0 + 15.0 * Rng::HashToUnit(s, kSaltElevation, i));
    links_.push_back(spec);
    for (int vp = 1; vp <= spec.vps; ++vp) {
      pairs_.push_back({i, static_cast<manic::topo::VpId>(vp)});
    }
  }
  // One pass over the stream for the exact sample and missing-bin counts.
  std::vector<Sample> batch;
  for (int day = 0; day < config_.days; ++day) {
    for (std::size_t p = 0; p < pairs_.size(); ++p) {
      Batch(day, p, &batch);
      total_samples_ += batch.size();
      for (const Sample& x : batch) {
        if (x.kind == SampleKind::kFarMissing) ++missing_bins_;
      }
    }
  }
}

void Stream::Batch(int day, std::size_t pair_index,
                   std::vector<Sample>* out) const {
  out->clear();
  const Pair& pair = pairs_[pair_index];
  const LinkSpec& spec = links_[pair.link_index];
  const std::uint64_t s = config_.seed;
  const std::uint64_t key = (static_cast<std::uint64_t>(spec.link) << 8) |
                            static_cast<std::uint64_t>(pair.vp);
  for (int bin = 0; bin < kBins; ++bin) {
    const manic::stats::TimeSec t =
        day * manic::stats::kSecPerDay + bin * kBinWidth + kBinWidth / 2;
    const std::uint64_t slot =
        static_cast<std::uint64_t>(day) * kBins + static_cast<std::uint64_t>(bin);
    if (Rng::HashToUnit(Fold(s, kSaltMissing), key, slot) < kMissingShare) {
      out->push_back({t, spec.link, pair.vp, SampleKind::kFarMissing, 0.0f});
      out->push_back({t, spec.link, pair.vp, SampleKind::kNearMissing, 0.0f});
      continue;
    }
    const double jitter = Rng::HashToUnit(Fold(s, kSaltJitter), key, slot);
    const bool peak = spec.congested && bin >= spec.peak_start_bin &&
                      bin < spec.peak_start_bin + spec.peak_bins;
    const double far = spec.base_ms + jitter + (peak ? spec.elevation_ms : 0.0);
    const double near = 0.5 * (spec.base_ms + jitter);
    out->push_back({t, spec.link, pair.vp, SampleKind::kFarRtt,
                    static_cast<float>(far)});
    out->push_back({t, spec.link, pair.vp, SampleKind::kNearRtt,
                    static_cast<float>(near)});
  }
}

std::uint64_t Stream::ExpectedVerdicts() const {
  const int days = config_.days - first_verdict_day();
  return days > 0 ? static_cast<std::uint64_t>(days) * links_.size() : 0;
}

std::array<int, 8> Stream::VpHistogram() const {
  std::array<int, 8> hist{};
  for (const LinkSpec& l : links_) ++hist[static_cast<std::size_t>(l.vps)];
  return hist;
}

double Stream::MissingShare() const {
  // Every bin yields two samples (far and near, or two missing markers).
  const double bins = static_cast<double>(total_samples_) / 2.0;
  return bins > 0 ? static_cast<double>(missing_bins_) / bins : 0.0;
}

double Stream::CongestedLinkShare() const {
  int congested = 0;
  for (const LinkSpec& l : links_) congested += l.congested ? 1 : 0;
  return links_.empty() ? 0.0
                        : static_cast<double>(congested) /
                              static_cast<double>(links_.size());
}

std::uint64_t Stream::Digest() const {
  std::uint64_t h = 0;
  std::vector<Sample> batch;
  for (int day = 0; day < config_.days; ++day) {
    for (std::size_t p = 0; p < pairs_.size(); ++p) {
      Batch(day, p, &batch);
      for (const Sample& x : batch) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &x.value, sizeof(bits));
        h = Fold(h, static_cast<std::uint64_t>(x.t));
        h = Fold(h, (static_cast<std::uint64_t>(x.link) << 32) | x.vp);
        h = Fold(h, (static_cast<std::uint64_t>(x.kind) << 32) | bits);
      }
    }
  }
  return h;
}

std::string Stream::Describe() const {
  const std::array<int, 8> hist = VpHistogram();
  std::string h;
  for (std::size_t k = 1; k < hist.size(); ++k) {
    if (hist[k] == 0) continue;
    if (!h.empty()) h += ',';
    h += std::to_string(k);
    h += ':';
    h += std::to_string(hist[k]);
  }
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "links=%zu pairs=%zu days=%d samples=%llu vps_per_link={%s} "
                "missing_bin_share=%.4f congested_link_share=%.3f",
                links_.size(), pairs_.size(), config_.days,
                static_cast<unsigned long long>(total_samples_), h.c_str(),
                MissingShare(), CongestedLinkShare());
  return buf;
}

std::vector<Query> MakeQueryMix(const Stream& stream, std::size_t rounds,
                                std::uint64_t seed) {
  std::vector<Query> mix;
  const std::size_t links = stream.links().size();
  mix.reserve(rounds * (3 * links + 1));
  const std::uint64_t s = Fold(seed, kSaltQuery);
  const auto days = static_cast<std::uint64_t>(stream.days());
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::vector<std::size_t> rank = ShuffledRanks(links, s, r);
    std::vector<std::size_t> order(links);
    for (std::size_t i = 0; i < links; ++i) order[rank[i]] = i;
    for (const std::size_t li : order) {
      const std::uint64_t key = (static_cast<std::uint64_t>(r) << 32) | li;
      mix.push_back({QueryKind::kRange, li,
                     static_cast<std::int64_t>(Rng::HashMix(s, key, 2) % days)});
      mix.push_back({QueryKind::kPoint, li,
                     static_cast<std::int64_t>(Rng::HashMix(s, key, 3) % days)});
      mix.push_back({QueryKind::kQuality, li, 0});
    }
    mix.push_back({QueryKind::kStats, 0, 0});
  }
  return mix;
}

std::uint64_t QueryMixDigest(const std::vector<Query>& mix) {
  std::uint64_t h = 0;
  for (const Query& q : mix) {
    h = Fold(h, static_cast<std::uint64_t>(q.kind));
    h = Fold(h, q.link_index);
    h = Fold(h, static_cast<std::uint64_t>(q.day));
  }
  return h;
}

}  // namespace perfbench
