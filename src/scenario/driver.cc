#include "scenario/driver.h"

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "bdrmap/bdrmap.h"
#include "infer/rolling.h"
#include "infer/streaming.h"
#include "runtime/seed_tree.h"
#include "sim/fault_hook.h"
#include "sim/faults/fault_injector.h"
#include "stats/calendar.h"

namespace manic::scenario {

using sim::Direction;
using stats::kSecPerDay;
using sim::TimeSec;

TslpSynthesizer::TslpSynthesizer(sim::SimNetwork& net, topo::LinkId link,
                                 double base_far_rtt_ms,
                                 double base_near_rtt_ms,
                                 std::uint64_t noise_key, Config config)
    : net_(&net),
      link_(link),
      base_far_(base_far_rtt_ms),
      base_near_(base_near_rtt_ms),
      noise_key_(noise_key),
      config_(config) {}

void TslpSynthesizer::Day(std::int64_t day, std::vector<float>& far,
                          std::vector<float>& near) const {
  const int intervals = static_cast<int>(kSecPerDay / config_.bin_width);
  far.assign(static_cast<std::size_t>(intervals),
             std::numeric_limits<float>::quiet_NaN());
  near.assign(static_cast<std::size_t>(intervals),
              std::numeric_limits<float>::quiet_NaN());
  const TimeSec day_start = day * kSecPerDay;
  // VP-scoped faults only apply when the synthesizer knows which VP it
  // stands in for; a null hook leaves every branch below untaken, so a
  // fault-free run is bit-identical to the pre-fault synthesizer.
  const sim::FaultHook* hook = vp_known_ ? net_->fault_hook() : nullptr;
  for (int s = 0; s < intervals; ++s) {
    const TimeSec t = day_start + s * config_.bin_width + config_.bin_width / 2;
    // Minimum of `samples_per_bin` jittered samples: approximated by a small
    // deterministic residual above the floor.
    const double jitter_far =
        config_.jitter_ms * stats::Rng::HashToUnit(noise_key_, t, 0xF) /
        config_.samples_per_bin;
    const double jitter_near =
        config_.jitter_ms * stats::Rng::HashToUnit(noise_key_, t, 0xE) /
        config_.samples_per_bin;
    // TSLP probes every 5 minutes and the bin keeps the *minimum*, so at
    // regime edges (queue ramping within the bin) the minimum of the
    // constituent rounds is what the real measurement records. Mirror that:
    // evaluate the queue at each 5-minute round inside the bin and keep the
    // smallest. The far-side reply rides the congested content->access queue.
    // Rounds where the VP is down send nothing: they contribute neither to
    // the bin minimum nor to the all-lost probability.
    double queue = std::numeric_limits<double>::infinity();
    double p_all_lost = 1.0;
    const int rounds = std::max(1, static_cast<int>(config_.bin_width / 300));
    int rounds_up = 0;
    for (int k = 0; k < rounds; ++k) {
      const TimeSec tk = day_start + s * config_.bin_width + k * 300;
      if (hook != nullptr && !hook->VpUpAt(vp_, tk)) continue;
      ++rounds_up;
      queue = std::min(queue,
                       net_->ObservedQueueDelayMs(link_, Direction::kBtoA, tk));
      const double loss = net_->ObservedLossProb(link_, Direction::kBtoA, tk);
      p_all_lost *= std::pow(loss, config_.samples_per_bin / rounds);
    }
    if (rounds_up == 0) continue;  // VP down for the whole bin: both missing
    if (stats::Rng::HashToUnit(noise_key_, t, 0xA) >
            config_.base_missing_prob + p_all_lost &&
        !(hook != nullptr &&
          hook->DropTsdbWriteAt(vp_, t,
                                stats::Rng::HashMix(noise_key_, 0xFA52)))) {
      far[static_cast<std::size_t>(s)] =
          static_cast<float>(base_far_ + queue + jitter_far);
    }
    if (stats::Rng::HashToUnit(noise_key_, t, 0xB) >
            config_.base_missing_prob &&
        !(hook != nullptr &&
          hook->DropTsdbWriteAt(vp_, t,
                                stats::Rng::HashMix(noise_key_, 0x4EA2)))) {
      near[static_cast<std::size_t>(s)] =
          static_cast<float>(base_near_ + jitter_near);
    }
  }
}

std::vector<DiscoveredLink> DiscoverVpLinks(UsBroadband& world, topo::VpId vp,
                                            stats::TimeSec t) {
  std::vector<DiscoveredLink> out;
  topo::Topology& topo = *world.topo;
  sim::SimNetwork& net = *world.net;
  bdrmap::Bdrmap bdrmap(net, vp);
  const bdrmap::BdrmapResult borders = bdrmap.RunCycle(t);
  const topo::VantagePoint& v = topo.vp(vp);
  const int vp_tz = topo.router(v.first_hop).utc_offset_hours;
  for (const bdrmap::BorderLink& border : borders.links) {
    const auto iface = topo.IfaceByAddr(border.far_addr);
    if (!iface) continue;
    const topo::LinkId link = topo.iface(*iface).link;
    const InterLinkInfo* info = world.FindLink(link);
    if (info == nullptr) continue;  // customer / tier-1 mesh link
    if (!world.tcp_set.contains(info->tcp)) continue;
    if (border.dests.empty()) continue;
    const bdrmap::BorderDest& dest = border.dests.front();
    const auto far_base =
        net.ExpectProbe(vp, dest.dst, dest.far_ttl, sim::FlowId{dest.flow}, t,
                        /*include_queues=*/false);
    const auto near_base =
        net.ExpectProbe(vp, dest.dst, dest.far_ttl - 1, sim::FlowId{dest.flow},
                        t, /*include_queues=*/false);
    if (!far_base.reachable || !near_base.reachable) continue;
    out.push_back({v.name, info, far_base.rtt_ms, near_base.rtt_ms, vp, vp_tz,
                   border.far_addr, dest.dst, dest.far_ttl, dest.flow});
  }
  return out;
}

namespace {

// A VP-link pair as the daily loop consumes it. `synth` only reads the
// network through const, stateless accessors, so many shards may evaluate
// their pairs concurrently once discovery (which does mutate the network)
// has finished.
struct VpLink {
  TslpSynthesizer synth;
  std::string vp_name;
  const InterLinkInfo* info = nullptr;
  // Visibility window (epoch days) for this VP-link pair.
  std::int64_t visible_from = 0;
  std::int64_t visible_until = 0;
  topo::VpId vp = 0;
  int vp_utc_offset = 0;
  bool is_comcast = false;
};

// Discovery: bdrmap per VP, visibility churn, TSLP synthesizer setup. Runs
// serially (probing mutates the network's RNG and path cache); the noise
// seeds are derived from the root SeedTree by stable (vp, link) keys so the
// sharded phases never need the network's RNG.
std::vector<VpLink> DiscoverPairs(UsBroadband& world,
                                  const StudyOptions& options, int days,
                                  int warmup,
                                  std::set<topo::LinkId>& observed_links) {
  std::vector<VpLink> pairs;
  sim::SimNetwork& net = *world.net;
  const runtime::SeedTree seeds(options.seed);

  std::vector<topo::VpId> vps = world.vps;
  if (options.max_vps > 0 && vps.size() > options.max_vps) {
    vps.resize(options.max_vps);
  }

  const TimeSec discovery_t =
      -static_cast<TimeSec>(warmup) * kSecPerDay + 9 * stats::kSecPerHour;
  for (const topo::VpId vp : vps) {
    for (const DiscoveredLink& dl : DiscoverVpLinks(world, vp, discovery_t)) {
      // Deterministic visibility churn, keyed per link so every VP loses or
      // gains the link together (routing changes move the link itself): a
      // slice of links appears late, another disappears early. Links with a
      // scheduled congestion regime stay visible — the study's interesting
      // links remained measurable in the deployment too, and the Table 4
      // calibration depends on them.
      std::int64_t from = -warmup;
      std::int64_t until = days;
      if (!dl.info->scheduled_congested) {
        const double h = seeds.LeafUnit(dl.info->link, 0xC1);
        if (h < options.churn_fraction / 3) {
          from = static_cast<std::int64_t>(
              days *
              stats::Rng::HashToUnit(options.seed ^ 1, dl.info->link, 0xC2) *
              0.6);
        } else if (h < options.churn_fraction) {
          until = static_cast<std::int64_t>(
              days * (0.3 + 0.6 * stats::Rng::HashToUnit(options.seed ^ 2,
                                                         dl.info->link,
                                                         0xC3)));
        }
      }
      pairs.push_back(
          {TslpSynthesizer(net, vp, dl.info->link, dl.base_far_ms,
                           dl.base_near_ms, seeds.Leaf(vp, dl.info->link)),
           dl.vp_name, dl.info, from, until, vp, dl.vp_utc_offset,
           world.topo->vp(vp).host_as == UsBroadband::kComcast});
      // manic-lint: allow(layout: alloc-scale) -- discovery-time dedup set,
      observed_links.insert(dl.info->link);  // built once per campaign.
    }
  }
  return pairs;
}

// The setup RunLongitudinalStudy and ExportStudyStream share, so that the
// exported rows carry the batch run's exact fault effects. The fault hook is
// installed for the setup's lifetime, discovery included (a plan scheduling
// events before day 0 degrades bdrmap too), and removed when it ends. The
// injector's queries are pure functions of (plan, seed, arguments), so a
// faulted study stays bit-identical at any thread count.
struct StudySetup {
  StudySetup(UsBroadband& world, const StudyOptions& options)
      : net(*world.net),
        days(options.days > 0 ? options.days
                              : static_cast<int>(stats::StudyTotalDays())),
        warmup(options.warmup_days) {
    if (options.fault_plan != nullptr) {
      injector.emplace(*options.fault_plan,
                       runtime::SeedTree(options.seed).Child("faults"));
      net.SetFaultHook(&*injector);
    }
    pairs = DiscoverPairs(world, options, days, warmup, observed_links);
  }
  ~StudySetup() {
    if (injector.has_value()) net.SetFaultHook(nullptr);
  }
  StudySetup(const StudySetup&) = delete;
  StudySetup& operator=(const StudySetup&) = delete;

  sim::SimNetwork& net;
  const int days = 0;
  const int warmup = 0;
  std::optional<sim::faults::FaultInjector> injector;
  std::set<topo::LinkId> observed_links;
  std::vector<VpLink> pairs;
};

// Fig 9 (Comcast, calendar year 2017): congested 15-minute intervals by
// VP-local hour, plus the consolidated panel in Pacific time. Eligibility is
// checked separately so callers only materialize a per-VP histogram map
// entry when the day actually contributes.
bool Fig9Eligible(const VpLink& pair, const infer::DayClassification& cls,
                  std::int64_t day) {
  if (!pair.is_comcast || !cls.recurring || !cls.congested) return false;
  const int month = stats::StudyMonthOfDay(day);
  return month >= 10 && month <= 21;
}

void AddFig9Intervals(const VpLink& pair, const infer::DayClassification& cls,
                      std::int64_t day, TimeSec bin_width,
                      analysis::TimeOfDayHistogram& vp_hist,
                      analysis::TimeOfDayHistogram& pacific_hist) {
  for (const int s : cls.congested_intervals) {
    const TimeSec t = day * kSecPerDay + static_cast<TimeSec>(s) * bin_width;
    vp_hist.Add(stats::LocalHour(t, pair.vp_utc_offset),
                stats::IsWeekend(stats::LocalWeekday(t, pair.vp_utc_offset)));
    pacific_hist.Add(stats::LocalHour(t, -8),
                     stats::IsWeekend(stats::LocalWeekday(t, -8)));
  }
}

// Ground truth for one (link, day), sampled at the inference bin width.
bool TrulyCongestedDay(const sim::SimNetwork& net, topo::LinkId link,
                       std::int64_t day, int intervals, TimeSec bin_width) {
  int congested_bins = 0;
  for (int s = 0; s < intervals; ++s) {
    const TimeSec t = day * kSecPerDay + static_cast<TimeSec>(s) * bin_width;
    if (net.MeanUtilization(link, Direction::kBtoA, t) >= 0.96) {
      ++congested_bins;
    }
  }
  return static_cast<double>(congested_bins) / intervals >=
         analysis::kDayLinkThreshold;
}

void Notify(const StudyOptions& options, const char* phase, std::size_t done,
            std::size_t total) {
  if (options.progress) options.progress({phase, done, total});
}

// ---- the daily loop ---------------------------------------------------------
// Shard = one (VP, link) pair, optionally split into month-sized day chunks.
// Each shard synthesizes and classifies its own day range into a private
// buffer (replaying up to window_days - 1 preceding days to warm the rolling
// window, whose state is a pure function of its last window_days inputs);
// buffers are folded in (pair, chunk) key order, so the floating-point
// accumulation order is a function of the keys alone, never of scheduling,
// thread count or shard granularity.

struct DayOutcome {
  bool recurring = false;
  double fraction = 0.0;
};
// The per-pair data-quality bookkeeping lives in infer/streaming.h so the
// serving plane's incremental engine can share it.
using QualityTally = infer::QualityTally;
struct PairOut {
  std::int64_t emit_start = 0;
  std::vector<DayOutcome> days;
  analysis::TimeOfDayHistogram vp_hist;
  analysis::TimeOfDayHistogram pacific_hist;
  QualityTally quality;
};

// Pairs that never produced a post-warmup row are skipped, so
// `link_quality` only covers measured links.
void FoldLinkQuality(const std::vector<VpLink>& pairs,
                     const std::vector<PairOut>& merged, int days,
                     StudyResult& result) {
  std::map<topo::LinkId, infer::LinkQualityAccumulator> by_link;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const QualityTally& t = merged[p].quality;
    if (t.far_total == 0) continue;
    by_link[pairs[p].info->link].Add(t);
  }
  for (const auto& [link, acc] : by_link) {
    result.link_quality[link] = acc.Finish(days);
  }
}

// Shard checkpoint blobs. Everything is integers or bit-cast doubles, so a
// restored PairOut is the same bytes the worker produced — resume equals
// rerun exactly. The version guard makes stale logs recompute, not crash.
constexpr std::uint64_t kShardBlobVersion = 1;

void SaveHist(runtime::BlobWriter& w,
              const analysis::TimeOfDayHistogram& hist) {
  for (const bool weekend : {false, true}) {
    for (int h = 0; h < 24; ++h) w.PutI64(hist.Count(h, weekend));
  }
}

bool RestoreHist(runtime::BlobReader& r, analysis::TimeOfDayHistogram& hist) {
  for (const bool weekend : {false, true}) {
    for (int h = 0; h < 24; ++h) {
      std::int64_t n = 0;
      if (!r.GetI64(&n)) return false;
      if (n != 0) hist.AddCount(h, weekend, n);
    }
  }
  return true;
}

std::string SavePairOut(const PairOut& out) {
  runtime::BlobWriter w;
  w.PutU64(kShardBlobVersion);
  w.PutI64(out.emit_start);
  w.PutU64(out.days.size());
  for (const DayOutcome& d : out.days) {
    w.PutU64(d.recurring ? 1 : 0);
    w.PutDouble(d.fraction);
  }
  SaveHist(w, out.vp_hist);
  SaveHist(w, out.pacific_hist);
  const QualityTally& q = out.quality;
  w.PutI64(q.far_present);
  w.PutI64(q.far_total);
  w.PutI64(q.near_present);
  w.PutI64(q.near_total);
  w.PutI64(q.prefix_gap);
  w.PutI64(q.suffix_gap);
  w.PutI64(q.max_gap);
  w.PutI64(q.days_observed);
  w.PutI64(q.churn);
  w.PutU64((q.any_bin ? 1u : 0u) | (q.has_days ? 2u : 0u) |
           (q.first_day_observed ? 4u : 0u) |
           (q.last_day_observed ? 8u : 0u));
  return w.Take();
}

bool RestorePairOut(const std::string& blob, PairOut& out) {
  runtime::BlobReader r(blob);
  std::uint64_t version = 0;
  if (!r.GetU64(&version) || version != kShardBlobVersion) return false;
  PairOut restored;
  if (!r.GetI64(&restored.emit_start)) return false;
  std::uint64_t n_days = 0;
  if (!r.GetU64(&n_days) || n_days > (1u << 24)) return false;
  restored.days.reserve(static_cast<std::size_t>(n_days));
  for (std::uint64_t i = 0; i < n_days; ++i) {
    std::uint64_t recurring = 0;
    DayOutcome d;
    if (!r.GetU64(&recurring) || !r.GetDouble(&d.fraction)) return false;
    d.recurring = recurring != 0;
    restored.days.push_back(d);
  }
  if (!RestoreHist(r, restored.vp_hist)) return false;
  if (!RestoreHist(r, restored.pacific_hist)) return false;
  QualityTally& q = restored.quality;
  std::uint64_t flags = 0;
  if (!r.GetI64(&q.far_present) || !r.GetI64(&q.far_total) ||
      !r.GetI64(&q.near_present) || !r.GetI64(&q.near_total) ||
      !r.GetI64(&q.prefix_gap) || !r.GetI64(&q.suffix_gap) ||
      !r.GetI64(&q.max_gap) || !r.GetI64(&q.days_observed) ||
      !r.GetI64(&q.churn) || !r.GetU64(&flags) || !r.AtEnd()) {
    return false;
  }
  q.any_bin = (flags & 1u) != 0;
  q.has_days = (flags & 2u) != 0;
  q.first_day_observed = (flags & 4u) != 0;
  q.last_day_observed = (flags & 8u) != 0;
  out = std::move(restored);
  return true;
}

void RunDailyLoop(UsBroadband& world, const StudyOptions& options,
                  const std::vector<VpLink>& pairs, int days,
                  runtime::Metrics& metrics, StudyResult& result) {
  sim::SimNetwork& net = *world.net;
  const int intervals =
      static_cast<int>(kSecPerDay / options.autocorr.bin_width);
  const std::int64_t final_month_start =
      days - stats::DaysInStudyMonth(stats::StudyMonthOfDay(days - 1));

  runtime::ThreadPool pool(options.runtime.ResolvedThreads(), &metrics);
  runtime::StudyExecutor executor(pool, &metrics);

  // ---- phase: synthesize + classify, one shard per (pair, month chunk) ----
  std::vector<PairOut> merged(pairs.size());
  {
    auto timer = metrics.Phase("classify");
    const std::int64_t chunk_days =
        options.runtime.months_per_shard > 0
            ? static_cast<std::int64_t>(options.runtime.months_per_shard) * 30
            : std::numeric_limits<std::int64_t>::max();

    std::vector<runtime::StudyExecutor::Shard> shards;
    std::vector<std::unique_ptr<PairOut>> outputs;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const VpLink& pair = pairs[p];
      const std::int64_t begin = pair.visible_from;
      const std::int64_t end =
          std::min<std::int64_t>(pair.visible_until, days);
      std::int64_t c0 = begin;
      for (std::uint64_t chunk = 0; c0 < end; ++chunk) {
        const std::int64_t c1 =
            c0 > end - chunk_days ? end : c0 + chunk_days;  // overflow-safe
        auto out = std::make_unique<PairOut>();
        PairOut* buffer = out.get();
        outputs.push_back(std::move(out));
        shards.push_back(runtime::StudyExecutor::Shard{
            (static_cast<std::uint64_t>(p) << 16) | chunk,
            [&options, &pair, buffer, c0, c1] {
              infer::RollingAutocorr rolling(options.autocorr);
              std::vector<float> far_row, near_row;
              const std::int64_t replay_from = std::max(
                  pair.visible_from,
                  c0 - static_cast<std::int64_t>(
                           options.autocorr.window_days - 1));
              for (std::int64_t day = replay_from; day < c1; ++day) {
                pair.synth.Day(day, far_row, near_row);
                rolling.AddDay(far_row, near_row);
                if (day >= c0 && day >= 0) {
                  buffer->quality.AddDay(far_row, near_row);
                }
                if (day < c0 || day < 0 || !rolling.WindowFull()) continue;
                if (buffer->days.empty()) buffer->emit_start = day;
                const infer::DayClassification cls = rolling.Classify();
                buffer->days.push_back(
                    {cls.recurring, cls.recurring ? cls.fraction : 0.0});
                if (Fig9Eligible(pair, cls, day)) {
                  AddFig9Intervals(pair, cls, day, options.autocorr.bin_width,
                                   buffer->vp_hist, buffer->pacific_hist);
                }
              }
            },
            [&merged, p, buffer] {
              PairOut& dst = merged[p];
              if (dst.days.empty()) dst.emit_start = buffer->emit_start;
              dst.days.insert(dst.days.end(), buffer->days.begin(),
                              buffer->days.end());
              dst.vp_hist.Merge(buffer->vp_hist);
              dst.pacific_hist.Merge(buffer->pacific_hist);
              dst.quality.Append(buffer->quality);
            },
            [buffer] { return SavePairOut(*buffer); },
            [buffer](const std::string& blob) {
              return RestorePairOut(blob, *buffer);
            }});
        c0 = c1;
      }
    }
    std::optional<runtime::CheckpointLog> checkpoint;
    if (!options.checkpoint_path.empty()) {
      checkpoint.emplace(options.checkpoint_path);
    }
    executor.Execute(
        shards,
        [&](std::size_t done, std::size_t total) {
          Notify(options, "classify", done, total);
        },
        checkpoint.has_value() ? &*checkpoint : nullptr, options.watchdog);
  }

  // ---- phase: aggregate (calling thread, canonical order) ------------------
  // Day-outer, pair-inner, link-sorted emission over the key-ordered merge:
  // every floating-point sum associates the same way at any thread count or
  // shard granularity, and DayLinkTable ingests records identically. The
  // order is pinned by the committed outputs under tests/golden/.
  struct TruthTask {
    std::int64_t day = 0;
    topo::LinkId link = 0;
    double fraction = 0.0;
  };
  std::vector<TruthTask> truth_tasks;
  {
    auto timer = metrics.Phase("aggregate");
    std::map<topo::LinkId, std::pair<double, int>> today;
    std::map<topo::LinkId, bool> today_observed;
    std::map<topo::LinkId, const InterLinkInfo*> seen_ever, seen_final;
    for (std::int64_t day = 0; day < days; ++day) {
      today.clear();
      today_observed.clear();
      for (std::size_t p = 0; p < pairs.size(); ++p) {
        const PairOut& series = merged[p];
        const std::int64_t idx = day - series.emit_start;
        if (series.days.empty() || idx < 0 ||
            idx >= static_cast<std::int64_t>(series.days.size())) {
          continue;
        }
        const VpLink& pair = pairs[p];
        today_observed[pair.info->link] = true;
        seen_ever.emplace(pair.info->link, pair.info);
        if (day >= final_month_start) {
          seen_final.emplace(pair.info->link, pair.info);
        }
        const DayOutcome& outcome =
            series.days[static_cast<std::size_t>(idx)];
        if (outcome.recurring) {
          auto& slot = today[pair.info->link];
          slot.first += outcome.fraction;
          slot.second += 1;
        }
      }
      for (const auto& [link, seen] : today_observed) {
        const InterLinkInfo* info = world.FindLink(link);
        const auto it = today.find(link);
        const double fraction =
            it == today.end() || it->second.second == 0
                ? 0.0
                : it->second.first / static_cast<double>(it->second.second);
        const analysis::DayLinkRecord record{day,       link,     info->access,
                                             info->tcp, fraction, true};
        result.day_links.Add(record);
        if (options.on_day_link) options.on_day_link(record);
        if (info->scheduled_congested) {
          truth_tasks.push_back({day, link, fraction});
        } else {
          // Links without a demand model are never truly congested.
          if (fraction >= analysis::kDayLinkThreshold) {
            ++result.truth_fp;
          } else {
            ++result.truth_tn;
          }
        }
      }
      Notify(options, "aggregate", static_cast<std::size_t>(day) + 1,
             static_cast<std::size_t>(days));
    }
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const PairOut& series = merged[p];
      if (series.vp_hist.Total(false) + series.vp_hist.Total(true) > 0) {
        result.comcast_vp_hists[pairs[p].vp_name].Merge(series.vp_hist);
      }
      result.comcast_consolidated.Merge(series.pacific_hist);
    }
    for (const auto& [link, info] : seen_ever) {
      ++result.links_ever_by_access[info->access];
    }
    for (const auto& [link, info] : seen_final) {
      ++result.links_final_month_by_access[info->access];
    }
    FoldLinkQuality(pairs, merged, days, result);
  }

  // ---- phase: ground truth (parallel; integer tallies are order-free) ------
  {
    auto timer = metrics.Phase("truth");
    std::atomic<long long> tp{0}, fp{0}, fn{0}, tn{0};
    pool.ParallelFor(
        truth_tasks.size(),
        [&](std::size_t i) {
          const TruthTask& task = truth_tasks[i];
          const bool truly =
              TrulyCongestedDay(net, task.link, task.day, intervals,
                                options.autocorr.bin_width);
          const bool inferred = task.fraction >= analysis::kDayLinkThreshold;
          if (truly && inferred) tp.fetch_add(1, std::memory_order_relaxed);
          if (truly && !inferred) fn.fetch_add(1, std::memory_order_relaxed);
          if (!truly && inferred) fp.fetch_add(1, std::memory_order_relaxed);
          if (!truly && !inferred) tn.fetch_add(1, std::memory_order_relaxed);
        },
        /*grain=*/16);
    result.truth_tp += tp.load(std::memory_order_relaxed);
    result.truth_fp += fp.load(std::memory_order_relaxed);
    result.truth_fn += fn.load(std::memory_order_relaxed);
    result.truth_tn += tn.load(std::memory_order_relaxed);
    Notify(options, "truth", truth_tasks.size(), truth_tasks.size());
  }
}

}  // namespace

StudyResult RunLongitudinalStudy(UsBroadband& world,
                                 const StudyOptions& options) {
  StudyResult result;
  runtime::Metrics scratch_metrics;
  runtime::Metrics& metrics = options.runtime.metrics != nullptr
                                  ? *options.runtime.metrics
                                  : scratch_metrics;
  auto discover_timer = metrics.Phase("discover");
  const StudySetup setup(world, options);
  discover_timer.Stop();
  Notify(options, "discover", setup.pairs.size(), setup.pairs.size());
  result.vp_link_pairs = setup.pairs.size();
  result.links_observed = setup.observed_links.size();
  result.probes_for_discovery = world.net->ProbesSent();
  RunDailyLoop(world, options, setup.pairs, setup.days, metrics, result);
  return result;
}

void ExportStudyStream(UsBroadband& world, const StudyOptions& options,
                       const StudyStreamFn& fn) {
  const StudySetup setup(world, options);
  // Day-major, pair-minor: the daily loop's exact consumption order, so a
  // stream consumer sees day boundaries the way the batch loop does.
  std::vector<float> far_row, near_row;
  for (std::int64_t day = -setup.warmup; day < setup.days; ++day) {
    for (const VpLink& pair : setup.pairs) {
      if (day < pair.visible_from || day >= pair.visible_until) continue;
      pair.synth.Day(day, far_row, near_row);
      fn(pair.vp, pair.info->link, day, far_row, near_row);
    }
  }
}

}  // namespace manic::scenario
