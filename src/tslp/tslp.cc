#include "tslp/tslp.h"

#include <algorithm>

namespace manic::tslp {

namespace {

// Noise salts decoupling near- and far-side telemetry-drop draws.
constexpr std::uint64_t kNearNoise = 0x4EA2;
constexpr std::uint64_t kFarNoise = 0xFA52;

}  // namespace

TslpScheduler::TslpScheduler(SimNetwork& net, VpId vp, tsdb::Database& db,
                             Config config)
    : net_(&net), vp_(vp), db_(&db), config_(config), prober_(net, vp) {
  vp_name_ = net.topology().vp(vp).name;
}

tsdb::TagSet TslpScheduler::Tags(const std::string& vp_name, Ipv4Addr link_far,
                                 const char* side) {
  return tsdb::TagSet{
      {"vp", vp_name}, {"link", link_far.ToString()}, {"side", side}};
}

void TslpScheduler::UpdateProbingSet(const bdrmap::BdrmapResult& borders) {
  std::vector<TslpTarget> next;
  next.reserve(borders.links.size());

  for (const bdrmap::BorderLink& link : borders.links) {
    TslpTarget target;
    target.far_addr = link.far_addr;
    target.near_addr = link.near_addr;
    target.neighbor = link.neighbor;

    // Stickiness: carry over destinations that still see the link.
    const auto prev = std::find_if(
        targets_.begin(), targets_.end(), [&](const TslpTarget& t) {
          return t.far_addr == link.far_addr;
        });
    if (prev != targets_.end()) {
      for (const TslpDest& d : prev->dests) {
        if (!d.lost_visibility &&
            static_cast<int>(target.dests.size()) < config_.max_dests) {
          TslpDest kept = d;
          kept.consecutive_misses = 0;
          target.dests.push_back(kept);
        }
      }
    }

    // Fill remaining slots: prefer destinations originated by the neighbor;
    // overflow candidates become backups for reactive repair.
    auto have = [&](Ipv4Addr dst) {
      const auto match = [&](const TslpDest& d) { return d.dst == dst; };
      return std::any_of(target.dests.begin(), target.dests.end(), match) ||
             std::any_of(target.backups.begin(), target.backups.end(), match);
    };
    for (const bool neighbor_pass : {true, false}) {
      for (const bdrmap::BorderDest& d : link.dests) {
        if (neighbor_pass != (d.origin == link.neighbor) || have(d.dst)) {
          continue;
        }
        const TslpDest dest{d.dst, d.flow, d.far_ttl, d.origin, 0, false};
        if (static_cast<int>(target.dests.size()) < config_.max_dests) {
          target.dests.push_back(dest);
        } else if (static_cast<int>(target.backups.size()) <
                   config_.max_backups) {
          target.backups.push_back(dest);
        }
      }
    }
    if (!target.dests.empty()) next.push_back(std::move(target));
  }

  // Enforce the 100 pps budget: each destination costs 2 probes per round.
  const double rounds_s = static_cast<double>(config_.round_interval);
  probe::RateBudget budget(config_.pps_budget);
  std::vector<TslpTarget> admitted;
  dropped_for_budget_ = 0;
  for (TslpTarget& t : next) {
    const double cost = 2.0 * static_cast<double>(t.dests.size());
    if (budget.Commit(cost, rounds_s)) {
      admitted.push_back(std::move(t));
    } else {
      ++dropped_for_budget_;
    }
  }
  targets_ = std::move(admitted);
}

void TslpScheduler::RunRound(TimeSec t) {
  const sim::FaultHook* hook = net_->fault_hook();
  const bool vp_up = hook == nullptr || hook->VpUpAt(vp_, t);
  // The host clock's error shifts every recorded timestamp.
  const TimeSec t_rec = t + (hook != nullptr ? hook->ClockSkewAt(vp_, t) : 0);
  const std::uint64_t e0 = expected_;
  const std::uint64_t a0 = answered_;

  // A write lost on the way to the backend disappears silently: no data, no
  // gap marker — the hole Coverage() surfaces via longest_gap.
  const auto write = [&](const char* side, std::uint64_t side_key,
                         Ipv4Addr far_addr, const TslpDest& dest,
                         const sim::ProbeReply* reply) {
    if (hook != nullptr &&
        hook->DropTsdbWriteAt(
            vp_, t, stats::Rng::HashMix(dest.dst.value(), side_key))) {
      return;
    }
    tsdb::TagSet tags = Tags(vp_name_, far_addr, side);
    tags.Set("dst", dest.dst.ToString());
    if (reply != nullptr) {
      db_->Write(kMeasurementRtt, tags, t_rec, reply->rtt_ms);
    } else {
      // Probed but nothing usable came back: an explicit gap.
      db_->WriteMissing(kMeasurementRtt, tags, t_rec);
    }
  };

  for (TslpTarget& target : targets_) {
    // Reactive repair: promote a backup for any destination that lost
    // visibility of the link, instead of waiting for the next bdrmap cycle.
    for (TslpDest& dest : target.dests) {
      if (dest.lost_visibility && !target.backups.empty()) {
        dest = target.backups.back();
        target.backups.pop_back();
        ++repaired_;
      }
    }
    for (TslpDest& dest : target.dests) {
      if (dest.lost_visibility) continue;
      if (!vp_up) {
        // The round was scheduled but the VP is off the air: both probes are
        // owed and unanswered, and the series record explicit gaps (the
        // scheduler journals its own downtime on recovery).
        expected_ += 2;
        write(kSideNear, kNearNoise, target.far_addr, dest, nullptr);
        write(kSideFar, kFarNoise, target.far_addr, dest, nullptr);
        continue;
      }
      const sim::FlowId flow{dest.flow};

      const probe::Prober::RetriedReply near_try = prober_.TtlProbeRetrying(
          dest.dst, dest.far_ttl - 1, flow, t, config_.retry);
      probes_ += near_try.attempts;
      ++expected_;
      if (near_try.reply.outcome == sim::ProbeOutcome::kTtlExpired) {
        ++answered_;
        write(kSideNear, kNearNoise, target.far_addr, dest, &near_try.reply);
      } else {
        write(kSideNear, kNearNoise, target.far_addr, dest, nullptr);
      }

      const probe::Prober::RetriedReply far_try = prober_.TtlProbeRetrying(
          dest.dst, dest.far_ttl, flow, t, config_.retry);
      const sim::ProbeReply& far_reply = far_try.reply;
      probes_ += far_try.attempts;
      ++expected_;
      if (far_reply.outcome != sim::ProbeOutcome::kLost) ++answered_;
      if (far_reply.outcome == sim::ProbeOutcome::kTtlExpired &&
          far_reply.responder == target.far_addr) {
        dest.consecutive_misses = 0;
        write(kSideFar, kFarNoise, target.far_addr, dest, &far_reply);
      } else {
        write(kSideFar, kFarNoise, target.far_addr, dest, nullptr);
        if (far_reply.outcome != sim::ProbeOutcome::kLost) {
          // Wrong responder (or the probe reached the destination outright):
          // the route toward this destination no longer crosses the target
          // link; after repeated misses stop using it (a backup is promoted
          // at the next round, or bdrmap replaces it next cycle).
          if (++dest.consecutive_misses >= config_.visibility_miss_limit) {
            dest.lost_visibility = true;
          }
        }
      }
    }
  }

  if (!vp_up) ++rounds_vp_down_;
  round_window_.emplace_back(static_cast<std::uint32_t>(expected_ - e0),
                             static_cast<std::uint32_t>(answered_ - a0));
  while (round_window_.size() >
         static_cast<std::size_t>(std::max(config_.response_window_rounds, 1))) {
    round_window_.pop_front();
  }
}

}  // namespace manic::tslp
