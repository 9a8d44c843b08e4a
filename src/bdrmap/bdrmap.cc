#include "bdrmap/bdrmap.h"

#include <algorithm>

namespace manic::bdrmap {

namespace {

// /31 point-to-point partner of an interface address. Link subnets are
// numbered as even/odd pairs, so the mate differs in the low bit.
Ipv4Addr Mate(Ipv4Addr a) noexcept { return Ipv4Addr(a.value() ^ 1u); }

}  // namespace

const BorderLink* BdrmapResult::FindByFarAddr(Ipv4Addr far) const noexcept {
  for (const BorderLink& l : links) {
    if (l.far_addr == far) return &l;
  }
  return nullptr;
}

std::vector<const BorderLink*> BdrmapResult::LinksToNeighbor(Asn asn) const {
  std::vector<const BorderLink*> out;
  for (const BorderLink& l : links) {
    if (l.neighbor == asn) out.push_back(&l);
  }
  return out;
}

Bdrmap::Bdrmap(SimNetwork& net, VpId vp, Config config)
    : net_(&net), config_(config), vp_(vp) {
  host_as_ = net_->topology().vp(vp).host_as;
  for (const Asn s : net_->topology().orgs.Siblings(host_as_)) {
    host_siblings_.insert(s);
  }
}

Bdrmap::HopInfo Bdrmap::Annotate(Ipv4Addr addr) const {
  HopInfo info;
  info.addr = addr;
  const topo::Topology& topo = net_->topology();
  if (topo.ixps.IsIxpAddress(addr)) {
    info.is_ixp = true;
    return info;
  }
  info.annotated_as = topo.Prefix2As().Lookup(addr).value_or(0);
  info.host_side =
      info.annotated_as != 0 && host_siblings_.contains(info.annotated_as);
  return info;
}

Bdrmap::AllyOutcome Bdrmap::AllyProbe(Ipv4Addr a, Ipv4Addr b, TimeSec t) {
  Prober prober(*net_, vp_);
  const sim::FlowId flow{0x411F};
  auto ping = [&](Ipv4Addr addr, std::uint32_t* id) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      const auto r = prober.Ping(addr, flow, t);
      if (r.outcome == sim::ProbeOutcome::kEchoReply) {
        *id = r.ip_id;
        return true;
      }
    }
    return false;
  };
  std::vector<std::uint32_t> ids_a, ids_b;
  // Interleave pings: a, b, a, b, ... Shared counters produce interleaved
  // monotonically increasing IP-IDs with small gaps.
  for (int i = 0; i < config_.ally_probes; ++i) {
    std::uint32_t ia = 0, ib = 0;
    if (!ping(a, &ia) || !ping(b, &ib)) return AllyOutcome::kNoResponse;
    ids_a.push_back(ia);
    ids_b.push_back(ib);
  }
  // Check the merged sequence is strictly increasing with bounded gaps (the
  // gap bound absorbs the retry pings consumed above).
  std::uint32_t prev = 0;
  bool first = true;
  for (int i = 0; i < config_.ally_probes; ++i) {
    for (const std::uint32_t id : {ids_a[static_cast<std::size_t>(i)],
                                   ids_b[static_cast<std::size_t>(i)]}) {
      if (!first) {
        if (id <= prev || id - prev > 20) return AllyOutcome::kNotAliased;
      }
      prev = id;
      first = false;
    }
  }
  return AllyOutcome::kAliased;
}

BdrmapResult Bdrmap::RunCycle(TimeSec t) {
  BdrmapResult result;
  Prober prober(*net_, vp_);
  const topo::Topology& topo = net_->topology();

  // ---- pass 1: traceroute toward every routed prefix ----------------------
  struct AHop {
    HopInfo info;
    int ttl = 0;
  };
  struct Trace {
    Prefix prefix;
    Ipv4Addr dst;
    std::uint16_t flow = 0;
    Asn origin = 0;
    bool reached = false;
    std::vector<AHop> hops;  // responding hops only (destination echo removed)
  };
  std::vector<Trace> traces;

  std::vector<std::pair<Prefix, Asn>> prefixes = topo.RoutedPrefixes();
  if (config_.max_prefixes > 0 && prefixes.size() > config_.max_prefixes) {
    prefixes.resize(config_.max_prefixes);
  }
  for (int cycle = 0; cycle < std::max(1, config_.cycles); ++cycle) {
    const TimeSec cycle_t = t + cycle * config_.cycle_spacing;
    for (const auto& [prefix, origin] : prefixes) {
      if (host_siblings_.contains(origin)) continue;
      Trace trace;
      trace.prefix = prefix;
      trace.dst = Ipv4Addr(prefix.address().value() + 10);
      trace.flow = static_cast<std::uint16_t>(
          0x8000u |
          (stats::Rng::HashMix(prefix.address().value(), prefix.length()) &
           0x7fffu));
      trace.origin = origin;
      const TracerouteResult raw = prober.Traceroute(
          trace.dst, sim::FlowId{trace.flow}, cycle_t, config_.max_ttl,
          config_.attempts);
      ++result.traces;
      for (const probe::TracerouteHop& h : raw.hops) {
        if (h.addr.has_value()) {
          trace.hops.push_back({Annotate(*h.addr), h.ttl});
          ++result.responding_hops;
        }
      }
      trace.reached = raw.reached;
      if (raw.reached && !trace.hops.empty()) trace.hops.pop_back();
      if (trace.hops.size() >= 2) traces.push_back(std::move(trace));
    }
  }

  // ---- pass 2: corpus-wide successor evidence ------------------------------
  // For each observed ingress address: the set of ASes its *immediate next*
  // responding hops resolve to. IXP successor addresses resolve to the AS of
  // the hop after them (or the trace's origin). kHostMarker records a
  // host-annotated successor, which disqualifies far-router reassignment.
  constexpr Asn kHostMarker = 0xffffffffu;
  std::map<std::uint32_t, std::set<Asn>> successors;
  for (const Trace& trace : traces) {
    for (std::size_t i = 0; i + 1 < trace.hops.size(); ++i) {
      const HopInfo& next = trace.hops[i + 1].info;
      Asn resolved;
      if (next.host_side) {
        resolved = kHostMarker;
      } else if (next.is_ixp || next.annotated_as == 0) {
        resolved = trace.origin;
        for (std::size_t k = i + 2; k < trace.hops.size(); ++k) {
          const HopInfo& beyond = trace.hops[k].info;
          if (!beyond.is_ixp && beyond.annotated_as != 0 &&
              !beyond.host_side) {
            resolved = beyond.annotated_as;
            break;
          }
        }
      } else {
        resolved = next.annotated_as;
      }
      successors[trace.hops[i].info.addr.value()].insert(resolved);
    }
  }
  // Does the corpus say this interface forwards exclusively into one
  // non-host AS (the signature of a far-side border router)?
  auto exclusive_successor_as = [&](Ipv4Addr addr) -> std::optional<Asn> {
    const auto it = successors.find(addr.value());
    if (it == successors.end() || it->second.size() != 1) return std::nullopt;
    const Asn only = *it->second.begin();
    if (only == kHostMarker) return std::nullopt;
    return only;
  };

  // ---- alias / link-connectivity probing (cached) --------------------------
  std::map<std::pair<std::uint32_t, std::uint32_t>, bool> ally_cache;
  auto ally = [&](Ipv4Addr a, Ipv4Addr b) {
    if (!config_.run_alias_resolution) return false;
    // Materialize before ordering: std::minmax(a.value(), b.value()) would
    // return a pair of references into expired temporaries.
    const std::uint32_t va = a.value();
    const std::uint32_t vb = b.value();
    const std::pair<std::uint32_t, std::uint32_t> key{std::min(va, vb),
                                                      std::max(va, vb)};
    const auto it = ally_cache.find(key);
    if (it != ally_cache.end()) return it->second;
    ++result.ally_pairs_tested;
    const AllyOutcome outcome = AllyProbe(a, b, t);
    // kNoResponse stays uncached: a later trace may retest the pair when the
    // rate limiter has refilled.
    if (outcome != AllyOutcome::kNoResponse) {
      ally_cache[key] = outcome == AllyOutcome::kAliased;
    }
    return outcome == AllyOutcome::kAliased;
  };

  // ---- pass 3: per-trace border placement ----------------------------------
  std::map<std::uint32_t, BorderLink> by_far;
  std::map<std::uint32_t, std::map<Asn, int>> neighbor_votes;
  auto record = [&](Ipv4Addr far, Ipv4Addr near, Asn neighbor, bool via_ixp,
                    const Trace& trace, int far_ttl) {
    BorderLink& link = by_far[far.value()];
    if (link.dests.empty()) {
      link.far_addr = far;
      link.near_addr = near;
      link.via_ixp = via_ixp;
    }
    ++neighbor_votes[far.value()][neighbor];
    link.dests.push_back(
        {trace.prefix, trace.dst, trace.flow, far_ttl, trace.origin});
  };

  for (const Trace& trace : traces) {
    const auto& hops = trace.hops;

    // j = first responding hop not annotated as host/sibling space.
    std::size_t j = hops.size();
    for (std::size_t i = 0; i < hops.size(); ++i) {
      if (!hops[i].info.host_side) {
        j = i;
        break;
      }
    }

    if (j == hops.size()) {
      // Every responder is host-annotated: shared addressing with the far
      // router as the last respondent, or the neighbor interior is silent.
      // Terminal rule: destination's origin must be a neighbor of the host
      // org and the last respondent must be p2p-attached to the previous
      // router (its /31 mate aliases with it).
      const AHop& last = hops.back();
      if (hops.size() >= 2 &&
          topo.relationships.Get(host_as_, trace.origin).has_value() &&
          ally(Mate(last.info.addr), hops[hops.size() - 2].info.addr)) {
        record(last.info.addr, hops[hops.size() - 2].info.addr, trace.origin,
               false, trace, last.ttl);
      }
      continue;
    }
    if (j == 0) continue;  // cannot place a border before the first hop

    const AHop& foreign = hops[j];
    const AHop& prev = hops[j - 1];
    if (!prev.info.host_side) continue;  // border beyond the host org

    // Resolve the foreign hop's AS (IXP addresses resolve via what follows).
    Asn x = foreign.info.annotated_as;
    bool via_ixp = false;
    if (foreign.info.is_ixp) {
      via_ixp = true;
      x = trace.origin;
      for (std::size_t k = j + 1; k < hops.size(); ++k) {
        if (!hops[k].info.is_ixp && hops[k].info.annotated_as != 0 &&
            !hops[k].info.host_side) {
          x = hops[k].info.annotated_as;
          break;
        }
      }
    }

    // Shared-addressing reassignment (the classic bdrmap hard case): the hop
    // before the first foreign hop carries host address space but is really
    // the neighbor's border router, numbered from the host side of the /31.
    // Evidence required: (i) corpus-wide, everything observed after this
    // interface resolves into exactly one non-host AS, (ii) that AS matches
    // this trace's foreign hop, (iii) the interface's /31 mate aliases with
    // the router two hops back (it terminates a p2p link from there), and
    // (iv) the AS is a plausible neighbor (known relationship or the
    // destination's origin). Single-neighbor access border routers whose
    // links are numbered from the neighbor side can defeat this heuristic —
    // the same residual ambiguity real bdrmap documents.
    if (j >= 2 && !via_ixp) {
      const auto excl = exclusive_successor_as(prev.info.addr);
      if (excl.has_value() && *excl == x &&
          (topo.relationships.Get(host_as_, x).has_value() ||
           x == trace.origin) &&
          ally(Mate(prev.info.addr), hops[j - 2].info.addr)) {
        record(prev.info.addr, hops[j - 2].info.addr, x, false, trace,
               prev.ttl);
        continue;
      }
    }

    // Standard case: border between hops j-1 (host) and j (neighbor).
    record(foreign.info.addr, prev.info.addr, x, via_ixp, trace, foreign.ttl);
  }

  result.alias_groups = ally_cache.size();
  result.links.reserve(by_far.size());
  for (auto& [addr, link] : by_far) {
    // Majority vote across traces decides the neighbor.
    const auto& votes = neighbor_votes[addr];
    int best = -1;
    for (const auto& [asn, count] : votes) {
      if (count > best) {
        best = count;
        link.neighbor = asn;
      }
    }
    result.links.push_back(std::move(link));
  }
  return result;
}

}  // namespace manic::bdrmap
