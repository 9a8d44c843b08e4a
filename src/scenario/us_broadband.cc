#include "scenario/us_broadband.h"

#include <algorithm>
#include <cmath>

#include "stats/calendar.h"
#include "stats/rng.h"

namespace manic::scenario {

namespace {

using stats::StudyMonthStartDay;
using stats::Rng;
using topo::Ipv4Addr;
using topo::Prefix;
using topo::RouterId;

struct City {
  const char* name = nullptr;
  int utc_offset = 0;
};

constexpr City kCities[] = {
    {"nyc", -5}, {"bos", -5}, {"wdc", -5}, {"atl", -5}, {"chi", -6},
    {"dal", -6}, {"den", -7}, {"lax", -8}, {"sea", -8}, {"sfo", -8},
};

int CityIndex(const std::string& name) {
  for (int i = 0; i < 10; ++i) {
    if (name == kCities[i].name) return i;
  }
  return -1;
}

struct AccessSpec {
  Asn asn = 0;
  const char* name = nullptr;
  std::vector<const char*> cities;
};

const std::vector<AccessSpec>& AccessSpecs() {
  static const std::vector<AccessSpec> specs = {
      {UsBroadband::kComcast,
       "Comcast",
       {"nyc", "bos", "wdc", "atl", "chi", "den", "sea", "sfo", "lax"}},
      {UsBroadband::kAtt,
       "ATT",
       {"nyc", "wdc", "atl", "chi", "dal", "lax", "sfo"}},
      {UsBroadband::kVerizon,
       "Verizon",
       {"nyc", "bos", "wdc", "chi", "dal", "lax"}},
      {UsBroadband::kCenturyLink,
       "CenturyLink",
       {"den", "sea", "chi", "dal", "lax", "atl"}},
      {UsBroadband::kCox, "Cox", {"atl", "wdc", "dal", "lax", "sfo"}},
      {UsBroadband::kTwc, "TWC", {"nyc", "chi", "dal", "lax", "sfo"}},
      {UsBroadband::kCharter, "Charter", {"atl", "chi", "den", "lax"}},
      {UsBroadband::kRcn, "RCN", {"nyc", "bos", "chi"}},
  };
  return specs;
}

struct TcpSpec {
  Asn asn = 0;
  const char* name = nullptr;
  bool content = false;  // content providers peer; transit providers sell transit
  int city_count = 0;
};

const std::vector<TcpSpec>& TcpSpecs() {
  static const std::vector<TcpSpec> specs = {
      {UsBroadband::kGoogle, "Google", true, 10},
      {UsBroadband::kNetflix, "Netflix", true, 8},
      {UsBroadband::kTata, "Tata", false, 7},
      {UsBroadband::kNtt, "NTT", false, 7},
      {UsBroadband::kXo, "XO", false, 6},
      {UsBroadband::kLevel3, "Level3", false, 9},
      {UsBroadband::kVodafone, "Vodafone", false, 5},
      {UsBroadband::kTelia, "Telia", false, 5},
      {UsBroadband::kZayo, "Zayo", false, 6},
      {UsBroadband::kCogent, "Cogent", false, 7},
  };
  return specs;
}

// Pairs with "no observations" in Table 4 (no adjacency built).
const std::set<std::pair<Asn, Asn>>& ExcludedPairs() {
  static const std::set<std::pair<Asn, Asn>> excluded = {
      {UsBroadband::kTwc, UsBroadband::kGoogle},
      {UsBroadband::kCox, UsBroadband::kTata},
      {UsBroadband::kCharter, UsBroadband::kTata},
      {UsBroadband::kRcn, UsBroadband::kTata},
      {UsBroadband::kTwc, UsBroadband::kNtt},
      {UsBroadband::kCox, UsBroadband::kXo},
      {UsBroadband::kRcn, UsBroadband::kXo},
      {UsBroadband::kAtt, UsBroadband::kVodafone},
      {UsBroadband::kCharter, UsBroadband::kVodafone},
      {UsBroadband::kRcn, UsBroadband::kVodafone},
      {UsBroadband::kCharter, UsBroadband::kZayo},
  };
  return excluded;
}

// Observed peer/provider counts per access ISP (Table 3 column 2).
int ObservedTcpTarget(Asn access) {
  switch (access) {
    case UsBroadband::kCenturyLink: return 28;
    case UsBroadband::kAtt: return 34;
    case UsBroadband::kCox: return 20;
    case UsBroadband::kComcast: return 34;
    case UsBroadband::kCharter: return 18;
    case UsBroadband::kTwc: return 25;
    case UsBroadband::kVerizon: return 26;
    case UsBroadband::kRcn: return 19;
    default: return 12;
  }
}

// Vantage-point deployment: 29 VPs across the 8 ISPs (the paper's §6 set),
// including the West/East Comcast pair of Fig 9.
const std::vector<std::pair<Asn, std::vector<std::string>>>& VpPlan() {
  static const std::vector<std::pair<Asn, std::vector<std::string>>> plan = {
      {UsBroadband::kComcast,
       {"sfo", "bos", "nyc", "chi", "atl", "sea", "den"}},
      {UsBroadband::kAtt, {"nyc", "chi", "lax", "dal"}},
      {UsBroadband::kVerizon, {"nyc", "wdc", "bos", "chi"}},
      {UsBroadband::kCenturyLink, {"den", "sea", "dal"}},
      {UsBroadband::kCox, {"atl", "dal", "lax"}},
      {UsBroadband::kTwc, {"nyc", "lax", "dal"}},
      {UsBroadband::kCharter, {"chi", "lax", "atl"}},
      {UsBroadband::kRcn, {"nyc", "bos"}},
  };
  return plan;
}

const std::vector<std::string>& VpCitiesOf(Asn access) {
  static const std::vector<std::string> empty;
  for (const auto& [asn, cities] : VpPlan()) {
    if (asn == access) return cities;
  }
  return empty;
}

}  // namespace

std::vector<Episode> UsBroadbandSchedule() {
  using U = UsBroadband;
  // (access, tcp, m0, m1, link_frac, peak0, peak1); months 0 = 2016-03.
  //
  // Calibration: a link whose peak-hour utilization exceeds ~1.06 is
  // classified congested (>= 4% of the day) on ~93% of episode days, so a
  // pair's expected congested-day-link percentage is approximately
  //     sum over episodes of  round(frac*n)/n * months/22 * 0.93.
  // Fractions and month ranges below are solved against the paper's Table 4
  // values under the parallel-link counts in kNamedParallel (Google: 5,
  // except CenturyLink-Google: 2 — severe congestion on a small port count).
  return {
      // Google (CenturyLink severe all window; Comcast dissipates Jul'17).
      {U::kCenturyLink, U::kGoogle, 0, 22, 1.00, 1.70, 1.70},
      {U::kComcast, U::kGoogle, 0, 4, 0.40, 1.35, 1.10},
      {U::kComcast, U::kGoogle, 6, 10, 0.40, 1.10, 1.45},
      {U::kComcast, U::kGoogle, 10, 15, 0.40, 1.45, 1.06},
      {U::kVerizon, U::kGoogle, 0, 11, 0.40, 1.30, 1.20},
      // Declines but persists at a lower level through December 2017 (the
      // link of Fig 3 is a Verizon-Google link congested Dec 7-9 2017).
      {U::kVerizon, U::kGoogle, 15, 22, 0.20, 1.15, 1.25},
      {U::kAtt, U::kGoogle, 2, 11, 0.40, 1.25, 1.10},
      {U::kCox, U::kGoogle, 8, 10, 0.20, 1.06, 1.05},
      {U::kCharter, U::kGoogle, 5, 9, 0.20, 1.12, 1.06},
      // Tata (synchronized upswing late 2016 / 2017; AT&T peaks Jan 2017).
      {U::kComcast, U::kTata, 4, 8, 0.25, 1.10, 1.10},
      {U::kComcast, U::kTata, 12, 22, 0.85, 1.30, 1.70},
      {U::kAtt, U::kTata, 0, 10, 0.75, 1.35, 1.80},
      {U::kAtt, U::kTata, 10, 18, 0.50, 1.80, 1.25},
      {U::kAtt, U::kTata, 18, 22, 0.25, 1.25, 1.15},
      {U::kTwc, U::kTata, 0, 9, 0.70, 1.45, 1.10},
      {U::kCenturyLink, U::kTata, 4, 11, 0.25, 1.20, 1.12},
      {U::kVerizon, U::kTata, 3, 5, 0.25, 1.03, 1.03},
      // NTT (rises with Comcast-Tata in H2 2017).
      {U::kComcast, U::kNtt, 13, 22, 0.75, 1.20, 1.50},
      {U::kAtt, U::kNtt, 6, 12, 0.50, 1.25, 1.10},
      {U::kCox, U::kNtt, 4, 7, 0.50, 1.18, 1.08},
      // XO (AT&T long-lasting; TWC dissipates Dec 2016).
      {U::kAtt, U::kXo, 0, 11, 0.33, 1.15, 1.15},
      {U::kTwc, U::kXo, 0, 6, 0.33, 1.20, 1.06},
      {U::kComcast, U::kXo, 2, 6, 0.33, 1.15, 1.06},
      {U::kCenturyLink, U::kXo, 6, 10, 0.33, 1.12, 1.06},
      {U::kCharter, U::kXo, 10, 13, 0.33, 1.12, 1.06},
      {U::kVerizon, U::kXo, 5, 6, 0.33, 1.00, 1.00},
      // Netflix (Cox rise-and-decline; TWC 2016).
      {U::kCox, U::kNetflix, 6, 13, 0.67, 1.15, 1.25},
      {U::kTwc, U::kNetflix, 0, 10, 0.67, 1.35, 1.10},
      {U::kCenturyLink, U::kNetflix, 5, 9, 0.67, 1.12, 1.08},
      {U::kVerizon, U::kNetflix, 3, 6, 0.33, 1.10, 1.06},
      {U::kCharter, U::kNetflix, 4, 7, 0.33, 1.10, 1.06},
      {U::kAtt, U::kNetflix, 7, 9, 0.33, 1.03, 1.03},
      {U::kComcast, U::kNetflix, 9, 10, 0.33, 1.03, 1.03},
      // Level3 (Cox sustained).
      {U::kCox, U::kLevel3, 4, 14, 0.80, 1.25, 1.25},
      {U::kAtt, U::kLevel3, 8, 10, 0.40, 1.08, 1.06},
      {U::kCenturyLink, U::kLevel3, 9, 11, 0.40, 1.08, 1.06},
      {U::kTwc, U::kLevel3, 2, 4, 0.20, 1.10, 1.06},
      {U::kComcast, U::kLevel3, 6, 8, 0.20, 1.03, 1.03},
      {U::kVerizon, U::kLevel3, 11, 12, 0.20, 1.03, 1.03},
      {U::kRcn, U::kLevel3, 14, 15, 0.20, 0.995, 0.995},
      // Vodafone.
      {U::kCenturyLink, U::kVodafone, 3, 8, 0.33, 1.15, 1.08},
      {U::kVerizon, U::kVodafone, 5, 9, 0.33, 1.12, 1.06},
      {U::kComcast, U::kVodafone, 8, 10, 0.33, 1.07, 1.06},
      {U::kTwc, U::kVodafone, 0, 2, 0.33, 1.03, 1.03},
      // Telia (TWC 2016, dissipating by December 2016).
      {U::kAtt, U::kTelia, 3, 12, 0.33, 1.20, 1.08},
      {U::kTwc, U::kTelia, 0, 3, 0.33, 1.04, 1.04},
      {U::kComcast, U::kTelia, 10, 12, 0.33, 1.04, 1.04},
      {U::kVerizon, U::kTelia, 6, 7, 0.33, 1.025, 1.025},
      {U::kCenturyLink, U::kTelia, 4, 5, 0.33, 1.01, 1.01},
      // Zayo (RCN the outlier).
      {U::kRcn, U::kZayo, 8, 14, 0.67, 1.12, 1.20},
      {U::kCox, U::kZayo, 5, 6, 0.33, 1.06, 1.06},
      {U::kComcast, U::kZayo, 12, 13, 0.33, 1.00, 1.00},
      {U::kVerizon, U::kZayo, 4, 5, 0.33, 0.99, 0.99},
      {U::kCenturyLink, U::kZayo, 9, 10, 0.33, 1.005, 1.005},
      // Cogent (Table 2's CenturyLink-Cogent Link 3: mild, late 2017).
      {U::kCenturyLink, U::kCogent, 20, 22, 0.34, 0.972, 0.982},
      {U::kComcast, U::kCogent, 2, 6, 0.33, 1.10, 1.06},
  };
}

const InterLinkInfo* UsBroadband::FindLink(LinkId link) const noexcept {
  for (const InterLinkInfo& info : interdomain) {
    if (info.link == link) return &info;
  }
  return nullptr;
}

std::vector<const InterLinkInfo*> UsBroadband::LinksOfPair(Asn access,
                                                           Asn tcp) const {
  std::vector<const InterLinkInfo*> out;
  for (const InterLinkInfo& info : interdomain) {
    if (info.access == access && info.tcp == tcp) out.push_back(&info);
  }
  return out;
}

std::string UsBroadband::AsName(Asn asn) const {
  const topo::AsInfo* info = topo->FindAs(asn);
  return info != nullptr ? info->name : "AS" + std::to_string(asn);
}

UsBroadband MakeUsBroadband(const UsBroadbandOptions& options) {
  UsBroadband w;
  w.topo = std::make_unique<topo::Topology>();
  topo::Topology& t = *w.topo;
  Rng rng(options.seed);

  // ---- address allocation ---------------------------------------------------
  std::uint32_t announced_cursor = Ipv4Addr(10, 0, 0, 0).value();
  std::uint32_t infra_cursor = Ipv4Addr(100, 0, 0, 0).value();
  auto give_space = [&](Asn asn) {
    t.Announce(asn, Prefix(Ipv4Addr(announced_cursor), 16));
    announced_cursor += 0x10000u;
    const Prefix infra(Ipv4Addr(infra_cursor), 16);
    infra_cursor += 0x10000u;
    t.AddInfrastructure(asn, infra);
    t.Announce(asn, infra);
  };

  // ---- ASes -----------------------------------------------------------------
  std::map<Asn, std::map<std::string, RouterId>> routers;  // asn -> city -> id
  auto build_as = [&](Asn asn, const std::string& name,
                      const std::vector<std::string>& cities,
                      int extra_prefixes = 0) {
    t.AddAs(asn, name);
    give_space(asn);
    // Large networks announce many prefixes; bdrmap traces toward each one,
    // so ECMP spreads discovery across all parallel border links.
    for (int i = 0; i < extra_prefixes; ++i) {
      t.Announce(asn, Prefix(Ipv4Addr(announced_cursor), 16));
      announced_cursor += 0x10000u;
    }
    RouterId prev = topo::kInvalidId;
    for (const std::string& city : cities) {
      const int ci = CityIndex(city);
      const RouterId r = t.AddRouter(asn, name + "-" + city, city,
                                     kCities[ci].utc_offset);
      routers[asn][city] = r;
      if (prev != topo::kInvalidId) {
        // Chain + star off the first router for intra connectivity.
        t.ConnectIntra(routers[asn][cities.front()], r,
                       2.0 + 10.0 * rng.NextDouble());
      }
      prev = r;
    }
  };

  for (const AccessSpec& spec : AccessSpecs()) {
    std::vector<std::string> cities(spec.cities.begin(), spec.cities.end());
    build_as(spec.asn, spec.name, cities);
    w.access_ases.push_back(spec.asn);
  }
  for (const TcpSpec& spec : TcpSpecs()) {
    std::vector<std::string> cities;
    for (int i = 0; i < spec.city_count; ++i) cities.push_back(kCities[i].name);
    build_as(spec.asn, spec.name, cities, /*extra_prefixes=*/5);
    w.named_tcps.push_back(spec.asn);
    w.tcp_set.insert(spec.asn);
  }

  // Filler T&CPs: small content/transit networks peered with several APs.
  std::vector<Asn> fillers;
  for (int i = 0; i < options.filler_pool; ++i) {
    const Asn asn = 64500 + static_cast<Asn>(i);
    const std::string city = kCities[i % 10].name;
    build_as(asn, "TCP-F" + std::to_string(i), {city});
    fillers.push_back(asn);
    w.tcp_set.insert(asn);
  }

  // Customer stubs per access ISP.
  std::vector<Asn> customers;
  for (std::size_t a = 0; a < w.access_ases.size(); ++a) {
    for (int c = 0; c < options.customers_per_access; ++c) {
      const Asn asn = 65000 + static_cast<Asn>(a * 32 + c);
      const std::string city = AccessSpecs()[a].cities[
          static_cast<std::size_t>(c) % AccessSpecs()[a].cities.size()];
      build_as(asn, "Cust-" + t.FindAs(w.access_ases[a])->name + "-" +
                        std::to_string(c),
               {city});
      t.relationships.SetProviderCustomer(w.access_ases[a], asn);
      t.ConnectInter(routers[w.access_ases[a]][city], routers[asn][city], 1.0,
                     20.0, w.access_ases[a]);
      customers.push_back(asn);
    }
  }

  // ---- relationships ----------------------------------------------------------
  const std::vector<Asn> tier1s = {UsBroadband::kLevel3, UsBroadband::kTelia,
                                   UsBroadband::kTata,   UsBroadband::kNtt,
                                   UsBroadband::kCogent, UsBroadband::kVodafone};
  for (std::size_t i = 0; i < tier1s.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1s.size(); ++j) {
      t.relationships.SetPeers(tier1s[i], tier1s[j]);
      // Tier-1 mesh carries traffic too: one link between first-city routers.
      t.ConnectInter(routers[tier1s[i]].begin()->second,
                     routers[tier1s[j]].begin()->second, 2.0, 400.0);
    }
  }
  auto is_tier1 = [&](Asn asn) {
    return std::find(tier1s.begin(), tier1s.end(), asn) != tier1s.end();
  };
  // Transit providers of the content networks and fillers.
  for (const Asn asn : {UsBroadband::kGoogle, UsBroadband::kNetflix,
                        UsBroadband::kXo, UsBroadband::kZayo}) {
    for (int k = 0; k < 2; ++k) {
      const Asn provider = tier1s[(asn + static_cast<Asn>(k) * 3) % tier1s.size()];
      t.relationships.SetProviderCustomer(provider, asn);
      t.ConnectInter(routers[provider].begin()->second,
                     routers[asn].begin()->second, 2.0, 200.0);
    }
  }
  for (const Asn asn : fillers) {
    const Asn provider = tier1s[asn % tier1s.size()];
    t.relationships.SetProviderCustomer(provider, asn);
    t.ConnectInter(routers[provider].begin()->second,
                   routers[asn].begin()->second, 2.0, 100.0);
  }

  // ---- access <-> T&CP adjacencies -------------------------------------------
  // Parallel links in one metro terminate on *distinct* routers on the T&CP
  // side (as in real facilities): each far router then hot-potatoes its ICMP
  // replies over its own link, so a congested link's TSLP signal cannot leak
  // onto a clean sibling. The access side keeps one router per metro, so
  // forward ECMP still spreads destinations across the parallel links.
  std::map<std::pair<Asn, std::string>, int> tcp_city_use;
  auto connect_pair = [&](Asn access, Asn tcp, int parallel) {
    // Cities where both have routers. Interconnects concentrate in metros
    // where the access ISP hosts a VP: with hot-potato routing a VP only
    // ever crosses border links near it, so links elsewhere would be
    // invisible to the whole study (§7's incompleteness caveat) — the
    // calibrated day-link denominators assume observable links.
    std::vector<std::string> common;
    const auto& vp_cities = VpCitiesOf(access);
    for (const std::string& city : vp_cities) {
      if (routers[access].contains(city) && routers[tcp].contains(city)) {
        common.push_back(city);
      }
    }
    if (common.empty()) {
      // No VP metro in common: fall back to any shared city (links there may
      // remain unobserved, as in the real study).
      for (const auto& [city, r] : routers[access]) {
        if (routers[tcp].contains(city)) common.push_back(city);
      }
    }
    if (common.empty()) {
      // Fall back: bring the T&CP's first router into one AP city virtually
      // (a private interconnect at the AP's first city).
      common.push_back(routers[access].begin()->first);
    }
    for (int k = 0; k < parallel; ++k) {
      const std::string& city = common[static_cast<std::size_t>(k) % common.size()];
      const RouterId ar = routers[access][city];
      RouterId tr = routers[tcp].contains(city) ? routers[tcp][city]
                                                : routers[tcp].begin()->second;
      const int reuse = tcp_city_use[{tcp, city}]++;
      if (reuse > 0) {
        // Additional far-side router for this metro, one intra hop from the
        // primary one.
        const int ci = CityIndex(city);
        const RouterId extra = t.AddRouter(
            tcp,
            t.FindAs(tcp)->name + "-" + city + "-" + std::to_string(reuse + 1),
            city, ci >= 0 ? kCities[ci].utc_offset : 0);
        t.ConnectIntra(tr, extra, 0.5);
        routers[tcp][city + "#" + std::to_string(reuse)] = extra;
        tr = extra;
      }
      // Links numbered from the access side: the hard border-mapping case,
      // and the dominant U.S. convention.
      const LinkId link = t.ConnectInter(ar, tr, 1.0, 100.0, access);
      w.interdomain.push_back({city, link, access, tcp, false});
    }
  };

  // Parallel-link counts per named T&CP, calibrated so the per-pair (Table
  // 4) and per-AP aggregate (Table 3) day-link percentages can coexist:
  // severe pairs with few links (CenturyLink-Google) barely move the AP-wide
  // aggregate, exactly as in the paper.
  const std::map<Asn, int> kNamedParallel = {
      {UsBroadband::kGoogle, 5},  {UsBroadband::kNetflix, 3},
      {UsBroadband::kTata, 4},    {UsBroadband::kNtt, 4},
      {UsBroadband::kXo, 3},      {UsBroadband::kLevel3, 5},
      {UsBroadband::kVodafone, 3}, {UsBroadband::kTelia, 3},
      {UsBroadband::kZayo, 3},    {UsBroadband::kCogent, 3},
  };
  for (const AccessSpec& ap : AccessSpecs()) {
    int connected = 0;
    for (const TcpSpec& tcp : TcpSpecs()) {
      if (ExcludedPairs().contains({ap.asn, tcp.asn})) continue;
      // CenturyLink-Google: severe congestion concentrated on a small port
      // count (2 links), so the pair reaches 94% congested day-links while
      // CenturyLink's AP-wide aggregate stays low (Table 3 vs Table 4).
      int base = kNamedParallel.at(tcp.asn);
      if (ap.asn == UsBroadband::kCenturyLink &&
          tcp.asn == UsBroadband::kGoogle) {
        base = 2;
      }
      const int parallel = std::max(
          1, static_cast<int>(std::lround(options.link_scale * base)));
      connect_pair(ap.asn, tcp.asn, parallel);
      if (tcp.content || !is_tier1(tcp.asn)) {
        t.relationships.SetPeers(ap.asn, tcp.asn);
      } else {
        t.relationships.SetProviderCustomer(tcp.asn, ap.asn);
      }
      ++connected;
    }
    // Fillers to reach the observed-neighbor target.
    const int want = ObservedTcpTarget(ap.asn);
    for (std::size_t f = 0; connected < want && f < fillers.size(); ++f) {
      // Deterministic-but-varied subset per AP.
      if (stats::Rng::HashToUnit(options.seed, ap.asn, fillers[f]) > 0.75) {
        continue;
      }
      const int parallel = std::max(
          1, static_cast<int>(std::lround(
                 options.link_scale *
                 static_cast<double>(
                     2 + stats::Rng::HashMix(ap.asn, fillers[f]) % 2))));
      connect_pair(ap.asn, fillers[f], parallel);
      t.relationships.SetPeers(ap.asn, fillers[f]);
      ++connected;
    }
  }

  // ---- vantage points ----------------------------------------------------------
  w.net = std::make_unique<sim::SimNetwork>(t, options.seed);
  if (options.add_vantage_points) {
    const std::vector<std::pair<Asn, std::vector<std::string>>> vp_plan = {
        {UsBroadband::kComcast,
         {"sfo", "bos", "nyc", "chi", "atl", "sea", "den"}},  // mry/bed-like
        {UsBroadband::kAtt, {"nyc", "chi", "lax", "dal"}},
        {UsBroadband::kVerizon, {"nyc", "wdc", "bos", "chi"}},
        {UsBroadband::kCenturyLink, {"den", "sea", "dal"}},
        {UsBroadband::kCox, {"atl", "dal", "lax"}},
        {UsBroadband::kTwc, {"nyc", "lax", "dal"}},
        {UsBroadband::kCharter, {"chi", "lax", "atl"}},
        {UsBroadband::kRcn, {"nyc", "bos"}},
    };
    for (const auto& [asn, cities] : vp_plan) {
      for (const std::string& city : cities) {
        const std::string name =
            t.FindAs(asn)->name + "-" + city + "-us";
        const VpId vp = t.AddVantagePoint(name, asn, routers[asn][city]);
        w.vps.push_back(vp);
        w.vps_by_access[asn].push_back(vp);
      }
    }
  }

  // ---- demand schedule ----------------------------------------------------------
  w.schedule = UsBroadbandSchedule();
  for (const Episode& ep : w.schedule) {
    auto links = w.LinksOfPair(ep.access, ep.tcp);
    // Congestion lands preferentially on links in cities hosting a VP of the
    // access ISP — otherwise the scheduled pattern would fall on links no
    // vantage point can observe and the study would systematically under-
    // report (the paper's own visibility caveat, §7 "Incompleteness").
    std::set<std::string> vp_cities;
    const auto vps_it = w.vps_by_access.find(ep.access);
    if (vps_it != w.vps_by_access.end()) {
      for (const VpId vp : vps_it->second) {
        vp_cities.insert(t.router(t.vp(vp).first_hop).city);
      }
    }
    std::stable_sort(links.begin(), links.end(),
                     [&](const InterLinkInfo* a, const InterLinkInfo* b) {
                       return vp_cities.contains(a->city) >
                              vp_cities.contains(b->city);
                     });
    const int affected = std::max(
        1, static_cast<int>(std::lround(
               ep.link_frac * static_cast<double>(links.size()))));
    for (int k = 0; k < affected && k < static_cast<int>(links.size()); ++k) {
      // interdomain entries are const pointers; find the mutable record.
      for (InterLinkInfo& info : w.interdomain) {
        if (info.link != links[static_cast<std::size_t>(k)]->link) continue;
        info.scheduled_congested = true;
        sim::LinkDemand& demand =
            w.net->DemandFor(info.link, sim::Direction::kBtoA);
        demand.default_peak_utilization =
            0.45 + 0.35 * stats::Rng::HashToUnit(options.seed, info.link, 7);
        demand.regimes.push_back({StudyMonthStartDay(ep.m0),
                                  StudyMonthStartDay(ep.m1), ep.peak0,
                                  ep.peak1});
        sim::LinkQueueModel queue;
        queue.buffer_ms =
            30.0 + 15.0 * stats::Rng::HashToUnit(options.seed, info.link, 9);
        w.net->SetQueueModel(info.link, queue);
        break;
      }
    }
  }
  return w;
}

}  // namespace manic::scenario
