// The structural network model: ASes, routers, interfaces, links, address
// allocation, and prefix announcements. Dynamic behaviour (queues, demand,
// ICMP handling) lives in manic::sim and is keyed by the identifiers defined
// here. The builder API lets scenarios assemble arbitrary interdomain
// topologies; addresses for interdomain links can be drawn from either
// side's infrastructure space, which is precisely what makes border mapping
// nontrivial (§3.2).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "topo/as_registry.h"
#include "topo/ipv4.h"
#include "topo/prefix_trie.h"

namespace manic::topo {

using RouterId = std::uint32_t;
using IfaceId = std::uint32_t;
using LinkId = std::uint32_t;
using VpId = std::uint32_t;

inline constexpr std::uint32_t kInvalidId = std::numeric_limits<std::uint32_t>::max();

enum class LinkKind : std::uint8_t {
  kIntra,        // both routers in the same AS
  kInterdomain,  // border link between two ASes (the measurement target)
  kIxp,          // interdomain link across an IXP fabric (addresses from IXP space)
  kHostUplink,   // VP host to its first-hop router
};

struct Interface {
  IfaceId id = kInvalidId;
  Ipv4Addr addr;
  RouterId router = kInvalidId;
  LinkId link = kInvalidId;
  Asn addr_owner = 0;  // AS (or IXP pseudo-AS) whose space the address is from
};
// One per interface in the topology.
static_assert(sizeof(Interface) <= 20);

// Per-router ICMP behaviour knobs, consumed by the simulator.
struct IcmpProfile {
  double rate_limit_pps = 1000.0;   // ICMP generation cap (token bucket)
  double slow_path_prob = 0.0;      // probability of control-plane delay
  double slow_path_extra_ms = 30.0; // added latency when slow-path hit
  double response_loss_prob = 0.0;  // unconditional response drop probability
  bool responds = true;             // some routers never answer
};

struct Router {
  std::string name;
  std::string city;
  std::vector<IfaceId> interfaces;
  IcmpProfile icmp;
  RouterId id = kInvalidId;
  Asn owner = 0;
  int utc_offset_hours = 0;  // local time for diurnal demand & Fig 9
  // Monotonic IP-ID counter shared across interfaces: the signal the Ally
  // alias-resolution technique exploits.
  mutable std::uint32_t ip_id_counter = 0;
};

// The physical parameters of a link, grouped so every construction path
// (the three Connect* builders, AddVantagePoint's host uplink) names the
// units exactly once instead of threading two loose doubles around.
struct LinkParams {
  double propagation_ms = 1.0;   // one-way propagation delay
  double capacity_gbps = 100.0;  // nominal capacity (sim reads this)
};

struct Link {
  LinkId id = kInvalidId;
  LinkKind kind = LinkKind::kIntra;
  IfaceId iface_a = kInvalidId;  // on router_a
  IfaceId iface_b = kInvalidId;  // on router_b
  RouterId router_a = kInvalidId;
  RouterId router_b = kInvalidId;
  Asn as_a = 0;
  Asn as_b = 0;
  LinkParams params;

  // Field-style accessors so readers keep the unit in sight at the use site
  // (`l.propagation_ms()`), whatever construction path filled `params`.
  double propagation_ms() const noexcept { return params.propagation_ms; }
  double capacity_gbps() const noexcept { return params.capacity_gbps; }
};
// One per link in the topology.
static_assert(sizeof(Link) <= 48);

struct AsInfo {
  Asn asn = 0;
  std::string name;
  std::vector<RouterId> routers;
  std::vector<Prefix> announced;       // "BGP"-visible prefixes
  std::vector<Prefix> infrastructure;  // router/link addressing pools
};

// A measurement vantage point: a host inside an access network (§3).
struct VantagePoint {
  VpId id = kInvalidId;
  std::string name;       // e.g. "mry-us"
  Asn host_as = 0;
  RouterId first_hop = kInvalidId;  // attachment router
  Ipv4Addr addr;          // host address (from host AS announced space)
  LinkId uplink = kInvalidId;
};

class Topology {
 public:
  // ---- construction -------------------------------------------------------
  AsInfo& AddAs(Asn asn, std::string name);
  RouterId AddRouter(Asn asn, std::string name, std::string city = "",
                     int utc_offset_hours = 0);

  // Announces a prefix as originated by `asn` (appears in the synthetic BGP
  // table bdrmap traces toward).
  void Announce(Asn asn, const Prefix& prefix);
  // Registers an infrastructure pool used to number `asn`'s interfaces.
  void AddInfrastructure(Asn asn, const Prefix& prefix);

  // Connects two routers of one AS.
  LinkId ConnectIntra(RouterId a, RouterId b, double propagation_ms = 0.5,
                      double capacity_gbps = 400.0) {
    return ConnectIntra(a, b, LinkParams{propagation_ms, capacity_gbps});
  }
  LinkId ConnectIntra(RouterId a, RouterId b, LinkParams params);

  // Connects border routers of two different ASes. Interface addresses are
  // drawn as a point-to-point pair from `addr_from`'s infrastructure space
  // (defaults to router a's AS — so the far interface commonly carries
  // near-side address space, the classic border-mapping pitfall).
  LinkId ConnectInter(RouterId a, RouterId b, double propagation_ms = 2.0,
                      double capacity_gbps = 100.0,
                      std::optional<Asn> addr_from = std::nullopt) {
    return ConnectInter(a, b, LinkParams{propagation_ms, capacity_gbps},
                        addr_from);
  }
  LinkId ConnectInter(RouterId a, RouterId b, LinkParams params,
                      std::optional<Asn> addr_from = std::nullopt);

  // Connects border routers of two ASes across an IXP fabric: both interface
  // addresses come from the IXP prefix (registered in the IxpRegistry).
  LinkId ConnectAtIxp(RouterId a, RouterId b, const Prefix& ixp_prefix,
                      std::string ixp_name, double propagation_ms = 2.0,
                      double capacity_gbps = 100.0) {
    return ConnectAtIxp(a, b, ixp_prefix, std::move(ixp_name),
                        LinkParams{propagation_ms, capacity_gbps});
  }
  LinkId ConnectAtIxp(RouterId a, RouterId b, const Prefix& ixp_prefix,
                      std::string ixp_name, LinkParams params);

  // The parameters AddVantagePoint assigns to the host uplink it creates.
  static constexpr LinkParams kHostUplinkParams{1.0, 1.0};

  VpId AddVantagePoint(std::string name, Asn host_as, RouterId first_hop);

  // ---- accessors ----------------------------------------------------------
  const AsInfo* FindAs(Asn asn) const noexcept;
  const Router& router(RouterId id) const noexcept { return routers_[id]; }
  Router& router(RouterId id) noexcept { return routers_[id]; }
  const Interface& iface(IfaceId id) const noexcept { return ifaces_[id]; }
  const Link& link(LinkId id) const noexcept { return links_[id]; }
  Link& link(LinkId id) noexcept { return links_[id]; }
  const VantagePoint& vp(VpId id) const noexcept { return vps_[id]; }

  std::size_t RouterCount() const noexcept { return routers_.size(); }
  std::size_t LinkCount() const noexcept { return links_.size(); }
  std::size_t IfaceCount() const noexcept { return ifaces_.size(); }
  std::size_t VpCount() const noexcept { return vps_.size(); }
  const std::vector<Link>& links() const noexcept { return links_; }
  const std::vector<VantagePoint>& vps() const noexcept { return vps_; }
  const std::map<Asn, AsInfo>& ases() const noexcept { return ases_; }

  // Interface lookup by address (exact).
  std::optional<IfaceId> IfaceByAddr(Ipv4Addr addr) const noexcept;

  // The other end of `link` relative to router `from`.
  RouterId PeerRouter(const Link& link, RouterId from) const noexcept;
  // The interface of `link` sitting on router `r`.
  IfaceId IfaceOn(const Link& link, RouterId r) const noexcept;

  // Links of a router, optionally filtered by kind.
  std::vector<LinkId> LinksOf(RouterId r,
                              std::optional<LinkKind> kind = std::nullopt) const;

  // All interdomain/IXP links between the two ASes (either order).
  std::vector<LinkId> InterdomainLinksBetween(Asn a, Asn b) const;

  // Prefix-to-AS longest-prefix-match table built from announcements
  // (RouteViews/RIS analogue). Rebuilt lazily after announcements change.
  const PrefixTrie<Asn>& Prefix2As() const;

  // A probeable destination address inside an announced prefix of `asn`
  // (deterministically the k-th host address of the i-th prefix).
  std::optional<Ipv4Addr> DestinationIn(Asn asn, std::size_t index = 0) const;

  // All announced prefixes with origin AS (the "routed prefixes" bdrmap
  // traces toward).
  std::vector<std::pair<Prefix, Asn>> RoutedPrefixes() const;

  // External registries (inputs to bdrmap).
  RelationshipTable relationships;
  OrgMap orgs;
  IxpRegistry ixps;

 private:
  IfaceId NewIface(RouterId router, LinkId link, Ipv4Addr addr, Asn owner);
  Ipv4Addr AllocInfraPair(Asn asn, Ipv4Addr* second);
  Ipv4Addr AllocFromPrefix(const Prefix& p, std::uint64_t* cursor,
                           Ipv4Addr* second);
  Ipv4Addr AllocSingle(Asn asn);

  std::map<Asn, AsInfo> ases_;
  std::vector<Router> routers_;
  std::vector<Interface> ifaces_;
  std::vector<Link> links_;
  std::vector<VantagePoint> vps_;
  std::map<std::uint32_t, IfaceId> addr_index_;
  std::map<Asn, std::uint64_t> infra_cursor_;
  std::map<std::string, std::uint64_t> ixp_cursor_;
  std::map<Asn, std::uint64_t> host_cursor_;
  mutable PrefixTrie<Asn> prefix2as_;
  mutable bool prefix2as_dirty_ = true;
};

}  // namespace manic::topo
