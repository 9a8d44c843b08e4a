// The longitudinal study driver: operationalizes the full pipeline of
// Figure 1 over the 22-month window for every vantage point — bdrmap
// discovery, per-link TSLP series, rolling autocorrelation classification,
// multi-VP merging into day-link records — and scores the result against the
// simulator's ground truth (the "operator feedback" analogue, §5.4).
//
// TSLP series for the long window are produced by TslpSynthesizer, which
// evaluates the same demand/queue models the per-probe simulator uses but
// one 15-minute bin at a time (the equivalence is tested in
// test_driver.cc); the focused validation benches run the real per-probe
// TSLP scheduler instead.
#pragma once

#include <functional>
#include <map>
#include <span>
#include <string>

#include "analysis/daylink.h"
#include "infer/autocorr.h"
#include "infer/data_quality.h"
#include "runtime/study_executor.h"
#include "scenario/us_broadband.h"
#include "sim/faults/fault_plan.h"

namespace manic::scenario {

// Synthesizes per-day near/far 15-minute minimum-RTT rows for one
// (VP, border link) pair directly from the link's demand model.
class TslpSynthesizer {
 public:
  struct Config {
    double base_missing_prob = 0.01;  // bins lost to probing gaps
    int samples_per_bin = 6;          // TSLP probes contributing a bin's min
    double jitter_ms = 0.25;          // spread of the per-bin minimum
    stats::TimeSec bin_width = 900;
  };

  TslpSynthesizer(sim::SimNetwork& net, topo::LinkId link,
                  double base_far_rtt_ms, double base_near_rtt_ms,
                  std::uint64_t noise_key, Config config);
  TslpSynthesizer(sim::SimNetwork& net, topo::LinkId link,
                  double base_far_rtt_ms, double base_near_rtt_ms,
                  std::uint64_t noise_key)
      : TslpSynthesizer(net, link, base_far_rtt_ms, base_near_rtt_ms,
                        noise_key, Config{}) {}
  // VP-aware variant: when the network carries a FaultHook, rounds where
  // this VP is down contribute nothing to a bin (a bin with no surviving
  // round is missing on both sides), and bins whose tsdb write the hook
  // drops vanish silently. The VP-less constructors keep the synthesizer
  // blind to VP-scoped faults (link faults still apply — they flow through
  // ObservedQueueDelayMs / ObservedLossProb). Clock skew is not modeled
  // here: the synthesizer works at bin granularity and plan validation
  // bounds |skew| well below the bin width; the per-probe TSLP scheduler
  // models it instead.
  TslpSynthesizer(sim::SimNetwork& net, topo::VpId vp, topo::LinkId link,
                  double base_far_rtt_ms, double base_near_rtt_ms,
                  std::uint64_t noise_key, Config config)
      : TslpSynthesizer(net, link, base_far_rtt_ms, base_near_rtt_ms,
                        noise_key, config) {
    vp_ = vp;
    vp_known_ = true;
  }
  TslpSynthesizer(sim::SimNetwork& net, topo::VpId vp, topo::LinkId link,
                  double base_far_rtt_ms, double base_near_rtt_ms,
                  std::uint64_t noise_key)
      : TslpSynthesizer(net, vp, link, base_far_rtt_ms, base_near_rtt_ms,
                        noise_key, Config{}) {}

  // Fills `far` / `near` (each intervals-per-day long) for epoch day `day`.
  void Day(std::int64_t day, std::vector<float>& far,
           std::vector<float>& near) const;

 private:
  sim::SimNetwork* net_ = nullptr;
  topo::LinkId link_ = 0;
  double base_far_ = 0.0;
  double base_near_ = 0.0;
  std::uint64_t noise_key_ = 0;
  Config config_;
  topo::VpId vp_ = 0;
  bool vp_known_ = false;
};

// A border link as one VP sees it, with the destination TSLP would probe and
// the congestion-free baseline RTTs — the shared starting point of every
// experiment harness.
struct DiscoveredLink {
  std::string vp_name;
  const InterLinkInfo* info = nullptr;
  double base_far_ms = 0.0;
  double base_near_ms = 0.0;
  topo::VpId vp = 0;
  int vp_utc_offset = 0;
  topo::Ipv4Addr far_addr;
  topo::Ipv4Addr dest;
  int far_ttl = 0;
  std::uint16_t flow = 0;
};

// Runs bdrmap from `vp` at time t and resolves the discovered borders against
// the world's interdomain link inventory (customer and tier-1 mesh links are
// dropped).
std::vector<DiscoveredLink> DiscoverVpLinks(UsBroadband& world, topo::VpId vp,
                                            stats::TimeSec t);

// Phase-and-progress notification from the driver. The driver itself never
// writes to stdout/stderr: callers that want live progress install a
// callback (always invoked from the calling thread, so a bench's own output
// and the runtime metrics report never interleave with worker output).
struct StudyProgress {
  const char* phase = "";   // "discover", "classify", "aggregate", "truth"
  std::size_t done = 0;     // units completed within the phase
  std::size_t total = 0;    // units in the phase
};
using StudyProgressFn = std::function<void(const StudyProgress&)>;

struct StudyOptions {
  int days = -1;          // default: the full 22-month window
  int warmup_days = 50;   // classification needs a full window first
  infer::AutocorrConfig autocorr;
  std::uint64_t seed = 99;
  // Restrict to N vantage points (0 = all); tests use a subset for speed.
  std::size_t max_vps = 0;
  // Visibility churn (§6: "the population of links varies, as our
  // visibility of interdomain links is dynamic"): this fraction of VP-link
  // pairs either appears late or disappears early in the study window,
  // deterministically per (seed, vp, link).
  double churn_fraction = 0.3;
  // Parallel execution (threads, shard granularity, metrics sink). Every
  // setting runs the one sharded daily loop, and any thread count or shard
  // granularity produces bit-identical results, equal to the committed
  // outputs under tests/golden/ (see README "Parallel execution").
  runtime::RuntimeOptions runtime;
  // Optional progress callback; null = silent.
  StudyProgressFn progress;
  // Deterministic fault schedule (null = fault-free run). The driver
  // installs a FaultInjector seeded from SeedTree(seed).Child("faults") for
  // the duration of the study, so a faulted run is a pure function of
  // (world, options) regardless of thread count. The plan must outlive the
  // RunLongitudinalStudy call.
  const sim::faults::FaultPlan* fault_plan = nullptr;
  // Shard checkpoint log (empty = none). Every shard is saved to it and
  // restored from it; a killed study resumes from the log byte-identically.
  std::string checkpoint_path;
  // Stall watchdog for the parallel phase (stall_timeout_s = 0 disables).
  runtime::WatchdogOptions watchdog;
  // Optional per-record sink, invoked (from the calling thread, in emission
  // order) for every day-link record as it enters the result table. The
  // serving plane's parity harness uses this to capture the batch pipeline's
  // exact verdict stream — DayLinkTable itself only keeps aggregates.
  std::function<void(const analysis::DayLinkRecord&)> on_day_link;
};

struct StudyResult {
  analysis::DayLinkTable day_links;
  // Fig 9 inputs: one histogram per Comcast VP plus the consolidated one
  // (in Pacific time, as in the paper's bottom panel).
  std::map<std::string, analysis::TimeOfDayHistogram> comcast_vp_hists;
  analysis::TimeOfDayHistogram comcast_consolidated;
  std::size_t vp_link_pairs = 0;
  std::size_t links_observed = 0;
  std::uint64_t probes_for_discovery = 0;
  // Link-population dynamics per access ISP: distinct links observed at any
  // point of the study vs. links still visible during the final study month
  // (the paper's "973 links since March 2016 / 345 in December 2017").
  std::map<topo::Asn, int> links_ever_by_access;
  std::map<topo::Asn, int> links_final_month_by_access;
  // Per-link data-quality verdict over the whole study window, folded from
  // the same synthesized rows the classifier consumed: coverage fractions
  // and longest gap across contributing VPs (gap = worst single VP's run of
  // missing far bins), day-level VP churn summed across VPs. Links that
  // never produced a post-warmup row are absent.
  std::map<topo::LinkId, infer::DataQuality> link_quality;
  // Day-link confusion matrix vs ground truth (>= 4% congested), the
  // operator-validation analogue.
  long long truth_tp = 0, truth_fp = 0, truth_fn = 0, truth_tn = 0;
  double TruthAccuracy() const noexcept {
    const long long total = truth_tp + truth_fp + truth_fn + truth_tn;
    return total == 0 ? 0.0
                      : static_cast<double>(truth_tp + truth_tn) /
                            static_cast<double>(total);
  }
};

StudyResult RunLongitudinalStudy(UsBroadband& world,
                                 const StudyOptions& options = {});

// Streams the exact per-day measurement rows the daily loop consumes —
// day-major, pair-minor, visibility churn and fault effects included, NaN
// marking probed-but-missing bins — without running any inference. This is
// the feed for the serving plane's replay/parity harness: re-submitting
// these rows as samples through the streaming daemon reproduces the batch
// study's verdicts exactly. Must run on a freshly built world (discovery
// mutates the network's RNG and path cache), with the same options as the
// batch run being mirrored.
using StudyStreamFn =
    std::function<void(topo::VpId vp, topo::LinkId link, std::int64_t day,
                       std::span<const float> far, std::span<const float> near)>;
void ExportStudyStream(UsBroadband& world, const StudyOptions& options,
                       const StudyStreamFn& fn);

}  // namespace manic::scenario
