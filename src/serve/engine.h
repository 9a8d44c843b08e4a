// Per-shard inference engine: the live counterpart of the batch study
// driver's daily loop. Every (link, VP) pair owns an infer::StreamingClassifier
// whose open-day bins fill one sample at a time; when the service closes a
// day, the engine finalizes each pair, merges the asserting VPs exactly as
// the batch loop does (mean fraction over recurring-asserting VPs, verdict
// emitted for every link with at least one full-window VP), and grades the
// link's DataQuality as of that day. Links are partitioned across shards by
// the service, so one engine always sees every VP of the links it owns —
// the merge never crosses a shard boundary.
//
// State layout: one dense slot per (link, VP) pair, assigned at first sight
// and never moved or freed, holding the pair's classifier. A sample finds its
// slot through a one-entry cache of the previous sample's pair (a pair-day
// batch is ~193 samples of one pair) and an ordered (link, vp) index behind
// it. CloseDay walks the index, folds each link's quality once, and keeps
// the per-link quality rows until the next close.
//
// Determinism contract: the close order (and therefore the floating-point
// summation order of per-VP fractions) is ascending (link, vp) — the same
// order as the batch driver's pair list, which the topology builder emits in
// ascending VP order.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "infer/autocorr.h"
#include "infer/data_quality.h"
#include "infer/streaming.h"
#include "serve/sample.h"
#include "serve/verdict.h"

namespace manic::serve {

struct EngineConfig {
  infer::AutocorrConfig autocorr;
  // Day-link congestion verdict threshold on the merged fraction
  // (analysis::kDayLinkThreshold).
  double congested_threshold_frac = 0.04;
};

class ShardEngine {
 public:
  using PairSlot = std::uint32_t;
  // (link, DataQuality) as of the last closed day, ascending link.
  using LinkQuality = std::pair<topo::LinkId, infer::DataQuality>;

  explicit ShardEngine(EngineConfig config = {});

  // The per-sample lookup and routing below carry the linter's hot-path
  // contract; first sight of a pair goes through the out-of-line AddPair.
  // manic-lint: hot-path(begin)

  // The dense slot of the (link, vp) pair, assigned at first sight. Stable
  // for the engine's lifetime, and dense: slots are 0, 1, 2, ... in order
  // of first sight.
  PairSlot SlotOf(topo::LinkId link, topo::VpId vp) {
    const std::uint64_t key = PairKey(link, vp);
    if (key == last_key_ && !pairs_.empty()) return last_slot_;
    const auto it = slot_of_.find(key);
    last_key_ = key;
    last_slot_ = it != slot_of_.end() ? it->second : AddPair(link, vp);
    return last_slot_;
  }

  // O(1): routes one sample into its pair's open-day bins. Loss-rate
  // samples are counted but feed nothing (see SampleKind::kLossRate); RTT
  // and missing-marker kinds land in minimum bins.
  void Ingest(const Sample& s) { IngestAt(SlotOf(s.link, s.vp), s); }
  // manic-lint: hot-path(end)

  // Finalizes `day` for every pair and returns the merged per-link verdicts
  // in ascending link order. Days must be closed in ascending order; pairs
  // that saw no record for the day are skipped (invisible, exactly like a
  // batch pair outside its visibility window).
  std::vector<VerdictRecord> CloseDay(std::int64_t day);

  // Per-link DataQuality as of the last closed day, folded across the VPs
  // that measured the link (pairs that never saw a bin are skipped). Folded
  // once per close by CloseDay; valid until the next CloseDay.
  const std::vector<LinkQuality>& DayQuality() const noexcept {
    return quality_;
  }
  // DayQuality as a map, graded over `total_days` study days.
  std::map<topo::LinkId, infer::DataQuality> QualitySnapshot(
      int total_days) const;

  // ---- checkpoints (the owning thread, or while it is stopped) --------------
  // Visits every pair as (link, vp, slot) in ascending (link, vp) order.
  template <typename Visit>
  void ForEachPair(Visit&& visit) const {
    for (const auto& [key, slot] : slot_of_) {
      visit(LinkOf(key), static_cast<topo::VpId>(key & 0xFFFFFFFFu), slot);
    }
  }
  std::size_t pair_count() const noexcept { return pairs_.size(); }
  const infer::StreamingClassifier& pair(PairSlot slot) const {
    return pairs_[slot];
  }
  infer::StreamingClassifier& pair(PairSlot slot) { return pairs_[slot]; }
  // A restored engine: every day through `day` is closed.
  void RestoreClosedThrough(std::int64_t day) noexcept {
    has_closed_ = true;
    closed_through_ = day;
  }

  std::uint64_t samples_ingested() const noexcept { return samples_; }
  // Samples dropped because their day was already closed (a closed day can
  // never be finalized again, so binning them would only leak open-day
  // state). The service filters these upstream; this is the engine's own
  // guard for direct users.
  std::uint64_t late_samples() const noexcept { return late_; }

 private:
  // Ingest once the sample's SlotOf is known.
  void IngestAt(PairSlot slot, const Sample& s);

  static std::uint64_t PairKey(topo::LinkId link, topo::VpId vp) noexcept {
    return (static_cast<std::uint64_t>(link) << 32) | vp;
  }
  static topo::LinkId LinkOf(std::uint64_t key) noexcept {
    return static_cast<topo::LinkId>(key >> 32);
  }
  // First sight of a pair: a new slot, indexed in close order.
  PairSlot AddPair(topo::LinkId link, topo::VpId vp);

  EngineConfig config_;
  std::vector<infer::StreamingClassifier> pairs_;  // by slot
  // PairKey -> slot; ascending (link, vp) is the close order.
  std::map<std::uint64_t, PairSlot> slot_of_;
  std::vector<LinkQuality> quality_;  // as of the last close
  std::uint64_t samples_ = 0;
  std::uint64_t late_ = 0;
  std::int64_t closed_through_ = 0;
  std::uint64_t last_key_ = 0;  // the previous SlotOf pair and its slot
  PairSlot last_slot_ = 0;
  bool has_closed_ = false;
};

}  // namespace manic::serve
