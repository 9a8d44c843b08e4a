// The unit of ingest for the serving plane: one measurement observation as
// a compact POD record. A measurement shard (a TSLP/loss collector standing
// at one vantage point) streams these into the daemon; the engine folds
// RTT kinds into 15-minute minimum bins, missing markers keep the
// probed-but-unanswered bookkeeping the DataQuality grade needs
// (tsdb::Database::WriteMissing semantics), and loss-rate samples are
// counted only.
#pragma once

#include <cstdint>

#include "stats/timeseries.h"
#include "topo/topology.h"

namespace manic::serve {

using stats::TimeSec;

enum class SampleKind : std::uint8_t {
  kFarRtt = 0,       // far-side TSLP RTT, value in milliseconds
  kNearRtt = 1,      // near-side TSLP RTT, value in milliseconds
  kFarMissing = 2,   // far slot probed, nothing came back (value unused)
  kNearMissing = 3,  // near slot probed, nothing came back (value unused)
  // Loss-probe rate, value as a fraction in [0, 1]. Counted, then dropped:
  // no verdict reads it, and the service keeps no raw samples. The kind
  // stays legal on the wire, so removing it would be a protocol change.
  kLossRate = 4,
};
inline constexpr std::uint8_t kMaxSampleKind =
    static_cast<std::uint8_t>(SampleKind::kLossRate);

struct Sample {
  TimeSec t = 0;  // observation time, seconds since the study epoch
  topo::LinkId link = 0;
  topo::VpId vp = 0;
  SampleKind kind = SampleKind::kFarRtt;
  float value = 0.0f;  // unit depends on kind (see SampleKind)
};
// One per ingested sample, in every batch and ring slot.
static_assert(sizeof(Sample) <= 24);

}  // namespace manic::serve
