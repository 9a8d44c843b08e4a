// One row of the daemon's verdict log: the merged congestion verdict for a
// link on a closed day, folded across every VP whose rolling window covered
// that day — the live counterpart of one batch DayLinkRecord, plus the
// PR-5 DataQuality grade. FormatVerdictLine is the canonical text encoding:
// the replay-determinism gate byte-diffs whole logs, so the formatting is
// fixed-precision and locale-free.
#pragma once

#include <cstdint>
#include <string>

#include "topo/topology.h"

namespace manic::serve {

struct VerdictRecord {
  std::int64_t day = 0;  // epoch day (closed)
  topo::LinkId link = 0;
  bool recurring = false;   // >= 1 contributing VP asserted recurrence
  bool congested = false;   // fraction >= the day-link threshold
  bool quality_ok = false;  // link DataQuality acceptable as of this day
  double fraction = 0.0;    // mean congestion level over asserting VPs
  std::uint32_t contributors = 0;  // VP states with a full window this day
  std::uint32_t asserting = 0;     // of those, VPs asserting recurrence
  double far_coverage_frac = 0.0;  // link far-side coverage as of this day

  friend bool operator==(const VerdictRecord&, const VerdictRecord&) = default;
};
// One per day-link row of the verdict log, which every checkpoint rewrites.
static_assert(sizeof(VerdictRecord) <= 40);

// Canonical single-line text form (newline-terminated), deterministic down
// to the byte for identical records.
std::string FormatVerdictLine(const VerdictRecord& v);

}  // namespace manic::serve
