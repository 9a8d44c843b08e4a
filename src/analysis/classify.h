// Bridges raw TSLP measurements (in the time-series DB) to the inference
// core, and exposes the binary 15-minute interval classification the
// validation experiments compare against (§5: "congested" vs "uncongested"
// intervals per the autocorrelation method).
#pragma once

#include <string>

#include "infer/autocorr.h"
#include "infer/data_quality.h"
#include "topo/ipv4.h"
#include "tsdb/tsdb.h"

namespace manic::analysis {

using infer::AutocorrConfig;
using infer::AutocorrResult;
using stats::TimeSec;
using topo::Ipv4Addr;

// Autocorrelation inference for one (vp, link) over [t0, t0 + days*86400),
// built from the stored near/far TSLP series.
struct LinkInference {
  AutocorrResult result;
  // How much of the window the far/near series actually covered. When the
  // verdict fails config.quality, `result` is forced non-recurring with
  // RejectReason::kLowCoverage — a link with too little evidence is
  // reported unknown, never congested or clean.
  infer::DataQuality quality;
  TimeSec t0 = 0;
  int days = 0;
  AutocorrConfig config;

  // True when `t` falls in a 15-minute interval classified congested: the
  // link shows recurring congestion, t lies inside the recurring window,
  // and that day actually contributed elevation. `near_min` is
  // GridMin(near), computed once per grid by the caller.
  bool IntervalCongested(TimeSec t, const infer::DayGrid& far,
                         const infer::DayGrid& near, double near_min) const;

  // Convenience: same decision using only day/window membership and the
  // day's congested flag (no per-interval elevation check). Coarser; used
  // where the paper aggregates per-day.
  bool DayCongested(TimeSec t) const;
};

// Smallest present value in `grid` (1e18 when every bin is missing): the
// baseline of IntervalCongested's near-side exclusion.
double GridMin(const infer::DayGrid& grid);

// Loads the far/near grids for one (vp, link far address) from `db`.
struct LinkGrids {
  infer::DayGrid far;
  infer::DayGrid near;
};
LinkGrids LoadGrids(const tsdb::Database& db, const std::string& vp_name,
                    Ipv4Addr far_addr, TimeSec t0, int days,
                    const AutocorrConfig& config = {});

// Full pipeline: load grids and run the batch autocorrelation analysis.
LinkInference InferLink(const tsdb::Database& db, const std::string& vp_name,
                        Ipv4Addr far_addr, TimeSec t0, int days,
                        const AutocorrConfig& config = {});

}  // namespace manic::analysis
