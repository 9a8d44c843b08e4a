// Umbrella header for the MANIC library: a C++20 reproduction of
// "Inferring Persistent Interdomain Congestion" (SIGCOMM 2018).
//
// Layering (each header is also usable on its own):
//
//   stats/    — time series, RNG, descriptive statistics, hypothesis tests
//   tsdb/     — tagged time-series database + public query API
//   topo/     — IPv4/prefixes/trie, AS registries, routers/links/topologies
//   sim/      — the live-Internet substitute: routing, demand, queues, ICMP
//   probe/    — ping / Paris traceroute / probing budgets
//   bdrmap/   — border mapping + MAP-IT-style remote borders
//   tslp/     — the TSLP probing scheduler
//   lossprobe/— high-frequency loss measurement
//   ndt/      — NDT-style throughput tests
//   ytstream/ — YouTube-style streaming emulation
//   infer/    — level-shift + autocorrelation congestion inference
//   analysis/ — validation harnesses, day-link aggregation, reports
//   scenario/ — ready-made worlds (small test world, U.S. broadband study)
//   serve/    — streaming ingest daemon + live query plane (MANIC-as-a-service)
#pragma once

#include "analysis/classify.h"
#include "analysis/daylink.h"
#include "analysis/loss_validation.h"
#include "analysis/path_signature.h"
#include "analysis/report.h"
#include "bdrmap/bdrmap.h"
#include "bdrmap/mapit.h"
#include "infer/autocorr.h"
#include "infer/data_quality.h"
#include "infer/level_shift.h"
#include "infer/rolling.h"
#include "infer/streaming.h"
#include "lossprobe/lossprobe.h"
#include "ndt/ndt.h"
#include "probe/probe.h"
#include "scenario/driver.h"
#include "scenario/small.h"
#include "scenario/us_broadband.h"
#include "serve/codec.h"
#include "serve/daemon.h"
#include "serve/engine.h"
#include "serve/ingest.h"
#include "serve/ring.h"
#include "serve/sample.h"
#include "serve/service.h"
#include "serve/session.h"
#include "serve/verdict.h"
#include "sim/demand.h"
#include "sim/link_model.h"
#include "sim/network.h"
#include "sim/packet_queue.h"
#include "sim/routing.h"
#include "stats/calendar.h"
#include "stats/descriptive.h"
#include "stats/rng.h"
#include "stats/special.h"
#include "stats/tests.h"
#include "stats/timeseries.h"
#include "topo/as_registry.h"
#include "topo/ipv4.h"
#include "topo/prefix_trie.h"
#include "topo/topology.h"
#include "tsdb/query_api.h"
#include "tsdb/tsdb.h"
#include "tslp/tslp.h"
#include "ytstream/ytstream.h"
