// Serving-plane quickstart: MANIC as a service. Starts the congestion
// daemon on an ephemeral loopback port, streams two weeks of synthetic
// TSLP samples for two interdomain links into it over the wire protocol,
// and queries live verdicts, data quality, and service stats back — the
// smallest end-to-end tour of src/serve.
//
//   $ ./example_serve_quickstart
//
// Expected outcome: link 1 (evening congestion every day) is flagged
// recurring and congested on every post-window day; link 2 (clean) never
// is. All analysis output is deterministic; the chosen port (environmental)
// goes to stderr.
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "serve/daemon.h"
#include "serve/service.h"
#include "stats/calendar.h"
#include "stats/rng.h"

using namespace manic;

namespace {

// One day of hourly far/near samples for a link as one VP sees it. The far
// side of a congested link is elevated 18:00-21:00; ~3% of slots are lost
// and reported as probed-but-missing markers.
void AppendDay(topo::LinkId link, topo::VpId vp, std::int64_t day,
               bool congested, std::vector<serve::Sample>* out) {
  for (int hour = 0; hour < 24; ++hour) {
    const stats::TimeSec t = day * stats::kSecPerDay + hour * 3600 + 1800;
    if (stats::Rng::HashToUnit(link * 31 + vp, day * 24 + hour) < 0.03) {
      out->push_back({t, link, vp, serve::SampleKind::kFarMissing, 0.0f});
      out->push_back({t, link, vp, serve::SampleKind::kNearMissing, 0.0f});
      continue;
    }
    const double base =
        20.0 + stats::Rng::HashToUnit(link, day * 24 + hour, 7);
    const bool peak = congested && hour >= 18 && hour < 21;
    out->push_back({t, link, vp, serve::SampleKind::kFarRtt,
                    static_cast<float>(base + (peak ? 25.0 : 0.0))});
    out->push_back({t, link, vp, serve::SampleKind::kNearRtt,
                    static_cast<float>(base * 0.4)});
  }
}

}  // namespace

int main() {
  // 1. The service: two ingest shards, a one-week rolling window over
  //    hourly bins (small enough that two weeks of stream yield verdicts).
  serve::ServiceConfig config;
  config.shards = 2;
  config.engine.autocorr.window_days = 7;
  config.engine.autocorr.intervals_per_day = 24;
  config.engine.autocorr.bin_width = 3600;
  config.engine.autocorr.min_elevated_days = 4;
  config.engine.autocorr.quality.min_days_observed = 5;
  config.engine.autocorr.quality.max_gap_intervals = 2 * 24;
  serve::CongestionService service(config);
  service.Start();

  // 2. The daemon: ephemeral port on 127.0.0.1, event loop on its own
  //    thread. The port is environmental, so it goes to stderr.
  serve::TcpDaemon daemon(&service);
  if (!daemon.Listen(0)) {
    std::fprintf(stderr, "failed to bind a loopback port\n");
    return 1;
  }
  std::fprintf(stderr, "daemon listening on 127.0.0.1:%u\n", daemon.port());
  std::thread loop([&] { daemon.Run(); });

  // 3. A measurement shard: stream 14 days for both links, one submit
  //    batch per day, over the wire.
  serve::BlockingClient client;
  if (!client.Connect(daemon.port())) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }
  std::printf("connected; server runs %u ingest shard(s)\n",
              client.server_shards());
  constexpr int kDays = 14;
  std::vector<serve::Sample> batch;
  for (std::int64_t day = 0; day < kDays; ++day) {
    batch.clear();
    AppendDay(/*link=*/1, /*vp=*/1, day, /*congested=*/true, &batch);
    AppendDay(/*link=*/2, /*vp=*/1, day, /*congested=*/false, &batch);
    if (!client.Submit(batch)) {
      std::fprintf(stderr, "submit failed\n");
      return 1;
    }
  }
  const auto last_day = client.Flush();  // close through the watermark
  if (!last_day) {
    std::fprintf(stderr, "flush failed\n");
    return 1;
  }
  std::printf("streamed %d days; daemon closed through day %lld\n\n", kDays,
              static_cast<long long>(*last_day));

  // 4. Live queries: range over the whole study, then a point-in-time
  //    verdict and the PR-5 data-quality grade per link.
  for (const topo::LinkId link : {1u, 2u}) {
    const auto range =
        client.QueryRange(link, 0, kDays * stats::kSecPerDay);
    int congested_days = 0;
    if (range) {
      for (const auto& v : *range) congested_days += v.congested ? 1 : 0;
    }
    const auto point =
        client.QueryPoint(link, (kDays - 1) * stats::kSecPerDay);
    const auto quality = client.QueryQuality(link);
    std::printf("link %u: %zu verdict days, %d congested\n", link,
                range ? range->size() : 0, congested_days);
    if (point) {
      std::printf("  latest: %s", serve::FormatVerdictLine(*point).c_str());
    }
    if (quality) {
      std::printf(
          "  quality: far coverage %.3f, longest gap %d bins, %d/%d days\n",
          quality->far_coverage_frac, quality->longest_gap_intervals,
          quality->days_observed, quality->total_days);
    }
  }

  const auto stats = client.QueryStats();
  if (stats) {
    std::printf(
        "\nservice: %llu samples in, %llu verdict rows, %llu links, "
        "across %u shards\n",
        static_cast<unsigned long long>(stats->samples),
        static_cast<unsigned long long>(stats->verdicts),
        static_cast<unsigned long long>(stats->links), stats->shards);
  }

  client.Close();
  daemon.Shutdown();
  loop.join();
  service.Stop();
  return 0;
}
