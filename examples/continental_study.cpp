// Continental study: drive the full U.S. broadband ecosystem for a
// configurable number of days and print a live-style report — the kind of
// rollup the paper's Grafana dashboards served. Usage:
//
//   ./example_continental_study [days] [max_vps] [threads]
//       [--faults <plan.txt>] [--checkpoint <log>]
//
// Defaults to 150 days from 6 VPs so it finishes in a few seconds.
// threads = 0 (or MANIC_THREADS when the argument is absent) uses every
// hardware thread; the day-link tables are bit-identical at any count.
//
// --faults loads a deterministic fault plan (see examples/fault_plans/) and
// runs the study under it; stdout stays bit-identical at any thread count,
// faults included. --checkpoint appends per-shard results to a log a killed
// run resumes from byte-identically.
//
// --serve replays the study's measurement stream through the live serving
// plane (src/serve) and cross-checks every daemon verdict and quality grade
// against the batch result, exiting 1 on any mismatch — the batch/live
// parity gate. --serve-shards sets the daemon's ingest shard count (the
// verdict log must be byte-identical at any value), and --verdict-log
// writes the canonical log. --wal-dir (implies --serve) runs the parity
// pass crash-safe: every consumed sample is write-ahead logged under the
// directory, a prior incarnation's log is replayed first, and the run ends
// with the clean-shutdown marker. The WAL is also the stream's recording:
// a fresh service's RecoverFromWal replays it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report.h"
#include "runtime/metrics.h"
#include "runtime/parse.h"
#include "scenario/driver.h"
#include "serve/service.h"
#include "sim/faults/fault_plan.h"
#include "stats/calendar.h"

using namespace manic;

namespace {

// Replays the batch study's exact measurement rows through a fresh
// CongestionService and cross-checks live verdicts and quality grades
// against the batch output. Returns false on any divergence.
bool RunServeParity(const scenario::StudyOptions& options,
                    const scenario::StudyResult& batch,
                    const std::map<std::pair<std::int64_t, std::uint64_t>,
                                   analysis::DayLinkRecord>& batch_records,
                    int shards, const std::string& verdict_log_path,
                    const std::string& wal_dir) {
  serve::ServiceConfig config;
  config.shards = shards;
  config.engine.autocorr = options.autocorr;
  config.wal_dir = wal_dir;  // non-empty = crash-safe run (--wal-dir)
  serve::CongestionService service(config);
  service.Start();
  if (!wal_dir.empty()) {
    const serve::WalRecoverStats recovered = service.RecoverFromWal();
    if (!recovered.ok) {
      std::fprintf(stderr, "wal recovery failed under %s: %s\n",
                   wal_dir.c_str(), recovered.error.c_str());
      return false;
    }
    if (recovered.samples != 0) {
      std::fprintf(stderr, "wal: replayed %llu samples, %llu day closes\n",
                   static_cast<unsigned long long>(recovered.samples),
                   static_cast<unsigned long long>(recovered.closes));
    }
  }

  // The export needs a fresh world: discovery mutates the network's RNG and
  // path cache, so the batch world cannot be reused.
  scenario::UsBroadband world = scenario::MakeUsBroadband();
  const stats::TimeSec bin = options.autocorr.bin_width;
  std::vector<serve::Sample> batch_samples;
  std::uint64_t dropped = 0;
  scenario::ExportStudyStream(
      world, options,
      [&](topo::VpId vp, topo::LinkId link, std::int64_t day,
          std::span<const float> far, std::span<const float> near) {
        batch_samples.clear();
        for (std::size_t s = 0; s < far.size(); ++s) {
          const stats::TimeSec t = day * stats::kSecPerDay +
                                   static_cast<stats::TimeSec>(s) * bin +
                                   bin / 2;
          batch_samples.push_back(
              {t, link, vp,
               std::isnan(far[s]) ? serve::SampleKind::kFarMissing
                                  : serve::SampleKind::kFarRtt,
               std::isnan(far[s]) ? 0.0f : far[s]});
          batch_samples.push_back(
              {t, link, vp,
               std::isnan(near[s]) ? serve::SampleKind::kNearMissing
                                   : serve::SampleKind::kNearRtt,
               std::isnan(near[s]) ? 0.0f : near[s]});
        }
        const serve::SubmitSummary sub = service.SubmitBatch(batch_samples);
        dropped += sub.late + sub.rejected;
      });
  service.FinishStream();
  if (dropped != 0) {
    // A batch sample the service refuses would silently fake a divergence
    // further down; fail loudly at the point of loss instead.
    std::fprintf(stderr, "serve parity: %llu samples dropped at admission\n",
                 static_cast<unsigned long long>(dropped));
    return false;
  }

  // Verdict parity: every batch day-link record must have a matching live
  // verdict (exact counts and flags, fraction to 1e-9) and vice versa.
  std::size_t matched = 0;
  bool ok = true;
  std::map<std::uint64_t, std::size_t> live_per_link;
  for (const auto& [key, record] : batch_records) {
    const auto live = service.QueryPoint(
        static_cast<topo::LinkId>(record.link_key),
        key.first * stats::kSecPerDay);
    if (!live.has_value() || live->day != record.day) {
      std::fprintf(stderr, "parity: no live verdict for day %lld link %llu\n",
                   static_cast<long long>(record.day),
                   static_cast<unsigned long long>(record.link_key));
      ok = false;
      continue;
    }
    if (std::fabs(live->fraction - record.fraction) > 1e-9 ||
        live->congested !=
            (record.fraction >= analysis::kDayLinkThreshold)) {
      std::fprintf(stderr,
                   "parity: day %lld link %llu live frac %.12f vs batch "
                   "%.12f\n",
                   static_cast<long long>(record.day),
                   static_cast<unsigned long long>(record.link_key),
                   live->fraction, record.fraction);
      ok = false;
      continue;
    }
    ++matched;
    ++live_per_link[record.link_key];
  }
  for (const auto& [link, expected_rows] : live_per_link) {
    const auto rows = service.QueryRange(
        static_cast<topo::LinkId>(link),
        std::numeric_limits<stats::TimeSec>::min() / 2,
        std::numeric_limits<stats::TimeSec>::max() / 2);
    if (rows.size() != expected_rows) {
      std::fprintf(stderr,
                   "parity: link %llu has %zu live verdicts, %zu in batch\n",
                   static_cast<unsigned long long>(link), rows.size(),
                   expected_rows);
      ok = false;
    }
  }

  // Quality parity: integer fields exact, coverage fractions to 1e-9.
  std::size_t quality_matched = 0;
  for (const auto& [link, bq] : batch.link_quality) {
    const auto lq = service.QueryQuality(link);
    if (!lq.has_value()) {
      std::fprintf(stderr, "parity: no live quality for link %llu\n",
                   static_cast<unsigned long long>(link));
      ok = false;
      continue;
    }
    if (lq->longest_gap_intervals != bq.longest_gap_intervals ||
        lq->days_observed != bq.days_observed ||
        lq->total_days != bq.total_days ||
        lq->vp_churn_events != bq.vp_churn_events ||
        std::fabs(lq->far_coverage_frac - bq.far_coverage_frac) > 1e-9 ||
        std::fabs(lq->near_coverage_frac - bq.near_coverage_frac) > 1e-9) {
      std::fprintf(stderr, "parity: quality mismatch for link %llu\n",
                   static_cast<unsigned long long>(link));
      ok = false;
    } else {
      ++quality_matched;
    }
  }

  if (!verdict_log_path.empty()) {
    std::FILE* f = std::fopen(verdict_log_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open --verdict-log %s\n",
                   verdict_log_path.c_str());
      ok = false;
    } else {
      const std::string log = service.VerdictLogText();
      std::fwrite(log.data(), 1, log.size(), f);
      std::fclose(f);
    }
  }

  std::printf("\n=== Serving-plane parity ===\n");
  std::printf("live verdicts matched: %zu/%zu day-link records\n", matched,
              batch_records.size());
  std::printf("quality grades matched: %zu/%zu links\n", quality_matched,
              batch.link_quality.size());
  std::printf("parity: %s\n", ok ? "OK" : "FAILED");
  if (!wal_dir.empty() &&
      service.CloseWalClean() != serve::WalStatus::kOk) {
    std::fprintf(stderr, "wal clean close failed under %s\n",
                 wal_dir.c_str());
    ok = false;
  }
  service.Stop();
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string faults_path, checkpoint_path;
  std::string verdict_log_path, wal_dir;
  bool serve_mode = false;
  bool args_ok = true;
  int serve_shards = 1;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--faults" && i + 1 < argc) {
      faults_path = argv[++i];
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      checkpoint_path = argv[++i];
    } else if (arg == "--serve") {
      serve_mode = true;
    } else if (arg == "--serve-shards" && i + 1 < argc) {
      serve_shards = runtime::ParseBoundedInt(argv[++i], 1, 256, &args_ok);
      serve_mode = true;
    } else if (arg == "--verdict-log" && i + 1 < argc) {
      verdict_log_path = argv[++i];
    } else if (arg == "--wal-dir" && i + 1 < argc) {
      wal_dir = argv[++i];
      serve_mode = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: %s [days] [max_vps] [threads] "
                   "[--faults <plan.txt>] [--checkpoint <log>] [--serve] "
                   "[--serve-shards N] [--verdict-log <path>] "
                   "[--wal-dir <dir>]\n",
                   arg.c_str(), argv[0]);
      return 2;
    } else {
      positional.push_back(argv[i]);
    }
  }
  scenario::StudyOptions options;
  options.days = positional.size() > 0
                     ? runtime::ParseBoundedInt(positional[0], 1, 100000,
                                                &args_ok)
                     : 150;
  options.max_vps =
      positional.size() > 1
          ? static_cast<std::size_t>(
                runtime::ParseBoundedInt(positional[1], 1, 10000, &args_ok))
          : 6;
  options.runtime = runtime::RuntimeOptions::FromEnv(/*default_threads=*/0);
  if (positional.size() > 2) {
    options.runtime.threads =
        runtime::ParseBoundedInt(positional[2], 0, 4096, &args_ok);
  }
  if (!args_ok) {
    std::fprintf(stderr,
                 "bad numeric argument\nusage: %s [days] [max_vps] [threads] "
                 "[--faults <plan.txt>] [--checkpoint <log>] [--serve] "
                 "[--serve-shards N] [--verdict-log <path>] "
                 "[--wal-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  options.checkpoint_path = checkpoint_path;
  runtime::Metrics metrics;
  options.runtime.metrics = &metrics;
  // Live progress on stderr (the driver itself never prints).
  options.progress = [](const scenario::StudyProgress& p) {
    std::fprintf(stderr, "\r%-9s %zu/%zu", p.phase, p.done, p.total);
    if (p.done == p.total) std::fputc('\n', stderr);
  };

  sim::faults::FaultPlan plan;
  if (!faults_path.empty()) {
    std::string error;
    const auto parsed = sim::faults::FaultPlan::ParseFile(faults_path, &error);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "failed to load fault plan %s: %s\n",
                   faults_path.c_str(), error.c_str());
      return 2;
    }
    plan = *parsed;
    for (const std::string& warning : plan.Validate()) {
      std::fprintf(stderr, "fault plan warning: %s\n", warning.c_str());
    }
    options.fault_plan = &plan;
  }

  // Thread count goes to stderr: stdout must be byte-identical at any -j.
  std::fprintf(stderr, "running with %d threads\n",
               options.runtime.ResolvedThreads());
  std::printf("=== Continental study: %d days, %zu VPs ===\n",
              options.days, options.max_vps == 0 ? 29 : options.max_vps);
  if (!faults_path.empty()) {
    std::printf("fault plan: %zu events\n", plan.events().size());
  }
  // In serve mode, capture the batch pipeline's exact per-record verdict
  // stream for the live cross-check (DayLinkTable only keeps aggregates).
  std::map<std::pair<std::int64_t, std::uint64_t>, analysis::DayLinkRecord>
      batch_records;
  if (serve_mode) {
    options.on_day_link = [&](const analysis::DayLinkRecord& r) {
      batch_records[{r.day, r.link_key}] = r;
    };
  }

  scenario::UsBroadband world = scenario::MakeUsBroadband();
  const scenario::StudyResult result =
      scenario::RunLongitudinalStudy(world, options);

  std::printf("\nDiscovered %zu VP-link pairs over %zu links; %lld day-link "
              "records; truth accuracy %.2f%%\n\n",
              result.vp_link_pairs, result.links_observed,
              static_cast<long long>(result.day_links.TotalRecords()),
              100.0 * result.TruthAccuracy());

  analysis::TextTable table({"Access", "T&CP", "%cong. day-links",
                             "monthly trend"});
  for (const topo::Asn access : result.day_links.AccessNetworks()) {
    for (const topo::Asn tcp : result.day_links.TcpsOf(access)) {
      const auto& stats = result.day_links.Pairs().at({access, tcp});
      if (stats.PercentCongested() < 0.5) continue;
      table.AddRow({world.AsName(access), world.AsName(tcp),
                    analysis::TextTable::Fmt(stats.PercentCongested()),
                    analysis::Sparkline(
                        result.day_links.MonthlyCongestedPct(access, tcp))});
    }
  }
  std::puts("Pairs with >= 0.5% congested day-links:");
  std::fputs(table.Render().c_str(), stdout);

  // Data-quality rollup: every measured link gets a verdict; the table
  // itemizes only the degraded ones (low coverage, long gaps, VP churn) so
  // a clean run prints a one-line summary. LinkId-keyed map iteration keeps
  // the listing deterministic.
  const infer::DataQualityConfig quality_config;
  std::size_t acceptable = 0;
  analysis::TextTable quality_table({"Link", "Access", "T&CP", "far cov%",
                                     "near cov%", "max gap", "days",
                                     "churn"});
  for (const auto& [link, q] : result.link_quality) {
    if (q.Acceptable(quality_config)) {
      ++acceptable;
      continue;
    }
    const scenario::InterLinkInfo* info = world.FindLink(link);
    quality_table.AddRow(
        {std::to_string(link),
         info != nullptr ? world.AsName(info->access) : "?",
         info != nullptr ? world.AsName(info->tcp) : "?",
         analysis::TextTable::Fmt(100.0 * q.far_coverage_frac),
         analysis::TextTable::Fmt(100.0 * q.near_coverage_frac),
         std::to_string(q.longest_gap_intervals),
         std::to_string(q.days_observed) + "/" + std::to_string(q.total_days),
         std::to_string(q.vp_churn_events)});
  }
  std::printf("\nData quality: %zu/%zu links acceptable\n", acceptable,
              result.link_quality.size());
  if (acceptable != result.link_quality.size()) {
    std::puts("Degraded links (inference rejected as kLowCoverage):");
    std::fputs(quality_table.Render().c_str(), stdout);
  }
  std::fputs(metrics.Report().c_str(), stderr);

  if (serve_mode) {
    if (!RunServeParity(options, result, batch_records, serve_shards,
                        verdict_log_path, wal_dir)) {
      return 1;
    }
  }
  return 0;
}
