// The study workload and the study-side layer pass.
//
// study  RunLongitudinalStudy on MakeUsBroadband over the full 22-month
//        window, 2 pool threads, with a shard checkpoint log; then a resume
//        of the finished study from that log on a fresh world (the batch
//        side's restart). Every seed uses the default world (the study's
//        1,205 VP-link pairs over 458 links, so the amount of work does not
//        change with the seed); seed n runs the study with seed 99+n, which
//        picks the visibility churn and every pair's measurement noise.
//        Seed 0 is the EXPERIMENTS.md study.
//        Before the units, bdrmap discovery is timed per VP on fresh worlds:
//        those are the workload's per-request latencies.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "digests.h"
#include "infer/rolling.h"
#include "runtime/metrics.h"
#include "scenario/driver.h"
#include "stats/calendar.h"
#include "stats/rng.h"

namespace perfbench {

namespace fs = std::filesystem;
using manic::scenario::UsBroadband;

namespace {

constexpr std::size_t kWorldBuilds = 7;  // set-up repetitions per run
constexpr int kStudyThreads = 2;         // + the helping caller = 3 cores
// 29 VPs x kMinUnits worlds = 87 discovery requests: p85 keeps 13 beyond.
constexpr double kDiscoverTailPct = 85.0;

manic::scenario::StudyOptions StudyOptionsFor(const Args& args) {
  manic::scenario::StudyOptions o;
  o.seed = 99 + args.seed;
  o.runtime.threads = kStudyThreads;
  if (args.tiny) {
    o.days = 120;
    o.max_vps = 3;
  }
  return o;
}

int StudyDays(const Args& args) {
  const int days = StudyOptionsFor(args).days;
  return days > 0 ? days : static_cast<int>(manic::stats::StudyTotalDays());
}

std::size_t VpCount(const Args& args, const UsBroadband& world) {
  const std::size_t max_vps = StudyOptionsFor(args).max_vps;
  return max_vps > 0 && max_vps < world.vps.size() ? max_vps
                                                   : world.vps.size();
}

manic::stats::TimeSec DiscoveryTime(const Args& args) {
  return -static_cast<manic::stats::TimeSec>(StudyOptionsFor(args).warmup_days) *
             manic::stats::kSecPerDay +
         9 * manic::stats::kSecPerHour;
}

// Order-sensitive hash of the day-link verdict stream.
std::uint64_t FoldRecord(std::uint64_t h,
                         const manic::analysis::DayLinkRecord& r) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &r.fraction, sizeof(bits));
  h = manic::stats::Rng::HashMix(h, static_cast<std::uint64_t>(r.day),
                                 r.link_key);
  h = manic::stats::Rng::HashMix(h, (static_cast<std::uint64_t>(r.access) << 32) |
                                        r.tcp,
                                 bits);
  return manic::stats::Rng::HashMix(h, r.observed ? 1 : 0);
}

// Reads one phase's field ("wall_s" / "cpu_s") out of Metrics::Json().
double PhaseField(const std::string& json, const char* phase,
                  const char* field) {
  const std::string key = std::string("\"name\":\"") + phase + "\"";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return 0.0;
  const std::string fkey = std::string("\"") + field + "\":";
  const std::size_t f = json.find(fkey, at);
  return f == std::string::npos
             ? 0.0
             : std::strtod(json.c_str() + f + fkey.size(), nullptr);
}

struct StudyRun {
  manic::scenario::StudyResult result;
  std::uint64_t digest = 0;
  std::uint64_t records = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

StudyRun RunOnce(const Args& args, UsBroadband& world,
                 manic::runtime::Metrics* metrics,
                 const std::string& checkpoint) {
  StudyRun run;
  manic::scenario::StudyOptions options = StudyOptionsFor(args);
  options.runtime.metrics = metrics;
  options.checkpoint_path = checkpoint;
  options.on_day_link = [&run](const manic::analysis::DayLinkRecord& r) {
    run.digest = FoldRecord(run.digest, r);
    ++run.records;
  };
  const double c0 = CpuNow(), w0 = Now();
  run.result = manic::scenario::RunLongitudinalStudy(world, options);
  run.wall_s = Now() - w0;
  run.cpu_s = CpuNow() - c0;
  return run;
}

void CheckStudy(const Args& args, const StudyRun& run, Result& out) {
  std::uint64_t digest = run.digest;
  if (args.corrupt == "digest") digest ^= 1;
  if (const std::uint64_t* want = RecordedDigest(args.seed, args.tiny)) {
    out.Check(digest == *want, "day-link verdict digest differs from the "
                               "digest recorded for this seed");
  }
  if (args.tiny) return;
  // EXPERIMENTS.md §5.4: no false positives, 99.7% day-link accuracy.
  const manic::scenario::StudyResult& r = run.result;
  out.Check(r.truth_fp == 0 && r.TruthAccuracy() >= 0.997,
            "ground-truth confusion below the EXPERIMENTS.md 5.4 level");
}

void PrintStudyInput(const Args& args, const StudyRun& run,
                     const std::map<manic::topo::LinkId, int>& vps_per_link,
                     const UsBroadband& world) {
  std::map<int, int> hist;
  for (const auto& [link, vps] : vps_per_link) ++hist[vps];
  std::string h;
  for (const auto& [vps, links] : hist) {
    if (!h.empty()) h += ',';
    h += std::to_string(vps) + ":" + std::to_string(links);
  }
  double missing = 0.0;
  for (const auto& [link, q] : run.result.link_quality) {
    missing += 1.0 - q.far_coverage_frac;
  }
  if (!run.result.link_quality.empty()) {
    missing /= static_cast<double>(run.result.link_quality.size());
  }
  int congested = 0;
  for (const auto& info : world.interdomain) {
    congested += info.scheduled_congested ? 1 : 0;
  }
  const manic::scenario::StudyResult& r = run.result;
  std::printf(
      "input study: seed=%llu pairs=%zu links=%zu vps_per_link={%s} "
      "missing_bin_share=%.4f congested_link_share=%.3f digest=%016llx\n",
      static_cast<unsigned long long>(args.seed), r.vp_link_pairs,
      r.links_observed, h.c_str(), missing,
      world.interdomain.empty()
          ? 0.0
          : static_cast<double>(congested) /
                static_cast<double>(world.interdomain.size()),
      static_cast<unsigned long long>(run.digest));
  std::printf("study truth: tp=%lld fp=%lld fn=%lld tn=%lld accuracy=%.5f\n",
              r.truth_tp, r.truth_fp, r.truth_fn, r.truth_tn,
              r.TruthAccuracy());
}

}  // namespace

Result RunStudy(const Args& args, Tracer& tracer) {
  Result out;
  std::vector<double> setup_s;
  const auto build_world = [&] {
    const double t0 = Now();
    UsBroadband world = manic::scenario::MakeUsBroadband();
    setup_s.push_back(Now() - t0);
    return world;
  };
  {
    Tracer::Scope span(tracer, "study.setup");
    for (std::size_t i = 0; i < kWorldBuilds; ++i) (void)build_world();
  }

  // ---- bdrmap discovery per VP, each world fresh: the per-request latencies.
  // Run before any study, so every request starts from the same process
  // state instead of from whatever the previous study left in the heap.
  std::vector<double> discover_ms;
  std::map<manic::topo::LinkId, int> vps_per_link;
  for (std::size_t k = 0; k < kMinUnits; ++k) {
    UsBroadband world = build_world();
    const std::size_t vps = VpCount(args, world);
    for (std::size_t i = 0; i < vps; ++i) {
      Tracer::Scope span(tracer, "study.discover_vp", world.vps[i]);
      const double t0 = Now();
      const auto links = manic::scenario::DiscoverVpLinks(world, world.vps[i],
                                                          DiscoveryTime(args));
      discover_ms.push_back((Now() - t0) * 1e3);
      if (k == 0) {
        for (const auto& dl : links) ++vps_per_link[dl.info->link];
      }
    }
  }

  // close_ms: the batch counterpart of the service's day close, the classify
  // phase's wall time per study day.
  std::vector<double> wall_s, cpu_s, rate, recover_s, close_ms;
  std::uint64_t disk_bytes = 0;
  const std::string checkpoint = args.work_dir + "/study.ckpt";
  const double t_start = Now();
  double last_unit = 0.0;
  for (std::size_t unit = 0;
       MoreUnits(unit, Now() - t_start, last_unit, args.seconds); ++unit) {
    const double unit_t0 = Now();
    const bool traced = args.trace && unit % 2 == 1;
    tracer.set_enabled(traced);
    Tracer::Scope unit_span(tracer, "study.unit", unit);

    // ---- the study, checkpointed ----------------------------------------------
    fs::remove(checkpoint);
    manic::runtime::Metrics metrics;
    UsBroadband world = build_world();
    StudyRun run;
    {
      Tracer::Scope span(tracer, "study.run", unit);
      run = RunOnce(args, world, &metrics, checkpoint);
    }
    wall_s.push_back(run.wall_s);
    cpu_s.push_back(run.cpu_s);
    rate.push_back(static_cast<double>(run.records) / run.wall_s);
    close_ms.push_back(PhaseField(metrics.Json(), "classify", "wall_s") * 1e3 /
                       static_cast<double>(StudyDays(args)));
    std::error_code ec;
    disk_bytes = fs::file_size(checkpoint, ec);
    out.attempted += metrics.shards();
    CheckStudy(args, run, out);
    if (unit == 0) PrintStudyInput(args, run, vps_per_link, world);

    // ---- restart: resume the finished study from its checkpoint log --------
    {
      Tracer::Scope span(tracer, "study.resume", unit);
      UsBroadband fresh = build_world();
      const StudyRun resumed = RunOnce(args, fresh, nullptr, checkpoint);
      recover_s.push_back(resumed.wall_s);
      out.Check(resumed.digest == run.digest && resumed.records == run.records,
                "study resumed from its checkpoint log differs from the run "
                "that wrote it");
    }
    fs::remove(checkpoint);
    last_unit = Now() - unit_t0;
    (traced ? out.traced_unit_s : out.untraced_unit_s).push_back(run.wall_s);
  }
  tracer.set_enabled(args.trace);

  const double tail = Percentile(discover_ms, kDiscoverTailPct);
  std::printf("study: units=%zu discover_requests=%zu tail=p%g beyond=%zu\n",
              wall_s.size(), discover_ms.size(), kDiscoverTailPct,
              Beyond(discover_ms, kDiscoverTailPct));
  std::printf("study units wall_s: %s\n", Summary(wall_s).c_str());
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("wall_s", Median(wall_s), "s");
  out.Add("cpu_s", Median(cpu_s), "s");
  out.Add("rss_mb", PeakRssMb(), "MiB");
  out.Add("rate_per_s", Median(rate), "1/s");
  out.Add("p50_ms", Median(discover_ms), "ms");
  out.Add("tail_ms", tail, "ms");
  out.Add("close_ms", Median(close_ms), "ms");
  out.Add("recover_s", Median(recover_s), "s");
  out.Add("disk_mb", static_cast<double>(disk_bytes) / (1024.0 * 1024.0),
          "MiB");
  return out;
}

// ---- study layer pass (traced runs) --------------------------------------------

void StudyLayerPass(const Args& args, Tracer& tracer, Result& out) {
  Tracer::Scope layer_span(tracer, "layers.study");
  UsBroadband world = manic::scenario::MakeUsBroadband();

  // bdrmap discovery per VP; keep a fixed sample of pairs for synthesis.
  struct Pair {
    manic::topo::VpId vp;
    manic::scenario::DiscoveredLink link;
  };
  std::vector<Pair> sample;
  constexpr std::size_t kPairsPerVp = 2, kSamplePairs = 16;
  const std::size_t vps = VpCount(args, world);
  for (std::size_t i = 0; i < vps; ++i) {
    std::vector<manic::scenario::DiscoveredLink> links;
    {
      Tracer::Scope s(tracer, "scenario.discover", world.vps[i]);
      links = manic::scenario::DiscoverVpLinks(world, world.vps[i],
                                               DiscoveryTime(args));
    }
    for (std::size_t k = 0; k < links.size() && k < kPairsPerVp &&
                            sample.size() < kSamplePairs;
         ++k) {
      sample.push_back({world.vps[i], links[k]});
    }
  }
  out.Add("scenario.discover_s", tracer.Of("scenario.discover").total_s, "s");
  out.Add("bdrmap.probes", static_cast<double>(world.net->ProbesSent()),
          "count");

  // Synthesis and rolling classification per pair-day, single thread.
  const manic::infer::AutocorrConfig autocorr;
  const int warmup = StudyOptionsFor(args).warmup_days;
  const int days = args.tiny ? 30 : 150;
  std::uint64_t pair_days = 0, classifies = 0;
  std::vector<float> far, near;
  for (const Pair& p : sample) {
    const manic::scenario::TslpSynthesizer synth(
        *world.net, p.vp, p.link.info->link, p.link.base_far_ms,
        p.link.base_near_ms,
        manic::stats::Rng::HashMix(args.seed, p.vp, p.link.info->link));
    manic::infer::RollingAutocorr rolling(autocorr);
    for (int day = -warmup; day < days; ++day, ++pair_days) {
      {
        Tracer::Scope s(tracer, "scenario.synth");
        synth.Day(day, far, near);
      }
      {
        Tracer::Scope s(tracer, "infer.add_day");
        rolling.AddDay(far, near);
      }
      if (!rolling.WindowFull()) continue;
      Tracer::Scope s(tracer, "infer.classify");
      (void)rolling.Classify();
      ++classifies;
    }
  }
  const auto per = [&](const char* name, double n) {
    return n > 0 ? tracer.Of(name).total_s * 1e6 / n : 0.0;
  };
  out.Add("scenario.synth_us",
          per("scenario.synth", static_cast<double>(pair_days)), "us");
  out.Add("infer.add_day_us",
          per("infer.add_day", static_cast<double>(pair_days)), "us");
  out.Add("infer.classify_us",
          per("infer.classify", static_cast<double>(classifies)), "us");

  // One study with the runtime::Metrics sink: the phase table and pool
  // counters.
  manic::runtime::Metrics metrics;
  {
    Tracer::Scope s(tracer, "scenario.study");
    UsBroadband fresh = manic::scenario::MakeUsBroadband();
    (void)RunOnce(args, fresh, &metrics, "");
  }
  const std::string phases = metrics.Json();
  const double classify_wall = PhaseField(phases, "classify", "wall_s");
  const double classify_cpu = PhaseField(phases, "classify", "cpu_s");
  out.Add("scenario.classify_s", classify_wall, "s");
  out.Add("scenario.classify_cpu_s", classify_cpu, "s");
  out.Add("analysis.aggregate_s", PhaseField(phases, "aggregate", "wall_s"),
          "s");
  out.Add("scenario.truth_s", PhaseField(phases, "truth", "wall_s"), "s");
  out.Add("runtime.tasks", static_cast<double>(metrics.tasks()), "count");
  out.Add("runtime.steals", static_cast<double>(metrics.steals()), "count");
  out.Add("runtime.peak_queue", static_cast<double>(metrics.peak_queue_depth()),
          "count");
  out.Add("runtime.cpu_per_wall",
          classify_wall > 0 ? classify_cpu / classify_wall : 0.0, "ratio");
}

}  // namespace perfbench
