// The serve-side workloads and layer pass.
//
// ingest  A closed loop on one connection: a BlockingClient replays the
//         seeded stream, one pair-day batch per request, to a TcpDaemon over
//         a CongestionService (shards=2, WAL on, every other setting at its
//         default). After the stream a fresh service recovers from the WAL
//         and its verdict log must be byte-identical to the live one.
// query   Set-up loads a long verdict history in-process (WAL on); the
//         timed phase is a fixed seeded mix of point, 30-day range, quality
//         and stats queries over the wire, closed loop, one connection.
//
// Threads run where the scheduler puts them, as in a deployment.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "serve/codec.h"
#include "serve/daemon.h"
#include "serve/engine.h"
#include "serve/ingest.h"
#include "serve/ring.h"
#include "serve/service.h"
#include "serve/wal.h"
#include "stats/calendar.h"
#include "stream.h"
#include "tsdb/tsdb.h"

namespace perfbench {

namespace fs = std::filesystem;
using manic::serve::BlockingClient;
using manic::serve::CongestionService;
using manic::serve::Sample;
using manic::serve::ServiceConfig;
using manic::serve::TcpDaemon;
using manic::serve::VerdictRecord;
using manic::serve::WalStatus;
using manic::stats::kSecPerDay;

namespace {

constexpr std::size_t kRoundsPerPass = 23;  // 23 x (3 x 58 + 1) queries
constexpr std::size_t kSetups = 7;  // extra set-ups per ingest run

ServiceConfig ServeConfig(const std::string& wal_dir) {
  ServiceConfig config;
  config.shards = 2;
  config.wal_dir = wal_dir;
  return config;
}

// A TcpDaemon on a loopback port with its event loop on its own thread and
// one connected BlockingClient.
class Wire {
 public:
  explicit Wire(CongestionService* service) : daemon_(service) {}
  ~Wire() { Close(); }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  bool Open() {
    if (!daemon_.Listen(0)) return false;
    loop_ = std::thread([this] { daemon_.Run(); });
    return client_.Connect(daemon_.port());
  }
  void Close() {
    client_.Close();
    if (loop_.joinable()) {
      daemon_.Shutdown();
      loop_.join();
    }
  }
  BlockingClient& client() { return client_; }

 private:
  TcpDaemon daemon_;
  BlockingClient client_;
  std::thread loop_;
};

// Checks one link's verdict rows against the generator's truth: one row per
// day from the first full-window day through `last_day`, in order, each
// flagged exactly as the link's schedule implies.
bool RowsMatchTruth(const Stream& stream, const LinkSpec& spec,
                    const std::vector<VerdictRecord>& rows,
                    std::int64_t first_day, std::int64_t last_day) {
  first_day = std::max<std::int64_t>(first_day, stream.first_verdict_day());
  last_day = std::min<std::int64_t>(last_day, stream.days() - 1);
  const std::int64_t want = std::max<std::int64_t>(0, last_day - first_day + 1);
  if (static_cast<std::int64_t>(rows.size()) != want) return false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const VerdictRecord& v = rows[i];
    if (v.day != first_day + static_cast<std::int64_t>(i) ||
        v.link != spec.link || v.congested != spec.congested ||
        v.recurring != spec.congested ||
        v.contributors != static_cast<std::uint32_t>(spec.vps)) {
      return false;
    }
  }
  return true;
}

bool ServiceMatchesTruth(const Stream& stream, const CongestionService& svc) {
  for (const LinkSpec& spec : stream.links()) {
    const auto rows = svc.QueryRange(spec.link, 0, stream.days() * kSecPerDay);
    if (!RowsMatchTruth(stream, spec, rows, 0, stream.days() - 1)) return false;
  }
  return true;
}

void FlipOneByte(std::string* text) {
  if (!text->empty()) (*text)[text->size() / 2] ^= 0x01;
}

void PrintInput(const char* what, const Stream& stream) {
  std::printf("input %s: %s digest=%016llx\n", what, stream.Describe().c_str(),
              static_cast<unsigned long long>(stream.Digest()));
}

// Times a fresh service (config for `dir`) through Start + RecoverFromWal;
// checks the recovered verdict log against `live_log`.
double RecoverAndVerify(const std::string& dir, const std::string& live_log,
                        const Args& args, Tracer& tracer, Result& out) {
  Tracer::Scope span(tracer, "serve.recover");
  const double t0 = Now();
  auto svc = std::make_unique<CongestionService>(ServeConfig(dir));
  svc->Start();
  const manic::serve::WalRecoverStats stats = svc->RecoverFromWal();
  const double secs = Now() - t0;
  out.Check(stats.ok, "RecoverFromWal failed: " + stats.error);
  std::string recovered = svc->VerdictLogText();
  if (args.corrupt == "log") FlipOneByte(&recovered);
  out.Check(recovered == live_log,
            "recovered verdict log differs from the live one");
  out.Check(svc->CloseWalClean() == WalStatus::kOk, "wal clean close failed");
  svc->Stop();
  return secs;
}

// One eighth of the study world's links and pairs (58 links, 154 pairs),
// 120 days: 2.4 rolling windows, so 59% of the day closes emit verdicts.
StreamConfig IngestStreamConfig(const Args& args) {
  StreamConfig c;
  c.seed = args.seed;
  c.scale = args.tiny ? 64 : 8;
  c.days = args.tiny ? 60 : 120;
  return c;
}

// The same 58 links over the study's whole 22-month window, one VP each: the
// index a query reads holds one row per link-day whatever the pair count
// (36k rows, an eighth of the study's), and one pair a link keeps the
// history load inside the set-up budget.
StreamConfig QueryStreamConfig(const Args& args) {
  StreamConfig c;
  c.seed = args.seed ^ 0x9e3779b97f4a7c15ULL;
  c.scale = args.tiny ? 64 : 8;
  c.max_vps = 1;
  c.days = args.tiny ? 60 : static_cast<int>(manic::stats::StudyTotalDays());
  return c;
}

}  // namespace

Result RunIngest(const Args& args, Tracer& tracer) {
  Result out;
  const Stream stream(IngestStreamConfig(args));
  PrintInput("ingest", stream);

  // submit_ms / close_ms: acks of the batches that close no day, in request
  // order, and of the batches that close one.
  std::vector<double> setup_s, wall_s, cpu_s, rate, recover_s, submit_ms,
      close_ms;
  std::uint64_t disk_bytes = 0;
  double rss_mb = 0.0;
  std::vector<Sample> batch;
  // Set-up: service + WAL open + daemon + connected client. Timed kSetups
  // extra times up front (a set-up is about a millisecond) as well as before
  // every measured unit.
  std::unique_ptr<CongestionService> svc;
  std::unique_ptr<Wire> wire;
  const auto set_up = [&](const std::string& dir) {
    fs::remove_all(dir);
    const double s0 = Now();
    svc = std::make_unique<CongestionService>(ServeConfig(dir));
    svc->Start();
    out.Check(svc->RecoverFromWal().ok, "opening an empty WAL failed");
    wire = std::make_unique<Wire>(svc.get());
    out.Check(wire->Open(), "daemon listen/connect failed");
    setup_s.push_back(Now() - s0);
  };
  for (std::size_t k = 0; k < kSetups; ++k) {
    const std::string dir = args.work_dir + "/ingest-setup";
    set_up(dir);
    wire.reset();
    out.Check(svc->CloseWalClean() == WalStatus::kOk, "wal clean close failed");
    svc->Stop();
    svc.reset();
    fs::remove_all(dir);
  }
  const double t_start = Now();
  double last_unit = 0.0;
  for (std::size_t unit = 0;
       MoreUnits(unit, Now() - t_start, last_unit, args.seconds); ++unit) {
    const double unit_t0 = Now();
    const bool traced = args.trace && unit % 2 == 1;
    tracer.set_enabled(traced);
    Tracer::Scope unit_span(tracer, "ingest.unit", unit);
    const std::string dir =
        args.work_dir + "/ingest-" + std::to_string(unit);
    set_up(dir);

    // ---- the stream: one closed-loop request per pair-day ----------------
    std::uint64_t sent = 0, acked = 0, req = 0;
    const double c0 = CpuNow(), w0 = Now();
    for (int day = 0; day < stream.days(); ++day) {
      for (std::size_t p = 0; p < stream.pairs().size(); ++p, ++req) {
        stream.Batch(day, p, &batch);
        // The first batch of a day carries the first sample past the
        // watermark: its ack covers closing the previous day.
        const bool closing = day > 0 && p == 0;
        const double t0 = Now();
        bool ok = false;
        {
          Tracer::Scope span(tracer,
                             closing ? "ingest.close_batch" : "ingest.submit",
                             req);
          ok = wire->client().Submit(batch);
        }
        const double ms = (Now() - t0) * 1e3;
        (closing ? close_ms : submit_ms).push_back(ms);
        sent += batch.size();
        if (ok) acked += batch.size();
      }
    }
    std::optional<std::int64_t> last_closed;
    {
      Tracer::Scope span(tracer, "ingest.flush", req);
      last_closed = wire->client().Flush();
    }
    const double wall = Now() - w0;
    const double cpu = CpuNow() - c0;
    wall_s.push_back(wall);
    cpu_s.push_back(cpu);
    rate.push_back(static_cast<double>(acked) / wall);
    disk_bytes = DirBytes(dir);
    out.attempted += sent;
    out.failed += sent - acked;
    out.Check(acked == sent, "samples acked != samples sent");
    out.Check(last_closed.has_value() && *last_closed == stream.days() - 1,
              "flush did not close the stream's last day");
    const auto stats = wire->client().QueryStats();
    out.Check(stats.has_value() && stats->samples == sent &&
                  stats->samples_late == 0 && stats->samples_rejected == 0 &&
                  stats->verdicts == stream.ExpectedVerdicts(),
              "service stats disagree with the stream");
    wire.reset();
    out.Check(svc->CloseWalClean() == WalStatus::kOk,
              "wal clean close failed");
    const std::string live_log = svc->VerdictLogText();
    out.Check(ServiceMatchesTruth(stream, *svc),
              "live verdicts disagree with the generator's truth");
    svc->Stop();
    svc.reset();

    // ---- restart: fresh service, recover, byte-compare the log -----------
    recover_s.push_back(RecoverAndVerify(dir, live_log, args, tracer, out));
    // Later units add what the allocator kept of the earlier units'
    // services to the high-water mark, which no single service would use.
    if (unit == 0) rss_mb = PeakRssMb();
    fs::remove_all(dir);
    last_unit = Now() - unit_t0;
    (traced ? out.traced_unit_s : out.untraced_unit_s).push_back(wall);
  }
  tracer.set_enabled(args.trace);

  std::size_t windows = 0;
  const double tail = WindowedTail(submit_ms, &windows);
  std::printf("ingest: units=%zu submits=%zu closes=%zu tail_windows=%zu\n",
              wall_s.size(), submit_ms.size(), close_ms.size(), windows);
  std::printf("ingest units wall_s: %s\n", Summary(wall_s).c_str());
  std::printf("ingest day-close acks ms: %s\n", Summary(close_ms).c_str());
  double close_total_ms = 0.0;
  for (const double ms : close_ms) close_total_ms += ms;
  std::printf("ingest day-close acks: %.1f%% of the replays' wall time\n",
              100.0 * close_total_ms / 1e3 /
                  (Median(wall_s) * static_cast<double>(wall_s.size())));
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("wall_s", Median(wall_s), "s");
  out.Add("cpu_s", Median(cpu_s), "s");
  out.Add("rss_mb", rss_mb, "MiB");
  out.Add("rate_per_s", Median(rate), "1/s");
  out.Add("p50_ms", Median(submit_ms), "ms");
  out.Add("tail_ms", tail, "ms");
  out.Add("close_ms", Median(close_ms), "ms");
  out.Add("recover_s", Median(recover_s), "s");
  out.Add("disk_mb", static_cast<double>(disk_bytes) / (1024.0 * 1024.0),
          "MiB");
  return out;
}

namespace {

// One query's answer, kept until the pass ends so checking stays out of the
// timed loop.
struct Answer {
  bool ok = false;
  std::optional<VerdictRecord> point;
  std::vector<VerdictRecord> range;
  std::optional<manic::infer::DataQuality> quality;
  std::optional<manic::serve::ServiceStats> stats;
};

bool AnswerMatchesTruth(const Stream& stream, const Query& q,
                        const Answer& a) {
  if (!a.ok) return false;
  const LinkSpec& spec = stream.links()[q.link_index];
  switch (q.kind) {
    case QueryKind::kPoint: {
      if (q.day < stream.first_verdict_day()) return !a.point.has_value();
      return a.point.has_value() && a.point->day == q.day &&
             a.point->link == spec.link && a.point->congested == spec.congested &&
             a.point->recurring == spec.congested;
    }
    case QueryKind::kRange:
      return RowsMatchTruth(stream, spec, a.range, q.day,
                            q.day + kRangeDays - 1);
    case QueryKind::kQuality: {
      const double floor = 1.0 - 4.0 * kMissingShare;
      return a.quality.has_value() &&
             a.quality->far_coverage_frac >= floor &&
             a.quality->far_coverage_frac <= 1.0 &&
             a.quality->days_observed == stream.days();
    }
    case QueryKind::kStats:
      return a.stats.has_value() &&
             a.stats->verdicts == stream.ExpectedVerdicts() &&
             a.stats->samples == stream.total_samples() &&
             a.stats->links == stream.links().size() &&
             a.stats->last_closed_day == stream.days() - 1;
  }
  return false;
}

Answer Ask(BlockingClient& client, const Stream& stream, const Query& q) {
  Answer a;
  const manic::topo::LinkId link = stream.links()[q.link_index].link;
  switch (q.kind) {
    case QueryKind::kPoint:
      a.point = client.QueryPoint(link, q.day * kSecPerDay + kSecPerDay / 2);
      a.ok = client.last_error() == manic::serve::ClientError::kNone;
      break;
    case QueryKind::kRange: {
      auto rows = client.QueryRange(link, q.day * kSecPerDay,
                                    (q.day + kRangeDays) * kSecPerDay);
      a.ok = rows.has_value();
      if (rows) a.range = std::move(*rows);
      break;
    }
    case QueryKind::kQuality:
      a.quality = client.QueryQuality(link);
      a.ok = client.last_error() == manic::serve::ClientError::kNone;
      break;
    case QueryKind::kStats:
      a.stats = client.QueryStats();
      a.ok = a.stats.has_value();
      break;
  }
  return a;
}

const char* SpanName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPoint: return "query.point";
    case QueryKind::kRange: return "query.range";
    case QueryKind::kQuality: return "query.quality";
    case QueryKind::kStats: return "query.stats";
  }
  return "query";
}

// Loads the whole stream into `svc` in-process, one SubmitBatch per
// pair-day; appends the time of each day-closing batch to `*close_ms`.
// Returns false if any sample was not accepted.
bool LoadHistory(const Stream& stream, CongestionService& svc,
                 std::vector<double>* close_ms) {
  std::vector<Sample> batch;
  bool ok = true;
  for (int day = 0; day < stream.days(); ++day) {
    for (std::size_t p = 0; p < stream.pairs().size(); ++p) {
      stream.Batch(day, p, &batch);
      const double t0 = Now();
      ok = ok && svc.SubmitBatch(batch).accepted == batch.size();
      if (day > 0 && p == 0) close_ms->push_back((Now() - t0) * 1e3);
    }
  }
  return ok && svc.FinishStream() == stream.days() - 1;
}

}  // namespace

Result RunQuery(const Args& args, Tracer& tracer) {
  Result out;
  const Stream stream(QueryStreamConfig(args));
  PrintInput("query-history", stream);
  const std::vector<Query> mix =
      MakeQueryMix(stream, args.tiny ? 4 : kRoundsPerPass, args.seed);
  std::printf("input query-mix: queries=%zu digest=%016llx\n", mix.size(),
              static_cast<unsigned long long>(QueryMixDigest(mix)));

  // ---- set-up, several times: service + WAL + history load + connect ------
  // close_ms: in-process SubmitBatch of every batch that closes a day.
  std::vector<double> setup_s, close_ms;
  std::unique_ptr<CongestionService> svc;
  std::unique_ptr<Wire> wire;
  std::string dir;
  for (std::size_t k = 0; k < kMinUnits; ++k) {
    if (wire) {
      wire.reset();
      out.Check(svc->CloseWalClean() == WalStatus::kOk,
                "wal clean close failed");
      svc->Stop();
      svc.reset();
      fs::remove_all(dir);
    }
    dir = args.work_dir + "/query-" + std::to_string(k);
    fs::remove_all(dir);
    Tracer::Scope span(tracer, "query.setup", k);
    const double s0 = Now();
    svc = std::make_unique<CongestionService>(ServeConfig(dir));
    svc->Start();
    out.Check(svc->RecoverFromWal().ok, "opening an empty WAL failed");
    out.Check(LoadHistory(stream, *svc, &close_ms),
              "history load did not accept every sample");
    wire = std::make_unique<Wire>(svc.get());
    out.Check(wire->Open(), "daemon listen/connect failed");
    setup_s.push_back(Now() - s0);
  }
  const std::uint64_t disk_bytes = DirBytes(dir);

  // ---- timed passes over the query mix ---------------------------------------
  std::vector<double> wall_s, cpu_s, rate, lat_ms;
  std::vector<Answer> answers(mix.size());
  const double t_start = Now();
  double last_unit = 0.0;
  for (std::size_t pass = 0;
       MoreUnits(pass, Now() - t_start, last_unit, args.seconds); ++pass) {
    const double unit_t0 = Now();
    const bool traced = args.trace && pass % 2 == 1;
    tracer.set_enabled(traced);
    Tracer::Scope pass_span(tracer, "query.pass", pass);
    const double c0 = CpuNow(), w0 = Now();
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const double t0 = Now();
      {
        Tracer::Scope span(tracer, SpanName(mix[i].kind), i);
        answers[i] = Ask(wire->client(), stream, mix[i]);
      }
      lat_ms.push_back((Now() - t0) * 1e3);
    }
    const double wall = Now() - w0;
    wall_s.push_back(wall);
    cpu_s.push_back(CpuNow() - c0);
    rate.push_back(static_cast<double>(mix.size()) / wall);
    if (args.corrupt == "answer") {
      for (Answer& a : answers) {
        if (a.point.has_value()) {
          a.point->congested = !a.point->congested;
          break;
        }
      }
    }
    std::size_t wrong = 0, failed = 0;
    for (std::size_t i = 0; i < mix.size(); ++i) {
      failed += answers[i].ok ? 0 : 1;
      wrong += AnswerMatchesTruth(stream, mix[i], answers[i]) ? 0 : 1;
    }
    out.attempted += mix.size();
    out.failed += failed;
    out.Check(wrong == 0, std::to_string(wrong) + " of " +
                              std::to_string(mix.size()) +
                              " answers disagree with the generator's truth");
    last_unit = Now() - unit_t0;
    (traced ? out.traced_unit_s : out.untraced_unit_s).push_back(wall);
  }
  tracer.set_enabled(args.trace);

  // ---- restart downtime: recover the history WAL, several times -------------
  wire.reset();
  const std::string live_log = svc->VerdictLogText();
  out.Check(ServiceMatchesTruth(stream, *svc),
            "loaded verdicts disagree with the generator's truth");
  out.Check(svc->CloseWalClean() == WalStatus::kOk, "wal clean close failed");
  svc->Stop();
  svc.reset();
  std::vector<double> recover_s;
  for (std::size_t k = 0; k < kMinUnits; ++k) {
    recover_s.push_back(RecoverAndVerify(dir, live_log, args, tracer, out));
  }
  fs::remove_all(dir);

  std::size_t windows = 0;
  const double tail = WindowedTail(lat_ms, &windows);
  std::printf("query: passes=%zu queries=%zu tail_windows=%zu\n",
              wall_s.size(), lat_ms.size(), windows);
  std::printf("query passes wall_s: %s\n", Summary(wall_s).c_str());
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("wall_s", Median(wall_s), "s");
  out.Add("cpu_s", Median(cpu_s), "s");
  out.Add("rss_mb", PeakRssMb(), "MiB");
  out.Add("rate_per_s", Median(rate), "1/s");
  out.Add("p50_ms", Median(lat_ms), "ms");
  out.Add("tail_ms", tail, "ms");
  out.Add("close_ms", Median(close_ms), "ms");
  out.Add("recover_s", Median(recover_s), "s");
  out.Add("disk_mb", static_cast<double>(disk_bytes) / (1024.0 * 1024.0),
          "MiB");
  return out;
}

// ---- serve layer pass (traced runs) ------------------------------------------

namespace {

// Counts the WAL's fsync attempts from outside the writer.
class SyncCounter final : public manic::runtime::IoFaultHook {
 public:
  bool FsyncOkAt(std::uint64_t /*op*/) const override {
    ++syncs_;
    return true;
  }
  std::uint64_t syncs() const noexcept { return syncs_; }

 private:
  mutable std::uint64_t syncs_ = 0;
};

StreamConfig LayerStreamConfig(const Args& args) {
  StreamConfig c;
  c.seed = args.seed ^ 0x2545f4914f6cdd1dULL;
  c.scale = args.tiny ? 64 : 16;
  c.days = args.tiny ? 55 : 90;
  return c;
}

double Us(const Tracer& tracer, const char* name, double per) {
  return per > 0 ? tracer.Of(name).total_s * 1e6 / per : 0.0;
}

// The pipeline the service runs per batch, re-assembled from each layer's
// public calls on one thread: codec encode/decode, WAL append, ring
// push/pop, engine ingest, tsdb append; per day: WAL close marker, engine
// close, quality snapshot.
void PipelinePass(const Args& args, const Stream& stream, Tracer& tracer,
                  Result& out) {
  const std::string dir = args.work_dir + "/layer-wal";
  fs::remove_all(dir);
  SyncCounter syncs;
  manic::serve::WalWriter wal;
  manic::serve::WalConfig wal_config;
  wal_config.dir = dir;
  wal_config.fault_hook = &syncs;
  out.Check(wal.Open(wal_config) == WalStatus::kOk, "layer pass: wal open");
  manic::serve::SpscRing<Sample> ring(1 << 14);
  manic::serve::ShardEngine engine;
  manic::tsdb::Database db;
  std::vector<manic::tsdb::Database::SeriesHandle> far_h, near_h;  // per pair
  for (const Pair& pair : stream.pairs()) {
    const manic::tsdb::TagSet base{
        {"link", std::to_string(stream.links()[pair.link_index].link)},
        {"vp", std::to_string(pair.vp)}};
    manic::tsdb::TagSet far = base, near = base;
    far.Set("side", "far");
    near.Set("side", "near");
    far_h.push_back(db.OpenSeries("tslp_rtt", far));
    near_h.push_back(db.OpenSeries("tslp_rtt", near));
  }
  const std::size_t pairs_per_day = stream.pairs().size();

  std::vector<Sample> batch, decoded;
  std::string frame, payload;
  manic::serve::FrameAssembler assembler;
  manic::serve::MsgType type{};
  std::uint64_t bytes = 0, samples = 0, batches = 0, verdicts = 0, closes = 0;
  const auto close_day = [&](std::int64_t day) {
    Tracer::Scope span(tracer, "pipeline.close", static_cast<std::uint64_t>(day));
    {
      Tracer::Scope s(tracer, "wal.close");
      out.Check(wal.AppendClose(day) == WalStatus::kOk, "layer pass: close");
    }
    {
      Tracer::Scope s(tracer, "engine.close");
      verdicts += engine.CloseDay(day).size();
    }
    {
      Tracer::Scope s(tracer, "engine.quality");
      (void)engine.QualitySnapshot(static_cast<int>(day) + 1);
    }
    ++closes;
  };
  for (int day = 0; day < stream.days(); ++day) {
    if (day > 0) close_day(day - 1);
    for (std::size_t p = 0; p < pairs_per_day; ++p, ++batches) {
      stream.Batch(day, p, &batch);
      samples += batch.size();
      Tracer::Scope span(tracer, "pipeline.batch", batches);
      {
        Tracer::Scope s(tracer, "codec.encode");
        frame.clear();
        manic::serve::EncodeSubmitBatchTo(batch, &frame);
      }
      bytes += frame.size();
      {
        Tracer::Scope s(tracer, "codec.decode");
        assembler.Feed(frame);
        const bool ok = assembler.Next(&type, &payload) &&
                        manic::serve::DecodeSubmitBatch(payload, &decoded);
        out.Check(ok && decoded.size() == batch.size(), "layer pass: decode");
      }
      {
        Tracer::Scope s(tracer, "wal.append");
        out.Check(wal.AppendSamples(decoded) == WalStatus::kOk,
                  "layer pass: append");
      }
      {
        Tracer::Scope s(tracer, "ring.push");
        for (const Sample& x : decoded) (void)ring.TryPush(x);
      }
      {
        Tracer::Scope s(tracer, "ring.pop");
        Sample x;
        while (ring.TryPop(&x)) {
        }
      }
      {
        Tracer::Scope s(tracer, "engine.ingest");
        for (const Sample& x : decoded) engine.Ingest(x);
      }
      {
        Tracer::Scope s(tracer, "tsdb.append");
        for (const Sample& x : decoded) {
          const bool far_side = x.kind == manic::serve::SampleKind::kFarRtt ||
                                x.kind == manic::serve::SampleKind::kFarMissing;
          const auto handle = far_side ? far_h[p] : near_h[p];
          if (x.kind == manic::serve::SampleKind::kFarRtt ||
              x.kind == manic::serve::SampleKind::kNearRtt) {
            db.Append(handle, x.t, x.value);
          } else {
            db.AppendMissing(handle, x.t);
          }
        }
      }
    }
  }
  close_day(stream.days() - 1);
  out.Check(wal.CloseClean() == WalStatus::kOk, "layer pass: wal close");
  const double wal_bytes = static_cast<double>(DirBytes(dir));
  double read_s = 0.0;
  {
    Tracer::Scope s(tracer, "wal.read");
    const double t0 = Now();
    const manic::serve::WalRecoverStats rs = manic::serve::ReadWal(
        dir, [](std::span<const Sample>) {}, [](std::int64_t) {});
    read_s = Now() - t0;
    out.Check(rs.ok && rs.samples == samples, "layer pass: ReadWal");
  }
  fs::remove_all(dir);

  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  out.Add("codec.encode_us", Us(tracer, "codec.encode", n(batches)), "us");
  out.Add("codec.decode_us", Us(tracer, "codec.decode", n(batches)), "us");
  out.Add("codec.bytes", n(bytes), "bytes");
  out.Add("wal.append_us", Us(tracer, "wal.append", n(batches)), "us");
  out.Add("wal.close_ms", Us(tracer, "wal.close", n(closes)) / 1e3, "ms");
  out.Add("wal.syncs", n(syncs.syncs()), "count");
  out.Add("wal.bytes", wal_bytes, "bytes");
  out.Add("wal.read_s", read_s, "s");
  out.Add("ring.push_ns", Us(tracer, "ring.push", n(samples)) * 1e3, "ns");
  out.Add("ring.pop_ns", Us(tracer, "ring.pop", n(samples)) * 1e3, "ns");
  out.Add("engine.ingest_ns", Us(tracer, "engine.ingest", n(samples)) * 1e3,
          "ns");
  out.Add("engine.close_us_per_pair",
          Us(tracer, "engine.close", n(closes * pairs_per_day)), "us");
  out.Add("engine.close_us_per_verdict",
          Us(tracer, "engine.close", n(verdicts)), "us");
  out.Add("engine.quality_us", Us(tracer, "engine.quality", n(closes)), "us");
  out.Add("tsdb.append_ns", Us(tracer, "tsdb.append", n(samples)) * 1e3, "ns");
  std::printf("layers: pipeline batches=%llu samples=%llu closes=%llu "
              "pair_closes=%llu verdicts=%llu\n",
              static_cast<unsigned long long>(batches),
              static_cast<unsigned long long>(samples),
              static_cast<unsigned long long>(closes),
              static_cast<unsigned long long>(closes * pairs_per_day),
              static_cast<unsigned long long>(verdicts));
}

// Ingest backlog of one IngestShard: how far its worker trails the pushes.
void ShardBacklogPass(const Stream& stream, Tracer& tracer, Result& out) {
  Tracer::Scope span(tracer, "ingest_shard.pass");
  manic::serve::IngestShard shard;
  shard.Start();
  std::vector<Sample> batch;
  std::uint64_t pushed = 0, peak = 0;
  for (int day = 0; day < stream.days(); ++day) {
    if (day > 0) {
      shard.PushCloseDay(day - 1);
      shard.WaitClosed(day - 1);
      (void)shard.TakeDayVerdicts();
    }
    for (std::size_t p = 0; p < stream.pairs().size(); ++p) {
      stream.Batch(day, p, &batch);
      for (const Sample& x : batch) {
        shard.PushSample(x);
        if (++pushed % 64 == 0) {
          peak = std::max(peak, pushed - shard.SamplesProcessed());
        }
      }
    }
  }
  shard.Stop();
  out.Add("ring.backlog_peak", static_cast<double>(peak), "count");
}

// The same stream submitted in-process to service A and over the wire to
// service B, request by request, then queries against both: per-request
// in-process latency and the wire's share of it.
void ServicePass(const Args& args, const Stream& stream, Tracer& tracer,
                 Result& out) {
  const std::string dir_a = args.work_dir + "/layer-svc-a";
  const std::string dir_b = args.work_dir + "/layer-svc-b";
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
  CongestionService a(ServeConfig(dir_a)), b(ServeConfig(dir_b));
  a.Start();
  b.Start();
  out.Check(a.RecoverFromWal().ok && b.RecoverFromWal().ok,
            "layer pass: service wal open");
  Wire wire(&b);
  out.Check(wire.Open(), "layer pass: daemon listen/connect");
  std::vector<Sample> batch;
  std::vector<double> wire_us, query_wire_us;
  std::uint64_t submits = 0, closes = 0, req = 0;
  for (int day = 0; day < stream.days(); ++day) {
    for (std::size_t p = 0; p < stream.pairs().size(); ++p, ++req) {
      stream.Batch(day, p, &batch);
      const bool closing = day > 0 && p == 0;
      Tracer::Scope span(tracer, "service.request", req);
      double in_us = 0.0;
      {
        Tracer::Scope s(tracer, closing ? "service.close" : "service.submit");
        const double t0 = Now();
        out.Check(a.SubmitBatch(batch).accepted == batch.size(),
                  "layer pass: in-process submit");
        in_us = (Now() - t0) * 1e6;
      }
      {
        Tracer::Scope s(tracer, "daemon.submit");
        const double t0 = Now();
        out.Check(wire.client().Submit(batch), "layer pass: wire submit");
        if (!closing) wire_us.push_back((Now() - t0) * 1e6 - in_us);
      }
      (closing ? closes : submits) += 1;
    }
  }
  (void)a.FinishStream();
  out.Check(wire.client().Flush().has_value(), "layer pass: wire flush");
  const manic::serve::ServiceStats stats = a.Stats();

  const std::vector<Query> mix = MakeQueryMix(stream, 20, args.seed);
  std::uint64_t points = 0, ranges = 0, qualities = 0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const Query& q = mix[i];
    const manic::topo::LinkId link = stream.links()[q.link_index].link;
    Tracer::Scope span(tracer, "service.query", i);
    if (q.kind == QueryKind::kPoint) {
      const manic::stats::TimeSec t = q.day * kSecPerDay + kSecPerDay / 2;
      double in_us = 0.0;
      {
        Tracer::Scope s(tracer, "service.point");
        const double t0 = Now();
        (void)a.QueryPoint(link, t);
        in_us = (Now() - t0) * 1e6;
      }
      Tracer::Scope s(tracer, "daemon.point");
      const double t0 = Now();
      (void)wire.client().QueryPoint(link, t);
      query_wire_us.push_back((Now() - t0) * 1e6 - in_us);
      ++points;
    } else if (q.kind == QueryKind::kRange) {
      std::vector<VerdictRecord> rows;
      {
        Tracer::Scope s(tracer, "service.range");
        rows = a.QueryRange(link, q.day * kSecPerDay,
                            (q.day + kRangeDays) * kSecPerDay);
      }
      Tracer::Scope s(tracer, "codec.verdicts");
      (void)manic::serve::EncodeVerdicts(rows);
      ++ranges;
    } else if (q.kind == QueryKind::kQuality) {
      Tracer::Scope s(tracer, "service.quality");
      (void)a.QueryQuality(link);
      ++qualities;
    }
  }
  wire.Close();
  out.Check(a.VerdictLogText() == b.VerdictLogText(),
            "layer pass: in-process and wire verdict logs differ");
  (void)a.CloseWalClean();
  (void)b.CloseWalClean();
  a.Stop();
  b.Stop();
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);

  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  out.Add("tsdb.raw_points", n(stats.raw_points), "count");
  out.Add("service.submit_us", Us(tracer, "service.submit", n(submits)), "us");
  out.Add("service.close_ms", Us(tracer, "service.close", n(closes)) / 1e3,
          "ms");
  out.Add("daemon.wire_us", Median(wire_us), "us");
  out.Add("daemon.query_wire_us", Median(query_wire_us), "us");
  out.Add("service.point_us", Us(tracer, "service.point", n(points)), "us");
  out.Add("service.range_us", Us(tracer, "service.range", n(ranges)), "us");
  out.Add("service.quality_us", Us(tracer, "service.quality", n(qualities)),
          "us");
  out.Add("codec.verdicts_us", Us(tracer, "codec.verdicts", n(ranges)), "us");
  out.Add("service.index_rows", n(stats.verdicts), "count");
}

}  // namespace

void ServeLayerPass(const Args& args, Tracer& tracer, Result& out) {
  const Stream stream(LayerStreamConfig(args));
  PrintInput("serve-layers", stream);
  Tracer::Scope span(tracer, "layers.serve");
  PipelinePass(args, stream, tracer, out);
  ShardBacklogPass(stream, tracer, out);
  ServicePass(args, stream, tracer, out);
}

}  // namespace perfbench
