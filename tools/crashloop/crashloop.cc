// Crash-recovery torture harness for the serving plane. One binary, two
// roles:
//
//   parent   generates a deterministic sample stream, runs an uncrashed
//            reference daemon to completion, then streams the same samples
//            at a crash-torture daemon that it kills at N seeded points —
//            half by SIGKILL between acked batches, half via the WAL's
//            IoFaultHook crash records (the process dies mid-append with a
//            torn record on disk). With --segment-bytes small enough that
//            the daemon checkpoints and retires segments several times per
//            run, half the kills instead die inside a checkpoint, through
//            the same hook: with the manifest half written, right after its
//            commit, or after the WAL roll but before the covered segments
//            are deleted. After every kill the daemon restarts, recovers
//            (checkpoint + WAL tail), and the client resumes at the
//            reported watermark, which must cover every sample acked
//            before the kill. Every planned kill must land (a kill point
//            past the stream's end fails the run), and the final verdict
//            logs must be byte-identical.
//
//   --daemon one incarnation of the service: recover from the WAL, publish
//            the ephemeral port to a file, serve until SIGTERM (graceful
//            drain), stamp the WAL clean, write the verdict log.
//
// Everything is seeded (kill plan, torn-byte counts, backoff jitter), so a
// failing run replays exactly with the same --seed.
//
// Exit code 0 = every planned kill landed and the recovered log matches the
// uncrashed reference byte for byte.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "infer/rolling.h"
#include "runtime/io_fault.h"
#include "runtime/parse.h"
#include "runtime/seed_tree.h"
#include "serve/daemon.h"
#include "serve/retry.h"
#include "serve/service.h"
#include "stats/calendar.h"
#include "stats/rng.h"

namespace manic::serve {
namespace {

struct Options {
  bool daemon_mode = false;
  std::string out_dir = "/tmp/manic_crashloop";
  std::string wal_dir;
  std::string port_file;
  std::string verdict_log;
  int shards = 1;
  int links = 6;
  int days = 8;
  int batch = 48;
  int kills = 10;
  std::uint64_t seed = 1;
  std::int64_t crash_record = -1;
  std::int64_t crash_bytes = 0;
  std::size_t segment_bytes = 0;  // 0 = the service default
  std::int64_t crash_checkpoint = -1;
  int crash_step = 0;
  bool verbose = false;
};

// ---- deterministic workload (the test_serve synthetic stream shape) --------

infer::AutocorrConfig SmallConfig() {
  infer::AutocorrConfig config;
  config.window_days = 6;
  config.intervals_per_day = 24;
  config.bin_width = 3600;
  config.min_elevated_days = 3;
  config.quality.min_days_observed = 3;
  config.quality.max_gap_intervals = 2 * 24;
  return config;
}

std::vector<Sample> SyntheticStream(int links, int days) {
  std::vector<Sample> stream;
  for (std::int64_t day = 0; day < days; ++day) {
    for (topo::LinkId link = 1; link <= static_cast<topo::LinkId>(links);
         ++link) {
      for (topo::VpId vp = 1; vp <= 2; ++vp) {
        const std::uint64_t key = link * 1000 + vp;
        const bool congested = link % 2 == 0;
        for (int s = 0; s < 24; ++s) {
          const TimeSec t = day * stats::kSecPerDay + s * 3600 + 1800;
          if (stats::Rng::HashToUnit(key, day * 100 + s, 0xA) < 0.05) {
            stream.push_back({t, link, vp, SampleKind::kFarMissing, 0.0f});
            stream.push_back({t, link, vp, SampleKind::kNearMissing, 0.0f});
            continue;
          }
          const double base =
              10.0 + stats::Rng::HashToUnit(key, day * 100 + s, 0xB);
          const float far = static_cast<float>(
              base + (congested && s >= 18 && s < 21 ? 20.0 : 0.0));
          stream.push_back({t, link, vp, SampleKind::kFarRtt, far});
          stream.push_back({t, link, vp, SampleKind::kNearRtt,
                            static_cast<float>(base * 0.5)});
        }
      }
    }
  }
  return stream;
}

// ---- daemon role ------------------------------------------------------------

std::atomic<TcpDaemon*> g_daemon{nullptr};

void OnSigterm(int /*sig*/) {
  TcpDaemon* daemon = g_daemon.load(std::memory_order_acquire);
  if (daemon != nullptr) daemon->Drain();
}

int RunDaemon(const Options& opts) {
  std::optional<runtime::ScriptedIoFaults> faults;
  if (opts.crash_record >= 0 || opts.crash_checkpoint >= 0) {
    runtime::ScriptedIoFaults::Config fault_config;
    fault_config.seed = opts.seed;
    fault_config.crash_at_record = opts.crash_record;
    fault_config.crash_bytes = opts.crash_bytes;
    fault_config.crash_at_checkpoint = opts.crash_checkpoint;
    fault_config.crash_checkpoint_step =
        static_cast<runtime::IoFaultHook::CheckpointStep>(opts.crash_step);
    faults.emplace(fault_config);
  }

  ServiceConfig config;
  config.shards = opts.shards;
  config.engine.autocorr = SmallConfig();
  config.wal_dir = opts.wal_dir;
  if (opts.segment_bytes > 0) config.wal_segment_bytes = opts.segment_bytes;
  config.wal_fault_hook = faults ? &*faults : nullptr;
  CongestionService service(config);

  const WalRecoverStats recovered = service.RecoverFromWal();
  if (!recovered.ok) {
    std::fprintf(stderr, "crashloop daemon: recovery failed: %s\n",
                 recovered.error.c_str());
    return 3;
  }

  TcpDaemon daemon(&service);
  if (!daemon.Listen(0)) {
    std::fprintf(stderr, "crashloop daemon: cannot listen\n");
    return 4;
  }
  g_daemon.store(&daemon, std::memory_order_release);
  struct sigaction action {};
  action.sa_handler = OnSigterm;
  ::sigaction(SIGTERM, &action, nullptr);

  // Port published only after recovery succeeded and the socket is live, and
  // via rename so the parent never reads a half-written file.
  const std::string tmp = opts.port_file + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out << daemon.port() << "\n";
    if (!out.good()) return 4;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, opts.port_file, ec);
  if (ec) return 4;

  daemon.Run();  // until SIGTERM -> Drain() -> every pending reply flushed

  if (service.CloseWalClean() != WalStatus::kOk) {
    std::fprintf(stderr, "crashloop daemon: clean close failed\n");
    return 5;
  }
  std::ofstream log(opts.verdict_log, std::ios::binary);
  log << service.VerdictLogText();
  log.flush();
  return log.good() ? 0 : 6;
}

// ---- parent role ------------------------------------------------------------

// One planned kill of the daemon mid-stream.
struct KillPlan {
  bool sigkill = false;          // true: SIGKILL between acked batches
  bool checkpoint = false;       // true: die inside the first checkpoint
  int quota_batches = 0;         // sigkill after this many acks
  int checkpoint_step = 0;       // an IoFaultHook::CheckpointStep
  std::int64_t crash_record = 0;  // iofault: die inside this WAL record
  std::int64_t crash_bytes = 0;   // ...after emitting this torn prefix
};

const char* KillKind(const KillPlan& kill) {
  if (kill.checkpoint) return "checkpoint";
  return kill.sigkill ? "sigkill" : "torn append";
}

// With `checkpoints`, half the kills (seeded) die inside a checkpoint
// instead; without, the plan is the original two-kind one.
std::vector<KillPlan> MakeKillPlan(std::uint64_t seed, int kills,
                                   bool checkpoints) {
  const runtime::SeedTree tree = runtime::SeedTree(seed).Child("kill-plan");
  std::vector<KillPlan> plan;
  plan.reserve(static_cast<std::size_t>(kills));
  for (int i = 0; i < kills; ++i) {
    const std::uint64_t k = static_cast<std::uint64_t>(i);
    KillPlan kill;
    kill.sigkill = tree.Leaf(k, 0) % 2 == 1;
    kill.quota_batches = 1 + static_cast<int>(tree.Leaf(k, 1) % 4);
    kill.crash_record = static_cast<std::int64_t>(tree.Leaf(k, 2) % 6);
    // 0..63 torn bytes: covers dying inside the 5-byte record header as
    // well as inside the payload.
    kill.crash_bytes = static_cast<std::int64_t>(tree.Leaf(k, 3) % 64);
    if (checkpoints && tree.Leaf(k, 4) % 2 == 0) {
      kill.checkpoint = true;
      kill.sigkill = false;
      kill.checkpoint_step = static_cast<int>(tree.Leaf(k, 5) % 3);
    }
    plan.push_back(kill);
  }
  return plan;
}

std::uint16_t ReadPortFile(const std::string& path) {
  std::ifstream in(path);
  int port = 0;
  if (!(in >> port) || port <= 0 || port > 65535) return 0;
  return static_cast<std::uint16_t>(port);
}

pid_t SpawnDaemon(const Options& opts, const KillPlan* kill,
                  const std::string& wal_dir, const std::string& port_file,
                  const std::string& verdict_log) {
  std::error_code ec;
  std::filesystem::remove(port_file, ec);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;

  std::vector<std::string> args = {
      "crashloop",    "--daemon",
      "--wal-dir",    wal_dir,
      "--port-file",  port_file,
      "--verdict-log", verdict_log,
      "--shards",     std::to_string(opts.shards),
      "--seed",       std::to_string(opts.seed)};
  if (opts.segment_bytes > 0) {
    args.push_back("--segment-bytes");
    args.push_back(std::to_string(opts.segment_bytes));
  }
  if (kill != nullptr && kill->checkpoint) {
    args.push_back("--crash-checkpoint");
    args.push_back("0");
    args.push_back("--crash-step");
    args.push_back(std::to_string(kill->checkpoint_step));
  } else if (kill != nullptr && !kill->sigkill) {
    args.push_back("--crash-record");
    args.push_back(std::to_string(kill->crash_record));
    args.push_back("--crash-bytes");
    args.push_back(std::to_string(kill->crash_bytes));
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  ::execv("/proc/self/exe", argv.data());
  std::_Exit(127);
}

RetryPolicy HarnessPolicy(std::uint64_t seed, int incarnation) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 400;
  policy.socket_timeout_ms = 5000;
  policy.seed = seed + static_cast<std::uint64_t>(incarnation) * 7919;
  return policy;
}

// Streams batches from *offset until the stream ends or the daemon dies.
// Returns false when the connection was lost (the expected way a kill
// surfaces); *offset tracks acked samples only.
bool StreamBatches(RetryingClient* client, const std::vector<Sample>& stream,
                   std::size_t* offset, int batch, pid_t pid,
                   const KillPlan* kill) {
  int acked = 0;
  while (*offset < stream.size()) {
    const std::size_t n =
        std::min<std::size_t>(static_cast<std::size_t>(batch),
                              stream.size() - *offset);
    const RetryOutcome outcome =
        client->Submit(std::span<const Sample>(stream.data() + *offset, n));
    if (outcome == RetryOutcome::kOk) {
      *offset += n;
      ++acked;
      if (kill != nullptr && kill->sigkill && acked == kill->quota_batches) {
        ::kill(pid, SIGKILL);  // dies between acks: every acked batch durable
      }
      continue;
    }
    if (outcome == RetryOutcome::kResync) {
      // Reconnected to a live daemon mid-incarnation (possible when the
      // send raced a slow reply): resume at its durable watermark.
      const auto info = client->GetWatermark();
      if (!info) return false;
      *offset = static_cast<std::size_t>(info->samples_consumed);
      continue;
    }
    return false;  // kShed cannot happen here; kFailed = daemon is gone
  }
  return true;
}

// An ack is a durability receipt: a restarted daemon whose watermark is
// below what the previous incarnations acknowledged has lost acked samples,
// even if the harness could resubmit them.
bool WatermarkCoversAcks(std::uint64_t watermark, std::size_t acked,
                         int incarnation) {
  if (watermark >= acked) return true;
  std::fprintf(stderr,
               "crashloop: FAIL — incarnation %d recovered watermark %llu "
               "below the %zu samples already acked\n",
               incarnation, static_cast<unsigned long long>(watermark), acked);
  return false;
}

std::optional<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Runs one daemon to completion over stream[offset..]: stream, flush,
// SIGTERM, wait for a clean exit. Returns false on any failure.
bool RunToCompletion(const Options& opts, const std::vector<Sample>& stream,
                     std::size_t offset, int incarnation,
                     const std::string& wal_dir, const std::string& port_file,
                     const std::string& verdict_log) {
  const pid_t pid = SpawnDaemon(opts, nullptr, wal_dir, port_file, verdict_log);
  RetryingClient client([&port_file] { return ReadPortFile(port_file); },
                        HarnessPolicy(opts.seed, incarnation));
  if (!client.Connect()) return false;
  const auto info = client.GetWatermark();
  if (!info || !WatermarkCoversAcks(info->samples_consumed, offset,
                                    incarnation)) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return false;
  }
  offset = static_cast<std::size_t>(info->samples_consumed);
  if (!StreamBatches(&client, stream, &offset, opts.batch, pid, nullptr)) {
    return false;
  }
  if (!client.Flush()) return false;
  client.Close();
  ::kill(pid, SIGTERM);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

int RunParent(const Options& opts) {
  const std::vector<Sample> stream = SyntheticStream(opts.links, opts.days);
  std::error_code ec;
  std::filesystem::remove_all(opts.out_dir, ec);
  std::filesystem::create_directories(opts.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "crashloop: cannot create %s\n",
                 opts.out_dir.c_str());
    return 1;
  }
  const std::string ref_log = opts.out_dir + "/reference.log";
  const std::string torture_log = opts.out_dir + "/torture.log";
  const std::string ref_wal = opts.out_dir + "/wal-reference";
  const std::string torture_wal = opts.out_dir + "/wal-torture";
  const std::string port_file = opts.out_dir + "/port";

  // 1. The uncrashed reference: one incarnation, whole stream.
  if (!RunToCompletion(opts, stream, 0, /*incarnation=*/0, ref_wal, port_file,
                       ref_log)) {
    std::fprintf(stderr, "crashloop: reference run failed\n");
    return 1;
  }

  // 2. The torture run: one incarnation per planned kill, then a final
  //    incarnation that finishes the stream crash-free.
  const std::vector<KillPlan> plan =
      MakeKillPlan(opts.seed, opts.kills, opts.segment_bytes > 0);
  std::size_t offset = 0;
  int killed = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const KillPlan& kill = plan[i];
    const int incarnation = static_cast<int>(i) + 1;
    const pid_t pid = SpawnDaemon(opts, &kill, torture_wal, port_file,
                                  torture_log);
    RetryingClient client([&port_file] { return ReadPortFile(port_file); },
                          HarnessPolicy(opts.seed, incarnation));
    if (!client.Connect()) {
      std::fprintf(stderr, "crashloop: cannot reach incarnation %d\n",
                   incarnation);
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      return 1;
    }
    const auto info = client.GetWatermark();
    if (!info) {
      std::fprintf(stderr, "crashloop: no watermark from incarnation %d\n",
                   incarnation);
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      return 1;
    }
    if (!WatermarkCoversAcks(info->samples_consumed, offset, incarnation)) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      return 1;
    }
    offset = static_cast<std::size_t>(info->samples_consumed);
    const bool finished =
        StreamBatches(&client, stream, &offset, opts.batch, pid, &kill);
    client.Close();
    if (finished) {
      // The kill point was never reached (stream ran dry first); take the
      // incarnation down anyway and let the final pass flush.
      ::kill(pid, SIGKILL);
    } else {
      ++killed;
    }
    ::waitpid(pid, nullptr, 0);
    if (opts.verbose) {
      std::fprintf(stderr,
                   "crashloop: incarnation %d %s at offset %zu/%zu (%s)\n",
                   incarnation, finished ? "drained" : "died", offset,
                   stream.size(), KillKind(kill));
    }
  }

  // A kill that never landed is coverage the gate silently lost (a format
  // or cadence change moved the kill points past the stream's end).
  if (killed < opts.kills) {
    std::fprintf(stderr,
                 "crashloop: FAIL — only %d of %d planned kills landed\n",
                 killed, opts.kills);
    return 1;
  }

  // 3. Final crash-free incarnation: recover, finish, drain.
  if (!RunToCompletion(opts, stream, offset, opts.kills + 1, torture_wal,
                       port_file, torture_log)) {
    std::fprintf(stderr, "crashloop: final recovery run failed\n");
    return 1;
  }

  const auto reference = ReadFileBytes(ref_log);
  const auto tortured = ReadFileBytes(torture_log);
  if (!reference || !tortured) {
    std::fprintf(stderr, "crashloop: missing verdict log\n");
    return 1;
  }
  if (*reference != *tortured) {
    std::fprintf(stderr,
                 "crashloop: FAIL — recovered log (%zu bytes) differs from "
                 "reference (%zu bytes)\n",
                 tortured->size(), reference->size());
    return 1;
  }
  std::printf(
      "crashloop: OK — %d kills survived, %zu samples, %d shards, "
      "verdict log byte-identical (%zu bytes)\n",
      killed, stream.size(), opts.shards, reference->size());
  return 0;
}

// ---- flag parsing -----------------------------------------------------------

int Usage() {
  std::fprintf(
      stderr,
      "usage: crashloop [--out-dir D] [--shards N] [--links N] [--days N]\n"
      "                 [--batch N] [--kills N] [--seed N]\n"
      "                 [--segment-bytes N] [--verbose]\n"
      "  --segment-bytes N  WAL segment size; small sizes make the daemon\n"
      "                     checkpoint often, and half the kills then die\n"
      "                     inside a checkpoint\n"
      "  (internal daemon role: --daemon --wal-dir D --port-file P\n"
      "   --verdict-log V [--crash-record N --crash-bytes N]\n"
      "   [--crash-checkpoint N --crash-step S])\n");
  return 2;
}

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options opts;
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        ok = false;
        return "";
      }
      return argv[++i];
    };
    if (arg == "--daemon") {
      opts.daemon_mode = true;
    } else if (arg == "--verbose") {
      opts.verbose = true;
    } else if (arg == "--out-dir") {
      opts.out_dir = next();
    } else if (arg == "--wal-dir") {
      opts.wal_dir = next();
    } else if (arg == "--port-file") {
      opts.port_file = next();
    } else if (arg == "--verdict-log") {
      opts.verdict_log = next();
    } else if (arg == "--shards") {
      opts.shards = runtime::ParseBoundedInt(next(), 1, 64, &ok);
    } else if (arg == "--links") {
      opts.links = runtime::ParseBoundedInt(next(), 1, 1000, &ok);
    } else if (arg == "--days") {
      opts.days = runtime::ParseBoundedInt(next(), 1, 400, &ok);
    } else if (arg == "--batch") {
      opts.batch = runtime::ParseBoundedInt(next(), 1, 100000, &ok);
    } else if (arg == "--kills") {
      opts.kills = runtime::ParseBoundedInt(next(), 0, 1000, &ok);
    } else if (arg == "--seed") {
      opts.seed = static_cast<std::uint64_t>(
          runtime::ParseBoundedInt(next(), 0, 1 << 30, &ok));
    } else if (arg == "--crash-record") {
      opts.crash_record =
          runtime::ParseBoundedInt(next(), 0, 1 << 30, &ok);
    } else if (arg == "--crash-bytes") {
      opts.crash_bytes = runtime::ParseBoundedInt(next(), 0, 1 << 30, &ok);
    } else if (arg == "--segment-bytes") {
      opts.segment_bytes = static_cast<std::size_t>(
          runtime::ParseBoundedInt(next(), 64, 1 << 30, &ok));
    } else if (arg == "--crash-checkpoint") {
      opts.crash_checkpoint =
          runtime::ParseBoundedInt(next(), 0, 1 << 30, &ok);
    } else if (arg == "--crash-step") {
      opts.crash_step = runtime::ParseBoundedInt(next(), 0, 2, &ok);
    } else {
      ok = false;
    }
  }
  if (!ok) return std::nullopt;
  if (opts.daemon_mode &&
      (opts.wal_dir.empty() || opts.port_file.empty() ||
       opts.verdict_log.empty())) {
    return std::nullopt;
  }
  return opts;
}

}  // namespace
}  // namespace manic::serve

int main(int argc, char** argv) {
  const auto opts = manic::serve::ParseArgs(argc, argv);
  if (!opts) return manic::serve::Usage();
  if (opts->daemon_mode) return manic::serve::RunDaemon(*opts);
  return manic::serve::RunParent(*opts);
}
