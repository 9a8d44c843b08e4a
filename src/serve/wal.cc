#include "serve/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "serve/codec.h"

namespace manic::serve {
namespace {

// The magic names the record format: "MANICWAL" and a format digit.
constexpr char kMagic[] = "MANICWAL2\n";
constexpr std::size_t kMagicLen = sizeof(kMagic) - 1;
constexpr std::size_t kMagicFamilyLen = 8;  // "MANICWAL"
constexpr char kCleanMarker[] = "wal-clean";

std::string SegmentName(std::uint32_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%06u.seg", index);
  return name;
}

std::string CleanMarkerPath(const std::string& dir) {
  return dir + "/" + kCleanMarker;
}

// The six-digit number in a name of the form <prefix>NNNNNN<suffix>; 0 when
// the name has another form.
std::uint32_t NumberIn(const std::string& name, std::string_view prefix,
                       std::string_view suffix) {
  if (name.size() != prefix.size() + 6 + suffix.size() ||
      name.compare(0, prefix.size(), prefix) != 0 ||
      name.compare(prefix.size() + 6, suffix.size(), suffix) != 0) {
    return 0;
  }
  std::uint32_t index = 0;
  for (std::size_t i = prefix.size(); i < prefix.size() + 6; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return 0;
    index = index * 10 + static_cast<std::uint32_t>(c - '0');
  }
  return index;
}

// Segment index of a "wal-NNNNNN.seg" file name; 0 = not a segment.
std::uint32_t SegmentIndexOf(const std::string& name) {
  return NumberIn(name, "wal-", ".seg");
}

// Checkpoint number of a committed "ckpt-NNNNNN" manifest name; 0 = not one
// (parts and .tmp files carry a suffix).
std::uint32_t CheckpointIndexOf(const std::string& name) {
  return NumberIn(name, "ckpt-", "");
}

// "ckpt-NNNNNN": the manifest of the checkpoint numbered `first_live`.
std::string CheckpointName(std::uint32_t first_live) {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%06u", first_live);
  return name;
}

// Ascending list of (index, path) for every segment under dir.
std::vector<std::pair<std::uint32_t, std::string>> ListSegments(
    const std::string& dir) {
  std::vector<std::pair<std::uint32_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::uint32_t index = SegmentIndexOf(entry.path().filename());
    if (index != 0) segments.emplace_back(index, entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

}  // namespace

WalSyncTicket::~WalSyncTicket() {
  if (fd >= 0) ::close(fd);
}

WalSyncTicket::WalSyncTicket(WalSyncTicket&& other) noexcept
    : fd(std::exchange(other.fd, -1)), dir(other.dir), op(other.op) {}

WalSyncTicket& WalSyncTicket::operator=(WalSyncTicket&& other) noexcept {
  if (this != &other) {
    if (fd >= 0) ::close(fd);
    fd = std::exchange(other.fd, -1);
    dir = other.dir;
    op = other.op;
  }
  return *this;
}

WalWriter::~WalWriter() { Abandon(); }

WalStatus WalWriter::Open(const WalConfig& config) {
  Abandon();
  config_ = config;
  if (config_.segment_bytes == 0) config_.segment_bytes = 1;
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  if (ec) return WalStatus::kIoError;
  // Appending again: the log is live, the previous clean shutdown is over.
  std::filesystem::remove(CleanMarkerPath(config_.dir), ec);
  next_segment_ = std::max<std::uint32_t>(1, NewestCheckpoint(config_.dir));
  for (const auto& [index, path] : ListSegments(config_.dir)) {
    if (index >= next_segment_) next_segment_ = index + 1;
  }
  return OpenSegment();
}

WalStatus WalWriter::Roll() {
  if (fd_ < 0) return WalStatus::kIoError;
  const WalStatus sealed = FsyncNow();
  if (sealed != WalStatus::kOk) return sealed;
  ::close(fd_);
  fd_ = -1;
  return OpenSegment();
}

WalStatus WalWriter::OpenSegment() {
  const std::string path = config_.dir + "/" + SegmentName(next_segment_);
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd_ < 0) return errno == ENOSPC ? WalStatus::kNoSpace : WalStatus::kIoError;
  ++next_segment_;
  ++segments_opened_;
  segment_written_ = 0;
  writeback_from_ = 0;
  dir_synced_ = false;
  return WriteAll(kMagic, kMagicLen);
}

// The WAL append fast path: runs once per consumed submit batch and per day
// close, so it is fenced by the linter's hot-path contract — the only I/O
// and allocation here are the explicitly justified durability calls below.
// manic-lint: hot-path(begin)
WalStatus WalWriter::WriteAll(const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    std::size_t attempt = len - off;
    if (config_.fault_hook != nullptr) {
      using Kind = runtime::IoFaultHook::WriteFault::Kind;
      const auto fault = config_.fault_hook->WriteAt(write_ops_++, attempt);
      switch (fault.kind) {
        case Kind::kPass:
          break;
        case Kind::kEintr:
          continue;  // the syscall "failed" with EINTR: retry, no bytes moved
        case Kind::kShort:
          attempt = std::max<std::size_t>(1, std::min(fault.short_len, attempt));
          break;
        case Kind::kEnospc:
          return WalStatus::kNoSpace;
      }
    }
    // The durability write itself — the one syscall this path exists for.
    // manic-lint: allow(hot-path)
    const ssize_t n = ::write(fd_, data + off, attempt);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == ENOSPC ? WalStatus::kNoSpace : WalStatus::kIoError;
    }
    off += static_cast<std::size_t>(n);
  }
  return WalStatus::kOk;
}

WalStatus WalWriter::AppendFrame(std::string_view frame,
                                 WalSyncTicket* deferred) {
  if (fd_ < 0) return WalStatus::kIoError;
  if (config_.fault_hook != nullptr) {
    const std::int64_t crash = config_.fault_hook->CrashBytesAt(records_);
    if (crash >= 0) {
      // Kill point: emit the prescribed torn prefix, then die where a real
      // crash would — recovery sees a record cut mid-header or mid-payload.
      const std::size_t torn =
          std::min(frame.size(), static_cast<std::size_t>(crash));
      (void)WriteAll(frame.data(), torn);
      std::_Exit(42);
    }
  }
  const WalStatus written = WriteAll(frame.data(), frame.size());
  if (written != WalStatus::kOk) return written;
  ++records_;
  segment_written_ += frame.size();
  if (deferred != nullptr && config_.fsync != WalFsync::kNone) {
    const WalStatus taken = TakeTicket(deferred);
    if (taken != WalStatus::kOk) return taken;
  } else if (config_.fsync == WalFsync::kEveryAppend) {
    const WalStatus synced = FsyncNow();
    if (synced != WalStatus::kOk) return synced;
  } else if (config_.fsync == WalFsync::kDayClose &&
             segment_written_ - writeback_from_ >= kWalWritebackBytes) {
    // Start writeback of the day's bytes so far, so the close marker's
    // fdatasync waits only for the tail. A hint, once per ~73 KiB: it does
    // not wait for the writeback, moves no byte and no durability point, and
    // a failure here resurfaces from that fdatasync.
    // manic-lint: allow(hot-path)
    (void)::sync_file_range(
        fd_, static_cast<off_t>(kMagicLen + writeback_from_),
        static_cast<off_t>(segment_written_ - writeback_from_),
        SYNC_FILE_RANGE_WRITE);
    writeback_from_ = segment_written_;
    ++writeback_hints_;
  }
  // Seal the full segment (its bytes must outlive the rotation) and roll to
  // the next — a cold, once-per-segment branch.
  if (segment_written_ >= config_.segment_bytes) return Roll();
  return WalStatus::kOk;
}

WalStatus WalWriter::AppendSamples(std::span<const Sample> samples) {
  // A record larger than kMaxFramePayload or holding more than
  // kMaxSamplesPerFrame samples would fail the whole recovery, so a run is
  // written as the records that fit both. Only an in-process SubmitBatch
  // can need more than one: a run off the wire is a subset of one decoded
  // frame, and a subset re-encodes no larger (each dropped sample's key,
  // delta and tag bytes cover whatever its successor pays more).
  while (!samples.empty()) {
    // frame_buf_ is reused append over append: amortized to zero
    // allocation once the high-water batch size has been seen.
    frame_buf_.clear();
    const std::size_t encoded = EncodeSubmitBatchTo(
        samples.first(std::min<std::size_t>(samples.size(),
                                            kMaxSamplesPerFrame)),
        &frame_buf_, kMaxFramePayload);
    const WalStatus status = AppendFrame(frame_buf_, nullptr);
    if (status != WalStatus::kOk) return status;
    samples = samples.subspan(encoded);
  }
  return WalStatus::kOk;
}

WalStatus WalWriter::AppendClose(std::int64_t day) {
  WalSyncTicket ticket;
  const WalStatus status = AppendCloseDeferred(day, &ticket);
  return status == WalStatus::kOk ? SyncDeferred(ticket) : status;
}

WalStatus WalWriter::AppendCloseDeferred(std::int64_t day,
                                         WalSyncTicket* ticket) {
  *ticket = WalSyncTicket{};
  frame_buf_.clear();
  EncodeFlushAckTo(day, &frame_buf_);
  return AppendFrame(frame_buf_, ticket);
}
// manic-lint: hot-path(end)

// The marker's sync, taken now and run by the ticket's holder: the seam
// indices are reserved in append order, and everything appended so far
// counts as synced for the writeback cursor, as after FsyncNow.
WalStatus WalWriter::TakeTicket(WalSyncTicket* ticket) {
  ticket->fd = ::fcntl(fd_, F_DUPFD_CLOEXEC, 0);
  if (ticket->fd < 0) return WalStatus::kIoError;
  ticket->dir = !dir_synced_;
  ticket->op = fsync_ops_;
  fsync_ops_ += ticket->dir ? 2 : 1;
  if (ticket->dir) ++dir_syncs_;
  dir_synced_ = true;
  writeback_from_ = segment_written_;
  return WalStatus::kOk;
}

WalStatus WalWriter::FsyncNow() {
  if (config_.fault_hook != nullptr &&
      !config_.fault_hook->FsyncOkAt(fsync_ops_++)) {
    return WalStatus::kIoError;
  }
  // fdatasync, not fsync: recovery needs the appended bytes and the file
  // size (both covered), not the mtime — whose journal commit is most of
  // an ext4 fsync's cost on the day-close path.
  if (::fdatasync(fd_) != 0) {
    return errno == ENOSPC ? WalStatus::kNoSpace : WalStatus::kIoError;
  }
  writeback_from_ = segment_written_;
  if (dir_synced_ || config_.fsync == WalFsync::kNone) return WalStatus::kOk;
  dir_synced_ = true;
  ++dir_syncs_;
  return SyncDir(fsync_ops_++);
}

WalStatus WalWriter::SyncDir(std::uint64_t op) const {
  if (config_.fault_hook != nullptr && !config_.fault_hook->FsyncOkAt(op)) {
    return WalStatus::kIoError;
  }
  const int dir_fd =
      ::open(config_.dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return WalStatus::kIoError;
  const int rc = ::fsync(dir_fd);
  ::close(dir_fd);
  return rc == 0 ? WalStatus::kOk : WalStatus::kIoError;
}

WalStatus WalWriter::SyncDeferred(WalSyncTicket& ticket) const {
  if (ticket.fd < 0) return WalStatus::kOk;
  WalStatus status = WalStatus::kOk;
  if (config_.fault_hook != nullptr &&
      !config_.fault_hook->FsyncOkAt(ticket.op)) {
    status = WalStatus::kIoError;
  } else if (::fdatasync(ticket.fd) != 0) {
    status = errno == ENOSPC ? WalStatus::kNoSpace : WalStatus::kIoError;
  }
  ::close(ticket.fd);
  ticket.fd = -1;
  if (status == WalStatus::kOk && ticket.dir) status = SyncDir(ticket.op + 1);
  return status;
}

WalStatus WalWriter::Sync() {
  if (fd_ < 0) return WalStatus::kIoError;
  return FsyncNow();
}

WalStatus WalWriter::CloseClean() {
  if (fd_ < 0) return WalStatus::kIoError;
  const WalStatus synced = FsyncNow();
  if (synced != WalStatus::kOk) return synced;
  ::close(fd_);
  fd_ = -1;
  std::ofstream marker(CleanMarkerPath(config_.dir), std::ios::binary);
  marker << kMagic;
  marker.flush();
  return marker.good() ? WalStatus::kOk : WalStatus::kIoError;
}

void WalWriter::Abandon() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string CheckpointPath(const std::string& dir, std::uint32_t first_live) {
  return dir + "/" + CheckpointName(first_live);
}

std::string CheckpointPartPath(const std::string& dir, std::uint32_t parts_tag,
                               std::uint32_t part) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".part-%u", part);
  return CheckpointPath(dir, parts_tag) + suffix;
}

std::uint32_t NewestCheckpoint(const std::string& dir) {
  std::uint32_t newest = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    newest = std::max(newest, CheckpointIndexOf(entry.path().filename()));
  }
  return newest;
}

std::uint64_t RetireCovered(const std::string& dir, std::uint32_t first_live,
                            std::uint32_t parts_tag) {
  std::uint64_t retired = 0;
  std::error_code ec;
  for (const auto& [index, path] : ListSegments(dir)) {
    if (index < first_live && std::filesystem::remove(path, ec)) ++retired;
  }
  // Judged by file name: `dir` may be spelled with a trailing slash, which
  // the directory listing does not repeat.
  const std::string keep = CheckpointName(first_live);
  const std::string keep_parts = CheckpointName(parts_tag) + ".part-";
  std::vector<std::filesystem::path> stale;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) != 0) continue;
    if (name == keep || name.rfind(keep_parts, 0) == 0) continue;
    stale.push_back(entry.path());
  }
  for (const auto& path : stale) std::filesystem::remove(path, ec);
  return retired;
}

namespace {

// How one segment's replay ended.
enum class SegmentEnd : std::uint8_t {
  kReplayed,  // every complete record replayed, any torn tail chopped
  kEmpty,     // a final segment holding no record: removed
  kFailed,    // stats->error says why
};

// A read-only descriptor, closed on every exit — a throwing callback too.
struct ReadOnlyFd {
  explicit ReadOnlyFd(const std::string& path)
      : fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {}
  ~ReadOnlyFd() {
    if (fd >= 0) ::close(fd);
  }
  ReadOnlyFd(const ReadOnlyFd&) = delete;
  ReadOnlyFd& operator=(const ReadOnlyFd&) = delete;
  const int fd = -1;
};

// One read() into dst; retries EINTR. Returns the bytes read (0 at EOF),
// or -1 on a read error — which must never pass for EOF: a short read
// would look like a torn tail and truncate durable records.
ssize_t ReadSome(int fd, char* dst, std::size_t len) {
  for (;;) {
    const ssize_t n = ::read(fd, dst, len);
    if (n >= 0 || errno != EINTR) return n;
  }
}

// Streams one segment through `buf` (one chunk plus the largest legal
// frame, reused across segments): each chunk is parsed in place and a
// frame cut by the chunk end is carried to the front for the next read.
SegmentEnd ReplaySegment(
    int fd, const std::string& path, bool last, char* buf,
    std::vector<Sample>* batch,
    const std::function<void(std::span<const Sample>)>& on_samples,
    const std::function<void(std::int64_t)>& on_close,
    WalRecoverStats* stats) {
  std::size_t begin = 0;      // unparsed bytes are buf[begin, end)
  std::size_t end = 0;
  std::uint64_t file_bytes = 0;
  bool magic_seen = false;
  for (;;) {
    if (begin != 0) {
      std::memmove(buf, buf + begin, end - begin);
      end -= begin;
      begin = 0;
    }
    const ssize_t n = ReadSome(fd, buf + end, kWalReadChunkBytes);
    if (n < 0) {
      stats->error = "cannot read wal segment " + path;
      return SegmentEnd::kFailed;
    }
    if (n == 0) break;
    end += static_cast<std::size_t>(n);
    file_bytes += static_cast<std::uint64_t>(n);
    if (!magic_seen) {
      if (end < kMagicLen) continue;
      if (std::memcmp(buf, kMagic, kMagicLen) != 0) {
        // Another format's log is named, not parsed: its records would read
        // as damage, or as a torn tail to chop.
        stats->error =
            std::memcmp(buf, kMagic, kMagicFamilyLen) == 0
                ? "wal segment " + path + " is format " +
                      std::string(buf, kMagicLen - 1) + "; this build reads " +
                      std::string(kMagic, kMagicLen - 1)
                : "bad magic in wal segment " + path;
        return SegmentEnd::kFailed;
      }
      magic_seen = true;
      begin = kMagicLen;
    }
    FrameView frame;
    for (;;) {
      const FrameParse parsed =
          ParseFrame(std::string_view(buf + begin, end - begin), &frame);
      if (parsed == FrameParse::kNeedMore) break;
      if (parsed == FrameParse::kCorrupt) {
        stats->error = "corrupt framing in " + path;
        return SegmentEnd::kFailed;
      }
      begin += frame.size;
      if (frame.type == MsgType::kSubmitBatch) {
        if (!DecodeSubmitBatch(frame.payload, batch)) {
          stats->error = "malformed sample record in " + path;
          return SegmentEnd::kFailed;
        }
        ++stats->records;
        stats->samples += batch->size();
        on_samples(*batch);
      } else if (frame.type == MsgType::kFlushAck) {
        std::int64_t day = 0;
        if (!DecodeFlushAck(frame.payload, &day)) {
          stats->error = "malformed day-close marker in " + path;
          return SegmentEnd::kFailed;
        }
        ++stats->records;
        ++stats->closes;
        on_close(day);
      } else {
        stats->error = "foreign frame type in " + path;
        return SegmentEnd::kFailed;
      }
    }
  }
  std::error_code ec;
  if (!magic_seen) {
    // A crash while stamping the magic of a fresh segment: nothing was
    // ever durable here. Anywhere else it is damage.
    if (!last) {
      stats->error = "short wal segment " + path;
      return SegmentEnd::kFailed;
    }
    stats->truncated_bytes += file_bytes;
    std::filesystem::remove(path, ec);
    return SegmentEnd::kEmpty;
  }
  if (last && file_bytes == kMagicLen) {
    // Only the magic: a clean stop's fresh segment, or a roll that died
    // before its first append. Removed, or every restart would add one.
    std::filesystem::remove(path, ec);
    return SegmentEnd::kEmpty;
  }
  const std::size_t leftover = end - begin;
  if (leftover != 0) {
    if (!last) {
      // A torn record can only live at the very tail of the log: one in
      // the middle means the files were damaged, not just interrupted.
      stats->error = "torn record inside non-final segment " + path;
      return SegmentEnd::kFailed;
    }
    // The kill-mid-append signature. Chop it off the file, not just the
    // parse: the next incarnation appends to a fresh segment, but an
    // operator concatenating segments must never see half a record.
    stats->truncated_bytes += leftover;
    std::filesystem::resize_file(path, file_bytes - leftover, ec);
    if (ec) {
      stats->error = "cannot truncate torn tail of " + path;
      return SegmentEnd::kFailed;
    }
  }
  return SegmentEnd::kReplayed;
}

}  // namespace

WalRecoverStats ReadWal(
    const std::string& dir,
    const std::function<void(std::span<const Sample>)>& on_samples,
    const std::function<void(std::int64_t)>& on_close) {
  WalRecoverStats stats;
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) {
    stats.ok = true;  // nothing durable yet: a fresh service
    return stats;
  }
  stats.clean_shutdown = std::filesystem::exists(CleanMarkerPath(dir), ec);
  const auto segments = ListSegments(dir);
  // A frame carried over from one chunk is shorter than the largest legal
  // frame, so one chunk past it always fits. Left uninitialized: only the
  // bytes a segment actually holds are ever touched.
  const auto buf = std::make_unique_for_overwrite<char[]>(
      kWalReadChunkBytes + WalRecordHeader::kEncodedSize + kMaxFramePayload);
  std::vector<Sample> batch;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const bool last = i + 1 == segments.size();
    const std::string& path = segments[i].second;
    const ReadOnlyFd segment(path);
    if (segment.fd < 0) {
      stats.error = "cannot open wal segment " + path;
      return stats;
    }
    const SegmentEnd end = ReplaySegment(segment.fd, path, last, buf.get(),
                                         &batch, on_samples, on_close, &stats);
    if (end == SegmentEnd::kFailed) return stats;
    if (end == SegmentEnd::kEmpty) break;
    ++stats.segments;
  }
  stats.ok = true;
  return stats;
}

}  // namespace manic::serve
