// Durable write-ahead log for the serving plane. Every admitted sample and
// every day close is appended as a codec frame — kSubmitBatch for runs of
// consumed samples (the compact v2 record, split so no frame passes
// kMaxFramePayload), kFlushAck (payload: the closed day) as the day-close
// marker — to an append-only segment log under one directory:
//
//   wal-000001.seg   [magic "MANICWAL2\n"] [frame] [frame] ...
//   wal-000002.seg   ...
//   wal-clean        present only after a graceful CloseClean()
//   ckpt-NNNNNN      a committed service checkpoint (serve/checkpoint.h):
//                    the state after every record in the segments numbered
//                    below NNNNNN, which are therefore retired
//   ckpt-TTTTTT.part-K  shard K's part of the checkpoint whose header names
//                    parts tag TTTTTT
//   ckpt-NNNNNN.tmp  a checkpoint being written: never loaded
//
// Each daemon incarnation appends to a fresh segment, so a crash can tear at
// most the tail of the newest segment; ReadWal chops that torn tail off the
// file (the CheckpointLog idiom) and replays every complete record in order.
// The magic names the record format: a segment of another format (a
// MANICWAL1 log of fixed 21-byte samples) fails recovery with an error that
// names it, and is never read or truncated.
// Because the record stream IS the admitted-sample stream, replaying it
// through the same submit path rebuilds the service byte-identically — the
// recovered verdict log equals an uncrashed run's at any shard count.
//
// Durability ladder (WalFsync): kNone trusts the page cache entirely (crash-
// of-process safe, not power-loss safe); kDayClose (default) fsyncs at every
// day-close marker, bounding power-loss exposure to the open day; kEveryAppend
// fsyncs each record. Under kDayClose the writer also asks the kernel to
// start writing back every kWalWritebackBytes of records appended since the
// last sync (sync_file_range, SYNC_FILE_RANGE_WRITE), so the marker's
// fdatasync flushes only the tail of the day; the hint changes no byte and
// no durability point. Between fsyncs, a lost suffix is recovered from the
// client side: acks are sent only after the record reaches the log, so a
// reconnecting client (RetryingClient + kGetWatermark) resubmits exactly the
// un-acked suffix.
//
// A segment file is created by open(O_CREAT), and POSIX makes its directory
// entry durable only with an fsync of the directory. So under kDayClose and
// kEveryAppend the first durability sync in each segment — the first
// marker's, the first record's, or the seal in Roll/CloseClean, whichever
// comes first — also fsyncs the directory (counted in dir_syncs()). Open
// and Roll never sync by themselves, so restart and rotation pay nothing
// up front.
//
// The service appends a day-close marker with AppendCloseDeferred, which
// writes the marker and hands back its sync as a WalSyncTicket instead of
// running it; the service's closer thread runs the ticket (SyncDeferred),
// so the batch that closed the day is acknowledged once the marker is
// written.
//
// All file writes funnel through one fault-aware write loop: an installed
// runtime::IoFaultHook can inject short writes, EINTR, ENOSPC, fsync failure,
// and mid-record crash points — the seam tools/crashloop and the WAL tests
// drive. kNoSpace is the degradation trigger: the service sheds ingest and
// keeps serving queries instead of aborting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "runtime/io_fault.h"
#include "serve/sample.h"

namespace manic::serve {

// The default segment size. A segment's record bytes set the checkpoint
// cadence (serve/service.h), so the size follows the record format to keep
// that cadence per sample: a study pair-day batch encodes to 2/7 of its
// fixed-width v1 bytes (1,171 B against 4,041), so 64 MiB x 2/7 holds the
// samples 64 MiB of v1 records did. The same rule scales kWalWritebackBytes.
inline constexpr std::size_t kWalDefaultSegmentBytes =
    (std::size_t{64} << 20) * 2 / 7;

// When the log forces bytes to the platter. See the header comment.
enum class WalFsync : std::uint8_t { kNone, kDayClose, kEveryAppend };

struct WalConfig {
  std::string dir;
  // A segment rotates once it holds at least this many record bytes.
  std::size_t segment_bytes = kWalDefaultSegmentBytes;
  WalFsync fsync = WalFsync::kDayClose;
  // Fault-injection seam; null = no faults.
  runtime::IoFaultHook* fault_hook = nullptr;
};

// Outcome of a WAL open/append/sync. kNoSpace (ENOSPC) is recoverable by
// the degradation ladder — serve queries, shed ingest; kIoError is not.
enum class [[nodiscard]] WalStatus : std::uint8_t {
  kOk,
  kNoSpace,
  kIoError,
};

// The fixed prefix of one on-disk WAL record — the frame header, [u32
// length][u8 type], length counting the type byte plus the payload. Pinned
// byte for byte by WalCodec.FrameHeaderGoldenBytes: widening it would orphan
// every existing log, so the test forces a deliberate format bump instead.
struct WalRecordHeader {
  std::uint32_t length = 0;
  std::uint8_t type = 0;

  static constexpr std::uint64_t kEncodedSize = 5;
};

// A day-close marker's durability point, taken by AppendCloseDeferred and
// run by WalWriter::SyncDeferred on any thread. The descriptor is a dup of
// the segment's, so the writer may roll or close its own while the ticket
// is out; the fault seam's op indices were taken in append order. Owns the
// dup: move-only, closed by SyncDeferred or the destructor.
struct [[nodiscard]] WalSyncTicket {
  WalSyncTicket() = default;
  ~WalSyncTicket();
  WalSyncTicket(WalSyncTicket&& other) noexcept;
  WalSyncTicket& operator=(WalSyncTicket&& other) noexcept;
  WalSyncTicket(const WalSyncTicket&) = delete;
  WalSyncTicket& operator=(const WalSyncTicket&) = delete;

  int fd = -1;           // -1: nothing to sync (WalFsync::kNone)
  bool dir = false;      // the segment's first sync: fsync the directory too
  std::uint64_t op = 0;  // FsyncOkAt index of the file sync; the dir's is +1
};

struct [[nodiscard]] WalRecoverStats {
  std::uint64_t segments = 0;   // segment files replayed
  std::uint64_t records = 0;    // complete records replayed
  std::uint64_t samples = 0;    // samples inside replayed batch records
  std::uint64_t closes = 0;     // day-close markers replayed
  std::uint64_t truncated_bytes = 0;  // torn tail chopped off the last segment
  bool clean_shutdown = false;  // the wal-clean marker was present
  bool ok = false;
  std::string error;
  // Set by CongestionService::RecoverFromWal: the size of the checkpoint
  // loaded before the replay (0 = none).
  std::uint64_t checkpoint_bytes = 0;
};

// Appender. One incarnation = one Open() (fresh segment) + appends +
// CloseClean() on graceful shutdown. Not thread-safe: the service's single
// producer (the daemon event loop) owns it.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Creates the directory if needed, removes the clean marker, and opens a
  // new segment numbered past every existing one and every segment a
  // committed checkpoint retired.
  WalStatus Open(const WalConfig& config);
  bool is_open() const noexcept { return fd_ >= 0; }
  // Number of the segment appends land in.
  std::uint32_t segment_index() const noexcept { return next_segment_ - 1; }

  // kSubmitBatch records for the run of consumed samples: one, unless it
  // holds more than kMaxSamplesPerFrame samples or its encoding passes
  // kMaxFramePayload, when it is split into as many records as fit. No-op
  // for an empty span.
  WalStatus AppendSamples(std::span<const Sample> samples);
  // One kFlushAck day-close marker; fsyncs unless the policy is kNone
  // (AppendCloseDeferred, then SyncDeferred on this thread).
  WalStatus AppendClose(std::int64_t day);
  // AppendClose that leaves the marker's sync to the caller: on kOk,
  // *ticket holds it (fd -1 under kNone). Whoever holds the ticket must run
  // it with SyncDeferred, which also closes its descriptor.
  WalStatus AppendCloseDeferred(std::int64_t day, WalSyncTicket* ticket);
  // Runs a ticket. Safe on another thread while the owner appends, rolls
  // or abandons: it reads only the ticket and the config set at Open.
  WalStatus SyncDeferred(WalSyncTicket& ticket) const;

  // Forces everything appended so far to the platter, regardless of policy.
  WalStatus Sync();
  // Seals the open segment (fsync) and opens the next one, so nothing
  // appended from here on shares a segment with what came before — the
  // checkpoint roll (see serve/service.h).
  WalStatus Roll();
  // Sync + write the clean-shutdown marker + close the descriptor. The next
  // Open() removes the marker again.
  WalStatus CloseClean();
  // Closes the descriptor without the marker — the degraded-mode exit, and
  // the destructor's path: an unclean close is exactly what recovery expects.
  void Abandon();

  std::uint64_t records_appended() const noexcept { return records_; }
  std::uint64_t segments_opened() const noexcept { return segments_opened_; }
  // Writeback hints sent (kDayClose only; see the header comment).
  std::uint64_t writeback_hints() const noexcept { return writeback_hints_; }
  // Directory syncs taken: one per segment, never under kNone. A deferred
  // one counts when its ticket is taken.
  std::uint64_t dir_syncs() const noexcept { return dir_syncs_; }

 private:
  // `deferred` non-null: a day-close marker whose sync goes to the ticket.
  WalStatus AppendFrame(std::string_view frame, WalSyncTicket* deferred);
  WalStatus WriteAll(const char* data, std::size_t len);
  WalStatus OpenSegment();
  WalStatus FsyncNow();
  // The marker's sync for AppendCloseDeferred (see WalSyncTicket).
  WalStatus TakeTicket(WalSyncTicket* ticket);
  // The fsync of the directory, behind FsyncOkAt(op).
  WalStatus SyncDir(std::uint64_t op) const;

  WalConfig config_;
  int fd_ = -1;
  std::uint32_t next_segment_ = 1;
  std::uint64_t segments_opened_ = 0;
  std::uint64_t records_ = 0;        // whole-record append counter (crash seam)
  std::uint64_t write_ops_ = 0;      // write() attempt counter (fault seam)
  std::uint64_t fsync_ops_ = 0;      // fsync() attempt counter (fault seam)
  std::size_t segment_written_ = 0;  // record bytes in the open segment
  // Record bytes of the open segment already synced or hinted; the next
  // writeback hint covers [writeback_from_, segment_written_).
  std::size_t writeback_from_ = 0;
  std::uint64_t writeback_hints_ = 0;
  // The open segment's first durability sync has been taken (see the
  // header comment); reset by OpenSegment.
  bool dir_synced_ = false;
  std::uint64_t dir_syncs_ = 0;
  std::string frame_buf_;            // reused per-append encode buffer
};

// Paths of the checkpoint files that share the log's directory (see the
// header comment).
std::string CheckpointPath(const std::string& dir, std::uint32_t first_live);
std::string CheckpointPartPath(const std::string& dir, std::uint32_t parts_tag,
                               std::uint32_t part);
// The first_live number of the newest committed checkpoint under dir; 0 when
// there is none.
std::uint32_t NewestCheckpoint(const std::string& dir);
// Retirement: removes every segment numbered below first_live and every
// checkpoint file but the committed checkpoint `first_live` and its parts.
// Returns the segments removed. Missing files are not an error: a crash may
// have stopped an earlier retirement halfway.
std::uint64_t RetireCovered(const std::string& dir, std::uint32_t first_live,
                            std::uint32_t parts_tag);

// Bytes ReadWal asks read() for at a time. Recovery holds one chunk plus
// the largest legal frame (kMaxFramePayload) whatever the segment size.
inline constexpr std::size_t kWalReadChunkBytes = std::size_t{1} << 20;

// Record bytes between writeback hints under WalFsync::kDayClose, scaled
// with kWalDefaultSegmentBytes so a hint still covers the same samples.
// Large enough that the writeback it starts does not interfere with the
// acks that follow (64 KiB of v1 records a hint cut the close as much but
// raised the ingest tail), small enough that a ~180 KB day of 154 pair-day
// batches gets two hints and leaves only its tail to the close's sync.
inline constexpr std::size_t kWalWritebackBytes =
    (std::size_t{256} << 10) * 2 / 7;

// Replays every complete record under `dir` in order: runs of samples to
// `on_samples`, day-close markers to `on_close`. Each segment streams
// through one reused buffer in kWalReadChunkBytes reads; frames are parsed
// in place by the daemon's own ParseFrame, a frame cut by a chunk end is
// carried over to the next read, and samples decode straight from the
// buffer into one reused batch (the span handed to `on_samples` is valid
// only during the call).
// Chops a torn tail off the newest segment (resize_file) so later appends
// land on a record boundary, and removes a newest segment that holds no
// record (a clean stop's fresh segment, or a stub killed before its magic)
// so restarts do not pile up empty segments. Recovery is idempotent: a
// crash *during* recovery loses nothing, the next attempt replays the
// identical record stream. Any malformation that is not a torn tail
// (corrupt framing, a foreign frame type, torn bytes in a non-final
// segment) fails with ok = false: the log is damaged, not merely
// interrupted. So does a read error:
// it is never taken for end of file, which would truncate durable records.
WalRecoverStats ReadWal(
    const std::string& dir,
    const std::function<void(std::span<const Sample>)>& on_samples,
    const std::function<void(std::int64_t)>& on_close);

}  // namespace manic::serve
