// Service checkpoints: the bounded-restart half of the write-ahead log (see
// serve/wal.h for the directory layout and serve/service.h for when one is
// taken). A checkpoint taken at day D's close is exactly the state the WAL
// prefix through D's close marker replays to, so recovery loads the newest
// committed checkpoint and replays only the segments it does not cover.
//
// Two kinds of file, both a sequence of length-prefixed records
// ([u64 length][payload]; integers little-endian, floats and doubles by bit
// pattern through runtime::BlobWriter):
//
//   manifest  ckpt-NNNNNN: a CheckpointHeader, then records for the part
//             sizes, the service counters, every link's DataQuality, and one
//             record per link of its verdict rows. Written as
//             ckpt-NNNNNN.tmp, synced and renamed: the rename commits.
//   part      ckpt-TTTTTT.part-K: shard K's (link, VP) pairs in ascending
//             order, one record each — the classifier (open days by day,
//             window days oldest first, quality tally). Pairs are keyed by
//             link, so a checkpoint written at N shards restores at any
//             shard count.
//
// Version 2 dropped the raw series each version-1 pair record carried (the
// service no longer keeps raw samples); a version-1 checkpoint is refused,
// naming both versions, and left on disk.
//
// Writers stream one record at a time through a reused buffer, so taking a
// checkpoint never holds a second full copy of the state it saves. Readers
// treat the files as untrusted: every length is checked against the bytes
// the file holds before anything is allocated, and any malformation fails
// the load instead of guessing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "runtime/checkpoint.h"
#include "runtime/io_fault.h"
#include "serve/verdict.h"
#include "serve/wal.h"

namespace manic::infer {
struct DataQuality;
}  // namespace manic::infer

namespace manic::serve {

// "MANICCK1" read as a little-endian u64.
inline constexpr std::uint64_t kCheckpointMagic = 0x314b4343494e414dULL;
inline constexpr std::uint32_t kCheckpointVersion = 2;

// The fixed front of a manifest. Its in-memory layout is its encoding (all
// fields little-endian, no padding), pinned below and by the golden-bytes
// test CheckpointFormat.HeaderGoldenBytes.
struct CheckpointHeader {
  std::uint64_t magic = kCheckpointMagic;
  std::uint32_t version = kCheckpointVersion;
  // Every WAL segment numbered below this one is covered (and retired).
  std::uint32_t first_live_segment = 0;
  // The parts are named ckpt-<parts_tag>.part-K, K < parts.
  std::uint32_t parts_tag = 0;
  std::uint32_t parts = 0;
  std::int64_t day = 0;  // the close marker the checkpoint was taken at
  // The classifier shape the pair records were written with.
  std::uint32_t window_days = 0;
  std::uint32_t intervals_per_day = 0;

  static constexpr std::size_t kEncodedSize = 40;
};
static_assert(sizeof(CheckpointHeader) == CheckpointHeader::kEncodedSize);
static_assert(offsetof(CheckpointHeader, first_live_segment) == 12);
static_assert(offsetof(CheckpointHeader, day) == 24);
static_assert(offsetof(CheckpointHeader, intervals_per_day) == 36);

void EncodeCheckpointHeader(const CheckpointHeader& header,
                            runtime::BlobWriter& out);
// False on a short buffer, a foreign magic or an unknown version; on an
// unknown version (only) header->version is left holding the version read.
[[nodiscard]] bool DecodeCheckpointHeader(std::string_view bytes,
                                          CheckpointHeader* header);

// One checkpoint file being written. Records go straight to the file, one
// at a time; the destructor closes an unfinished file without syncing it.
// Writes and syncs go through the hook's checkpoint seams, as the WAL's go
// through its log seams.
class CheckpointFile {
 public:
  CheckpointFile() = default;
  ~CheckpointFile();
  CheckpointFile(const CheckpointFile&) = delete;
  CheckpointFile& operator=(const CheckpointFile&) = delete;

  // `hook` may be null (no faults).
  WalStatus Create(const std::string& path, const runtime::IoFaultHook* hook);
  WalStatus Append(std::string_view bytes);
  WalStatus AppendRecord(std::string_view payload);
  // fdatasync when `sync`, then close.
  WalStatus Finish(bool sync);
  // After Finish: renames the file over `path` — the commit — and, when
  // `sync`, fsyncs `dir` so the rename itself is durable.
  WalStatus CommitAs(const std::string& path, const std::string& dir,
                     bool sync);
  std::uint64_t bytes() const noexcept { return bytes_; }

 private:
  WalStatus SyncFd(int fd, bool data_only);

  std::string path_;
  const runtime::IoFaultHook* hook_ = nullptr;
  int fd_ = -1;
  std::uint64_t bytes_ = 0;
  std::uint64_t write_ops_ = 0;  // write() attempt counter (fault seam)
  std::uint64_t fsync_ops_ = 0;  // sync counter (fault seam)
};

// Sequential reader over one checkpoint file.
class CheckpointReader {
 public:
  CheckpointReader() = default;
  ~CheckpointReader();
  CheckpointReader(const CheckpointReader&) = delete;
  CheckpointReader& operator=(const CheckpointReader&) = delete;

  [[nodiscard]] bool Open(const std::string& path);
  std::uint64_t size() const noexcept { return size_; }
  // Exactly n raw bytes (the manifest header).
  [[nodiscard]] bool ReadExact(std::size_t n, std::string* out);

  enum class [[nodiscard]] Next : std::uint8_t { kRecord, kEnd, kCorrupt };
  // The next record's payload into *payload (its buffer is reused).
  Next ReadRecord(std::string* payload);

 private:
  int fd_ = -1;
  std::uint64_t size_ = 0;
  std::uint64_t pos_ = 0;
};

// ---- record bodies ----------------------------------------------------------
// Each Load is the exact inverse of its Save and returns false on malformed
// input.

void SaveVerdictRow(const VerdictRecord& v, runtime::BlobWriter& out);
[[nodiscard]] bool LoadVerdictRow(runtime::BlobReader& in, topo::LinkId link,
                                  VerdictRecord* v);

void SaveQuality(const infer::DataQuality& q, runtime::BlobWriter& out);
[[nodiscard]] bool LoadQuality(runtime::BlobReader& in, infer::DataQuality* q);

}  // namespace manic::serve
