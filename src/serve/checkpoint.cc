#include "serve/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>

#include "infer/data_quality.h"

namespace manic::serve {
namespace {

WalStatus ErrnoStatus() {
  return errno == ENOSPC ? WalStatus::kNoSpace : WalStatus::kIoError;
}

// Reads exactly len bytes; false on EOF or a read error (never a short
// success — a checkpoint is either whole or rejected).
bool ReadFull(int fd, char* dst, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::read(fd, dst + off, len - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void EncodeCheckpointHeader(const CheckpointHeader& header,
                            runtime::BlobWriter& out) {
  out.PutU64(header.magic);
  out.PutU32(header.version);
  out.PutU32(header.first_live_segment);
  out.PutU32(header.parts_tag);
  out.PutU32(header.parts);
  out.PutI64(header.day);
  out.PutU32(header.window_days);
  out.PutU32(header.intervals_per_day);
}

bool DecodeCheckpointHeader(std::string_view bytes, CheckpointHeader* header) {
  runtime::BlobReader in(bytes);
  return bytes.size() == CheckpointHeader::kEncodedSize &&
         in.GetU64(&header->magic) && header->magic == kCheckpointMagic &&
         in.GetU32(&header->version) &&
         header->version == kCheckpointVersion &&
         in.GetU32(&header->first_live_segment) &&
         in.GetU32(&header->parts_tag) && in.GetU32(&header->parts) &&
         in.GetI64(&header->day) && in.GetU32(&header->window_days) &&
         in.GetU32(&header->intervals_per_day) && in.AtEnd();
}

// ---- writing ---------------------------------------------------------------

CheckpointFile::~CheckpointFile() {
  if (fd_ >= 0) ::close(fd_);
}

WalStatus CheckpointFile::Create(const std::string& path,
                                 const runtime::IoFaultHook* hook) {
  path_ = path;
  hook_ = hook;
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  return fd_ < 0 ? ErrnoStatus() : WalStatus::kOk;
}

WalStatus CheckpointFile::Append(std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    std::size_t attempt = bytes.size() - off;
    if (hook_ != nullptr) {
      using Kind = runtime::IoFaultHook::WriteFault::Kind;
      const auto fault = hook_->CheckpointWriteAt(write_ops_++, attempt);
      if (fault.kind == Kind::kEintr) continue;  // no bytes moved: retry
      if (fault.kind == Kind::kEnospc) return WalStatus::kNoSpace;
      if (fault.kind == Kind::kShort) {
        attempt = std::max<std::size_t>(1, std::min(fault.short_len, attempt));
      }
    }
    const ssize_t n = ::write(fd_, bytes.data() + off, attempt);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus();
    }
    off += static_cast<std::size_t>(n);
  }
  bytes_ += bytes.size();
  return WalStatus::kOk;
}

WalStatus CheckpointFile::AppendRecord(std::string_view payload) {
  runtime::BlobWriter length;
  length.PutU64(payload.size());
  const WalStatus framed = Append(length.str());
  return framed != WalStatus::kOk ? framed : Append(payload);
}

WalStatus CheckpointFile::SyncFd(int fd, bool data_only) {
  if (hook_ != nullptr && !hook_->CheckpointFsyncOkAt(fsync_ops_++)) {
    return WalStatus::kIoError;
  }
  const int rc = data_only ? ::fdatasync(fd) : ::fsync(fd);
  return rc == 0 ? WalStatus::kOk : ErrnoStatus();
}

WalStatus CheckpointFile::Finish(bool sync) {
  const WalStatus status = sync ? SyncFd(fd_, true) : WalStatus::kOk;
  ::close(fd_);
  fd_ = -1;
  return status;
}

WalStatus CheckpointFile::CommitAs(const std::string& path,
                                   const std::string& dir, bool sync) {
  if (::rename(path_.c_str(), path.c_str()) != 0) return ErrnoStatus();
  if (!sync) return WalStatus::kOk;
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return ErrnoStatus();
  const WalStatus status = SyncFd(dir_fd, false);
  ::close(dir_fd);
  return status;
}

// ---- reading ---------------------------------------------------------------

CheckpointReader::~CheckpointReader() {
  if (fd_ >= 0) ::close(fd_);
}

bool CheckpointReader::Open(const std::string& path) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat st {};
  if (fd_ < 0 || ::fstat(fd_, &st) != 0 || st.st_size < 0) return false;
  size_ = static_cast<std::uint64_t>(st.st_size);
  return true;
}

bool CheckpointReader::ReadExact(std::size_t n, std::string* out) {
  if (n > size_ - pos_) return false;
  out->resize(n);
  if (!ReadFull(fd_, out->data(), n)) return false;
  pos_ += n;
  return true;
}

CheckpointReader::Next CheckpointReader::ReadRecord(std::string* payload) {
  if (pos_ == size_) return Next::kEnd;
  std::string prefix;
  if (!ReadExact(8, &prefix)) return Next::kCorrupt;
  runtime::BlobReader in(prefix);
  std::uint64_t length = 0;
  // The length must fit in what the file still holds: a corrupt prefix can
  // never size an allocation.
  if (!in.GetU64(&length) || length > size_ - pos_) return Next::kCorrupt;
  return ReadExact(static_cast<std::size_t>(length), payload) ? Next::kRecord
                                                               : Next::kCorrupt;
}

// ---- record bodies ---------------------------------------------------------

void SaveVerdictRow(const VerdictRecord& v, runtime::BlobWriter& out) {
  out.PutI64(v.day);
  out.PutU32((v.recurring ? 1u : 0u) | (v.congested ? 2u : 0u) |
             (v.quality_ok ? 4u : 0u));
  out.PutDouble(v.fraction);
  out.PutU32(v.contributors);
  out.PutU32(v.asserting);
  out.PutDouble(v.far_coverage_frac);
}

bool LoadVerdictRow(runtime::BlobReader& in, topo::LinkId link,
                    VerdictRecord* v) {
  std::uint32_t flags = 0;
  if (!in.GetI64(&v->day) || !in.GetU32(&flags) || flags > 7u ||
      !in.GetDouble(&v->fraction) || !in.GetU32(&v->contributors) ||
      !in.GetU32(&v->asserting) || !in.GetDouble(&v->far_coverage_frac)) {
    return false;
  }
  v->link = link;
  v->recurring = (flags & 1u) != 0;
  v->congested = (flags & 2u) != 0;
  v->quality_ok = (flags & 4u) != 0;
  return true;
}

void SaveQuality(const infer::DataQuality& q, runtime::BlobWriter& out) {
  out.PutDouble(q.far_coverage_frac);
  out.PutDouble(q.near_coverage_frac);
  for (const int v : {q.longest_gap_intervals, q.days_observed, q.total_days,
                      q.vp_churn_events}) {
    out.PutI64(v);
  }
}

bool LoadQuality(runtime::BlobReader& in, infer::DataQuality* q) {
  std::int64_t ints[4] = {};
  if (!in.GetDouble(&q->far_coverage_frac) ||
      !in.GetDouble(&q->near_coverage_frac)) {
    return false;
  }
  for (std::int64_t& v : ints) {
    if (!in.GetI64(&v) || v < 0 || v > std::numeric_limits<int>::max()) {
      return false;
    }
  }
  q->longest_gap_intervals = static_cast<int>(ints[0]);
  q->days_observed = static_cast<int>(ints[1]);
  q->total_days = static_cast<int>(ints[2]);
  q->vp_churn_events = static_cast<int>(ints[3]);
  return true;
}

}  // namespace manic::serve
