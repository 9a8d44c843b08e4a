// Append-only shard checkpoint log. Every completed shard's result is
// serialized as one [key, length, bytes] record; a study killed mid-write
// leaves at most one truncated trailing record, which Load discards — the
// file never needs repair. On resume, shards whose key is already present
// restore their saved blob and skip the work; because merges replay in the
// same canonical key order either way, a resumed study's output is
// byte-identical to an uninterrupted run.
//
// BlobWriter/BlobReader serialize shard state exactly: integers little-
// endian, doubles by bit pattern (std::bit_cast), so a restored double is
// the same 64 bits that were saved, not a round-tripped decimal.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace manic::runtime {

// The fixed prefix of one on-disk checkpoint record: [key][length], both
// little-endian u64, followed by `length` blob bytes. The bytes are pinned
// by CheckpointFormat.RecordHeaderGoldenBytes — adding a field here would
// silently orphan every existing checkpoint file, so the test forces a
// deliberate format-version bump instead.
struct CheckpointRecordHeader {
  std::uint64_t key = 0;
  std::uint64_t length = 0;

  // Encoded size of the prefix; Record() and the load loop both use this
  // rather than a bare 16.
  static constexpr std::uint64_t kEncodedSize = 16;
};
static_assert(sizeof(CheckpointRecordHeader) <= 16);

class BlobWriter {
 public:
  void PutU64(std::uint64_t v) { PutLE<8>(v); }
  void PutU32(std::uint32_t v) { PutLE<4>(v); }
  void PutI64(std::int64_t v) { PutU64(static_cast<std::uint64_t>(v)); }
  void PutDouble(double v) { PutU64(std::bit_cast<std::uint64_t>(v)); }
  void PutFloat(float v) { PutU32(std::bit_cast<std::uint32_t>(v)); }
  void PutBytes(std::string_view bytes) {
    PutU64(bytes.size());
    buf_.append(bytes);
  }

  const std::string& str() const noexcept { return buf_; }
  std::string Take() { return std::move(buf_); }
  // Empties the blob but keeps its capacity, for a writer reused record
  // after record.
  void Clear() noexcept { buf_.clear(); }

 private:
  template <int N>
  void PutLE(std::uint64_t v) {
    char bytes[N];
    for (int i = 0; i < N; ++i) {
      bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
    buf_.append(bytes, N);
  }

  std::string buf_;
};

class BlobReader {
 public:
  explicit BlobReader(std::string_view data) noexcept : data_(data) {}

  bool GetU64(std::uint64_t* out) noexcept {
    if (pos_ + 8 > data_.size()) return false;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return true;
  }
  bool GetU32(std::uint32_t* out) noexcept {
    if (pos_ + 4 > data_.size()) return false;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return true;
  }
  bool GetFloat(float* out) noexcept {
    std::uint32_t v = 0;
    if (!GetU32(&v)) return false;
    *out = std::bit_cast<float>(v);
    return true;
  }
  // `n` floats, as PutFloat wrote them, with one bounds check: on a
  // little-endian host the bytes are the floats, so they arrive in one
  // copy. False (nothing read) when fewer than 4n bytes remain.
  bool GetFloats(float* out, std::size_t n) noexcept {
    static_assert(sizeof(float) == 4 && std::numeric_limits<float>::is_iec559);
    if (n > remaining() / 4) return false;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, data_.data() + pos_, n * 4);
      pos_ += n * 4;
    } else {
      for (std::size_t i = 0; i < n; ++i) (void)GetFloat(&out[i]);
    }
    return true;
  }
  bool GetI64(std::int64_t* out) noexcept {
    std::uint64_t v = 0;
    if (!GetU64(&v)) return false;
    *out = static_cast<std::int64_t>(v);
    return true;
  }
  bool GetDouble(double* out) noexcept {
    std::uint64_t v = 0;
    if (!GetU64(&v)) return false;
    *out = std::bit_cast<double>(v);
    return true;
  }
  bool GetBytes(std::string* out) {
    std::uint64_t len = 0;
    if (!GetU64(&len) || pos_ + len > data_.size()) return false;
    out->assign(data_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  bool AtEnd() const noexcept { return pos_ == data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

class CheckpointLog {
 public:
  // Opens (or creates) the log at `path` and loads every complete record;
  // a truncated trailing record — the signature of a kill mid-write — is
  // dropped silently. A later record for a key shadows an earlier one.
  explicit CheckpointLog(std::string path);

  // Appends one record and flushes it to the file immediately.
  void Record(std::uint64_t key, std::string_view blob);

  // Saved blob for a shard key, if one survived loading.
  std::optional<std::string> Lookup(std::uint64_t key) const;

  bool Has(std::uint64_t key) const { return records_.count(key) != 0; }
  std::size_t size() const noexcept { return records_.size(); }
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::map<std::uint64_t, std::string> records_;
};

}  // namespace manic::runtime
