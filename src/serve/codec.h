// Wire format v2 of the serving plane: a compact length-prefixed binary
// protocol (the jittertrap jt_messages shape, binary instead of JSON). Every
// frame is
//
//   [u32 length][u8 msg-type][payload ...]        (all integers little-endian)
//
// where `length` counts the type byte plus the payload. Frames longer than
// kMaxFramePayload, unknown message types, and short payloads are protocol
// errors: the FrameAssembler poisons the stream and the session layer drops
// the connection — a daemon must survive truncated and garbage input.
//
// Doubles and floats travel as IEEE-754 bit patterns (bit_cast), so a value
// round-trips bit-exactly — the replay contract extends to recorded streams.
//
// v2 changed only the kSubmitBatch payload, from a fixed 21 bytes a sample
// to the compact record below (about 6 bytes a sample on a pair-day batch);
// a v1 peer is refused at hello.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "infer/data_quality.h"
#include "serve/sample.h"
#include "serve/verdict.h"

namespace manic::serve {

inline constexpr std::uint32_t kProtocolVersion = 2;
// Generous bound for a submit batch's bytes (at least 182k samples of the
// widest encoding); anything larger is treated as a corrupt or hostile
// stream.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 22;
// The most samples one submit frame (or WAL record) may carry. A one-byte
// sample would otherwise let a legal frame decode to ~4.2M samples (~100 MB);
// the cap holds a decode to ~6 MB and sits above v1's fixed-width limit
// (kMaxFramePayload / 21 = 199,728), so no frame v1 accepted is refused.
inline constexpr std::uint32_t kMaxSamplesPerFrame = 1u << 18;

enum class MsgType : std::uint8_t {
  // client -> server
  kHello = 1,         // u32 protocol version
  // u32 count, then per sample a tag byte and the fields it flags:
  //   tag bits 0-2 kind, bit 3 "a new (link, vp) follows", bit 4 "value
  //   follows", bit 5 "same t as the previous sample", bits 6-7 zero;
  //   [u32 link][u32 vp] only when the key differs from the previous one;
  //   a zigzag varint (LEB128, at most 10 bytes) of t - previous t unless
  //   the tag says same t; the f32 value bits unless they are zero.
  // "Previous" starts at t = 0, link = 0, vp = 0. The form is canonical:
  // the decoder rejects a key flag that repeats the key, a varint delta of
  // zero or a padded varint, a value flag on zero bits, set unused bits, a
  // kind past kMaxSampleKind, truncation and trailing bytes — so decode then
  // encode reproduces a payload byte for byte.
  kSubmitBatch = 3,
  kQueryPoint = 5,    // u32 link, i64 t
  kQueryRange = 6,    // u32 link, i64 t0, i64 t1
  kQueryQuality = 7,  // u32 link
  kQueryStats = 8,    // (empty)
  kFlush = 13,        // (empty) close every day through the watermark
  kGetWatermark = 15,  // (empty) report the durable ingest watermark
  // server -> client
  kHelloAck = 2,    // u32 version, u32 ingest shards
  kSubmitAck = 4,   // u64 samples accepted
  kVerdicts = 9,    // u32 count, count * VerdictRecord
  kQuality = 10,    // u8 found, DataQuality fields
  kStats = 11,      // ServiceStats fields
  kFlushAck = 14,   // i64 last closed day
  kWatermark = 16,  // WatermarkInfo fields
  kError = 12,      // u16 code, u16 len, message bytes
};

// The durable ingest watermark (kWatermark): everything a reconnecting
// client needs to resubmit idempotently. samples_consumed counts accepted +
// late samples — exactly the samples the WAL holds — so after a daemon
// restart a client that streamed N samples resumes at offset
// samples_consumed into its stream: no sample is double-ingested, none is
// lost. `degraded` mirrors the shed-on-ENOSPC ladder: queries still served,
// ingest rejected with kErrDegraded.
struct WatermarkInfo {
  std::uint64_t samples_consumed = 0;
  std::int64_t watermark_t = 0;      // newest admitted timestamp
  std::int64_t last_closed_day = 0;  // kNoDayClosed encoding when none
  bool degraded = false;
  bool saw_sample = false;

  friend bool operator==(const WatermarkInfo&, const WatermarkInfo&) = default;
};

// Aggregate counters the query plane reports (kStats).
struct ServiceStats {
  std::uint64_t samples = 0;        // accepted into ingest rings
  std::uint64_t verdicts = 0;       // rows in the verdict log
  std::uint64_t links = 0;          // links with at least one verdict
  std::int64_t last_closed_day = 0;
  std::int64_t days_closed = 0;
  std::uint32_t shards = 0;
  std::uint64_t raw_points = 0;     // retired: no raw store, always 0
  std::uint64_t samples_late = 0;      // dropped: day already closed
  std::uint64_t samples_rejected = 0;  // dropped: timestamp out of bounds

  friend bool operator==(const ServiceStats&, const ServiceStats&) = default;
};
// Its kStats encoding is pinned by Codec.StatsGoldenBytes.
static_assert(sizeof(ServiceStats) <= 72);

// ---- primitive byte streams -------------------------------------------------

class Encoder {
 public:
  void PutU8(std::uint8_t v);
  void PutU16(std::uint16_t v);
  void PutU32(std::uint32_t v);
  void PutU64(std::uint64_t v);
  void PutI64(std::int64_t v);
  void PutF32(float v);
  void PutF64(double v);
  void PutBytes(std::string_view bytes);  // raw, caller frames the length

  const std::string& data() const noexcept { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

// Bounds-checked reader with a sticky failure flag: once a read runs past
// the end every later Get fails, so decode functions can check ok() once.
class Decoder {
 public:
  explicit Decoder(std::string_view buf) : buf_(buf) {}

  bool GetU8(std::uint8_t* v);
  bool GetU16(std::uint16_t* v);
  bool GetU32(std::uint32_t* v);
  bool GetU64(std::uint64_t* v);
  bool GetI64(std::int64_t* v);
  bool GetF64(double* v);
  bool GetBytes(std::size_t n, std::string_view* out);

  bool ok() const noexcept { return ok_; }
  bool AtEnd() const noexcept { return ok_ && pos_ == buf_.size(); }

 private:
  const void* Take(std::size_t n);
  std::string_view buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- framing ----------------------------------------------------------------

std::string EncodeFrame(MsgType type, std::string_view payload);

// Outcome of parsing the frame at the front of a byte view.
enum class [[nodiscard]] FrameParse : std::uint8_t {
  kFrame,     // a complete frame; *frame is filled in
  kNeedMore,  // the bytes end inside the frame (or its header)
  kCorrupt,   // zero or oversized length, or an unknown message type
};

// One complete frame, viewed in place: `payload` points into the parsed
// bytes, `size` counts the header too.
struct FrameView {
  MsgType type = MsgType::kError;
  std::string_view payload;
  std::size_t size = 0;
};

// The one implementation of framing, shared by the stream assembler and
// WAL recovery. The length is judged as soon as its 4 bytes are present;
// the type byte only once the whole frame is, so a frame cut short reads
// as kNeedMore whatever its type byte holds.
FrameParse ParseFrame(std::string_view bytes, FrameView* frame);

// Reassembles frames from an arbitrarily fragmented byte stream. Feed bytes
// as they arrive; Next() yields complete frames until more input is needed.
// A frame ParseFrame calls corrupt poisons the stream permanently
// (corrupt()).
class FrameAssembler {
 public:
  void Feed(std::string_view bytes);
  // True: *type / *payload hold the next complete frame. False: need more
  // bytes, or the stream is corrupt (check corrupt()).
  bool Next(MsgType* type, std::string* payload);
  bool corrupt() const noexcept { return corrupt_; }
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  bool corrupt_ = false;
};

// ---- message encode/decode --------------------------------------------------
// Every Encode* returns a complete frame (header included); every Decode*
// consumes a frame payload and returns false on any malformation (short,
// trailing bytes, out-of-range enum).

std::string EncodeHello();
bool DecodeHello(std::string_view payload, std::uint32_t* version);
std::string EncodeHelloAck(std::uint32_t shards);
bool DecodeHelloAck(std::string_view payload, std::uint32_t* version,
                    std::uint32_t* shards);

std::string EncodeSubmitBatch(std::span<const Sample> samples);
// Appends the frame to *out instead of allocating a fresh string — the WAL
// appender reuses one buffer across appends to keep the ingest path
// allocation-free in steady state. Encodes the longest prefix of `samples`
// whose payload fits max_payload bytes and returns its length: every
// sample unless a bound is given (the WAL passes kMaxFramePayload and
// at most kMaxSamplesPerFrame samples, and writes the rest as further
// records).
std::size_t EncodeSubmitBatchTo(
    std::span<const Sample> samples, std::string* out,
    std::size_t max_payload = std::numeric_limits<std::size_t>::max());
bool DecodeSubmitBatch(std::string_view payload, std::vector<Sample>* out);
std::string EncodeSubmitAck(std::uint64_t accepted);
bool DecodeSubmitAck(std::string_view payload, std::uint64_t* accepted);

std::string EncodeQueryPoint(topo::LinkId link, TimeSec t);
bool DecodeQueryPoint(std::string_view payload, topo::LinkId* link,
                      TimeSec* t);
std::string EncodeQueryRange(topo::LinkId link, TimeSec t0, TimeSec t1);
bool DecodeQueryRange(std::string_view payload, topo::LinkId* link,
                      TimeSec* t0, TimeSec* t1);
std::string EncodeQueryQuality(topo::LinkId link);
bool DecodeQueryQuality(std::string_view payload, topo::LinkId* link);
std::string EncodeQueryStats();
std::string EncodeFlush();
std::string EncodeFlushAck(std::int64_t last_closed_day);
// Buffer-reusing variant (the WAL's day-close marker record).
void EncodeFlushAckTo(std::int64_t last_closed_day, std::string* out);
bool DecodeFlushAck(std::string_view payload, std::int64_t* last_closed_day);

std::string EncodeGetWatermark();
std::string EncodeWatermark(const WatermarkInfo& info);
bool DecodeWatermark(std::string_view payload, WatermarkInfo* info);

std::string EncodeVerdicts(std::span<const VerdictRecord> verdicts);
bool DecodeVerdicts(std::string_view payload, std::vector<VerdictRecord>* out);

std::string EncodeQuality(bool found, const infer::DataQuality& quality);
bool DecodeQuality(std::string_view payload, bool* found,
                   infer::DataQuality* quality);

std::string EncodeStats(const ServiceStats& stats);
bool DecodeStats(std::string_view payload, ServiceStats* stats);

std::string EncodeError(std::uint16_t code, std::string_view message);
bool DecodeError(std::string_view payload, std::uint16_t* code,
                 std::string* message);

}  // namespace manic::serve
