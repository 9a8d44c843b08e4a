#include "serve/codec.h"

#include <bit>
#include <cstring>
#include <limits>

namespace manic::serve {
namespace {

// Wire counters are u32; the DataQuality fields are int. A hostile counter
// above INT_MAX must saturate, not wrap negative — a negative gap/churn
// count would corrupt every downstream quality fraction.
int SaturateToInt(std::uint32_t wire_count) {
  constexpr auto kIntMax =
      static_cast<std::uint32_t>(std::numeric_limits<int>::max());
  if (wire_count > kIntMax) return std::numeric_limits<int>::max();
  return static_cast<int>(wire_count);
}

// All integers travel little-endian regardless of host order; the supported
// targets are little-endian, so the byte loops below compile to plain loads
// and stores.
template <typename U>
void PutLE(std::string* buf, U v) {
  char bytes[sizeof(U)];
  for (std::size_t i = 0; i < sizeof(U); ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  buf->append(bytes, sizeof(U));
}

template <typename U>
U GetLE(const void* p) {
  const unsigned char* b = static_cast<const unsigned char*>(p);
  U v = 0;
  for (std::size_t i = 0; i < sizeof(U); ++i) {
    v |= static_cast<U>(b[i]) << (8 * i);
  }
  return v;
}

bool ValidMsgType(std::uint8_t raw) {
  switch (static_cast<MsgType>(raw)) {
    case MsgType::kHello:
    case MsgType::kHelloAck:
    case MsgType::kSubmitBatch:
    case MsgType::kSubmitAck:
    case MsgType::kQueryPoint:
    case MsgType::kQueryRange:
    case MsgType::kQueryQuality:
    case MsgType::kQueryStats:
    case MsgType::kVerdicts:
    case MsgType::kQuality:
    case MsgType::kStats:
    case MsgType::kError:
    case MsgType::kFlush:
    case MsgType::kFlushAck:
    case MsgType::kGetWatermark:
    case MsgType::kWatermark:
      return true;
  }
  return false;
}

// One encoded Sample in a kSubmitBatch payload (see codec.h) is a tag byte,
// then only the fields the tag flags. Tag bits:
constexpr std::uint8_t kTagKindMask = 0x07;  // bits 0-2: the SampleKind
constexpr std::uint8_t kTagKey = 0x08;       // [u32 link][u32 vp] follows
constexpr std::uint8_t kTagValue = 0x10;     // [f32 value bits] follow
constexpr std::uint8_t kTagSameT = 0x20;     // t equals the previous t
constexpr std::uint8_t kTagUnused = 0xC0;    // must be zero
static_assert(kMaxSampleKind <= kTagKindMask);
// The record stores t as 64 bits and link, vp and the value bits as 32:
// widening a Sample field without a format bump does not compile.
static_assert(sizeof(Sample::t) == 8 && sizeof(Sample::link) == 4 &&
              sizeof(Sample::vp) == 4 && sizeof(Sample::value) == 4);
// A varint of a u64 takes at most 10 bytes; the tenth holds bit 63 only.
constexpr std::size_t kMaxVarintBytes = 10;
// The widest encoded Sample: tag, key, the widest t delta, value.
constexpr std::size_t kMaxWireSampleBytes =
    1 + sizeof(Sample::link) + sizeof(Sample::vp) + kMaxVarintBytes +
    sizeof(Sample::value);

// Writes `word` little-endian at *dst and advances the cursor in place.
// The raw-pointer form exists for EncodeSubmitBatchTo, where the frame's
// worst case is sized up front and per-sample string appends dominate the
// WAL flush cost.
template <typename U>
void StoreLE(char** dst, U word) {
  char* raw = *dst;
  for (std::size_t i = 0; i < sizeof(U); ++i) {
    raw[i] = static_cast<char>((word >> (8 * i)) & 0xFF);
  }
  *dst = raw + sizeof(U);
}

// LEB128: seven bits a byte, low group first, high bit = more follows.
void StoreVarint(char** dst, std::uint64_t v) {
  char* raw = *dst;
  while (v >= 0x80) {
    *raw++ = static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *raw++ = static_cast<char>(v);
  *dst = raw;
}

// Reads the varint StoreVarint writes, and only that: at most 10 bytes, no
// bit past 63, no zero final byte after the first (a longer spelling of a
// shorter value). False on any of those or on running out of bytes.
bool LoadVarint(const unsigned char** src, const unsigned char* end,
                std::uint64_t* v) {
  const unsigned char* p = *src;
  std::uint64_t acc = 0;
  for (unsigned shift = 0; shift < 7 * kMaxVarintBytes; shift += 7) {
    if (p == end) return false;
    const unsigned char byte = *p++;
    if (shift == 63 && byte > 1) return false;
    acc |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      if (byte == 0 && shift != 0) return false;
      *src = p;
      *v = acc;
      return true;
    }
  }
  return false;  // unreachable: the tenth byte has no continuation bit
}

// Zigzag maps a two's-complement delta to an unsigned one whose size
// tracks its magnitude (0, -1, 1, -2 -> 0, 1, 2, 3). Both directions work
// modulo 2^64, so any pair of int64 timestamps round-trips.
std::uint64_t ZigZag(std::uint64_t delta) {
  return (delta << 1) ^ (0 - (delta >> 63));
}
std::uint64_t UnZigZag(std::uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

void PutVerdict(Encoder* e, const VerdictRecord& v) {
  e->PutI64(v.day);
  e->PutU32(v.link);
  // Encode side: the flag bits are three local bools (value <= 7 by
  // construction), not wire input.
  // manic-lint: allow(trust)
  const std::uint8_t flags = static_cast<std::uint8_t>(
      (v.recurring ? 1u : 0u) | (v.congested ? 2u : 0u) |
      (v.quality_ok ? 4u : 0u));
  e->PutU8(flags);
  e->PutF64(v.fraction);
  e->PutU32(v.contributors);
  e->PutU32(v.asserting);
  e->PutF64(v.far_coverage_frac);
}

bool GetVerdict(Decoder* d, VerdictRecord* v) {
  std::uint8_t flags = 0;
  if (!d->GetI64(&v->day) || !d->GetU32(&v->link) || !d->GetU8(&flags) ||
      !d->GetF64(&v->fraction) || !d->GetU32(&v->contributors) ||
      !d->GetU32(&v->asserting) || !d->GetF64(&v->far_coverage_frac)) {
    return false;
  }
  if (flags > 7) return false;
  v->recurring = (flags & 1u) != 0;
  v->congested = (flags & 2u) != 0;
  v->quality_ok = (flags & 4u) != 0;
  return true;
}

}  // namespace

// ---- Encoder ----------------------------------------------------------------

void Encoder::PutU8(std::uint8_t v) {
  buf_.push_back(static_cast<char>(v & 0xFF));
}
void Encoder::PutU16(std::uint16_t v) { PutLE(&buf_, v); }
void Encoder::PutU32(std::uint32_t v) { PutLE(&buf_, v); }
void Encoder::PutU64(std::uint64_t v) { PutLE(&buf_, v); }
void Encoder::PutI64(std::int64_t v) {
  PutLE(&buf_, static_cast<std::uint64_t>(v));
}
void Encoder::PutF32(float v) { PutLE(&buf_, std::bit_cast<std::uint32_t>(v)); }
void Encoder::PutF64(double v) {
  PutLE(&buf_, std::bit_cast<std::uint64_t>(v));
}
void Encoder::PutBytes(std::string_view bytes) { buf_.append(bytes); }

// ---- Decoder ----------------------------------------------------------------

const void* Decoder::Take(std::size_t n) {
  if (!ok_ || buf_.size() - pos_ < n) {
    ok_ = false;
    return nullptr;
  }
  const void* p = buf_.data() + pos_;
  pos_ += n;
  return p;
}

bool Decoder::GetU8(std::uint8_t* v) {
  const void* p = Take(1);
  if (p == nullptr) return false;
  *v = static_cast<std::uint8_t>(*static_cast<const char*>(p));
  return true;
}
bool Decoder::GetU16(std::uint16_t* v) {
  const void* p = Take(2);
  if (p == nullptr) return false;
  *v = GetLE<std::uint16_t>(p);
  return true;
}
bool Decoder::GetU32(std::uint32_t* v) {
  const void* p = Take(4);
  if (p == nullptr) return false;
  *v = GetLE<std::uint32_t>(p);
  return true;
}
bool Decoder::GetU64(std::uint64_t* v) {
  const void* p = Take(8);
  if (p == nullptr) return false;
  *v = GetLE<std::uint64_t>(p);
  return true;
}
bool Decoder::GetI64(std::int64_t* v) {
  std::uint64_t u = 0;
  if (!GetU64(&u)) return false;
  *v = static_cast<std::int64_t>(u);
  return true;
}
bool Decoder::GetF64(double* v) {
  std::uint64_t u = 0;
  if (!GetU64(&u)) return false;
  *v = std::bit_cast<double>(u);
  return true;
}
bool Decoder::GetBytes(std::size_t n, std::string_view* out) {
  const void* p = Take(n);
  if (p == nullptr) return false;
  *out = std::string_view(static_cast<const char*>(p), n);
  return true;
}

// ---- framing ----------------------------------------------------------------

std::string EncodeFrame(MsgType type, std::string_view payload) {
  std::string frame;
  frame.reserve(5 + payload.size());
  PutLE(&frame, static_cast<std::uint32_t>(1 + payload.size()));
  frame.push_back(static_cast<char>(type));
  frame.append(payload);
  return frame;
}

void FrameAssembler::Feed(std::string_view bytes) {
  if (corrupt_) return;
  // Compact lazily: drop consumed prefix once it dominates the buffer.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes);
}

FrameParse ParseFrame(std::string_view bytes, FrameView* frame) {
  if (bytes.size() < 4) return FrameParse::kNeedMore;
  const std::uint32_t len = GetLE<std::uint32_t>(bytes.data());
  if (len == 0 || len > kMaxFramePayload + 1) return FrameParse::kCorrupt;
  const std::size_t size = 4 + static_cast<std::size_t>(len);
  if (bytes.size() < size) return FrameParse::kNeedMore;
  const auto raw_type = static_cast<std::uint8_t>(bytes[4]);
  if (!ValidMsgType(raw_type)) return FrameParse::kCorrupt;
  frame->type = static_cast<MsgType>(raw_type);
  frame->payload = bytes.substr(5, len - 1);
  frame->size = size;
  return FrameParse::kFrame;
}

bool FrameAssembler::Next(MsgType* type, std::string* payload) {
  if (corrupt_) return false;
  FrameView frame;
  switch (ParseFrame(std::string_view(buf_).substr(pos_), &frame)) {
    case FrameParse::kNeedMore:
      return false;
    case FrameParse::kCorrupt:
      corrupt_ = true;
      return false;
    case FrameParse::kFrame:
      break;
  }
  *type = frame.type;
  payload->assign(frame.payload);
  pos_ += frame.size;
  return true;
}

// ---- messages ---------------------------------------------------------------

std::string EncodeHello() {
  Encoder e;
  e.PutU32(kProtocolVersion);
  return EncodeFrame(MsgType::kHello, e.data());
}

bool DecodeHello(std::string_view payload, std::uint32_t* version) {
  Decoder d(payload);
  return d.GetU32(version) && d.AtEnd();
}

std::string EncodeHelloAck(std::uint32_t shards) {
  Encoder e;
  e.PutU32(kProtocolVersion);
  e.PutU32(shards);
  return EncodeFrame(MsgType::kHelloAck, e.data());
}

bool DecodeHelloAck(std::string_view payload, std::uint32_t* version,
                    std::uint32_t* shards) {
  Decoder d(payload);
  return d.GetU32(version) && d.GetU32(shards) && d.AtEnd();
}

std::string EncodeSubmitBatch(std::span<const Sample> samples) {
  std::string frame;
  EncodeSubmitBatchTo(samples, &frame);
  return frame;
}

std::size_t EncodeSubmitBatchTo(std::span<const Sample> samples,
                                std::string* out, std::size_t max_payload) {
  // The worst case is sized up front and filled through one raw cursor
  // (this runs for every WAL flush, and growth-checked per-field appends
  // were most of the encode cost), then trimmed to what was written. A
  // sample that takes the payload past max_payload is written into the
  // slack and then dropped.
  const std::size_t widest = 4 + kMaxWireSampleBytes * samples.size();
  const std::size_t room =
      widest <= max_payload ? widest : max_payload + kMaxWireSampleBytes;
  const std::size_t base = out->size();
  out->resize(base + 5 + room);
  char* const payload = out->data() + base + 5;
  char* cursor = payload + 4;
  std::uint64_t prev_t = 0;
  topo::LinkId prev_link = 0;
  topo::VpId prev_vp = 0;
  std::size_t encoded = 0;
  for (const Sample& s : samples) {
    char* const start = cursor;
    const std::uint64_t delta = static_cast<std::uint64_t>(s.t) - prev_t;
    const auto bits = std::bit_cast<std::uint32_t>(s.value);
    const bool key = s.link != prev_link || s.vp != prev_vp;
    unsigned flags = 0;
    if (key) flags |= kTagKey;
    if (bits != 0) flags |= kTagValue;
    if (delta == 0) flags |= kTagSameT;
    // Encode side: `s` is a locally built Sample (kind is a validated
    // enum), not bytes off the wire.
    // manic-lint: allow(trust)
    *cursor++ = static_cast<char>(flags | static_cast<std::uint8_t>(s.kind));
    if (key) {
      StoreLE(&cursor, s.link);
      StoreLE(&cursor, s.vp);
    }
    if (delta != 0) StoreVarint(&cursor, ZigZag(delta));
    if (bits != 0) StoreLE(&cursor, bits);
    if (static_cast<std::size_t>(cursor - payload) > max_payload) {
      cursor = start;
      break;
    }
    prev_t = static_cast<std::uint64_t>(s.t);
    prev_link = s.link;
    prev_vp = s.vp;
    ++encoded;
  }
  const auto payload_bytes = static_cast<std::size_t>(cursor - payload);
  out->resize(base + 5 + payload_bytes);
  char* header = out->data() + base;
  StoreLE(&header, static_cast<std::uint32_t>(1 + payload_bytes));
  *header++ = static_cast<char>(MsgType::kSubmitBatch);
  StoreLE(&header, static_cast<std::uint32_t>(encoded));
  return encoded;
}

bool DecodeSubmitBatch(std::string_view payload, std::vector<Sample>* out) {
  if (payload.size() < 4) return false;
  const std::uint32_t count = GetLE<std::uint32_t>(payload.data());
  // Every sample takes at least its tag byte, so the bytes left bound the
  // count before it sizes anything; so does the per-frame cap.
  if (count > payload.size() - 4 || count > kMaxSamplesPerFrame) return false;
  out->resize(count);
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data()) + 4;
  const auto* const end =
      reinterpret_cast<const unsigned char*>(payload.data()) + payload.size();
  // Running state, summed in uint64_t: a hostile delta wraps, never
  // overflows.
  std::uint64_t t = 0;
  topo::LinkId link = 0;
  topo::VpId vp = 0;
  for (Sample& s : *out) {
    if (p == end) return false;
    const unsigned char tag = *p++;
    const unsigned kind = tag & kTagKindMask;
    if ((tag & kTagUnused) != 0 || kind > kMaxSampleKind) return false;
    if ((tag & kTagKey) != 0) {
      if (end - p < 8) return false;
      const std::uint32_t new_link = GetLE<std::uint32_t>(p);
      const std::uint32_t new_vp = GetLE<std::uint32_t>(p + 4);
      p += 8;
      // Canonical form: the key is written only when it changes.
      if (new_link == link && new_vp == vp) return false;
      link = new_link;
      vp = new_vp;
    }
    if ((tag & kTagSameT) == 0) {
      std::uint64_t z = 0;
      // A zero delta has exactly one spelling: the same-t flag.
      if (!LoadVarint(&p, end, &z) || z == 0) return false;
      t += UnZigZag(z);
    }
    std::uint32_t bits = 0;
    if ((tag & kTagValue) != 0) {
      if (end - p < 4) return false;
      bits = GetLE<std::uint32_t>(p);
      p += 4;
      // Zero bits have exactly one spelling: no value flag.
      if (bits == 0) return false;
    }
    s.t = static_cast<TimeSec>(t);
    s.link = link;
    s.vp = vp;
    s.kind = static_cast<SampleKind>(kind);
    s.value = std::bit_cast<float>(bits);
  }
  return p == end;
}

std::string EncodeSubmitAck(std::uint64_t accepted) {
  Encoder e;
  e.PutU64(accepted);
  return EncodeFrame(MsgType::kSubmitAck, e.data());
}

bool DecodeSubmitAck(std::string_view payload, std::uint64_t* accepted) {
  Decoder d(payload);
  return d.GetU64(accepted) && d.AtEnd();
}

std::string EncodeQueryPoint(topo::LinkId link, TimeSec t) {
  Encoder e;
  e.PutU32(link);
  e.PutI64(t);
  return EncodeFrame(MsgType::kQueryPoint, e.data());
}

bool DecodeQueryPoint(std::string_view payload, topo::LinkId* link,
                      TimeSec* t) {
  Decoder d(payload);
  return d.GetU32(link) && d.GetI64(t) && d.AtEnd();
}

std::string EncodeQueryRange(topo::LinkId link, TimeSec t0, TimeSec t1) {
  Encoder e;
  e.PutU32(link);
  e.PutI64(t0);
  e.PutI64(t1);
  return EncodeFrame(MsgType::kQueryRange, e.data());
}

bool DecodeQueryRange(std::string_view payload, topo::LinkId* link,
                      TimeSec* t0, TimeSec* t1) {
  Decoder d(payload);
  return d.GetU32(link) && d.GetI64(t0) && d.GetI64(t1) && d.AtEnd();
}

std::string EncodeQueryQuality(topo::LinkId link) {
  Encoder e;
  e.PutU32(link);
  return EncodeFrame(MsgType::kQueryQuality, e.data());
}

bool DecodeQueryQuality(std::string_view payload, topo::LinkId* link) {
  Decoder d(payload);
  return d.GetU32(link) && d.AtEnd();
}

std::string EncodeQueryStats() {
  return EncodeFrame(MsgType::kQueryStats, {});
}

std::string EncodeFlush() { return EncodeFrame(MsgType::kFlush, {}); }

std::string EncodeFlushAck(std::int64_t last_closed_day) {
  Encoder e;
  e.PutI64(last_closed_day);
  return EncodeFrame(MsgType::kFlushAck, e.data());
}

void EncodeFlushAckTo(std::int64_t last_closed_day, std::string* out) {
  PutLE(out, static_cast<std::uint32_t>(1 + 8));
  out->push_back(static_cast<char>(MsgType::kFlushAck));
  PutLE(out, static_cast<std::uint64_t>(last_closed_day));
}

bool DecodeFlushAck(std::string_view payload, std::int64_t* last_closed_day) {
  Decoder d(payload);
  return d.GetI64(last_closed_day) && d.AtEnd();
}

std::string EncodeGetWatermark() {
  return EncodeFrame(MsgType::kGetWatermark, {});
}

std::string EncodeWatermark(const WatermarkInfo& info) {
  Encoder e;
  e.PutU64(info.samples_consumed);
  e.PutI64(info.watermark_t);
  e.PutI64(info.last_closed_day);
  // Encode side: the flag bits are two local bools (value <= 3 by
  // construction), not wire input.
  // manic-lint: allow(trust)
  const std::uint8_t flags = static_cast<std::uint8_t>(
      (info.degraded ? 1u : 0u) | (info.saw_sample ? 2u : 0u));
  e.PutU8(flags);
  return EncodeFrame(MsgType::kWatermark, e.data());
}

bool DecodeWatermark(std::string_view payload, WatermarkInfo* info) {
  Decoder d(payload);
  std::uint8_t flags = 0;
  if (!d.GetU64(&info->samples_consumed) || !d.GetI64(&info->watermark_t) ||
      !d.GetI64(&info->last_closed_day) || !d.GetU8(&flags) || !d.AtEnd()) {
    return false;
  }
  if (flags > 3) return false;
  info->degraded = (flags & 1u) != 0;
  info->saw_sample = (flags & 2u) != 0;
  return true;
}

std::string EncodeVerdicts(std::span<const VerdictRecord> verdicts) {
  Encoder e;
  e.PutU32(static_cast<std::uint32_t>(verdicts.size()));
  for (const VerdictRecord& v : verdicts) PutVerdict(&e, v);
  return EncodeFrame(MsgType::kVerdicts, e.data());
}

bool DecodeVerdicts(std::string_view payload,
                    std::vector<VerdictRecord>* out) {
  Decoder d(payload);
  std::uint32_t count = 0;
  if (!d.GetU32(&count)) return false;
  // 37 bytes per encoded verdict.
  if (payload.size() < 4 + static_cast<std::size_t>(count) * 37) return false;
  out->clear();
  out->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    VerdictRecord v;
    if (!GetVerdict(&d, &v)) return false;
    out->push_back(v);
  }
  return d.AtEnd();
}

std::string EncodeQuality(bool found, const infer::DataQuality& quality) {
  Encoder e;
  e.PutU8(found ? 1 : 0);
  e.PutF64(quality.far_coverage_frac);
  e.PutF64(quality.near_coverage_frac);
  e.PutU32(static_cast<std::uint32_t>(quality.longest_gap_intervals));
  e.PutU32(static_cast<std::uint32_t>(quality.days_observed));
  e.PutU32(static_cast<std::uint32_t>(quality.total_days));
  e.PutU32(static_cast<std::uint32_t>(quality.vp_churn_events));
  return EncodeFrame(MsgType::kQuality, e.data());
}

bool DecodeQuality(std::string_view payload, bool* found,
                   infer::DataQuality* quality) {
  Decoder d(payload);
  std::uint8_t f = 0;
  std::uint32_t gap = 0, observed = 0, total = 0, churn = 0;
  if (!d.GetU8(&f) || !d.GetF64(&quality->far_coverage_frac) ||
      !d.GetF64(&quality->near_coverage_frac) || !d.GetU32(&gap) ||
      !d.GetU32(&observed) || !d.GetU32(&total) || !d.GetU32(&churn) ||
      !d.AtEnd() || f > 1) {
    return false;
  }
  *found = f == 1;
  quality->longest_gap_intervals = SaturateToInt(gap);
  quality->days_observed = SaturateToInt(observed);
  quality->total_days = SaturateToInt(total);
  quality->vp_churn_events = SaturateToInt(churn);
  return true;
}

std::string EncodeStats(const ServiceStats& stats) {
  Encoder e;
  e.PutU64(stats.samples);
  e.PutU64(stats.verdicts);
  e.PutU64(stats.links);
  e.PutI64(stats.last_closed_day);
  e.PutI64(stats.days_closed);
  e.PutU32(stats.shards);
  e.PutU64(stats.raw_points);
  e.PutU64(stats.samples_late);
  e.PutU64(stats.samples_rejected);
  return EncodeFrame(MsgType::kStats, e.data());
}

bool DecodeStats(std::string_view payload, ServiceStats* stats) {
  Decoder d(payload);
  return d.GetU64(&stats->samples) && d.GetU64(&stats->verdicts) &&
         d.GetU64(&stats->links) && d.GetI64(&stats->last_closed_day) &&
         d.GetI64(&stats->days_closed) && d.GetU32(&stats->shards) &&
         d.GetU64(&stats->raw_points) && d.GetU64(&stats->samples_late) &&
         d.GetU64(&stats->samples_rejected) && d.AtEnd();
}

std::string EncodeError(std::uint16_t code, std::string_view message) {
  // Clamp before encoding the length so the field never wraps.
  const std::string_view clamped = message.substr(0, 0xFFFF);
  Encoder e;
  e.PutU16(code);
  e.PutU16(static_cast<std::uint16_t>(clamped.size()));
  e.PutBytes(clamped);
  return EncodeFrame(MsgType::kError, e.data());
}

bool DecodeError(std::string_view payload, std::uint16_t* code,
                 std::string* message) {
  Decoder d(payload);
  std::uint16_t len = 0;
  std::string_view bytes;
  if (!d.GetU16(code) || !d.GetU16(&len) || !d.GetBytes(len, &bytes) ||
      !d.AtEnd()) {
    return false;
  }
  message->assign(bytes);
  return true;
}

}  // namespace manic::serve
