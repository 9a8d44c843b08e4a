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

// Bytes of one encoded Sample (pinned: `wire Sample` in layout.txt).
constexpr std::size_t kWireSampleBytes = 21;

// Writes `word` little-endian at *dst and advances the cursor in place.
// The raw-pointer form exists for EncodeSubmitBatchTo, where the frame
// size is known up front and per-sample string appends dominate the WAL
// flush cost.
template <typename U>
void StoreLE(char** dst, U word) {
  char* raw = *dst;
  for (std::size_t i = 0; i < sizeof(U); ++i) {
    raw[i] = static_cast<char>((word >> (8 * i)) & 0xFF);
  }
  *dst = raw + sizeof(U);
}

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

void EncodeSubmitBatchTo(std::span<const Sample> samples, std::string* out) {
  // Samples encode at a fixed width, so the whole frame is sized up front
  // and filled through one raw cursor: this runs for every WAL flush, and
  // growth-checked per-field appends are most of the encode cost.
  const auto count = static_cast<std::uint32_t>(samples.size());
  const std::size_t base = out->size();
  out->resize(base + 4 + 1 + 4 + kWireSampleBytes * count);
  char* cursor = out->data() + base;
  StoreLE(&cursor, static_cast<std::uint32_t>(1 + 4 + kWireSampleBytes * count));
  *cursor++ = static_cast<char>(MsgType::kSubmitBatch);
  StoreLE(&cursor, count);
  for (const Sample& s : samples) {
    StoreLE(&cursor, static_cast<std::uint64_t>(s.t));
    StoreLE(&cursor, s.link);
    StoreLE(&cursor, s.vp);
    // Encode side: `s` is a locally built Sample (kind is a validated
    // enum), not bytes off the wire.
    // manic-lint: allow(trust)
    *cursor++ = static_cast<char>(static_cast<std::uint8_t>(s.kind));
    StoreLE(&cursor, std::bit_cast<std::uint32_t>(s.value));
  }
}

// Field offsets inside one encoded Sample, [i64 t][u32 link][u32 vp]
// [u8 kind][f32 value]. Each assert ties an offset to the width of the
// field before it, so widening a Sample field without a format bump does
// not compile.
constexpr std::size_t kSampleLinkAt = 8;
constexpr std::size_t kSampleVpAt = 12;
constexpr std::size_t kSampleKindAt = 16;
constexpr std::size_t kSampleValueAt = 17;
static_assert(sizeof(Sample::t) == kSampleLinkAt);
static_assert(kSampleLinkAt + sizeof(Sample::link) == kSampleVpAt);
static_assert(kSampleVpAt + sizeof(Sample::vp) == kSampleKindAt);
static_assert(kSampleKindAt + sizeof(Sample::kind) == kSampleValueAt);
static_assert(kSampleValueAt + sizeof(Sample::value) == kWireSampleBytes);

bool DecodeSubmitBatch(std::string_view payload, std::vector<Sample>* out) {
  if (payload.size() < 4) return false;
  const std::uint32_t count = GetLE<std::uint32_t>(payload.data());
  // Samples encode at a fixed width: the count must account for every
  // payload byte, so each record below is read by offset, unchecked.
  if (payload.size() - 4 != static_cast<std::size_t>(count) * kWireSampleBytes) {
    return false;
  }
  out->resize(count);
  const char* record = payload.data() + 4;
  for (Sample& s : *out) {
    const auto kind = static_cast<std::uint8_t>(record[kSampleKindAt]);
    if (kind > kMaxSampleKind) return false;
    s.t = static_cast<TimeSec>(GetLE<std::uint64_t>(record));
    s.link = GetLE<std::uint32_t>(record + kSampleLinkAt);
    s.vp = GetLE<std::uint32_t>(record + kSampleVpAt);
    s.kind = static_cast<SampleKind>(kind);
    s.value = std::bit_cast<float>(GetLE<std::uint32_t>(record + kSampleValueAt));
    record += kWireSampleBytes;
  }
  return true;
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
