// One client's protocol state machine, decoupled from any transport: the
// daemon feeds it raw bytes as they arrive off a socket (in arbitrary
// fragments), it reassembles frames, dispatches them against the service,
// and appends response frames to an output buffer. Keeping the session
// transport-free is what makes the protocol testable without a network —
// the frame-fragmentation and garbage-rejection tests drive Consume()
// directly.
//
// Sessions must be driven from the service's single producer thread (the
// daemon event loop): submit and flush messages mutate ingest state.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/codec.h"
#include "serve/service.h"

namespace manic::serve {

// Error codes carried in kError frames.
inline constexpr std::uint16_t kErrBadVersion = 1;
inline constexpr std::uint16_t kErrMalformed = 2;
inline constexpr std::uint16_t kErrUnexpected = 3;
inline constexpr std::uint16_t kErrCorruptStream = 4;
inline constexpr std::uint16_t kErrBadTimestamp = 5;
// Degraded mode (WAL out of space): ingest shed, connection kept — the
// client should poll the watermark and resubmit once the daemon recovers.
inline constexpr std::uint16_t kErrDegraded = 6;

class Session {
 public:
  explicit Session(CongestionService* service) : service_(service) {}

  // Feeds incoming bytes; appends any response frames to *out. Returns
  // false when the connection must be dropped (corrupt framing, protocol
  // violation, version mismatch) — a final kError frame is appended first
  // so well-behaved clients learn why.
  bool Consume(std::string_view bytes, std::string* out);

  bool hello_done() const noexcept { return hello_done_; }
  std::uint64_t frames_handled() const noexcept { return frames_; }

 private:
  bool Dispatch(MsgType type, std::string_view payload, std::string* out);

  CongestionService* service_ = nullptr;
  FrameAssembler assembler_;
  // Reused frame by frame, so a steady submit stream allocates nothing per
  // request once the largest batch has been seen (at most
  // kMaxSamplesPerFrame samples, ~6 MB).
  std::string payload_;
  std::vector<Sample> samples_;
  bool hello_done_ = false;
  bool dead_ = false;
  std::uint64_t frames_ = 0;
};

}  // namespace manic::serve
