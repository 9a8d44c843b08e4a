// The network front of the serving plane: a single-threaded poll() event
// loop on 127.0.0.1 that accepts many concurrent clients, feeds their bytes
// through per-connection Sessions, and flushes response frames as sockets
// drain. One event thread IS the service's single producer — submit frames
// from every client serialize naturally, no ingest lock needed. Shutdown
// rides a self-pipe so another thread can wake the loop without touching
// sockets. Each loop tick also calls CongestionService::PollClock(), so a
// live daemon (WallClock) closes days as wall time crosses midnight while a
// replay daemon (ManualClock or no clock) stays fully input-driven.
//
// BlockingClient is the matching minimal client: synchronous
// request/response over the same codec, used by the examples, the tests,
// and the perf gate.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "serve/codec.h"
#include "serve/service.h"
#include "serve/session.h"

namespace manic::serve {

class TcpDaemon {
 public:
  // The daemon drives but does not own the service.
  explicit TcpDaemon(CongestionService* service) : service_(service) {}
  ~TcpDaemon();

  TcpDaemon(const TcpDaemon&) = delete;
  TcpDaemon& operator=(const TcpDaemon&) = delete;

  // Binds 127.0.0.1:port (port 0 = ephemeral). False on any socket error.
  bool Listen(std::uint16_t port = 0);
  std::uint16_t port() const noexcept { return port_; }

  // Runs the event loop until Shutdown(). Call from a dedicated thread.
  void Run();
  // Thread-safe; wakes the loop through the self-pipe.
  void Shutdown();
  // Graceful drain (SIGTERM path): stop accepting, keep the loop alive just
  // long enough to flush every pending outbox, then exit Run(). Unlike
  // Shutdown() no reply in flight is dropped, so a client that got its
  // submit ack can trust the daemon's WAL epilogue covers that sample.
  // Thread-safe and async-signal-safe (a flag store plus a pipe write).
  void Drain();

  // Per-connection pending-reply cap: a peer that pipelines requests
  // without reading its replies is dropped (after one best-effort flush)
  // once this many bytes are queued, so one slow or malicious reader
  // cannot exhaust daemon memory. Set before Run().
  void set_max_outbox_bytes(std::size_t n) noexcept { max_outbox_bytes_ = n; }

 private:
  struct Conn {
    Session session;
    std::string outbox;
    int fd = -1;
    bool closing = false;  // flush what we can, then drop
    explicit Conn(CongestionService* service) : session(service) {}
  };

  void HandleReadable(Conn* conn);
  static bool FlushOutbox(Conn* conn);
  void CloseAll();

  CongestionService* service_ = nullptr;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_{false};
  std::size_t max_outbox_bytes_ = 4u << 20;
  std::vector<Conn*> conns_;
};

// Why each client call failed — transport trouble (retryable) is kept
// distinct from protocol trouble (not retryable) so RetryingClient can
// decide without string matching. kTimeout only fires when a socket
// timeout is configured; without one a dead-but-connected daemon blocks
// forever (the pre-timeout behavior).
enum class ClientError : std::uint8_t {
  kNone = 0,
  kConnect,   // could not establish the connection / handshake
  kTimeout,   // socket send/recv timed out (SO_RCVTIMEO / SO_SNDTIMEO)
  kClosed,    // peer closed or reset the connection
  kProtocol,  // malformed or unexpected frame; do not retry blindly
  kDegraded,  // daemon shed ingest (kErrDegraded): back off, do not resend
};

// Synchronous client for tests, examples, and the perf gate. Not
// thread-safe; one outstanding request at a time.
class BlockingClient {
 public:
  ~BlockingClient() { Close(); }

  // Socket send/recv timeout applied at Connect() time; 0 = block forever.
  // Set before Connect().
  void set_timeout_ms(std::uint32_t ms) noexcept { timeout_ms_ = ms; }

  // Connects to 127.0.0.1:port and completes the hello handshake.
  bool Connect(std::uint16_t port);
  void Close();
  bool connected() const noexcept { return fd_ >= 0; }
  std::uint32_t server_shards() const noexcept { return server_shards_; }
  // Why the most recent call failed (kNone after a success).
  ClientError last_error() const noexcept { return last_error_; }

  // Each call sends one request frame and blocks for the matching reply;
  // nullopt/false mean a transport or protocol failure. Submit sends
  // nothing and fails with kProtocol for more than kMaxSamplesPerFrame
  // samples: split larger batches.
  bool Submit(std::span<const Sample> samples);
  std::optional<std::vector<VerdictRecord>> QueryRange(topo::LinkId link,
                                                       TimeSec t0, TimeSec t1);
  std::optional<VerdictRecord> QueryPoint(topo::LinkId link, TimeSec t);
  std::optional<infer::DataQuality> QueryQuality(topo::LinkId link);
  std::optional<ServiceStats> QueryStats();
  // Asks the daemon to close every day through the stream watermark;
  // returns the last closed day.
  std::optional<std::int64_t> Flush();
  // The durable ingest watermark — how a reconnecting client learns where
  // to resume its stream (see WatermarkInfo in codec.h).
  std::optional<WatermarkInfo> GetWatermark();

 private:
  bool SendAll(std::string_view bytes);
  bool ReadFrame(MsgType* type, std::string* payload);
  // Classifies an unexpected reply: kError carrying kErrDegraded maps to
  // ClientError::kDegraded, everything else to kProtocol. Always false.
  bool FailOnReply(MsgType type, std::string_view payload);

  FrameAssembler assembler_;
  // Submit's request frame and reply payload, reused call over call.
  std::string frame_buf_;
  std::string payload_buf_;
  int fd_ = -1;
  std::uint32_t server_shards_ = 0;
  std::uint32_t timeout_ms_ = 0;
  ClientError last_error_ = ClientError::kNone;
};

}  // namespace manic::serve
