#include "serve/daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace manic::serve {
namespace {

// Loop tick: bounds how stale PollClock-driven day closes can be. Purely a
// latency/CPU trade; correctness never depends on it.
constexpr int kPollTimeoutMs = 100;

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// SO_RCVTIMEO/SO_SNDTIMEO: a blocking call returns EAGAIN after ms instead
// of hanging forever on a wedged daemon. 0 keeps the block-forever default.
void ApplySocketTimeout(int fd, std::uint32_t ms) {
  if (ms == 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

TcpDaemon::~TcpDaemon() {
  CloseAll();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

bool TcpDaemon::Listen(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0 || !SetNonBlocking(listen_fd_)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  port_ = ntohs(bound.sin_port);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  SetNonBlocking(wake_read_fd_);
  return true;
}

void TcpDaemon::Shutdown() {
  stop_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

void TcpDaemon::Drain() {
  drain_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) {
    const char byte = 'd';
    [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

bool TcpDaemon::FlushOutbox(Conn* conn) {
  while (!conn->outbox.empty()) {
    const ssize_t n =
        ::send(conn->fd, conn->outbox.data(), conn->outbox.size(),
               MSG_NOSIGNAL);
    if (n > 0) {
      conn->outbox.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // peer gone
  }
  return true;
}

void TcpDaemon::HandleReadable(Conn* conn) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      const bool keep = conn->session.Consume(
          std::string_view(buf, static_cast<std::size_t>(n)), &conn->outbox);
      if (!keep) {
        conn->closing = true;
        return;
      }
      if (conn->outbox.size() > max_outbox_bytes_) {
        conn->closing = true;  // unreading peer: shed it, don't buffer it
        return;
      }
      if (n < static_cast<ssize_t>(sizeof(buf))) return;
      continue;
    }
    if (n == 0) {  // orderly peer close
      conn->closing = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    conn->closing = true;
    return;
  }
}

void TcpDaemon::Run() {
  std::vector<pollfd> fds;
  while (!stop_.load(std::memory_order_acquire)) {
    const bool draining = drain_.load(std::memory_order_acquire);
    if (draining) {
      // Drain exit condition: every reply in flight has been flushed. New
      // input is no longer read, so the set of pending bytes only shrinks.
      bool pending = false;
      for (const Conn* conn : conns_) {
        if (!conn->outbox.empty()) pending = true;
      }
      if (!pending) break;
    }
    fds.clear();
    fds.push_back({listen_fd_, static_cast<short>(draining ? 0 : POLLIN), 0});
    fds.push_back({wake_read_fd_, POLLIN, 0});
    for (const Conn* conn : conns_) {
      short events = draining ? 0 : POLLIN;
      if (!conn->outbox.empty()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
    }

    const int ready = ::poll(fds.data(), fds.size(), kPollTimeoutMs);
    if (ready < 0 && errno != EINTR) break;

    // Live-mode day closes; a no-op without a configured clock.
    service_->PollClock();

    if (ready > 0) {
      if (fds[0].revents & POLLIN) {
        for (;;) {
          const int fd = ::accept(listen_fd_, nullptr, nullptr);
          if (fd < 0) break;
          if (!SetNonBlocking(fd)) {
            ::close(fd);
            continue;
          }
          Conn* conn = new Conn(service_);
          conn->fd = fd;
          conns_.push_back(conn);
        }
      }
      if (fds[1].revents & POLLIN) {
        char wake[16];
        while (::read(wake_read_fd_, wake, sizeof(wake)) > 0) {
        }
      }

      // conns_ indices line up with fds[2..]; accept() above only appends.
      const std::size_t polled = fds.size() - 2;
      for (std::size_t i = 0; i < polled; ++i) {
        Conn* conn = conns_[i];
        const short revents = fds[i + 2].revents;
        if (revents & (POLLERR | POLLHUP | POLLNVAL)) conn->closing = true;
        if (!conn->closing && (revents & POLLIN)) HandleReadable(conn);
        if ((revents & (POLLIN | POLLOUT)) && !FlushOutbox(conn)) {
          conn->closing = true;
        }
      }
    }

    // Reap: a closing connection gets one final best-effort flush (the
    // kError frame) before the socket drops. Survivors compact in place, so
    // the loop allocates nothing per tick.
    std::size_t kept = 0;
    for (Conn* conn : conns_) {
      if (conn->closing) {
        FlushOutbox(conn);
        ::close(conn->fd);
        delete conn;
      } else {
        conns_[kept++] = conn;
      }
    }
    conns_.resize(kept);
  }
  CloseAll();
}

void TcpDaemon::CloseAll() {
  for (Conn* conn : conns_) {
    ::close(conn->fd);
    delete conn;
  }
  conns_.clear();
}

// ---- BlockingClient ---------------------------------------------------------

bool BlockingClient::Connect(std::uint16_t port) {
  Close();
  last_error_ = ClientError::kNone;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    last_error_ = ClientError::kConnect;
    return false;
  }
  ApplySocketTimeout(fd_, timeout_ms_);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Close();
    last_error_ = ClientError::kConnect;
    return false;
  }
  MsgType type;
  std::string payload;
  std::uint32_t version = 0;
  if (!SendAll(EncodeHello()) || !ReadFrame(&type, &payload) ||
      type != MsgType::kHelloAck ||
      !DecodeHelloAck(payload, &version, &server_shards_) ||
      version != kProtocolVersion) {
    Close();
    last_error_ = ClientError::kConnect;
    return false;
  }
  return true;
}

void BlockingClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  assembler_ = FrameAssembler();
  server_shards_ = 0;
}

bool BlockingClient::SendAll(std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        last_error_ = ClientError::kTimeout;  // SO_SNDTIMEO expired
      } else {
        last_error_ = ClientError::kClosed;
      }
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool BlockingClient::ReadFrame(MsgType* type, std::string* payload) {
  for (;;) {
    if (assembler_.Next(type, payload)) return true;
    if (assembler_.corrupt()) {
      last_error_ = ClientError::kProtocol;
      return false;
    }
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        last_error_ = ClientError::kTimeout;  // SO_RCVTIMEO expired
      } else {
        last_error_ = ClientError::kClosed;
      }
      return false;
    }
    assembler_.Feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

bool BlockingClient::FailOnReply(MsgType type, std::string_view payload) {
  std::uint16_t code = 0;
  std::string message;
  if (type == MsgType::kError && DecodeError(payload, &code, &message) &&
      code == kErrDegraded) {
    last_error_ = ClientError::kDegraded;
  } else {
    last_error_ = ClientError::kProtocol;
  }
  return false;
}

bool BlockingClient::Submit(std::span<const Sample> samples) {
  last_error_ = ClientError::kNone;
  if (fd_ < 0) {
    last_error_ = ClientError::kClosed;
    return false;
  }
  if (samples.size() > kMaxSamplesPerFrame) {
    last_error_ = ClientError::kProtocol;  // the daemon would refuse it
    return false;
  }
  frame_buf_.clear();
  EncodeSubmitBatchTo(samples, &frame_buf_);
  if (!SendAll(frame_buf_)) return false;
  MsgType type;
  if (!ReadFrame(&type, &payload_buf_)) return false;
  if (type != MsgType::kSubmitAck) return FailOnReply(type, payload_buf_);
  std::uint64_t accepted = 0;
  if (!DecodeSubmitAck(payload_buf_, &accepted) ||
      accepted != samples.size()) {
    last_error_ = ClientError::kProtocol;
    return false;
  }
  return true;
}

std::optional<std::vector<VerdictRecord>> BlockingClient::QueryRange(
    topo::LinkId link, TimeSec t0, TimeSec t1) {
  last_error_ = ClientError::kNone;
  if (fd_ < 0) {
    last_error_ = ClientError::kClosed;
    return std::nullopt;
  }
  if (!SendAll(EncodeQueryRange(link, t0, t1))) return std::nullopt;
  MsgType type;
  std::string payload;
  std::vector<VerdictRecord> rows;
  if (!ReadFrame(&type, &payload)) return std::nullopt;
  if (type != MsgType::kVerdicts) {
    FailOnReply(type, payload);
    return std::nullopt;
  }
  if (!DecodeVerdicts(payload, &rows)) {
    last_error_ = ClientError::kProtocol;
    return std::nullopt;
  }
  return rows;
}

std::optional<VerdictRecord> BlockingClient::QueryPoint(topo::LinkId link,
                                                        TimeSec t) {
  last_error_ = ClientError::kNone;
  if (fd_ < 0) {
    last_error_ = ClientError::kClosed;
    return std::nullopt;
  }
  if (!SendAll(EncodeQueryPoint(link, t))) return std::nullopt;
  MsgType type;
  std::string payload;
  std::vector<VerdictRecord> rows;
  if (!ReadFrame(&type, &payload)) return std::nullopt;
  if (type != MsgType::kVerdicts) {
    FailOnReply(type, payload);
    return std::nullopt;
  }
  if (!DecodeVerdicts(payload, &rows)) {
    last_error_ = ClientError::kProtocol;
    return std::nullopt;
  }
  if (rows.empty()) return std::nullopt;  // no verdict, not an error
  return rows.front();
}

std::optional<infer::DataQuality> BlockingClient::QueryQuality(
    topo::LinkId link) {
  last_error_ = ClientError::kNone;
  if (fd_ < 0) {
    last_error_ = ClientError::kClosed;
    return std::nullopt;
  }
  if (!SendAll(EncodeQueryQuality(link))) return std::nullopt;
  MsgType type;
  std::string payload;
  bool found = false;
  infer::DataQuality quality;
  if (!ReadFrame(&type, &payload)) return std::nullopt;
  if (type != MsgType::kQuality) {
    FailOnReply(type, payload);
    return std::nullopt;
  }
  if (!DecodeQuality(payload, &found, &quality)) {
    last_error_ = ClientError::kProtocol;
    return std::nullopt;
  }
  if (!found) return std::nullopt;  // unknown link, not an error
  return quality;
}

std::optional<ServiceStats> BlockingClient::QueryStats() {
  last_error_ = ClientError::kNone;
  if (fd_ < 0) {
    last_error_ = ClientError::kClosed;
    return std::nullopt;
  }
  if (!SendAll(EncodeQueryStats())) return std::nullopt;
  MsgType type;
  std::string payload;
  ServiceStats stats;
  if (!ReadFrame(&type, &payload)) return std::nullopt;
  if (type != MsgType::kStats) {
    FailOnReply(type, payload);
    return std::nullopt;
  }
  if (!DecodeStats(payload, &stats)) {
    last_error_ = ClientError::kProtocol;
    return std::nullopt;
  }
  return stats;
}

std::optional<std::int64_t> BlockingClient::Flush() {
  last_error_ = ClientError::kNone;
  if (fd_ < 0) {
    last_error_ = ClientError::kClosed;
    return std::nullopt;
  }
  if (!SendAll(EncodeFlush())) return std::nullopt;
  MsgType type;
  std::string payload;
  std::int64_t day = 0;
  if (!ReadFrame(&type, &payload)) return std::nullopt;
  if (type != MsgType::kFlushAck) {
    FailOnReply(type, payload);
    return std::nullopt;
  }
  if (!DecodeFlushAck(payload, &day)) {
    last_error_ = ClientError::kProtocol;
    return std::nullopt;
  }
  return day;
}

std::optional<WatermarkInfo> BlockingClient::GetWatermark() {
  last_error_ = ClientError::kNone;
  if (fd_ < 0) {
    last_error_ = ClientError::kClosed;
    return std::nullopt;
  }
  if (!SendAll(EncodeGetWatermark())) return std::nullopt;
  MsgType type;
  std::string payload;
  WatermarkInfo info;
  if (!ReadFrame(&type, &payload)) return std::nullopt;
  if (type != MsgType::kWatermark) {
    FailOnReply(type, payload);
    return std::nullopt;
  }
  if (!DecodeWatermark(payload, &info)) {
    last_error_ = ClientError::kProtocol;
    return std::nullopt;
  }
  return info;
}

}  // namespace manic::serve
