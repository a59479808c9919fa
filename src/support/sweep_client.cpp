#include "support/sweep_client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>

#include "support/error.hpp"
#include "support/result_log.hpp"
#include "support/rng.hpp"

namespace repmpi::support {

namespace wire {
namespace {

struct RawHeader {
  char magic[4];
  std::uint16_t type;
  std::uint16_t status;
  std::uint64_t request_id;
  std::uint32_t payload_len;
  std::uint32_t payload_crc;
  std::uint32_t reserved;    ///< always 0
  std::uint32_t header_crc;  ///< CRC32C of the header with this field zeroed
};
static_assert(sizeof(RawHeader) == kHeaderSize);

}  // namespace

const char* nack_name(std::uint16_t code) {
  switch (code) {
    case kNackBusy: return "busy";
    case kNackClientCap: return "client-cap";
    case kNackDraining: return "draining";
    case kNackBadRequest: return "bad-request";
    case kNackInternal: return "internal";
  }
  return "?";
}

std::string encode_frame(const Frame& f) {
  RawHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.type = f.type;
  h.status = f.status;
  h.request_id = f.request_id;
  h.payload_len = static_cast<std::uint32_t>(f.payload.size());
  h.payload_crc = crc32c(f.payload.data(), f.payload.size());
  h.header_crc = 0;
  h.header_crc = crc32c(&h, sizeof(h));
  std::string out(reinterpret_cast<const char*>(&h), sizeof(h));
  out += f.payload;
  return out;
}

DecodeStatus decode_frame(const char* buf, std::size_t len, Frame* out,
                          std::size_t* consumed) {
  if (len < kHeaderSize) return DecodeStatus::kNeedMore;
  RawHeader h{};
  std::memcpy(&h, buf, sizeof(h));
  RawHeader copy = h;
  copy.header_crc = 0;
  // A nonzero reserved field is rejected too, so only encode_frame's
  // canonical bytes ever decode.
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0 ||
      h.header_crc != crc32c(&copy, sizeof(copy)) || h.reserved != 0 ||
      h.payload_len > kMaxPayload)
    return DecodeStatus::kCorrupt;
  if (len < kHeaderSize + h.payload_len) return DecodeStatus::kNeedMore;
  std::string payload(buf + kHeaderSize, h.payload_len);
  if (crc32c(payload.data(), payload.size()) != h.payload_crc)
    return DecodeStatus::kCorrupt;
  out->type = h.type;
  out->status = h.status;
  out->request_id = h.request_id;
  out->payload = std::move(payload);
  *consumed = kHeaderSize + h.payload_len;
  return DecodeStatus::kFrame;
}

}  // namespace wire

namespace {

using Clock = std::chrono::steady_clock;

double seconds_until(Clock::time_point deadline) {
  return std::chrono::duration<double>(deadline - Clock::now()).count();
}

/// Polls fd for `events` until the deadline; false on timeout.
bool wait_fd(int fd, short events, Clock::time_point deadline) {
  for (;;) {
    const double left = seconds_until(deadline);
    if (left <= 0) return false;
    struct pollfd p{fd, events, 0};
    const int rc = ::poll(&p, 1, static_cast<int>(std::ceil(left * 1e3)));
    if (rc > 0) return true;
    if (rc < 0 && errno != EINTR) return false;
  }
}

}  // namespace

const char* to_string(RpcStatus status) {
  switch (status) {
    case RpcStatus::kOk: return "ok";
    case RpcStatus::kNack: return "nack";
    case RpcStatus::kTimeout: return "timeout";
    case RpcStatus::kConnError: return "conn-error";
    case RpcStatus::kProtocolError: return "protocol-error";
  }
  return "?";
}

SweepClient::SweepClient(SweepClientConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.socket_path.empty())
    throw UsageError("sweep client: socket_path is required");
  if (cfg_.max_tries < 1)
    throw UsageError("sweep client: max_tries must be >= 1");
}

SweepClient::~SweepClient() { disconnect(); }

void SweepClient::disconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  inbuf_.clear();
}

bool SweepClient::connect_locked() {
  disconnect();
  struct sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (cfg_.socket_path.size() >= sizeof(addr.sun_path)) return false;
  std::memcpy(addr.sun_path, cfg_.socket_path.c_str(),
              cfg_.socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return false;
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  return true;
}

double SweepClient::retry_delay_sec(const SweepClientConfig& cfg,
                                    int attempt) {
  const double exact =
      std::min(cfg.backoff_base_sec * std::ldexp(1.0, std::max(0, attempt - 2)),
               cfg.backoff_cap_sec);
  if (cfg.jitter_seed == 0) return exact;
  SplitMix64 mix(cfg.jitter_seed ^
                 static_cast<std::uint64_t>(attempt) * 0x9e3779b97f4a7c15ULL);
  const double u = static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
  return exact * (0.5 + 0.5 * u);
}

RpcReply SweepClient::try_once(std::uint16_t type, const std::string& payload,
                               std::uint64_t request_id) {
  RpcReply reply;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg_.op_timeout_sec));
  if (fd_ < 0) {
    if (!connect_locked()) {
      reply.status = RpcStatus::kConnError;
      return reply;
    }
  }

  wire::Frame f;
  f.type = type;
  f.request_id = request_id;
  f.payload = payload;
  const std::string bytes = wire::encode_frame(f);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // A nonblocking connect() also parks here until it resolves; a
      // refused connection surfaces as the send failing afterwards.
      if (!wait_fd(fd_, POLLOUT, deadline)) {
        reply.status = RpcStatus::kTimeout;
        return reply;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    reply.status = RpcStatus::kConnError;
    return reply;
  }

  for (;;) {
    wire::Frame resp;
    std::size_t consumed = 0;
    switch (wire::decode_frame(inbuf_.data(), inbuf_.size(), &resp,
                               &consumed)) {
      case wire::DecodeStatus::kFrame:
        inbuf_.erase(0, consumed);
        if (resp.request_id != request_id ||
            (resp.type != wire::kAck && resp.type != wire::kNack)) {
          reply.status = RpcStatus::kProtocolError;
          return reply;
        }
        if (resp.type == wire::kNack) {
          reply.status = RpcStatus::kNack;
          reply.nack_code = resp.status;
          reply.payload = std::move(resp.payload);
        } else {
          reply.status = RpcStatus::kOk;
          reply.payload = std::move(resp.payload);
        }
        return reply;
      case wire::DecodeStatus::kCorrupt:
        reply.status = RpcStatus::kProtocolError;
        return reply;
      case wire::DecodeStatus::kNeedMore:
        break;
    }
    if (!wait_fd(fd_, POLLIN, deadline)) {
      reply.status = RpcStatus::kTimeout;
      return reply;
    }
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      inbuf_.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      reply.status = RpcStatus::kConnError;  // daemon closed mid-exchange
      return reply;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      reply.status = RpcStatus::kConnError;
      return reply;
    }
  }
}

RpcReply SweepClient::call(std::uint16_t type, const std::string& payload) {
  RpcReply reply;
  for (int attempt = 1; attempt <= cfg_.max_tries; ++attempt) {
    if (attempt > 1) {
      const double delay = retry_delay_sec(cfg_, attempt);
      struct timespec ts{static_cast<time_t>(delay),
                         static_cast<long>((delay - std::floor(delay)) * 1e9)};
      ::nanosleep(&ts, nullptr);
    }
    reply = try_once(type, payload, next_request_id_++);
    switch (reply.status) {
      case RpcStatus::kOk:
      case RpcStatus::kNack:
        return reply;  // a NACK is a bounded-time answer, never retried here
      case RpcStatus::kProtocolError:
        disconnect();
        return reply;
      case RpcStatus::kTimeout:
      case RpcStatus::kConnError:
        disconnect();  // stale bytes from a timed-out exchange are poison
        break;
    }
  }
  return reply;
}

}  // namespace repmpi::support
