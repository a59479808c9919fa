// Sweep-service client tests: the framed cmd/ack wire protocol (CRC'd
// 32-byte headers, corrupt-frame rejection), the deterministic jittered
// retry backoff, and the client's failure semantics against a live
// in-process Unix-socket server — NACKs return immediately, connection
// errors retry, a daemon restart mid-conversation is survived.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "fuzz_mutator.hpp"
#include "support/result_log.hpp"
#include "support/sweep_client.hpp"

namespace repmpi::support {
namespace {

// --- Wire format ------------------------------------------------------------

TEST(Wire, EncodeDecodeRoundtrip) {
  wire::Frame f;
  f.type = wire::kSubmit;
  f.request_id = 0xdeadbeef12345678ULL;
  f.payload = "hpccg.l2.d2.none";
  const std::string bytes = wire::encode_frame(f);
  EXPECT_EQ(bytes.size(), wire::kHeaderSize + f.payload.size());

  wire::Frame out;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_frame(bytes.data(), bytes.size(), &out, &consumed),
            wire::DecodeStatus::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out.type, wire::kSubmit);
  EXPECT_EQ(out.request_id, f.request_id);
  EXPECT_EQ(out.payload, f.payload);
}

TEST(Wire, NackStatusCodeRoundtrips) {
  wire::Frame f;
  f.type = wire::kNack;
  f.status = wire::kNackBusy;
  f.request_id = 7;
  const std::string bytes = wire::encode_frame(f);
  wire::Frame out;
  std::size_t consumed = 0;
  ASSERT_EQ(wire::decode_frame(bytes.data(), bytes.size(), &out, &consumed),
            wire::DecodeStatus::kFrame);
  EXPECT_EQ(out.status, wire::kNackBusy);
}

TEST(Wire, PartialFrameNeedsMore) {
  wire::Frame f;
  f.type = wire::kHello;
  f.payload = "0123456789";
  const std::string bytes = wire::encode_frame(f);
  wire::Frame out;
  std::size_t consumed = 0;
  // Truncated anywhere — mid-header or mid-payload — is kNeedMore, never
  // a bogus decode.
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_EQ(wire::decode_frame(bytes.data(), len, &out, &consumed),
              wire::DecodeStatus::kNeedMore)
        << "prefix length " << len;
}

TEST(Wire, AnySingleByteFlipIsCorrupt) {
  wire::Frame f;
  f.type = wire::kQuery;
  f.request_id = 42;
  f.payload = "hpccg.l4.d3.late_crash";
  const std::string clean = wire::encode_frame(f);
  wire::Frame out;
  std::size_t consumed = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    std::string bytes = clean;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x20);
    const auto status =
        wire::decode_frame(bytes.data(), bytes.size(), &out, &consumed);
    // A flipped length field can also make the frame look incomplete;
    // what must never happen is a successful decode of tampered bytes.
    EXPECT_NE(status, wire::DecodeStatus::kFrame) << "flipped byte " << i;
  }
}

TEST(Wire, OversizedPayloadClaimIsCorrupt) {
  wire::Frame f;
  f.type = wire::kHello;
  std::string bytes = wire::encode_frame(f);
  // Forge a header claiming a payload beyond the sanity cap; the CRC check
  // already rejects it, which is the point — no attacker-controlled
  // allocations from a length field alone.
  std::uint32_t huge = wire::kMaxPayload + 1;
  std::memcpy(bytes.data() + 16, &huge, sizeof(huge));  // payload_len field
  wire::Frame out;
  std::size_t consumed = 0;
  EXPECT_EQ(wire::decode_frame(bytes.data(), bytes.size(), &out, &consumed),
            wire::DecodeStatus::kCorrupt);
}

/// Reseals a mutant's header CRC (and, when asked, its payload CRC over the
/// payload bytes present) so it gets past the checksums and reaches the
/// length and framing logic behind them.
void reseal_frame(std::string& s, bool payload) {
  if (s.size() < wire::kHeaderSize) return;
  if (payload) {
    std::uint32_t len = 0;
    std::memcpy(&len, s.data() + 16, sizeof(len));
    const std::uint32_t crc = crc32c(
        s.data() + wire::kHeaderSize,
        std::min<std::size_t>(len, s.size() - wire::kHeaderSize));
    std::memcpy(s.data() + 20, &crc, sizeof(crc));
  }
  std::memset(s.data() + 28, 0, 4);
  const std::uint32_t crc = crc32c(s.data(), wire::kHeaderSize);
  std::memcpy(s.data() + 28, &crc, sizeof(crc));
}

TEST(Wire, FuzzedFramesDecodeSafelyAndCanonically) {
  // Corpus: one frame per type with 0-200 byte payloads, plus a two-frame
  // stream. Mutants are multi-byte flips, splices, truncations and
  // extensions, some resealed, and payload_len edits with a resealed header.
  std::vector<std::string> corpus;
  const std::uint16_t types[] = {wire::kHello, wire::kSubmit, wire::kStatus,
                                 wire::kQuery, wire::kDrain,  wire::kAck,
                                 wire::kNack};
  for (std::size_t i = 0; i < std::size(types); ++i) {
    wire::Frame f;
    f.type = types[i];
    f.status = types[i] == wire::kNack ? wire::kNackBusy : 0;
    f.request_id = 0x0102030405060708ULL * (i + 1);
    f.payload = std::string(i * 33, static_cast<char>('a' + i));
    corpus.push_back(wire::encode_frame(f));
  }
  corpus.push_back(corpus[1] + corpus[5]);

  repmpi::testing::Mutator m(0x5eedf4a3eULL);
  int decoded = 0, corrupt = 0, need_more = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string& base = corpus[m.below(corpus.size())];
    std::string s = base;
    if (m.coin(3)) {
      m.put_u32(s, 16, static_cast<std::uint32_t>(base.size() -
                                                  wire::kHeaderSize));
      reseal_frame(s, m.coin(2));
    } else {
      m.mutate(s, corpus[m.below(corpus.size())]);
      if (m.coin(4)) reseal_frame(s, m.coin(2));
    }
    wire::Frame out;
    std::size_t consumed = 0;
    switch (wire::decode_frame(s.data(), s.size(), &out, &consumed)) {
      case wire::DecodeStatus::kFrame:
        ++decoded;
        ASSERT_GE(consumed, wire::kHeaderSize) << "mutant " << i;
        ASSERT_LE(consumed, s.size()) << "mutant " << i;
        // Only canonical encodings decode: re-encoding gives back exactly
        // the bytes consumed, and any shorter prefix still needs more.
        ASSERT_EQ(wire::encode_frame(out), s.substr(0, consumed))
            << "mutant " << i;
        ASSERT_EQ(wire::decode_frame(s.data(), consumed - 1, &out, &consumed),
                  wire::DecodeStatus::kNeedMore)
            << "mutant " << i;
        break;
      case wire::DecodeStatus::kCorrupt: ++corrupt; break;
      case wire::DecodeStatus::kNeedMore: ++need_more; break;
    }
  }
  // Every outcome is reached, so the mix is neither all noise nor all
  // trivially intact.
  EXPECT_GT(decoded, 100);
  EXPECT_GT(corrupt, 100);
  EXPECT_GT(need_more, 100);
}

TEST(Wire, NackNamesAreDistinct) {
  EXPECT_STREQ(wire::nack_name(wire::kNackBusy), "busy");
  EXPECT_STREQ(wire::nack_name(wire::kNackClientCap), "client-cap");
  EXPECT_STREQ(wire::nack_name(wire::kNackDraining), "draining");
  EXPECT_STREQ(wire::nack_name(wire::kNackBadRequest), "bad-request");
  EXPECT_STREQ(wire::nack_name(wire::kNackInternal), "internal");
}

// --- Retry backoff ----------------------------------------------------------

TEST(SweepClientBackoff, JitteredDelayIsReproducibleAndBounded) {
  SweepClientConfig cfg;
  cfg.socket_path = "-";
  cfg.backoff_base_sec = 0.05;
  cfg.backoff_cap_sec = 1.0;
  cfg.jitter_seed = 0xfeedface;
  for (int attempt = 2; attempt <= 10; ++attempt) {
    const double a = SweepClient::retry_delay_sec(cfg, attempt);
    const double b = SweepClient::retry_delay_sec(cfg, attempt);
    EXPECT_DOUBLE_EQ(a, b) << "attempt " << attempt;  // deterministic
    SweepClientConfig exact = cfg;
    exact.jitter_seed = 0;
    const double e = SweepClient::retry_delay_sec(exact, attempt);
    EXPECT_GE(a, 0.5 * e) << "attempt " << attempt;
    EXPECT_LT(a, e) << "attempt " << attempt;
    EXPECT_LE(e, cfg.backoff_cap_sec);
  }
  // Zero seed: the exact exponential, doubling from base and capping.
  SweepClientConfig exact = cfg;
  exact.jitter_seed = 0;
  EXPECT_DOUBLE_EQ(SweepClient::retry_delay_sec(exact, 2), 0.05);
  EXPECT_DOUBLE_EQ(SweepClient::retry_delay_sec(exact, 3), 0.1);
  EXPECT_DOUBLE_EQ(SweepClient::retry_delay_sec(exact, 4), 0.2);
  EXPECT_DOUBLE_EQ(SweepClient::retry_delay_sec(exact, 10), 1.0);  // capped
}

// --- Client against a live in-process server --------------------------------

std::string temp_socket_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "repmpi_swc_" + name;
  std::remove(path.c_str());
  return path;
}

/// Minimal one-shot UDS server: accepts connections and answers each
/// decoded command frame via `responder` until told to stop.
class MiniServer {
 public:
  using Responder = std::function<std::string(const wire::Frame&)>;

  MiniServer(const std::string& path, Responder responder)
      : responder_(std::move(responder)) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    struct sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    thread_ = std::thread([this] { serve(); });
  }

  ~MiniServer() {
    // Shutdown makes the blocking accept() return so the thread exits.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
  }

 private:
  void serve() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::string inbuf;
      char buf[4096];
      for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        inbuf.append(buf, static_cast<std::size_t>(n));
        wire::Frame req;
        std::size_t consumed = 0;
        bool closed = false;
        while (wire::decode_frame(inbuf.data(), inbuf.size(), &req,
                                  &consumed) == wire::DecodeStatus::kFrame) {
          inbuf.erase(0, consumed);
          const std::string reply = responder_(req);
          if (reply.empty()) {  // responder says: hang up mid-exchange
            closed = true;
            break;
          }
          std::size_t sent = 0;
          while (sent < reply.size()) {
            const ssize_t w =
                ::send(fd, reply.data() + sent, reply.size() - sent,
                       MSG_NOSIGNAL);
            if (w <= 0) break;
            sent += static_cast<std::size_t>(w);
          }
        }
        if (closed) break;
      }
      ::close(fd);
    }
  }

  Responder responder_;
  int listen_fd_ = -1;
  std::thread thread_;
};

SweepClientConfig fast_cfg(const std::string& socket_path) {
  SweepClientConfig cfg;
  cfg.socket_path = socket_path;
  cfg.op_timeout_sec = 5.0;
  cfg.max_tries = 3;
  cfg.backoff_base_sec = 0.01;
  cfg.backoff_cap_sec = 0.05;
  return cfg;
}

TEST(SweepClient, HelloRoundtripEchoesRequestId) {
  const std::string path = temp_socket_path("hello");
  MiniServer server(path, [](const wire::Frame& req) {
    EXPECT_EQ(req.type, wire::kHello);
    wire::Frame resp;
    resp.type = wire::kAck;
    resp.request_id = req.request_id;  // the match the client verifies
    resp.payload = "banner";
    return wire::encode_frame(resp);
  });
  SweepClient client(fast_cfg(path));
  const RpcReply reply = client.hello();
  EXPECT_EQ(reply.status, RpcStatus::kOk);
  EXPECT_EQ(reply.payload, "banner");
  // Consecutive calls over one connection keep working.
  EXPECT_EQ(client.hello().status, RpcStatus::kOk);
}

TEST(SweepClient, NackReturnsImmediatelyWithoutRetrying) {
  const std::string path = temp_socket_path("nack");
  std::atomic<int> calls{0};
  MiniServer server(path, [&calls](const wire::Frame& req) {
    ++calls;
    wire::Frame resp;
    resp.type = wire::kNack;
    resp.status = wire::kNackBusy;
    resp.request_id = req.request_id;
    resp.payload = "queue depth reached";
    return wire::encode_frame(resp);
  });
  SweepClient client(fast_cfg(path));
  const auto t0 = std::chrono::steady_clock::now();
  const RpcReply reply = client.submit("hpccg.l2.d2.none");
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(reply.status, RpcStatus::kNack);
  EXPECT_EQ(reply.nack_code, wire::kNackBusy);
  EXPECT_EQ(reply.payload, "queue depth reached");
  EXPECT_EQ(calls.load(), 1);  // backpressure is answered, never retried
  EXPECT_LT(elapsed, 2.0);     // and the answer is bounded-time
}

TEST(SweepClient, MismatchedRequestIdIsProtocolError) {
  const std::string path = temp_socket_path("badid");
  MiniServer server(path, [](const wire::Frame& req) {
    wire::Frame resp;
    resp.type = wire::kAck;
    resp.request_id = req.request_id + 1;  // wrong conversation
    return wire::encode_frame(resp);
  });
  SweepClient client(fast_cfg(path));
  EXPECT_EQ(client.status().status, RpcStatus::kProtocolError);
}

TEST(SweepClient, CorruptResponseFrameIsProtocolError) {
  const std::string path = temp_socket_path("corrupt");
  MiniServer server(path, [](const wire::Frame& req) {
    wire::Frame resp;
    resp.type = wire::kAck;
    resp.request_id = req.request_id;
    std::string bytes = wire::encode_frame(resp);
    bytes[5] = static_cast<char>(bytes[5] ^ 0xff);  // break the header CRC
    return bytes;
  });
  SweepClient client(fast_cfg(path));
  EXPECT_EQ(client.hello().status, RpcStatus::kProtocolError);
}

TEST(SweepClient, NoDaemonIsConnErrorAfterBoundedRetries) {
  SweepClientConfig cfg = fast_cfg(temp_socket_path("nobody"));
  cfg.max_tries = 2;
  SweepClient client(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(client.hello().status, RpcStatus::kConnError);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 3.0);  // bounded: tries * (connect fail + backoff)
}

TEST(SweepClient, ReconnectsAfterServerDropsTheConnection) {
  // The server hangs up instead of answering the first frame it sees —
  // the shape of a daemon being killed mid-exchange. The retry must
  // reconnect and complete against the revived service.
  const std::string path = temp_socket_path("redial");
  std::atomic<int> calls{0};
  MiniServer server(path, [&calls](const wire::Frame& req) -> std::string {
    if (++calls == 1) return "";  // hang up mid-exchange
    wire::Frame resp;
    resp.type = wire::kAck;
    resp.request_id = req.request_id;
    resp.payload = "recovered";
    return wire::encode_frame(resp);
  });
  SweepClient client(fast_cfg(path));
  const RpcReply reply = client.status();
  EXPECT_EQ(reply.status, RpcStatus::kOk);
  EXPECT_EQ(reply.payload, "recovered");
  EXPECT_EQ(calls.load(), 2);
}

}  // namespace
}  // namespace repmpi::support
