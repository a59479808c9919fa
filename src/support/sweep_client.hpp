#pragma once

// Client side of the sweep service protocol: framed cmd/ack over a Unix-
// domain stream socket, in the Cai900205 mailbox idiom — every exchange is
// one fixed-header command frame answered by exactly one ack/nack frame
// carrying the same request id.
//
// Frame layout (32-byte header + payload):
//   magic "RSW1" · type · status · request_id · payload_len · payload_crc ·
//   reserved (0) · header_crc — both CRCs are CRC32C (the result-log
//   checksum). A frame that fails any check is a protocol violation: the
//   peer closes the connection rather than guessing at resynchronization.
//
// Failure semantics the daemon's clients rely on:
//   - NACKs return immediately (never retried here): backpressure must be
//     a bounded-time answer, not a hidden hang. The caller decides whether
//     to back off and resubmit (repmpi_sweepctl replay does).
//   - Timeouts and connection errors are retried with seeded, deterministic
//     jitter on an exponential backoff (retry_delay_sec), reconnecting each
//     time — a daemon restart in mid-conversation looks like one slow call,
//     not an error, as long as it comes back within the retry budget.
//   - A response with the wrong request id is a protocol error.

#include <cstdint>
#include <string>

namespace repmpi::support {

namespace wire {

constexpr char kMagic[4] = {'R', 'S', 'W', '1'};
constexpr std::size_t kHeaderSize = 32;
constexpr std::uint32_t kMaxPayload = 1u << 20;  ///< sanity cap per frame

/// Message types. Commands flow client→daemon; kAck/kNack flow back.
enum MsgType : std::uint16_t {
  kHello = 1,   ///< liveness probe; ack payload is the daemon banner
  kSubmit = 2,  ///< payload = cell key; durable enqueue before the ack
  kStatus = 3,  ///< ack payload = one-line queue/progress summary
  kQuery = 4,   ///< payload = cell key; ack payload = its current state
  kDrain = 5,   ///< begin graceful drain (finish in-flight, park queued)
  kAck = 16,
  kNack = 17,
};

/// NACK reason codes (FrameHeader::status of a kNack frame) — the explicit
/// EBUSY-class answers that replace silent hangs under overload.
enum NackCode : std::uint16_t {
  kNackBusy = 1,        ///< durable queue at capacity
  kNackClientCap = 2,   ///< this client's in-flight cap reached
  kNackDraining = 3,    ///< daemon is draining; not admitting new work
  kNackBadRequest = 4,  ///< malformed command or cell key
  kNackInternal = 5,    ///< daemon-side failure appending/enqueueing
};

const char* nack_name(std::uint16_t code);

struct Frame {
  std::uint16_t type = 0;
  std::uint16_t status = 0;  ///< NackCode for kNack frames, else 0
  std::uint64_t request_id = 0;
  std::string payload;
};

/// Serializes one frame (header CRCs filled in).
std::string encode_frame(const Frame& f);

enum class DecodeStatus {
  kNeedMore,  ///< buffer holds a partial frame; read more bytes
  kFrame,     ///< one frame decoded; *consumed bytes were used
  kCorrupt,   ///< bad magic/CRC/length — close the connection
};

/// Attempts to decode one frame from the front of `buf`.
DecodeStatus decode_frame(const char* buf, std::size_t len, Frame* out,
                          std::size_t* consumed);

}  // namespace wire

/// Outcome classes of one client call.
enum class RpcStatus {
  kOk,             ///< acked
  kNack,           ///< daemon said no — nack_code() says why
  kTimeout,        ///< no complete response within the deadline (retried)
  kConnError,      ///< connect/send/recv failed (retried)
  kProtocolError,  ///< corrupt frame or request-id mismatch
};

const char* to_string(RpcStatus status);

struct RpcReply {
  RpcStatus status = RpcStatus::kConnError;
  std::uint16_t nack_code = 0;  ///< wire::NackCode when status == kNack
  std::string payload;          ///< ack payload (empty otherwise)
};

struct SweepClientConfig {
  std::string socket_path;
  double op_timeout_sec = 10.0;  ///< per-try send+receive deadline
  int max_tries = 4;             ///< tries per call for timeout/conn errors
  double backoff_base_sec = 0.05;  ///< retry n waits base * 2^(n-1), capped
  double backoff_cap_sec = 1.0;
  /// Seed for the deterministic retry jitter (same scheme as the
  /// supervisor's backoff): 0 = exact exponential delays.
  std::uint64_t jitter_seed = 0x52455031u;
};

class SweepClient {
 public:
  explicit SweepClient(SweepClientConfig cfg);
  ~SweepClient();
  SweepClient(const SweepClient&) = delete;
  SweepClient& operator=(const SweepClient&) = delete;

  RpcReply hello() { return call(wire::kHello, ""); }
  RpcReply submit(const std::string& cell_key) {
    return call(wire::kSubmit, cell_key);
  }
  RpcReply status() { return call(wire::kStatus, ""); }
  RpcReply query(const std::string& cell_key) {
    return call(wire::kQuery, cell_key);
  }
  RpcReply drain() { return call(wire::kDrain, ""); }

  /// One cmd/ack exchange with the retry policy above. NACKs and protocol
  /// errors return immediately; timeouts and connection errors retry up to
  /// cfg.max_tries with jittered backoff.
  RpcReply call(std::uint16_t type, const std::string& payload);

  /// Delay before try `attempt` (2-based: the wait between try n-1 and n),
  /// with the config's deterministic jitter — a pure function, unit-tested
  /// for reproducibility.
  static double retry_delay_sec(const SweepClientConfig& cfg, int attempt);

 private:
  bool connect_locked();
  void disconnect();
  /// Sends the frame and reads the matching response within deadline_sec.
  RpcReply try_once(std::uint16_t type, const std::string& payload,
                    std::uint64_t request_id);

  SweepClientConfig cfg_;
  int fd_ = -1;
  std::uint64_t next_request_id_ = 1;
  std::string inbuf_;
};

}  // namespace repmpi::support
