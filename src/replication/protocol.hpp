#pragma once

// Wire format of the replication protocol.
//
// Logical messages carry a sequence-number header (per sender-logical-rank,
// per tag); the receiver enforces in-order delivery per (source, tag) and
// drops duplicates, which makes cover takeover + replay after a replica
// crash idempotent. Control messages (NACK, shutdown) travel on a dedicated
// channel served by each rank's progress agent.

#include <cstdint>

namespace repmpi::rep {

/// Channel ids: logical app traffic, replica-group traffic (intra-parallel
/// updates) and control traffic are kept disjoint. Replica groups derive
/// theirs from kReplicaChannelBase (mpi::Comm::derive_channel).
constexpr std::uint64_t kLogicalChannel = 0x10;
constexpr std::uint64_t kControlChannel = 0x11;
constexpr std::uint64_t kReplicaChannelBase = 0x100000;

/// Tag space: application tags must stay below kCollTagBase; the logical
/// collectives allocate tags upward from there.
constexpr int kCollTagBase = 1 << 20;
constexpr int kControlTag = 1;

/// Header prepended to every logical payload.
struct MsgHeader {
  std::uint64_t seq = 0;
};

struct ControlMsg {
  enum class Type : std::uint32_t { kNack = 1 };
  Type type = Type::kNack;
  std::int32_t requester_logical = -1;
  std::int32_t requester_lane = -1;
  std::int32_t tag = 0;
  std::uint64_t expected_seq = 0;
};

}  // namespace repmpi::rep
