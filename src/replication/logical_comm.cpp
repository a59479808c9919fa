#include "replication/logical_comm.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "support/log.hpp"

namespace repmpi::rep {

namespace {
std::vector<int> identity_members(int n) {
  std::vector<int> m(static_cast<std::size_t>(n));
  std::iota(m.begin(), m.end(), 0);
  return m;
}
}  // namespace

LogicalComm::LogicalComm(mpi::Proc& proc, ReplicaLayout layout)
    : proc_(proc), layout_(layout) {
  REPMPI_CHECK(layout_.num_logical > 0 && layout_.degree >= 1);
  REPMPI_CHECK_MSG(proc.world().num_ranks() == layout_.num_physical(),
                   "world size " << proc.world().num_ranks()
                                 << " != layout physical count "
                                 << layout_.num_physical());
  logical_ = layout_.logical_of(proc.world_rank());
  lane_ = layout_.lane_of(proc.world_rank());

  phys_ = std::make_unique<mpi::Comm>(
      proc, kLogicalChannel, identity_members(layout_.num_physical()));
  control_ = std::make_unique<mpi::Comm>(
      proc, kControlChannel, identity_members(layout_.num_physical()));

  std::vector<int> lanes;
  lanes.reserve(static_cast<std::size_t>(layout_.degree));
  for (int k = 0; k < layout_.degree; ++k)
    lanes.push_back(layout_.phys_rank(logical_, k));
  replica_comm_ = std::make_unique<mpi::Comm>(
      proc, mpi::Comm::derive_channel(kReplicaChannelBase,
                                      static_cast<std::uint64_t>(logical_)),
      std::move(lanes));

  if (replicated()) {
    shared_ = std::make_shared<SharedState>();
    // The progress agent models the MPI library's async progress thread: it
    // serves replay requests even while the main thread is blocked.
    auto shared = shared_;
    mpi::World* world = &proc_.world();
    const ReplicaLayout lay = layout_;
    const int my_world = proc_.world_rank();
    agent_pid_ = proc_.world().simulator().spawn(
        "agent" + std::to_string(my_world),
        [shared, world, lay, my_world](sim::Context& ctx) {
          agent_loop(ctx, *world, lay, my_world, *shared);
        });
    proc_.world().register_companion(my_world, agent_pid_);
  }
}

mpi::Comm& LogicalComm::replica_comm() { return *replica_comm_; }

void LogicalComm::alive_lanes(int logical, std::vector<int>& out) const {
  out.clear();
  for (int k = 0; k < layout_.degree; ++k) {
    if (!proc_.world().is_dead(layout_.phys_rank(logical, k)))
      out.push_back(k);
  }
}

int LogicalComm::lowest_alive_lane(int logical) const {
  for (int k = 0; k < layout_.degree; ++k) {
    if (!proc_.world().is_dead(layout_.phys_rank(logical, k))) return k;
  }
  return -1;
}

int LogicalComm::designated_sender_lane(int src_logical) const {
  if (!proc_.world().is_dead(layout_.phys_rank(src_logical, lane_)))
    return lane_;
  return lowest_alive_lane(src_logical);
}

// --- send -------------------------------------------------------------------

void LogicalComm::send(int dst, int tag, std::span<const std::byte> bytes) {
  REPMPI_CHECK_MSG(!in_section_,
                   "message passing inside an intra-parallel section "
                   "violates Definition 1");
  REPMPI_CHECK_MSG(dst >= 0 && dst < size(), "invalid logical dst " << dst);
  REPMPI_CHECK_MSG(tag >= 0, "negative tags are reserved");
  if (!replicated()) {
    phys_->send(dst, tag, bytes);
    return;
  }

  Stream& s = shared_->streams.get(key(dst, tag));
  const std::uint64_t seq = s.send_seq++;

  // One capture of header + body; the log entry and every lane transmission
  // below share it by reference.
  const MsgHeader hdr{seq};
  support::Payload payload =
      support::Payload::concat(support::as_bytes_of(hdr), bytes);
  append_log(s, seq, payload);

  // Replication-protocol bookkeeping (ordering metadata, envelope checks).
  proc_.elapse(proc_.world().model().replication_msg_overhead);

  for (int j = 0; j < layout_.degree; ++j) {
    // I transmit to receiver lane j iff I am its designated sender: lane j
    // of my own group if alive, otherwise my group's lowest-alive lane.
    const bool sender_lane_dead =
        proc_.world().is_dead(layout_.phys_rank(logical_, j));
    const int responsible =
        sender_lane_dead ? lowest_alive_lane(logical_) : j;
    if (responsible != lane_) continue;
    const int dst_phys = layout_.phys_rank(dst, j);
    if (proc_.world().is_dead(dst_phys)) continue;
    phys_->send_payload(dst_phys, tag, payload);
  }
}

// --- recv -------------------------------------------------------------------

LogicalRequest LogicalComm::irecv(int src, int tag) {
  REPMPI_CHECK_MSG(!in_section_,
                   "message passing inside an intra-parallel section "
                   "violates Definition 1");
  REPMPI_CHECK_MSG(src >= 0 && src < size(), "invalid logical src " << src);
  REPMPI_CHECK_MSG(tag >= 0, "negative tags are reserved");
  LogicalRequest req;
  req.src_logical = src;
  req.tag = tag;
  if (!replicated()) {
    req.phys = phys_->irecv(src, tag);
    return req;
  }
  req.expected_seq = shared_->streams.get(key(src, tag)).recv_seq++;
  return req;
}

void LogicalComm::append_log(Stream& s, std::uint64_t seq,
                             const support::Payload& payload) {
  std::vector<LoggedMsg>& log = shared_->log;
  REPMPI_CHECK(log.size() < kNoEntry);
  const auto at = static_cast<std::uint32_t>(log.size());
  log.push_back(LoggedMsg{seq, payload});
  if (s.log_tail == kNoEntry) {
    s.log_head = at;
  } else {
    log[s.log_tail].next = at;
  }
  s.log_tail = at;
}

mpi::Status LogicalComm::deliver(LogicalRequest& req, Stream& s,
                                 support::Payload data) {
  req.data = std::move(data);
  // Advance the floor past every delivered seq; a seq above it waits in
  // `delivered` until the gap below closes.
  if (req.expected_seq != s.floor) {
    if (!s.reorder) s.reorder = std::make_unique<Reorder>();
    s.reorder->delivered.insert(req.expected_seq);
  } else {
    ++s.floor;
    if (s.reorder) {
      auto& done = s.reorder->delivered;
      while (!done.empty() && *done.begin() == s.floor) {
        done.erase(done.begin());
        ++s.floor;
      }
    }
  }
  req.done = true;
  req.status.source = req.src_logical;
  req.status.tag = req.tag;
  req.status.bytes = req.data.size();
  req.status.failed = false;
  return req.status;
}

mpi::Status LogicalComm::wait(LogicalRequest& req) {
  REPMPI_CHECK(req.valid());
  if (req.done) return req.status;
  if (!replicated()) {
    req.status = phys_->wait(req.phys);
    req.data = std::move(req.phys.state().data);
    req.done = true;
    return req.status;
  }

  // Only this process inserts streams, so the reference survives the
  // blocking waits below (the agent merely reads the table).
  Stream& ks = shared_->streams.get(key(req.src_logical, req.tag));
  for (;;) {
    // Deliver from the out-of-order stash when possible.
    if (ks.reorder) {
      auto& stash = ks.reorder->stash;
      if (auto it = stash.find(req.expected_seq); it != stash.end()) {
        support::Payload data = std::move(it->second);
        stash.erase(it);
        return deliver(req, ks, std::move(data));
      }
    }

    // Pump one physical message for this (source, tag) stream. When we are
    // served by a cover lane (our lane-partner died), request a replay of
    // everything from the floor once per cover: the cover may have sent
    // part of the stream before it learned of the death.
    const int d = designated_sender_lane(req.src_logical);
    if (d < 0) throw LogicalProcessLost(req.src_logical);
    REPMPI_DEBUG("wait: logical " << logical_ << " lane " << lane_
                                  << " pumping src " << req.src_logical
                                  << " tag " << req.tag << " expected "
                                  << req.expected_seq << " designated lane "
                                  << d);
    if (d != lane_ && ks.nacked_lane != d) {
      send_nack(req.src_logical, req.tag, ks.floor);
      ks.nacked_lane = d;
    }
    const int src_phys = layout_.phys_rank(req.src_logical, d);
    mpi::Request pump = phys_->irecv(src_phys, req.tag);
    mpi::Status st = phys_->wait(pump);
    if (st.failed) {
      // Designated sender died mid-wait; drop its stale traffic and loop:
      // the next iteration fails over (and NACKs the new cover).
      proc_.world().purge_unexpected(proc_.world_rank(), kLogicalChannel,
                                     src_phys);
      continue;
    }

    const support::Payload raw = std::move(pump.state().data);
    REPMPI_CHECK(raw.size() >= sizeof(MsgHeader));
    MsgHeader hdr;
    std::memcpy(&hdr, raw.data(), sizeof(hdr));
    // A shared view past the header — the body is never copied. The
    // awaited seq cannot be a duplicate (it is neither delivered nor
    // stashed, or the stash check above would have served it), so it is
    // handed over directly.
    if (hdr.seq == req.expected_seq)
      return deliver(req, ks, raw.suffix(sizeof(MsgHeader)));
    if (hdr.seq < ks.floor ||
        (ks.reorder && (ks.reorder->delivered.count(hdr.seq) ||
                        ks.reorder->stash.count(hdr.seq)))) {
      continue;  // duplicate from replay/cover overlap: drop
    }
    if (!ks.reorder) ks.reorder = std::make_unique<Reorder>();
    ks.reorder->stash.emplace(hdr.seq, raw.suffix(sizeof(MsgHeader)));
  }
}

void LogicalComm::waitall(std::span<LogicalRequest> reqs) {
  for (auto& r : reqs) {
    if (r.valid()) wait(r);
  }
}

mpi::Status LogicalComm::recv(int src, int tag, support::Buffer& out) {
  LogicalRequest req = irecv(src, tag);
  mpi::Status st = wait(req);
  out = std::move(req.data).take_buffer();
  return st;
}

void LogicalComm::send_nack(int src_logical, int tag,
                            std::uint64_t expected) {
  const int cover = lowest_alive_lane(src_logical);
  if (cover < 0) throw LogicalProcessLost(src_logical);
  ControlMsg msg;
  msg.type = ControlMsg::Type::kNack;
  msg.requester_logical = logical_;
  msg.requester_lane = lane_;
  msg.tag = tag;
  msg.expected_seq = expected;
  control_->send_value(layout_.phys_rank(src_logical, cover), kControlTag,
                       msg);
  REPMPI_DEBUG("logical " << logical_ << " lane " << lane_ << " NACK to "
                          << src_logical << " lane " << cover << " tag " << tag
                          << " from seq " << expected);
}

void LogicalComm::barrier() {
  // Dissemination over logical ranks.
  const int n = size();
  for (int dist = 1; dist < n; dist <<= 1) {
    const int tag = coll_tag_++;
    const int dst = (rank() + dist) % n;
    const int src = (rank() - dist + n) % n;
    LogicalRequest rreq = irecv(src, tag);
    send(dst, tag, {});
    wait(rreq);
  }
}

// --- Progress agent ----------------------------------------------------------

void LogicalComm::agent_loop(sim::Context& ctx, mpi::World& world,
                             const ReplicaLayout& layout, int my_world,
                             SharedState& shared) {
  const auto& model = world.model();
  for (;;) {
    auto st = std::make_shared<mpi::RequestState>();
    st->is_recv = true;
    st->owner = ctx.pid();
    st->comm_channel = kControlChannel;
    st->match_source = mpi::kAnySource;
    st->match_tag = kControlTag;
    world.post_recv(my_world, mpi::kAnySource, st);
    ctx.set_wait_token(st.get());
    while (!st->done) ctx.park();
    ctx.set_wait_token(nullptr);
    if (st->status.failed) continue;
    ctx.delay(model.recv_overhead);

    const ControlMsg msg = support::from_buffer<ControlMsg>(st->data);
    // Replay logged messages for the requesting stream from expected_seq on.
    const Stream* s =
        shared.streams.find(key(msg.requester_logical, msg.tag));
    if (s == nullptr || s->log_head == kNoEntry) continue;
    const int dst_phys =
        layout.phys_rank(msg.requester_logical, msg.requester_lane);
    if (world.is_dead(dst_phys)) continue;
    // The main process may send (growing the log and the stream table)
    // while this loop is suspended in delay(): walk the chain by index, up
    // to the entry that was last when the request was served.
    const std::uint32_t last = s->log_tail;
    for (std::uint32_t i = s->log_head;; i = shared.log[i].next) {
      if (shared.log[i].seq >= msg.expected_seq) {
        ctx.delay(model.send_overhead);
        world.send_payload(my_world, dst_phys, kLogicalChannel,
                           /*src_comm_rank=*/my_world, msg.tag,
                           shared.log[i].payload);
      }
      if (i == last) break;
    }
  }
}

}  // namespace repmpi::rep
