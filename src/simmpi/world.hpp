#pragma once

// MpiWorld: process management plus the message-matching engine.
//
// The world owns one mailbox per physical rank. Matching follows MPI
// semantics: posted-receive queue in post order, unexpected-message queue in
// arrival order, first match on (channel, source, tag) wins, with wildcard
// source/tag. Per-(src,dst) FIFO is guaranteed by the network layer.
//
// The queues are indexed, not scanned: exact-match posted receives and
// unexpected envelopes live in hash buckets keyed by (channel, src, tag),
// each bucket FIFO within its key; receives with a wildcard source or tag
// go to a separate per-rank list. Every posted receive carries a per-rank
// post sequence number and every arrived envelope an arrival sequence
// number, and the matched candidate is always the minimum-sequence one —
// which reproduces MPI's post-order/arrival-order rules exactly while
// making exact-match traffic (the replication protocol's entire data plane)
// O(1) expected per message.
//
// Failure signalling: when a rank is declared dead, every posted receive
// that explicitly awaits it completes with status.failed, and later receives
// that explicitly await it fail immediately *unless* an already-delivered
// message is sitting in the unexpected queue (a crashed replica's last
// messages remain consumable — the paper's "some replicas got the update"
// case).

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "simmpi/request.hpp"
#include "simmpi/types.hpp"
#include "support/error.hpp"
#include "support/payload.hpp"

namespace repmpi::mpi {

class Proc;
class Comm;

struct Envelope {
  std::uint64_t channel = 0;
  int src = kAnySource;  ///< Sender's rank within the communicator.
  int tag = kAnyTag;
  std::uint64_t seq = 0;  ///< Per-destination arrival order (set on delivery).
  support::Payload data;
};

/// Per-process metrics: virtual time attributed to named phases by
/// ScopedPhase, collected after the run for bench reporting. Transparent
/// comparison lets a phase be looked up by string_view without a copy.
using PhaseTimes = std::map<std::string, double, std::less<>>;

class World {
 public:
  World(sim::Simulator& sim, net::Network& network, int num_ranks);

  /// Unwinds all simulated processes (they may hold references to this
  /// world on their stacks) before the world's state is released.
  ~World();

  int num_ranks() const { return num_ranks_; }

  /// The simulator running every rank's process (and its companions).
  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return net_; }

  const net::MachineModel& model() const { return net_.model(); }

  /// Spawns all ranks; each runs `main_fn` with its own Proc handle. Must be
  /// called exactly once, before Simulator::run().
  void launch(std::function<void(Proc&)> main_fn);

  /// Declares `world_rank` crashed as of the current virtual time: kills the
  /// process and (after the failure-detection delay) fails matching receives
  /// everywhere. In-flight messages it sent are still delivered.
  void crash(int world_rank);

  /// Failure-detection notification delay (virtual seconds).
  static constexpr double kDetectionDelay = 50e-6;

  /// Graceful both-replicas-lost degradation: a rank that observes an
  /// unmaskable failure (every replica of logical rank `logical` dead)
  /// reports it here instead of letting the exception escape. The world
  /// records the earliest observation — the minimum over (virtual time,
  /// world_rank), not whichever same-instant declaration the scheduler
  /// dispatched first — and schedules a job abort one detection delay
  /// later that kills every surviving rank, so the run terminates as a
  /// *reported* job failure rather than a deadlock.
  void declare_job_failed(int logical, int world_rank, sim::Time t);

  /// Valid after the run completes.
  bool job_failed() const { return job_failed_; }
  sim::Time job_failed_time() const { return job_failed_time_; }
  int job_failed_logical() const { return job_failed_logical_; }

  /// Straggler factor charged on `world_rank`'s compute (1.0 when the
  /// machine model declares no per-node slowdowns).
  double slowdown_of(int world_rank) const {
    return slowdown_of_rank_.empty()
               ? 1.0
               : slowdown_of_rank_[static_cast<std::size_t>(world_rank)];
  }

  /// True once the failure detector has announced `world_rank`'s death.
  bool is_dead(int world_rank) const {
    return ranks_[static_cast<std::size_t>(world_rank)].announced;
  }

  /// True as soon as crash() ran, before the failure detector announces it.
  /// A process uses this on itself during unwind to avoid ghost sends.
  bool crash_pending(int world_rank) const {
    return ranks_[static_cast<std::size_t>(world_rank)].dead;
  }

  sim::Pid pid_of(int world_rank) const {
    return ranks_[static_cast<std::size_t>(world_rank)].pid;
  }

  /// Registers an auxiliary simulated process (e.g., a replication progress
  /// agent) that lives and dies with `world_rank`: crash() kills it too. It
  /// shares the rank's mailbox (it may post receives for that rank).
  void register_companion(int world_rank, sim::Pid pid) {
    ranks_[static_cast<std::size_t>(world_rank)].companions.push_back(pid);
  }

  /// Per-rank phase times, valid after the simulation completes.
  const std::vector<PhaseTimes>& phase_times() const { return phases_; }
  PhaseTimes& phases_of(int world_rank) {
    return phases_[static_cast<std::size_t>(world_rank)];
  }

  // --- Internal API used by Comm (process context) -----------------------

  /// Eager send: captures the bytes into a payload once, then schedules
  /// wire transfer and delivery. The caller has already charged the sender
  /// CPU overhead.
  void send_bytes(int src_world, int dst_world, std::uint64_t channel,
                  int src_comm_rank, int tag, std::span<const std::byte> bytes);

  /// Zero-copy variant: the payload is shared by reference (the replication
  /// layer logs and fans out the same payload to several receivers).
  void send_payload(int src_world, int dst_world, std::uint64_t channel,
                    int src_comm_rank, int tag, support::Payload data);

  /// Posts a receive request for `dst_world`; may complete it immediately
  /// from the unexpected queue or fail it if the awaited peer is dead.
  /// match_world_src is the expected sender's world rank, or kAnySource.
  void post_recv(int dst_world, int match_world_src,
                 std::shared_ptr<RequestState> req);

  /// Drops queued unexpected messages for `dst_world` on `channel` coming
  /// from comm-rank `src` (kAnySource: any) — used to garbage-collect stale
  /// replica updates after a crash has been handled.
  std::size_t purge_unexpected(int dst_world, std::uint64_t channel, int src);

 private:
  struct MatchKey {
    std::uint64_t channel = 0;
    int src = kAnySource;
    int tag = kAnyTag;
    bool operator==(const MatchKey&) const = default;
  };

  struct MatchKeyHash {
    std::size_t operator()(const MatchKey& k) const {
      std::uint64_t z =
          k.channel ^
          ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.src))
            << 32 |
            static_cast<std::uint32_t>(k.tag)) *
           0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<std::size_t>(z ^ (z >> 31));
    }
  };

  /// A posted receive with its post-order sequence number.
  struct PostedRecv {
    std::uint64_t seq = 0;
    std::shared_ptr<RequestState> req;
  };

  /// Buckets of one match index, keyed by (channel, src, tag), each FIFO
  /// within its key. Most keys are used once (halo exchanges and logical
  /// collectives burn a fresh tag per call), so a drained bucket is not
  /// freed: its hash node, deque included, is parked on a short spare list
  /// and re-keyed for the next fresh key, which then costs no allocation.
  template <typename T>
  struct BucketIndex {
    using Map = std::unordered_map<MatchKey, std::deque<T>, MatchKeyHash>;
    static constexpr std::size_t kMaxSpares = 16;

    BucketIndex() = default;
    BucketIndex(BucketIndex&&) = default;
    BucketIndex(const BucketIndex&) = delete;  // node handles are move-only

    Map map;
    std::vector<typename Map::node_type> spares;

    /// The bucket for `k`, created (from a spare when one is parked) if
    /// absent.
    std::deque<T>& bucket(const MatchKey& k) {
      auto it = map.find(k);
      if (it != map.end()) return it->second;
      if (spares.empty()) return map[k];
      typename Map::node_type node = std::move(spares.back());
      spares.pop_back();
      node.key() = k;
      return map.insert(std::move(node)).position->second;
    }

    /// Removes the bucket at `it` (drained or not); returns the next one.
    typename Map::iterator drop(typename Map::iterator it) {
      if (spares.size() == kMaxSpares) return map.erase(it);
      auto next = std::next(it);
      it->second.clear();
      spares.push_back(map.extract(it));
      return next;
    }
  };

  struct RankState {
    sim::Pid pid = sim::kNoPid;
    bool dead = false;       ///< crash happened
    bool announced = false;  ///< the failure detector announced the crash
    /// Exact-match posted receives; each bucket is FIFO in post order.
    /// Buckets are dropped when drained.
    BucketIndex<PostedRecv> posted_exact;
    /// Receives with a wildcard source and/or tag, in post order.
    std::deque<PostedRecv> posted_wild;
    std::uint64_t next_post_seq = 0;
    /// Unexpected envelopes; each bucket is FIFO in arrival order, and
    /// Envelope::seq gives the global arrival order for wildcard scans.
    BucketIndex<Envelope> unexpected;
    std::uint64_t next_arrival_seq = 0;
    std::size_t unexpected_count = 0;
    std::vector<sim::Pid> companions;
  };

  static MatchKey key_of(std::uint64_t channel, int src, int tag) {
    return MatchKey{channel, src, tag};
  }

  static bool matches(const RequestState& r, const Envelope& e) {
    return r.comm_channel == e.channel &&
           (r.match_source == kAnySource || r.match_source == e.src) &&
           (r.match_tag == kAnyTag || r.match_tag == e.tag);
  }

  static bool is_exact(const RequestState& r) {
    return r.match_source != kAnySource && r.match_tag != kAnyTag;
  }

  void build_slowdowns(const net::Topology& topo);
  void deliver(int dst_world, Envelope env);
  void complete_recv(RequestState& req, Envelope env);
  void fail_recv(RequestState& req);
  void announce_death(int world_rank);
  /// The job-failure abort: kills every surviving rank. Idempotent.
  void abort_job();

  /// Kills all companion processes (progress agents) once every main has
  /// either completed or crashed — after that point no replay can be needed.
  void note_main_done();
  void maybe_retire_companions();

  sim::Simulator& sim_;
  net::Network& net_;
  int num_ranks_;
  std::vector<RankState> ranks_;
  std::vector<PhaseTimes> phases_;
  bool launched_ = false;
  int mains_done_ = 0;
  int mains_crashed_ = 0;

  /// Per-rank straggler factors (node_slowdown mapped through the topology);
  /// empty when the model declares none.
  std::vector<double> slowdown_of_rank_;

  /// Job-failure state: earliest (time, rank) observation wins. Read only
  /// after the run completes.
  bool job_failed_ = false;
  sim::Time job_failed_time_ = 0.0;
  int job_failed_logical_ = -1;
  int job_failed_rank_ = -1;
};

/// Per-process handle: the rank's simulation context, world communicator and
/// compute-cost charging interface. Passed to every application main.
class Proc {
 public:
  Proc(World& world, sim::Context& ctx, int world_rank)
      : world_(world), ctx_(ctx), world_rank_(world_rank) {}

  World& world() { return world_; }
  sim::Context& context() { return ctx_; }
  int world_rank() const { return world_rank_; }
  sim::Time now() const { return ctx_.now(); }

  /// Charges roofline compute time for the given cost, scaled by the rank's
  /// straggler factor (1.0 on a homogeneous machine — exact multiply, so
  /// the default stays bit-identical).
  void compute(const net::ComputeCost& cost) {
    ctx_.delay(world_.model().compute_time(cost.flops, cost.mem_bytes) *
               world_.slowdown_of(world_rank_));
  }

  /// Charges an explicit duration (e.g., modeled I/O).
  void elapse(double seconds) { ctx_.delay(seconds); }

  /// The accumulator of a named phase, created at zero on first use. Map
  /// nodes are stable, so the reference stays valid for the whole run.
  double& phase_slot(std::string_view phase) {
    PhaseTimes& phases = world_.phases_of(world_rank_);
    auto it = phases.lower_bound(phase);
    if (it == phases.end() || it->first != phase)
      it = phases.emplace_hint(it, phase, 0.0);
    return it->second;
  }

 private:
  World& world_;
  sim::Context& ctx_;
  int world_rank_;
};

/// RAII phase timer: attributes the enclosed virtual time span to `phase`.
/// The phase's accumulator is resolved once on entry; exit only adds.
class ScopedPhase {
 public:
  ScopedPhase(Proc& proc, std::string_view phase)
      : proc_(proc), slot_(proc.phase_slot(phase)), start_(proc.now()) {}
  ~ScopedPhase() { slot_ += proc_.now() - start_; }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Proc& proc_;
  double& slot_;
  sim::Time start_;
};

}  // namespace repmpi::mpi
