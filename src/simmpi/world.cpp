#include "simmpi/world.hpp"

#include <algorithm>
#include <utility>

#include "simmpi/comm.hpp"

namespace repmpi::mpi {

World::World(sim::Simulator& sim, net::Network& network, int num_ranks)
    : sim_(sim), net_(network), num_ranks_(num_ranks) {
  REPMPI_CHECK(num_ranks > 0);
  REPMPI_CHECK_MSG(network.topology().num_processes() >= num_ranks,
                   "topology has fewer slots than ranks");
  ranks_.resize(static_cast<std::size_t>(num_ranks));
  phases_.resize(static_cast<std::size_t>(num_ranks));
  build_slowdowns(network.topology());
}

void World::build_slowdowns(const net::Topology& topo) {
  if (model().node_slowdown.empty()) return;
  slowdown_of_rank_.resize(static_cast<std::size_t>(num_ranks_), 1.0);
  for (int r = 0; r < num_ranks_; ++r) {
    slowdown_of_rank_[static_cast<std::size_t>(r)] =
        model().slowdown_of_node(topo.node_of(r));
  }
}

World::~World() { sim_.terminate_processes(); }

void World::launch(std::function<void(Proc&)> main_fn) {
  REPMPI_CHECK_MSG(!launched_, "World::launch called twice");
  launched_ = true;
  for (int r = 0; r < num_ranks_; ++r) {
    auto fn = main_fn;
    ranks_[static_cast<std::size_t>(r)].pid = sim_.spawn(
        "rank" + std::to_string(r), [this, r, fn](sim::Context& ctx) {
          Proc proc(*this, ctx, r);
          fn(proc);
          note_main_done();
        });
  }
}

void World::note_main_done() {
  ++mains_done_;
  maybe_retire_companions();
}

void World::maybe_retire_companions() {
  if (mains_done_ + mains_crashed_ < num_ranks_) return;
  // Every main has finished or crashed: nobody can request replays anymore,
  // so the progress agents (which otherwise park forever on their control
  // receive) are retired.
  for (auto& rs : ranks_) {
    for (sim::Pid companion : rs.companions) sim_.kill(companion);
  }
}

void World::crash(int world_rank) {
  auto& rs = ranks_[static_cast<std::size_t>(world_rank)];
  if (rs.dead) return;
  rs.dead = true;
  sim_.kill(rs.pid);
  for (sim::Pid companion : rs.companions) sim_.kill(companion);
  ++mains_crashed_;
  maybe_retire_companions();
  sim_.schedule_after(kDetectionDelay,
                       [this, world_rank] { announce_death(world_rank); });
}

void World::declare_job_failed(int logical, int world_rank, sim::Time t) {
  // Earliest observation wins, ties broken by world_rank: the reported
  // (time, logical) is the minimum over all declarations, whatever order
  // same-instant declarations are dispatched in.
  if (!job_failed_ || t < job_failed_time_ ||
      (t == job_failed_time_ && world_rank < job_failed_rank_)) {
    job_failed_ = true;
    job_failed_time_ = t;
    job_failed_logical_ = logical;
    job_failed_rank_ = world_rank;
  }
  // Every declaration schedules its own abort (kills are idempotent), one
  // detection delay after the observation.
  sim_.schedule_internal_at(t + kDetectionDelay, [this] { abort_job(); });
}

void World::abort_job() {
  int newly_dead = 0;
  for (auto& rs : ranks_) {
    if (rs.dead) continue;
    rs.dead = true;
    if (!sim_.finished(rs.pid)) ++newly_dead;
    sim_.kill(rs.pid);
    for (sim::Pid companion : rs.companions) sim_.kill(companion);
  }
  // Killed mains never reach note_main_done; account for them here so
  // companion retirement still triggers once everything has settled.
  if (newly_dead > 0) {
    mains_crashed_ += newly_dead;
    maybe_retire_companions();
  }
}

void World::announce_death(int world_rank) {
  bool& announced = ranks_[static_cast<std::size_t>(world_rank)].announced;
  if (announced) return;
  announced = true;
  // Fail every posted receive that explicitly awaits the dead rank and
  // cannot be satisfied from already-delivered messages. Victims are pulled
  // from the index buckets and the wildcard list, then failed in post order
  // (seq order) so completion order matches the pre-index engine exactly.
  for (auto& dst : ranks_) {
    std::vector<PostedRecv> victims;
    auto& exact = dst.posted_exact;
    for (auto it = exact.map.begin(); it != exact.map.end();) {
      auto& bucket = it->second;
      for (auto qit = bucket.begin(); qit != bucket.end();) {
        if (qit->req->match_world_src == world_rank) {
          victims.push_back(std::move(*qit));
          qit = bucket.erase(qit);
        } else {
          ++qit;
        }
      }
      it = bucket.empty() ? exact.drop(it) : std::next(it);
    }
    for (auto qit = dst.posted_wild.begin(); qit != dst.posted_wild.end();) {
      if (qit->req->match_world_src == world_rank) {
        victims.push_back(std::move(*qit));
        qit = dst.posted_wild.erase(qit);
      } else {
        ++qit;
      }
    }
    std::sort(victims.begin(), victims.end(),
              [](const PostedRecv& a, const PostedRecv& b) {
                return a.seq < b.seq;
              });
    for (PostedRecv& v : victims) fail_recv(*v.req);
  }
}

void World::send_bytes(int src_world, int dst_world, std::uint64_t channel,
                       int src_comm_rank, int tag,
                       std::span<const std::byte> bytes) {
  send_payload(src_world, dst_world, channel, src_comm_rank, tag,
               support::Payload(bytes));
}

void World::send_payload(int src_world, int dst_world, std::uint64_t channel,
                         int src_comm_rank, int tag, support::Payload data) {
  REPMPI_CHECK(dst_world >= 0 && dst_world < num_ranks_);
  const sim::Time arrival =
      net_.reserve_transfer(src_world, dst_world, data.size());
  Envelope env;
  env.channel = channel;
  env.src = src_comm_rank;
  env.tag = tag;
  env.data = std::move(data);
  sim_.schedule_at(arrival, [this, dst_world, env = std::move(env)]() mutable {
    deliver(dst_world, std::move(env));
  });
}

void World::deliver(int dst_world, Envelope env) {
  auto& rs = ranks_[static_cast<std::size_t>(dst_world)];
  if (rs.dead) return;  // messages to a crashed process vanish
  env.seq = rs.next_arrival_seq++;

  // Exact-bucket candidate: the minimum-post-seq receive with this envelope's
  // exact (channel, src, tag) is the bucket front.
  auto bucket_it =
      rs.posted_exact.map.find(key_of(env.channel, env.src, env.tag));
  const PostedRecv* exact = bucket_it != rs.posted_exact.map.end()
                                ? &bucket_it->second.front()
                                : nullptr;

  // Wildcard candidate: first matching entry in post order.
  auto wild_it = rs.posted_wild.end();
  for (auto it = rs.posted_wild.begin(); it != rs.posted_wild.end(); ++it) {
    if (matches(*it->req, env)) {
      wild_it = it;
      break;
    }
  }

  // The overall first-posted match wins (MPI post-order rule).
  if (exact != nullptr &&
      (wild_it == rs.posted_wild.end() || exact->seq < wild_it->seq)) {
    std::shared_ptr<RequestState> req = std::move(bucket_it->second.front().req);
    bucket_it->second.pop_front();
    if (bucket_it->second.empty()) rs.posted_exact.drop(bucket_it);
    complete_recv(*req, std::move(env));
    return;
  }
  if (wild_it != rs.posted_wild.end()) {
    std::shared_ptr<RequestState> req = std::move(wild_it->req);
    rs.posted_wild.erase(wild_it);
    complete_recv(*req, std::move(env));
    return;
  }

  rs.unexpected.bucket(key_of(env.channel, env.src, env.tag))
      .push_back(std::move(env));
  ++rs.unexpected_count;
}

void World::complete_recv(RequestState& req, Envelope env) {
  req.done = true;
  req.status.source = env.src;
  req.status.tag = env.tag;
  req.status.bytes = env.data.size();
  req.status.failed = false;
  req.data = std::move(env.data);
  // Fused delivery-and-wakeup: the payload is deposited above, so a waiter
  // focused on this very request resumes through the scheduler's ready lane
  // (no timed-queue traffic), and a waiter focused on a *different* request
  // is left asleep — it collects this completion from req.done when its own
  // turn comes (waitall fan-in).
  if (req.owner != sim::kNoPid) sim_.unpark_hint(req.owner, &req);
}

void World::fail_recv(RequestState& req) {
  req.done = true;
  req.status.failed = true;
  if (req.owner != sim::kNoPid) sim_.unpark_hint(req.owner, &req);
}

void World::post_recv(int dst_world, int match_world_src,
                      std::shared_ptr<RequestState> req) {
  auto& rs = ranks_[static_cast<std::size_t>(dst_world)];
  req->match_world_src = match_world_src;
  const bool exact = is_exact(*req);

  // Unexpected queue first, in arrival order (MPI matching rule).
  if (exact) {
    auto it = rs.unexpected.map.find(
        key_of(req->comm_channel, req->match_source, req->match_tag));
    if (it != rs.unexpected.map.end()) {
      Envelope env = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) rs.unexpected.drop(it);
      --rs.unexpected_count;
      complete_recv(*req, std::move(env));
      return;
    }
  } else if (rs.unexpected_count > 0) {
    // Wildcard: the earliest arrival among matching buckets (bucket fronts
    // are each bucket's earliest; Envelope::seq orders across buckets).
    auto& unexpected = rs.unexpected.map;
    auto best = unexpected.end();
    for (auto it = unexpected.begin(); it != unexpected.end(); ++it) {
      if (matches(*req, it->second.front()) &&
          (best == unexpected.end() ||
           it->second.front().seq < best->second.front().seq)) {
        best = it;
      }
    }
    if (best != unexpected.end()) {
      Envelope env = std::move(best->second.front());
      best->second.pop_front();
      if (best->second.empty()) rs.unexpected.drop(best);
      --rs.unexpected_count;
      complete_recv(*req, std::move(env));
      return;
    }
  }

  // Fail fast when the awaited peer is already known dead.
  if (match_world_src != kAnySource && is_dead(match_world_src)) {
    fail_recv(*req);
    return;
  }

  PostedRecv entry{rs.next_post_seq++, std::move(req)};
  if (exact) {
    rs.posted_exact
        .bucket(key_of(entry.req->comm_channel, entry.req->match_source,
                       entry.req->match_tag))
        .push_back(std::move(entry));
  } else {
    rs.posted_wild.push_back(std::move(entry));
  }
}

std::size_t World::purge_unexpected(int dst_world, std::uint64_t channel,
                                    int src) {
  auto& rs = ranks_[static_cast<std::size_t>(dst_world)];
  std::size_t purged = 0;
  for (auto it = rs.unexpected.map.begin(); it != rs.unexpected.map.end();) {
    if (it->first.channel == channel &&
        (src == kAnySource || it->first.src == src)) {
      purged += it->second.size();
      it = rs.unexpected.drop(it);
    } else {
      ++it;
    }
  }
  rs.unexpected_count -= purged;
  return purged;
}

}  // namespace repmpi::mpi
