#pragma once

// Network transfer scheduling on top of the DES.
//
// A transfer from process src to dst reserves serialization time on the
// shared (half-duplex by default) NICs of both endpoints' nodes and is
// delivered latency seconds after it leaves the wire. Intra-node transfers
// go through the shared-memory transport instead. Per-(src,dst) FIFO arrival
// order is enforced so the MPI layer's non-overtaking rule holds even when
// message sizes differ.
//
// Reservation state: NIC availability lives in vectors indexed by node id.
// The per-pair FIFO clock has two layouts — a flat P*P vector indexed by
// (src, dst) for worlds up to kDenseFifoLimit processes, and a pre-sized
// hash table above that (also a hot indexed path, just hashed; it only ever
// holds pairs that actually communicated). Either table lives and dies with
// its Network, i.e. with one run: a sweep that simulates thousands of
// scenarios in one process starts every run from a fresh, sensibly-reserved
// table instead of rehashing (or inheriting) a stale one.
// reserve_transfer is the per-message hot path.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/machine_model.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace repmpi::net {

struct NetworkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t intranode_messages = 0;
};

class Network {
 public:
  Network(sim::Simulator& sim, MachineModel model, Topology topo)
      : sim_(sim), model_(std::move(model)), topo_(std::move(topo)) {
    // The hostile-machine knobs may only ever ADD virtual time: net_latency
    // stays the floor of every internode transfer, and a straggler never
    // computes faster than the roofline model.
    REPMPI_CHECK_MSG(model_.inter_switch_extra_latency >= 0.0,
                     "inter_switch_extra_latency must be >= 0");
    for (double s : model_.node_slowdown)
      REPMPI_CHECK_MSG(s >= 1.0, "node_slowdown factors must be >= 1.0");
    const auto nodes = static_cast<std::size_t>(topo_.num_nodes());
    nic_busy_.assign(nodes, 0.0);
    nic_tx_busy_.assign(nodes, 0.0);
    nic_rx_busy_.assign(nodes, 0.0);
    const auto p = static_cast<std::size_t>(topo_.num_processes());
    if (p <= kDenseFifoLimit) {
      fifo_dense_.assign(p * p, 0.0);
    } else {
      // Sparse fallback: most ranks talk to a bounded neighborhood (halo
      // partners plus collective peers ~ log P), so reserve for that
      // working set up front — the common case never rehashes, and the
      // table is bounded by this run's actual communication pairs.
      fifo_sparse_.max_load_factor(0.7f);
      fifo_sparse_.reserve(p * 16);
    }
  }

  // Attribute delivered messages to the owning simulator instance (which
  // flushes them into the thread-local substrate totals when it is
  // destroyed). A Network must be destroyed before its Simulator, on the
  // same thread — true everywhere by declaration order.
  ~Network() { sim_.add_messages(stats_.messages); }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const MachineModel& model() const { return model_; }
  const Topology& topology() const { return topo_; }
  const NetworkStats& stats() const { return stats_; }

  /// Reserves wire time for a message and returns its arrival (virtual)
  /// time at dst. Does not schedule any event — the caller (the MPI layer)
  /// schedules the delivery callback at the returned time.
  sim::Time reserve_transfer(int src, int dst, std::size_t bytes);

 private:
  /// Above this process count the dense (src,dst) FIFO table would exceed
  /// tens of MB; fall back to the hash map.
  static constexpr std::size_t kDenseFifoLimit = 2048;

  sim::Time& fifo_clock(int src, int dst) {
    if (!fifo_dense_.empty()) {
      return fifo_dense_[static_cast<std::size_t>(src) *
                             static_cast<std::size_t>(topo_.num_processes()) +
                         static_cast<std::size_t>(dst)];
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
        static_cast<std::uint32_t>(dst);
    return fifo_sparse_[key];
  }

  sim::Simulator& sim_;
  MachineModel model_;
  Topology topo_;
  NetworkStats stats_;

  // NIC availability per node, indexed by node id (half-duplex: one shared
  // lane per node; full duplex: separate tx/rx lanes).
  std::vector<sim::Time> nic_busy_;
  std::vector<sim::Time> nic_tx_busy_;
  std::vector<sim::Time> nic_rx_busy_;

  // Last arrival per (src,dst) pair, to enforce FIFO delivery.
  std::vector<sim::Time> fifo_dense_;
  std::unordered_map<std::uint64_t, sim::Time> fifo_sparse_;
};

}  // namespace repmpi::net
