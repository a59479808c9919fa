// Substrate microbench, registry edition: self-timed versions of the
// matching-engine and scheduler microbenches, so their throughput lands in
// the repmpi-bench-report JSON even where google-benchmark (the optional
// repmpi_microbench dependency) is absent — e.g. the CI perf artifact.
//
// All metrics here are host-dependent throughputs and therefore prefixed
// "host_": the perf-drift gate (tools/check_bench_drift.py) ignores them,
// they exist to make substrate-level regressions visible in the trajectory.

#include <chrono>
#include <cmath>
#include <vector>

#include "bench_common.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/world.hpp"
#include "support/rng.hpp"

namespace repmpi::bench {
namespace {

template <typename SetupAndRun>
double rate_per_sec(std::size_t items, SetupAndRun&& body) {
  // One warm-up pass (pools, page faults), then the timed pass.
  body();
  const auto start = std::chrono::steady_clock::now();
  body();
  const auto end = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(end - start).count();
  return static_cast<double>(items) / (secs > 0 ? secs : 1e-9);
}

REPMPI_BENCH(micro_substrate,
             "substrate microbench: matching, switches, event throughput") {
  const Options& opt = ctx.opt();
  const int msgs = static_cast<int>(opt.get_int("micro_msgs", 20000));
  const int depth = static_cast<int>(opt.get_int("micro_depth", 4096));

  print_header(ctx.out(), "Substrate microbench — DES/matching hot paths",
               "engine-level companion to the figure benches",
               "exact-match receives are O(1) in queue depth; wall cost per "
               "message is bounded by the context-switch pair");

  // Exact-match ping stream: rank 0 -> rank 1, pre-posted receives.
  const double exact_rate = rate_per_sec(
      static_cast<std::size_t>(msgs), [msgs] {
        sim::Simulator sim;
        net::Network network(sim, net::MachineModel{}, net::Topology(2, 4));
        mpi::World world(sim, network, 2);
        world.launch([msgs](mpi::Proc& proc) {
          mpi::Comm comm = mpi::Comm::world(proc);
          if (comm.rank() == 0) {
            for (int i = 0; i < msgs; ++i) comm.send_value(1, 7, i);
          } else {
            for (int i = 0; i < msgs; ++i) (void)comm.recv_value<int>(0, 7);
          }
        });
        sim.run();
      });

  // Wildcard drain: 8 senders fan in to an any-source receiver.
  const int senders = 8;
  const int per_sender = msgs / senders;
  const double wildcard_rate = rate_per_sec(
      static_cast<std::size_t>(senders * per_sender), [senders, per_sender] {
        sim::Simulator sim;
        net::Network network(sim, net::MachineModel{},
                             net::Topology(senders + 1, 4));
        mpi::World world(sim, network, senders + 1);
        world.launch([senders, per_sender](mpi::Proc& proc) {
          mpi::Comm comm = mpi::Comm::world(proc);
          if (comm.rank() > 0) {
            for (int i = 0; i < per_sender; ++i) comm.send_value(0, 3, i);
          } else {
            for (int i = 0; i < senders * per_sender; ++i)
              (void)comm.recv_value<int>(mpi::kAnySource, 3);
          }
        });
        sim.run();
      });

  // Deep unexpected queue consumed in reverse tag order: each receive must
  // be an index hit, not a scan of `depth` queued envelopes.
  const double deep_rate = rate_per_sec(
      static_cast<std::size_t>(depth), [depth] {
        sim::Simulator sim;
        net::Network network(sim, net::MachineModel{}, net::Topology(2, 4));
        mpi::World world(sim, network, 2);
        world.launch([depth](mpi::Proc& proc) {
          mpi::Comm comm = mpi::Comm::world(proc);
          if (comm.rank() == 0) {
            for (int i = 0; i < depth; ++i) comm.send_value(1, i, i);
          } else {
            proc.elapse(1.0);
            for (int i = depth - 1; i >= 0; --i)
              (void)comm.recv_value<int>(0, i);
          }
        });
        sim.run();
      });

  // Raw event-queue insert/pop throughput (no fibers, no matching) under
  // DES-typical timestamp mixes, driven in steady state through a bounded
  // in-flight window exactly like a running simulation: pop the minimum,
  // advance the clock, reinsert at clock + dt. `expo` models a
  // communication-bound phase (exponential inter-arrival at comm-latency
  // scale); `bimodal` mixes in 10% compute-scale delays, so the heap holds
  // timestamps spread over three decades.
  const int window = 256;
  const auto queue_rate = [msgs, window](auto&& next_dt) {
    return rate_per_sec(static_cast<std::size_t>(msgs), [&] {
      sim::EventHeap q;
      std::vector<sim::EventNode> nodes(static_cast<std::size_t>(window));
      support::Rng rng(0xabcdefULL);
      std::uint64_t seq = 0;
      sim::Time now = 0;
      for (auto& n : nodes) {
        n.t = now + next_dt(rng);
        n.seq = seq++;
        q.push(&n);
      }
      for (int i = 0; i < msgs; ++i) {
        sim::EventNode* n = q.pop();
        now = n->t;
        n->t = now + next_dt(rng);
        n->seq = seq++;
        q.push(n);
      }
      q.drain([](sim::EventNode*) {});
    });
  };
  const double queue_expo_rate = queue_rate([](support::Rng& rng) {
    return 2e-6 * -std::log(1.0 - rng.next_double());
  });
  const double queue_bimodal_rate = queue_rate([](support::Rng& rng) {
    const double scale = rng.next_double() < 0.1 ? 1e-3 : 2e-6;
    return scale * -std::log(1.0 - rng.next_double());
  });

  // Raw scheduler costs: event throughput and the delay round trip.
  const double event_rate = rate_per_sec(
      static_cast<std::size_t>(msgs), [msgs] {
        sim::Simulator sim;
        for (int i = 0; i < msgs; ++i)
          sim.schedule_at(static_cast<double>(i) * 1e-6, [] {});
        sim.run();
      });
  const double switch_rate = rate_per_sec(
      static_cast<std::size_t>(msgs), [msgs] {
        sim::Simulator sim;
        // Two processes with interleaved deadlines so every delay crosses
        // the scheduler (the fast path cannot coalesce them).
        for (int pnum = 0; pnum < 2; ++pnum) {
          // += instead of operator+(const char*, string&&): the latter trips
          // GCC 12's -Wrestrict false positive (PR105651) under -Werror.
          std::string pname = "p";
          pname += std::to_string(pnum);
          sim.spawn(std::move(pname), [msgs](sim::Context& c) {
            for (int i = 0; i < msgs / 2; ++i) c.delay(1e-9);
          });
        }
        sim.run();
      });

  Table t({"microbench", "items/sec"});
  t.add_row({"exact match (pre-posted)", Table::fmt(exact_rate, 0)});
  t.add_row({"wildcard drain (8 senders)", Table::fmt(wildcard_rate, 0)});
  t.add_row({"deep unexpected (reverse order)", Table::fmt(deep_rate, 0)});
  t.add_row({"queue insert+pop (expo comm)", Table::fmt(queue_expo_rate, 0)});
  t.add_row({"queue insert+pop (bimodal)", Table::fmt(queue_bimodal_rate, 0)});
  t.add_row({"event throughput", Table::fmt(event_rate, 0)});
  t.add_row({"context switches (delay)", Table::fmt(switch_rate, 0)});
  t.print(ctx.out());

  ctx.metric("host_exact_match_per_sec", exact_rate);
  ctx.metric("host_wildcard_drain_per_sec", wildcard_rate);
  ctx.metric("host_deep_unexpected_per_sec", deep_rate);
  ctx.metric("host_queue_expo_per_sec", queue_expo_rate);
  ctx.metric("host_queue_bimodal_per_sec", queue_bimodal_rate);
  ctx.metric("host_events_per_sec", event_rate);
  ctx.metric("host_context_switches_per_sec", switch_rate);
  return 0;
}

}  // namespace
}  // namespace repmpi::bench
