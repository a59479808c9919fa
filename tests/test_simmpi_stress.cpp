// Stress and determinism tests for the MPI substrate: randomized traffic
// patterns verified against a sequential oracle, larger rank counts, and
// bit-reproducibility of whole simulations.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "mpi_test_harness.hpp"
#include "rep_test_harness.hpp"
#include "support/rng.hpp"

namespace repmpi::mpi {
namespace {

using repmpi::testing::MpiFixture;
using repmpi::testing::RepFixture;

TEST(Stress, RandomizedPairwiseTrafficMatchesOracle) {
  // Every rank sends a deterministic pseudo-random number of messages to
  // every other rank; receivers must observe exactly the oracle's multiset,
  // in per-pair FIFO order.
  constexpr int kRanks = 6;
  support::Rng plan_rng(321);
  int plan[kRanks][kRanks] = {};
  for (int s = 0; s < kRanks; ++s)
    for (int d = 0; d < kRanks; ++d)
      if (s != d) plan[s][d] = static_cast<int>(plan_rng.next_below(5));

  MpiFixture f(kRanks);
  std::map<int, std::map<int, std::vector<int>>> got;  // dst -> src -> seq
  f.run([&](Proc&, Comm& comm) {
    const int me = comm.rank();
    // Post all receives first (wildcard-free), then send everything.
    std::vector<Request> reqs;
    std::vector<int> req_src;
    for (int s = 0; s < kRanks; ++s) {
      for (int k = 0; k < plan[s][me]; ++k) {
        reqs.push_back(comm.irecv(s, /*tag=*/7));
        req_src.push_back(s);
      }
    }
    for (int d = 0; d < kRanks; ++d) {
      for (int k = 0; k < plan[me][d]; ++k) {
        comm.send_value(d, 7, me * 1000 + k);
      }
    }
    comm.waitall(reqs);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      got[me][req_src[i]].push_back(
          support::from_buffer<int>(reqs[i].state().data));
    }
  });
  for (int d = 0; d < kRanks; ++d) {
    for (int s = 0; s < kRanks; ++s) {
      if (s == d || plan[s][d] == 0) continue;
      const auto& seq = got[d][s];
      ASSERT_EQ(seq.size(), static_cast<std::size_t>(plan[s][d]));
      for (int k = 0; k < plan[s][d]; ++k) {
        EXPECT_EQ(seq[static_cast<std::size_t>(k)], s * 1000 + k)
            << "pair " << s << "->" << d;
      }
    }
  }
}

TEST(Stress, SixtyFourRanksAllreduce) {
  // 64 logical ranks natively and replicated (128 processes at degree 2).
  for (int degree : {1, 2}) {
    RepFixture f(64, degree);
    std::map<int, double> got;
    f.run([&](Proc& proc, rep::LogicalComm& comm) {
      got[proc.world_rank()] = comm.allreduce_value(
          static_cast<double>(comm.rank()), ReduceOp::kSum);
    });
    ASSERT_EQ(got.size(), static_cast<std::size_t>(64 * degree));
    for (const auto& [r, v] : got)
      EXPECT_DOUBLE_EQ(v, 64.0 * 63.0 / 2.0) << "degree " << degree;
  }
}

TEST(Stress, WholeSimulationIsBitReproducible) {
  // Ten rounds of ring shifts with round-dependent offsets and payloads:
  // every rank sends and receives exactly one message per round, so the
  // pattern is matched; the fingerprint (accumulated values + finish time)
  // must be identical across runs.
  auto fingerprint = [] {
    MpiFixture f(8);
    double acc = 0;
    sim::Time finish = 0;
    f.run([&](Proc& proc, Comm& comm) {
      support::Rng rng(static_cast<std::uint64_t>(comm.rank()) + 1);
      for (int round = 0; round < 10; ++round) {
        const int offset = 1 + round % 7;
        const int dst = (comm.rank() + offset) % 8;
        const int src = (comm.rank() - offset + 8) % 8;
        Request r = comm.irecv(src, round);
        comm.send_value(dst, round, rng.next_double());
        Status st = comm.wait(r);
        acc += support::from_buffer<double>(r.state().data) +
               st.source * 1e-3;
        proc.elapse(1e-6 * (comm.rank() + 1));
      }
      finish = std::max(finish, proc.now());
    });
    return std::make_pair(acc, finish);
  };
  const auto a = fingerprint();
  const auto b = fingerprint();
  EXPECT_EQ(a, b);
}

TEST(Stress, LargePayloadRoundTrip) {
  MpiFixture f(2);
  bool ok = false;
  f.run([&](Proc&, Comm& comm) {
    constexpr std::size_t kN = 1 << 20;  // 8 MiB of doubles
    if (comm.rank() == 0) {
      std::vector<double> big(kN);
      for (std::size_t i = 0; i < kN; ++i)
        big[i] = static_cast<double>(i % 1001) * 0.5;
      comm.send_span<double>(1, 1, big);
    } else {
      std::vector<double> in(kN, -1.0);
      comm.recv_span<double>(0, 1, std::span<double>(in));
      ok = in[999999] == static_cast<double>(999999 % 1001) * 0.5;
    }
  });
  EXPECT_TRUE(ok);
}

TEST(Stress, ManyCommunicatorsCoexist) {
  // Overlapping explicit-membership communicators on channels derived from
  // the world's with distinct salts (LogicalComm's replica comms rely on
  // this isolation). Every rank posts its receive on every comm first and
  // sends in reverse comm order, all with the same tag: a receive only gets
  // its own comm's message if the channels keep the comms apart.
  constexpr int kRanks = 8;
  MpiFixture f(kRanks);
  std::vector<int> ok(kRanks, 0);
  f.run([&](Proc& proc, Comm& world) {
    const int me = world.rank();
    auto group = [](auto pred) {
      std::vector<int> members;
      for (int r = 0; r < kRanks; ++r)
        if (pred(r)) members.push_back(r);
      return members;
    };
    // (members, group colour): comm c is salted with (c, colour), so
    // overlapping comms never share a salt.
    const std::pair<std::vector<int>, int> groups[] = {
        {group([](int) { return true; }), 0},
        {group([me](int r) { return r % 2 == me % 2; }), me % 2},
        {group([me](int r) { return r / 4 == me / 4; }), me / 4},
        {group([me](int r) { return r % 2 == me % 2; }), me % 2},
    };
    std::vector<Comm> comms;
    std::vector<std::uint64_t> channels{world.channel()};
    for (std::uint64_t c = 0; c < 4; ++c) {
      const auto& [members, colour] = groups[c];
      const std::uint64_t salt = c * 16 + static_cast<std::uint64_t>(colour);
      comms.emplace_back(proc, Comm::derive_channel(world.channel(), salt),
                         members);
      channels.push_back(comms.back().channel());
    }
    std::sort(channels.begin(), channels.end());
    bool good =
        std::adjacent_find(channels.begin(), channels.end()) == channels.end();

    std::vector<Request> reqs;
    for (Comm& sub : comms)
      reqs.push_back(sub.irecv((sub.rank() - 1 + sub.size()) % sub.size(),
                               /*tag=*/1));
    for (std::size_t c = comms.size(); c-- > 0;) {
      Comm& sub = comms[c];
      sub.send_value((sub.rank() + 1) % sub.size(), 1,
                     static_cast<int>(c) * 100 + sub.rank());
    }
    world.waitall(reqs);
    for (std::size_t c = 0; c < comms.size(); ++c) {
      const Comm& sub = comms[c];
      const int prev = (sub.rank() - 1 + sub.size()) % sub.size();
      if (support::from_buffer<int>(reqs[c].state().data) !=
          static_cast<int>(c) * 100 + prev)
        good = false;
    }
    ok[static_cast<std::size_t>(me)] = good ? 1 : 0;
  });
  for (int o : ok) EXPECT_EQ(o, 1);
}

}  // namespace
}  // namespace repmpi::mpi
