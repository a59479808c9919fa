// Parameterized sweep of the LogicalComm collectives over (logical size x
// replication degree), their cost in virtual time, plus failure cases: lane
// crashes before and during collectives must leave all survivors with the
// correct, identical value.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "rep_test_harness.hpp"

namespace repmpi::rep {
namespace {

using repmpi::testing::RepFixture;

using Param = std::tuple<int, int>;  // logical size, degree

class LogicalCollectives : public ::testing::TestWithParam<Param> {};

INSTANTIATE_TEST_SUITE_P(
    Sizes, LogicalCollectives,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      // Built with += (not operator+(const char*, string&&)): the latter
      // trips GCC 12's -Wrestrict false positive (PR105651) under -Werror.
      std::string s = "n";
      s += std::to_string(std::get<0>(info.param));
      s += "_d" + std::to_string(std::get<1>(info.param));
      return s;
    });

TEST_P(LogicalCollectives, AllreduceSum) {
  const auto& [n, d] = GetParam();
  RepFixture f(n, d);
  std::map<int, double> got;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    got[proc.world_rank()] = comm.allreduce_value(
        static_cast<double>(comm.rank() + 1), mpi::ReduceOp::kSum);
  });
  ASSERT_EQ(got.size(), static_cast<std::size_t>(n * d));
  for (const auto& [r, v] : got) EXPECT_DOUBLE_EQ(v, n * (n + 1) / 2.0);
}

TEST_P(LogicalCollectives, AllreduceVectorMax) {
  const auto& [n, d] = GetParam();
  RepFixture f(n, d);
  std::map<int, std::vector<double>> got;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    std::vector<double> in(8), out(8);
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = comm.rank() * 10.0 + static_cast<double>(i);
    comm.allreduce(std::span<const double>(in), std::span<double>(out),
                   mpi::ReduceOp::kMax);
    got[proc.world_rank()] = out;
  });
  for (const auto& [r, v] : got) {
    for (std::size_t i = 0; i < v.size(); ++i)
      EXPECT_DOUBLE_EQ(v[i], (n - 1) * 10.0 + static_cast<double>(i));
  }
}

TEST_P(LogicalCollectives, BcastFromLastRank) {
  const auto& [n, d] = GetParam();
  RepFixture f(n, d);
  std::map<int, int> got;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    int v = comm.rank() == n - 1 ? 4242 : -1;
    v = comm.bcast_value(v, n - 1);
    got[proc.world_rank()] = v;
  });
  for (const auto& [r, v] : got) EXPECT_EQ(v, 4242);
}

TEST_P(LogicalCollectives, BarrierSynchronizesTime) {
  const auto& [n, d] = GetParam();
  if (n < 2) GTEST_SKIP();
  RepFixture f(n, d);
  sim::Time slowest_before = 0, earliest_after = 1e30;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    // Rank 0 is slow; everyone else hits the barrier immediately.
    if (comm.rank() == 0) proc.elapse(1.0);
    slowest_before = std::max(slowest_before, proc.now());
    comm.barrier();
    earliest_after = std::min(earliest_after, proc.now());
  });
  EXPECT_GE(earliest_after, 1.0);  // nobody leaves before the slow rank
}

TEST_P(LogicalCollectives, AllgatherValues) {
  const auto& [n, d] = GetParam();
  RepFixture f(n, d);
  std::map<int, std::vector<int>> got;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    const int mine = 100 + comm.rank();
    std::vector<int> all(static_cast<std::size_t>(n));
    comm.allgather(std::span<const int>(&mine, 1), std::span<int>(all));
    got[proc.world_rank()] = all;
  });
  for (const auto& [r, all] : got) {
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(all[static_cast<std::size_t>(i)], 100 + i);
  }
}

TEST(LogicalCollectivesTiming, BcastScalesLogarithmically) {
  // Binomial bcast over 16 logical ranks takes ~log2(16) = 4 latency steps,
  // clearly below a linear fan-out, natively and replicated alike (lane k
  // of a sender feeds lane k of the receiver, so degree 2 adds no hops).
  net::MachineModel m;
  m.net_latency = 1e-5;
  m.net_bandwidth = 1e12;
  m.send_overhead = 0;
  m.recv_overhead = 0;
  m.mem_bandwidth = 1e18;
  m.intranode_latency = 1e-5;  // make every hop equal for simple counting
  m.intranode_bandwidth = 1e12;
  for (int degree : {1, 2}) {
    RepFixture f(16, degree, m);
    sim::Time finish = 0;
    f.run([&](mpi::Proc& proc, LogicalComm& comm) {
      comm.bcast_value(comm.rank() == 0 ? 1.0 : 0.0, 0);
      finish = std::max(finish, proc.now());
    });
    EXPECT_LT(finish, 8 * 1e-5) << "degree " << degree;  // 4 rounds + slack
    EXPECT_GT(finish, 3 * 1e-5) << "degree " << degree;
  }
}

TEST(LogicalCollectivesFailure, AllreduceAfterEarlyCrash) {
  RepFixture f(4, 2);
  std::map<int, double> got;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    if (proc.world_rank() == 6) {  // logical 2, lane 1
      proc.world().crash(6);
      proc.elapse(1.0);
    }
    proc.elapse(0.01);
    for (int round = 0; round < 3; ++round) {
      got[proc.world_rank()] = comm.allreduce_value(
          static_cast<double>(comm.rank() + round), mpi::ReduceOp::kSum);
    }
  });
  EXPECT_EQ(got.size(), 7u);
  for (const auto& [r, v] : got) EXPECT_DOUBLE_EQ(v, 0 + 1 + 2 + 3 + 4 * 2.0);
}

TEST(LogicalCollectivesFailure, BcastRootLaneCrashMidStream) {
  // The broadcast root's lane 1 dies after serving some rounds; lane-1
  // receivers fail over to the root's lane 0 via NACK replay.
  RepFixture f(3, 2);
  std::map<int, std::vector<int>> got;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    for (int round = 0; round < 6; ++round) {
      if (proc.world_rank() == 3 && round == 2) {  // logical 0, lane 1
        proc.world().crash(3);
        proc.elapse(1.0);
      }
      int v = comm.rank() == 0 ? round * 7 : -1;
      v = comm.bcast_value(v, 0);
      got[proc.world_rank()].push_back(v);
    }
  });
  // The crashed rank (world 3) recorded the rounds it completed before
  // dying; all five survivors must have the full, correct stream.
  int survivors = 0;
  for (const auto& [r, vs] : got) {
    if (r == 3) continue;
    ++survivors;
    ASSERT_EQ(vs.size(), 6u) << "rank " << r;
    for (int round = 0; round < 6; ++round)
      EXPECT_EQ(vs[static_cast<std::size_t>(round)], round * 7) << "rank " << r;
  }
  EXPECT_EQ(survivors, 5);
}

TEST(LogicalCollectivesFailure, DegreeThreeAllreduceSurvivesTwoCrashes) {
  RepFixture f(2, 3);
  std::map<int, double> got;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    if (proc.world_rank() == 2 || proc.world_rank() == 5) {
      proc.world().crash(proc.world_rank());
      proc.elapse(1.0);
    }
    proc.elapse(0.01);
    got[proc.world_rank()] =
        comm.allreduce_value(static_cast<double>(comm.rank() + 1),
                             mpi::ReduceOp::kSum);
  });
  EXPECT_EQ(got.size(), 4u);
  for (const auto& [r, v] : got) EXPECT_DOUBLE_EQ(v, 3.0);
}

}  // namespace
}  // namespace repmpi::rep
