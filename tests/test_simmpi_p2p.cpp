// Point-to-point tests for the MPI substrate: blocking/nonblocking transfer,
// matching rules (tags, wildcards, ordering), timing, failure signalling.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "mpi_test_harness.hpp"
#include "support/error.hpp"

namespace repmpi::mpi {
namespace {

using repmpi::testing::MpiFixture;

TEST(P2P, BlockingSendRecvScalar) {
  MpiFixture f(2);
  double got = 0;
  f.run([&](Proc&, Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, /*tag=*/7, 3.25);
    } else {
      got = comm.recv_value<double>(0, 7);
    }
  });
  EXPECT_DOUBLE_EQ(got, 3.25);
}

TEST(P2P, SendRecvVector) {
  MpiFixture f(2);
  std::vector<double> got(128, 0.0);
  f.run([&](Proc&, Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> data(128);
      for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<double>(i) * 0.5;
      comm.send_span<double>(1, 3, data);
    } else {
      Status st = comm.recv_span<double>(0, 3, got);
      EXPECT_FALSE(st.failed);
      EXPECT_EQ(st.bytes, 128 * sizeof(double));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 3);
    }
  });
  EXPECT_DOUBLE_EQ(got[100], 50.0);
}

TEST(P2P, TagsSelectMessages) {
  MpiFixture f(2);
  int first = 0, second = 0;
  f.run([&](Proc&, Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 10, 100);
      comm.send_value(1, 20, 200);
    } else {
      // Receive in reverse tag order: matching must be by tag, not arrival.
      second = comm.recv_value<int>(0, 20);
      first = comm.recv_value<int>(0, 10);
    }
  });
  EXPECT_EQ(first, 100);
  EXPECT_EQ(second, 200);
}

TEST(P2P, SameTagFifoOrder) {
  MpiFixture f(2);
  std::vector<int> got;
  f.run([&](Proc&, Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 8; ++i) comm.send_value(1, 5, i);
    } else {
      for (int i = 0; i < 8; ++i) got.push_back(comm.recv_value<int>(0, 5));
    }
  });
  for (int i = 0; i < 8; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST(P2P, AnySourceMatchesEitherSender) {
  MpiFixture f(3);
  std::vector<int> got;
  f.run([&](Proc&, Comm& comm) {
    if (comm.rank() == 1) {
      comm.send_value(0, 1, 111);
    } else if (comm.rank() == 2) {
      comm.send_value(0, 1, 222);
    } else {
      support::Buffer buf;
      Status s1 = comm.recv(kAnySource, 1, buf);
      got.push_back(support::from_buffer<int>(buf));
      EXPECT_TRUE(s1.source == 1 || s1.source == 2);
      Status s2 = comm.recv(kAnySource, 1, buf);
      got.push_back(support::from_buffer<int>(buf));
      EXPECT_NE(s1.source, s2.source);
    }
  });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0] + got[1], 333);
}

TEST(P2P, AnyTagMatchesFirstArrival) {
  MpiFixture f(2);
  int got_tag = -99;
  f.run([&](Proc&, Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 42, 1);
    } else {
      support::Buffer buf;
      Status st = comm.recv(0, kAnyTag, buf);
      got_tag = st.tag;
    }
  });
  EXPECT_EQ(got_tag, 42);
}

TEST(P2P, NonblockingOverlap) {
  MpiFixture f(2);
  double got = 0;
  sim::Time recv_done_at = 0, send_done_at = 0;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> big(1 << 16, 1.5);
      comm.isend(1, 9, std::as_bytes(std::span<const double>(big)));
      send_done_at = proc.now();  // eager: returns before delivery
    } else {
      Request r = comm.irecv(0, 9);
      proc.elapse(1.0);  // long compute while the message arrives
      Status st = comm.wait(r);
      EXPECT_FALSE(st.failed);
      got = support::typed_view<double>(
          std::span<const std::byte>(r.state().data))[0];
      recv_done_at = proc.now();
    }
  });
  EXPECT_DOUBLE_EQ(got, 1.5);
  // The receiver computed for 1 s; the wait must complete shortly after
  // (copy cost only), not add the full transfer again.
  EXPECT_LT(recv_done_at, 1.01);
  EXPECT_LT(send_done_at, 0.01);
}

TEST(P2P, WaitallCollectsMixedRequests) {
  MpiFixture f(3);
  std::array<int, 2> got{0, 0};
  f.run([&](Proc&, Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<Request> reqs;
      reqs.push_back(comm.irecv(1, 1));
      reqs.push_back(comm.irecv(2, 1));
      comm.waitall(reqs);
      got[0] = support::from_buffer<int>(reqs[0].state().data);
      got[1] = support::from_buffer<int>(reqs[1].state().data);
    } else {
      comm.send_value(0, 1, comm.rank() * 10);
    }
  });
  EXPECT_EQ(got[0], 10);
  EXPECT_EQ(got[1], 20);
}

TEST(P2P, TransferTimeMatchesModel) {
  net::MachineModel m;
  m.net_latency = 1e-6;
  m.net_bandwidth = 1e9;
  m.send_overhead = 0.0;
  m.recv_overhead = 0.0;
  m.mem_bandwidth = 1e18;  // make copy cost negligible
  m.flop_rate = 1e18;
  MpiFixture f(8, /*cores_per_node=*/4, m);
  sim::Time arrival = 0;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> mb(1000000);
      comm.send(4, 1, mb);  // rank 4 is on node 1: inter-node
    } else if (comm.rank() == 4) {
      support::Buffer buf;
      comm.recv(0, 1, buf);
      arrival = proc.now();
    }
  });
  EXPECT_NEAR(arrival, 1e-3 + 1e-6, 1e-6);
}

TEST(P2P, RecvFromDeadPeerFails) {
  MpiFixture f(2);
  bool failed = false;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.elapse(1.0);
      proc.world().crash(0);
      proc.elapse(10.0);  // killed during this delay
    } else {
      support::Buffer buf;
      Status st = comm.recv(0, 1, buf);  // never sent
      failed = st.failed;
    }
  });
  EXPECT_TRUE(failed);
}

TEST(P2P, RecvPostedAfterDeathFailsImmediately) {
  MpiFixture f(2);
  bool failed = false;
  sim::Time failed_at = 0;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.world().crash(0);
      proc.elapse(10.0);
    } else {
      proc.elapse(2.0);  // well past the detection delay
      support::Buffer buf;
      Status st = comm.recv(0, 1, buf);
      failed = st.failed;
      failed_at = proc.now();
    }
  });
  EXPECT_TRUE(failed);
  EXPECT_NEAR(failed_at, 2.0, 1e-3);
}

TEST(P2P, MessageSentBeforeDeathIsStillConsumable) {
  // A crashed process's already-delivered messages remain in the unexpected
  // queue and can satisfy receives posted after its death — the paper's
  // "replicas that already got the update keep it" case.
  MpiFixture f(2);
  int got = 0;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 77);
      proc.world().crash(0);
      proc.elapse(10.0);
    } else {
      proc.elapse(2.0);  // death already announced
      got = comm.recv_value<int>(0, 1);
    }
  });
  EXPECT_EQ(got, 77);
}

TEST(P2P, MessagesToDeadProcessVanish) {
  MpiFixture f(2);
  bool done = false;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.elapse(1.0);
      comm.send_value(1, 1, 5);  // rank 1 is already dead
      done = true;
    } else {
      proc.world().crash(1);
      proc.elapse(10.0);
    }
  });
  EXPECT_TRUE(done);
}

TEST(P2P, PurgeUnexpectedDropsStaleMessages) {
  MpiFixture f(2);
  std::size_t purged = 0;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 5);
      comm.send_value(1, 2, 6);
    } else {
      proc.elapse(1.0);  // let both messages arrive unexpected
      purged = proc.world().purge_unexpected(proc.world_rank(),
                                             comm.channel(), 0);
    }
  });
  EXPECT_EQ(purged, 2u);
}

TEST(P2P, SendToInvalidRankThrows) {
  MpiFixture f(2);
  EXPECT_THROW(f.run([&](Proc&, Comm& comm) {
                 if (comm.rank() == 0) comm.send_value(5, 1, 1);
               }),
               support::InvariantError);
}

TEST(P2P, SelfSendViaLoopback) {
  MpiFixture f(2);
  int got = 0;
  f.run([&](Proc&, Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(0, 1, 9);
      got = comm.recv_value<int>(0, 1);
    }
  });
  EXPECT_EQ(got, 9);
}

}  // namespace
}  // namespace repmpi::mpi
