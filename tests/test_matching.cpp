// Tests for the indexed message-matching engine (hash buckets keyed by
// (channel, src, tag) + wildcard list + sequence-number tiebreaks) and the
// zero-copy payload substrate underneath it. These pin down the MPI matching
// semantics the index must preserve exactly: post-order priority across
// exact and wildcard receives, arrival-order tiebreaks, per-pair FIFO
// non-overtaking, and the failure paths (purge, death announcement,
// teardown with receives still posted).

#include <gtest/gtest.h>

#include <vector>

#include "mpi_test_harness.hpp"
#include "support/payload.hpp"

namespace repmpi::mpi {
namespace {

using repmpi::testing::MpiFixture;

TEST(Matching, WildcardPostedFirstBeatsExact) {
  // Post order decides: an any-source receive posted before an exact one
  // must take the message, even though the exact receive is a perfect
  // (channel, src, tag) index hit.
  MpiFixture f(2);
  int wild_src = -2, exact_val = -1;
  bool exact_done_early = true;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.elapse(0.1);
      comm.send_value(1, 7, 11);  // matches the wildcard (posted first)
      comm.send_value(1, 7, 22);  // then the exact receive
    } else {
      Request wild = comm.irecv(kAnySource, 7);
      Request exact = comm.irecv(0, 7);
      Status ws = comm.wait(wild);
      exact_done_early = exact.done();
      wild_src = ws.source;
      comm.wait(exact);
      exact_val = support::from_buffer<int>(exact.state().data);
      EXPECT_EQ(support::from_buffer<int>(wild.state().data), 11);
    }
  });
  EXPECT_EQ(wild_src, 0);
  EXPECT_EQ(exact_val, 22);
}

TEST(Matching, ExactPostedFirstBeatsWildcard) {
  MpiFixture f(2);
  int exact_val = -1, wild_val = -1;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.elapse(0.1);
      comm.send_value(1, 7, 11);
      comm.send_value(1, 7, 22);
    } else {
      Request exact = comm.irecv(0, 7);
      Request wild = comm.irecv(kAnySource, 7);
      comm.wait(exact);
      comm.wait(wild);
      exact_val = support::from_buffer<int>(exact.state().data);
      wild_val = support::from_buffer<int>(wild.state().data);
    }
  });
  EXPECT_EQ(exact_val, 11);
  EXPECT_EQ(wild_val, 22);
}

TEST(Matching, WildcardTagGoesToWildList) {
  // src exact but tag wildcard is still a "wildcard" receive for the index;
  // it must see messages of any tag from that source in arrival order.
  MpiFixture f(2);
  std::vector<int> tags;
  f.run([&](Proc&, Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 30, 1);
      comm.send_value(1, 10, 2);
      comm.send_value(1, 20, 3);
    } else {
      for (int i = 0; i < 3; ++i) {
        support::Buffer buf;
        Status st = comm.recv(0, kAnyTag, buf);
        tags.push_back(st.tag);
      }
    }
  });
  EXPECT_EQ(tags, (std::vector<int>{30, 10, 20}));
}

TEST(Matching, WildcardDrainsUnexpectedInArrivalOrder) {
  // Messages from different senders land in different index buckets; an
  // any-source receive posted afterwards must still drain them in global
  // arrival order (Envelope::seq tiebreak across buckets).
  MpiFixture f(3);
  std::vector<int> order;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 1) {
      comm.send_value(0, 5, 100);
    } else if (comm.rank() == 2) {
      proc.elapse(0.01);  // strictly after rank 1's message
      comm.send_value(0, 5, 200);
    } else {
      proc.elapse(1.0);  // both are unexpected by now
      for (int i = 0; i < 2; ++i) {
        support::Buffer buf;
        Status st = comm.recv(kAnySource, 5, buf);
        order.push_back(support::from_buffer<int>(buf));
        EXPECT_EQ(st.source, i + 1);
      }
    }
  });
  EXPECT_EQ(order, (std::vector<int>{100, 200}));
}

TEST(Matching, DeepUnexpectedQueueMatchesByTag) {
  // A deep unexpected queue (distinct tags) must be consumable in any order:
  // each receive is an index hit, independent of queue depth.
  constexpr int kDepth = 64;
  MpiFixture f(2);
  bool ok = true;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kDepth; ++i) comm.send_value(1, i, i * 3);
    } else {
      proc.elapse(1.0);  // let everything arrive unexpected
      for (int i = kDepth - 1; i >= 0; --i) {  // reverse tag order
        if (comm.recv_value<int>(0, i) != i * 3) ok = false;
      }
    }
  });
  EXPECT_TRUE(ok);
}

TEST(Matching, PerPairFifoNonOvertakingMixedSizes) {
  // A huge message followed by a tiny one on the same (src, dst, tag): the
  // tiny one's wire time is shorter but it must not overtake (network FIFO
  // + bucket FIFO). Received in send order with sizes intact.
  MpiFixture f(8);  // ranks 0 and 4 on different nodes
  std::vector<std::size_t> sizes;
  f.run([&](Proc&, Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> big(1 << 20);
      std::vector<std::byte> small(8);
      comm.send(4, 1, big);
      comm.send(4, 1, small);
    } else if (comm.rank() == 4) {
      for (int i = 0; i < 2; ++i) {
        support::Buffer buf;
        comm.recv(0, 1, buf);
        sizes.push_back(buf.size());
      }
    }
  });
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], std::size_t{1} << 20);
  EXPECT_EQ(sizes[1], 8u);
}

TEST(Matching, PurgeUnexpectedIsSelectiveOnIndexedQueues) {
  MpiFixture f(3);
  std::size_t purged = 0;
  int kept = 0;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 1) {
      comm.send_value(0, 1, 10);
      comm.send_value(0, 2, 20);
    } else if (comm.rank() == 2) {
      comm.send_value(0, 1, 30);
    } else {
      proc.elapse(1.0);  // all three land unexpected
      // Purge rank 1's traffic only; rank 2's message must survive.
      purged = proc.world().purge_unexpected(proc.world_rank(),
                                             comm.channel(), 1);
      kept = comm.recv_value<int>(2, 1);
    }
  });
  EXPECT_EQ(purged, 2u);
  EXPECT_EQ(kept, 30);
}

TEST(Matching, DeathFailsExactAndWildcardTagReceives) {
  // Death announcement must find victims in both index structures: the
  // exact bucket (src+tag concrete) and the wildcard list (tag wildcard but
  // explicit source).
  MpiFixture f(3);
  bool exact_failed = false, wildtag_failed = false, other_ok = false;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.world().crash(0);
      proc.elapse(10.0);
    } else if (comm.rank() == 1) {
      Request exact = comm.irecv(0, 5);
      Request wildtag = comm.irecv(0, kAnyTag);
      Request other = comm.irecv(2, 5);
      exact_failed = comm.wait(exact).failed;
      wildtag_failed = comm.wait(wildtag).failed;
      other_ok = !comm.wait(other).failed;
    } else {
      proc.elapse(1.0);
      comm.send_value(1, 5, 9);
    }
  });
  EXPECT_TRUE(exact_failed);
  EXPECT_TRUE(wildtag_failed);
  EXPECT_TRUE(other_ok);
}

TEST(Matching, DeathSparesAnySourceReceives) {
  // A pure any-source receive does not await a specific peer; a crash
  // elsewhere must not fail it (another sender can still satisfy it).
  MpiFixture f(3);
  int got = 0;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.world().crash(0);
      proc.elapse(10.0);
    } else if (comm.rank() == 1) {
      got = comm.recv_value<int>(kAnySource, 3);
    } else {
      proc.elapse(2.0);  // well after the death announcement
      comm.send_value(1, 3, 42);
    }
  });
  EXPECT_EQ(got, 42);
}

TEST(Matching, UnexpectedFromDeadPeerStillBeatsFailFast) {
  // The indexed fail-fast path must check the unexpected index before
  // failing a receive that awaits a dead peer (the paper's "replicas that
  // already got the update keep it" case), including via the wildcard scan.
  MpiFixture f(2);
  int got_exact = 0;
  int got_wild = 0;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 7);
      comm.send_value(1, 2, 8);
      proc.world().crash(0);
      proc.elapse(10.0);
    } else {
      proc.elapse(2.0);  // death announced; both messages already queued
      got_exact = comm.recv_value<int>(0, 1);
      Status st;
      support::Buffer buf;
      st = comm.recv(0, kAnyTag, buf);
      EXPECT_FALSE(st.failed);
      got_wild = support::from_buffer<int>(buf);
    }
  });
  EXPECT_EQ(got_exact, 7);
  EXPECT_EQ(got_wild, 8);
}

TEST(Matching, TeardownWithPostedReceivesOutstanding) {
  // Posted receives (and their payload references) outstanding at world
  // teardown: the killed processes unwind and the queues drop cleanly.
  auto run = [] {
    MpiFixture f(3);
    f.world->launch([](Proc& proc) {
      Comm comm = Comm::world(proc);
      if (proc.world_rank() == 0) {
        comm.send_value(1, 9, 1);  // lands unexpected, never consumed
        proc.world().crash(0);
        proc.elapse(10.0);
      } else if (proc.world_rank() == 1) {
        Request r1 = comm.irecv(2, 1);          // never satisfied
        Request r2 = comm.irecv(kAnySource, 2);  // never satisfied
        comm.wait(r1);
        comm.wait(r2);
      } else {
        Request r = comm.irecv(1, 1);  // never satisfied
        comm.wait(r);
      }
    });
    // Drain events without requiring the parked ranks to finish.
    try {
      f.sim->run();
    } catch (const support::DeadlockError&) {
      // Expected: ranks 1 and 2 are parked forever. Teardown (fixture
      // destructor) must still unwind them and release all queue state.
    }
  };
  EXPECT_NO_THROW(run());
}

// --- Focused waits (zero-heap wakeup contract) ------------------------------

TEST(Matching, WaitallCollectsOutOfOrderCompletionsWithElidedWakes) {
  // The receiver posts N receives and waitalls them while the sender
  // completes them in reverse post order: every completion but the one the
  // receiver is currently parked on must deposit its payload without waking
  // it (wakeups_elided counts them), and waitall must still hand back all
  // payloads correctly.
  constexpr int kN = 8;
  MpiFixture f(2);
  std::vector<int> got(kN, -1);
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.elapse(1.0);  // receiver parks first, on the tag-0 request
      for (int i = kN - 1; i >= 0; --i) {
        comm.send_value(1, i, 100 + i);
        proc.elapse(0.01);  // separate arrivals: each is its own delivery
      }
    } else {
      std::vector<Request> reqs;
      reqs.reserve(kN);
      for (int i = 0; i < kN; ++i) reqs.push_back(comm.irecv(0, i));
      comm.waitall(reqs);
      for (int i = 0; i < kN; ++i)
        got[static_cast<std::size_t>(i)] =
            support::from_buffer<int>(reqs[static_cast<std::size_t>(i)]
                                          .state()
                                          .data);
    }
  });
  for (int i = 0; i < kN; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i)], 100 + i);
  // Tags kN-1 .. 1 complete while the receiver is focused on tag 0: their
  // wakeups are elided (the last arrival, tag 0, is the one real wake).
  EXPECT_GE(f.sim->counters().wakeups_elided, static_cast<std::uint64_t>(
                                                  kN - 1));
}

TEST(Matching, FocusedWaitStillWokenByFailureOfAwaitedPeer) {
  // A death announcement must wake a focused waiter when it fails the very
  // request being waited on — the focus token only suppresses wakes for
  // *other* requests.
  MpiFixture f(3);
  bool failed = false;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.elapse(0.5);
      proc.world().crash(0);
      proc.elapse(10.0);
    } else if (comm.rank() == 1) {
      Request dead = comm.irecv(0, 1);   // fails on the announcement
      Request alive = comm.irecv(2, 2);  // completes later
      Status st = comm.wait(dead);
      failed = st.failed;
      comm.wait(alive);
    } else {
      proc.elapse(2.0);
      comm.send_value(1, 2, 7);
    }
  });
  EXPECT_TRUE(failed);
}

// --- Bucket recycling under fresh-key churn ---------------------------------

TEST(Matching, FreshKeyChurnReusesBucketsKeepingOrder) {
  // Halo exchanges and logical collectives use every (src, tag) key once,
  // so drained posted/unexpected buckets are recycled for the next fresh
  // key. Through thousands of such keys the engine must keep per-key FIFO
  // (unexpected and posted), the wildcard post-order rule and the
  // death-failure semantics, and a purged bucket must come back empty.
  constexpr int kKeys = 2000;
  MpiFixture f(3);
  int fifo_errors = 0, posted_errors = 0;
  int wild_val = -1, exact_val = -1;
  int dead_failed = 0;
  std::size_t purged = 0;
  std::vector<int> after_death;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      // Phase 1: two messages per fresh tag, all landing unexpected.
      for (int t = 0; t < kKeys; ++t) {
        comm.send_value(1, t, 2 * t);
        comm.send_value(1, t, 2 * t + 1);
      }
      // Phase 2: the receiver has posted two receives per fresh tag.
      proc.elapse(1.0);
      for (int t = 0; t < kKeys; ++t) {
        comm.send_value(1, kKeys + t, 2 * t);
        comm.send_value(1, kKeys + t, 2 * t + 1);
      }
      // Phase 3: a wildcard posted before an exact receive wins.
      proc.elapse(1.0);
      comm.send_value(1, 3 * kKeys, 11);
      comm.send_value(1, 3 * kKeys, 22);
      for (int i = 1; i <= 3; ++i) comm.send_value(1, 7 * kKeys, i);  // purged
      // Phase 4: after rank 2's death, ordinary traffic still matches, on
      // fresh keys and on the purged one.
      proc.elapse(2.0);
      comm.send_value(1, 4 * kKeys, 33);
      comm.send_value(1, 7 * kKeys + 1, 44);
      comm.send_value(1, 7 * kKeys, 55);
    } else if (comm.rank() == 1) {
      proc.elapse(0.5);  // phase 1 traffic is all unexpected by now
      for (int t = 0; t < kKeys; ++t) {
        if (comm.recv_value<int>(0, t) != 2 * t) ++fifo_errors;
        if (comm.recv_value<int>(0, t) != 2 * t + 1) ++fifo_errors;
      }
      std::vector<Request> reqs;
      reqs.reserve(2 * kKeys);
      for (int t = 0; t < kKeys; ++t) {
        reqs.push_back(comm.irecv(0, kKeys + t));
        reqs.push_back(comm.irecv(0, kKeys + t));
      }
      comm.waitall(reqs);
      for (int t = 0; t < kKeys; ++t) {
        const auto i = static_cast<std::size_t>(2 * t);
        if (support::from_buffer<int>(reqs[i].state().data) != 2 * t ||
            support::from_buffer<int>(reqs[i + 1].state().data) != 2 * t + 1)
          ++posted_errors;
      }
      Request wild = comm.irecv(kAnySource, 3 * kKeys);
      Request exact = comm.irecv(0, 3 * kKeys);
      comm.wait(wild);
      comm.wait(exact);
      wild_val = support::from_buffer<int>(wild.state().data);
      exact_val = support::from_buffer<int>(exact.state().data);
      proc.elapse(0.1);  // the three tag-7k messages are queued
      purged = proc.world().purge_unexpected(proc.world_rank(),
                                             comm.channel(), 0);
      // Posted receives awaiting the (soon) dead rank 2 on fresh keys fail;
      // one posted after the announcement fails fast.
      std::vector<Request> doomed;
      for (int t = 0; t < 8; ++t)
        doomed.push_back(comm.irecv(2, 5 * kKeys + t));
      for (Request& r : doomed) dead_failed += comm.wait(r).failed ? 1 : 0;
      Request late = comm.irecv(2, 6 * kKeys);
      dead_failed += comm.wait(late).failed ? 1 : 0;
      after_death.push_back(comm.recv_value<int>(0, 4 * kKeys));
      after_death.push_back(comm.recv_value<int>(0, 7 * kKeys + 1));
      after_death.push_back(comm.recv_value<int>(0, 7 * kKeys));
    } else {
      proc.elapse(2.5);
      proc.world().crash(2);
      proc.elapse(10.0);
    }
  });
  EXPECT_EQ(fifo_errors, 0);
  EXPECT_EQ(posted_errors, 0);
  EXPECT_EQ(wild_val, 11);
  EXPECT_EQ(exact_val, 22);
  EXPECT_EQ(dead_failed, 9);
  EXPECT_EQ(purged, 3u);
  EXPECT_EQ(after_death, (std::vector<int>{33, 44, 55}));
}

// --- Zero-copy payload substrate -------------------------------------------

TEST(PayloadContract, InlineSmallBufferNeverAllocates) {
  const auto before = support::Payload::pool_stats();
  std::vector<std::byte> small(support::Payload::kInlineCapacity, std::byte{7});
  support::Payload p{std::span<const std::byte>(small)};
  support::Payload copy = p;
  EXPECT_EQ(copy.size(), small.size());
  EXPECT_EQ(std::memcmp(copy.data(), small.data(), small.size()), 0);
  const auto after = support::Payload::pool_stats();
  EXPECT_EQ(before.blocks_allocated + before.blocks_reused,
            after.blocks_allocated + after.blocks_reused);
}

TEST(PayloadContract, SharingIsByReferenceAndSuffixIsZeroCopy) {
  std::vector<std::byte> big(1024);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::byte>(i);
  support::Payload p{std::span<const std::byte>(big)};
  support::Payload shared = p;              // refcount, same bytes
  support::Payload tail = p.suffix(8);      // shared view past a header
  EXPECT_EQ(shared.data(), p.data());
  EXPECT_EQ(tail.data(), p.data() + 8);
  EXPECT_EQ(tail.size(), big.size() - 8);
}

TEST(PayloadContract, TakeBufferMovesWhenSoleOwnerCopiesWhenShared) {
  std::vector<std::byte> big(4096, std::byte{3});
  support::Payload sole{std::span<const std::byte>(big)};
  const std::byte* bytes_before = sole.data();
  support::Buffer moved = std::move(sole).take_buffer();
  EXPECT_EQ(moved.data(), bytes_before);  // backing vector moved, not copied

  support::Payload a{std::span<const std::byte>(big)};
  support::Payload b = a;  // shared: take_buffer must copy
  support::Buffer copied = std::move(a).take_buffer();
  EXPECT_EQ(copied.size(), big.size());
  EXPECT_EQ(b.size(), big.size());  // surviving reference is intact
  EXPECT_EQ(std::memcmp(b.data(), copied.data(), big.size()), 0);
}

TEST(PayloadContract, PoolRecyclesBlocks) {
  // Drop a heap payload, then allocate a new one: the freed block must be
  // served from the free list (the recycling contract benches rely on).
  std::vector<std::byte> big(2048, std::byte{1});
  { support::Payload p{std::span<const std::byte>(big)}; }
  const auto before = support::Payload::pool_stats();
  ASSERT_GT(before.pooled_now, 0u);
  support::Payload q{std::span<const std::byte>(big)};
  const auto after = support::Payload::pool_stats();
  EXPECT_EQ(after.blocks_reused, before.blocks_reused + 1);
}

TEST(PayloadContract, RecycledLargerBlockHoldsExactlyTheCapturedBytes) {
  // A block recycled from a bigger payload keeps its capacity; a smaller
  // capture into it must expose exactly the new bytes and size — through
  // both the single-span and the header+body (concat) constructors.
  std::vector<std::byte> big(8192, std::byte{0xee});
  { support::Payload p{std::span<const std::byte>(big)}; }
  std::vector<std::byte> body(300);
  for (std::size_t i = 0; i < body.size(); ++i)
    body[i] = static_cast<std::byte>(i * 7);
  const auto before = support::Payload::pool_stats();
  support::Payload q{std::span<const std::byte>(body)};
  EXPECT_EQ(support::Payload::pool_stats().blocks_reused,
            before.blocks_reused + 1);
  ASSERT_EQ(q.size(), body.size());
  EXPECT_EQ(std::memcmp(q.data(), body.data(), body.size()), 0);
  support::Buffer taken = std::move(q).take_buffer();
  EXPECT_EQ(taken, support::Buffer(body.begin(), body.end()));

  { support::Payload p{std::span<const std::byte>(big)}; }
  const std::uint64_t header = 0x0102030405060708ULL;
  support::Payload c =
      support::Payload::concat(support::as_bytes_of(header), body);
  ASSERT_EQ(c.size(), sizeof(header) + body.size());
  EXPECT_EQ(std::memcmp(c.data(), &header, sizeof(header)), 0);
  EXPECT_EQ(std::memcmp(c.data() + sizeof(header), body.data(), body.size()),
            0);
  support::Payload tail = c.suffix(sizeof(header));
  EXPECT_EQ(support::Buffer(tail.data(), tail.data() + tail.size()),
            support::Buffer(body.begin(), body.end()));
}

TEST(PayloadContract, FourGibibytesFailsLoudly) {
  // The size field is 32 bits: a 4 GiB capture must throw before touching
  // any memory rather than truncate. The span is never read.
  const std::byte one{1};
  const std::span<const std::byte> huge(&one, std::size_t{1} << 32);
  EXPECT_THROW(support::Payload{huge}, support::InvariantError);
  EXPECT_THROW(support::Payload::concat(huge.first(8), huge),
               support::InvariantError);
}

}  // namespace
}  // namespace repmpi::mpi
