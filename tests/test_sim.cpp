// Unit tests for the discrete-event simulator: event ordering, process
// lifecycle, park/unpark semantics, kill/unwind, determinism, deadlock
// detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"

namespace repmpi::sim {
namespace {

TEST(Sim, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Sim, SameTimeEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Sim, DelayAdvancesVirtualTime) {
  Simulator sim;
  Time t_end = -1;
  sim.spawn("p", [&](Context& ctx) {
    ctx.delay(1.5);
    ctx.delay(0.5);
    t_end = ctx.now();
  });
  sim.run();
  EXPECT_DOUBLE_EQ(t_end, 2.0);
}

TEST(Sim, ZeroDelayIsAllowed) {
  Simulator sim;
  bool done = false;
  sim.spawn("p", [&](Context& ctx) {
    ctx.delay(0.0);
    done = true;
  });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Sim, NegativeDelayThrows) {
  Simulator sim;
  sim.spawn("p", [&](Context& ctx) { ctx.delay(-1.0); });
  EXPECT_THROW(sim.run(), support::InvariantError);
}

TEST(Sim, ParkUnparkHandshake) {
  Simulator sim;
  Time woke_at = -1;
  const Pid sleeper = sim.spawn("sleeper", [&](Context& ctx) {
    ctx.park();
    woke_at = ctx.now();
  });
  sim.spawn("waker", [&](Context& ctx) {
    ctx.delay(2.0);
    ctx.simulator().unpark(sleeper);
  });
  sim.run();
  EXPECT_DOUBLE_EQ(woke_at, 2.0);
}

TEST(Sim, ConditionLoopSurvivesEarlyWakeups) {
  // Waiters must loop on their condition (the pattern Comm::wait uses): an
  // unpark that lands while the target is inside an unrelated delay() is
  // absorbed there, so a bare park() can miss it — the loop cannot.
  Simulator sim;
  bool flag = false;
  bool observed = false;
  Pid sleeper = kNoPid;
  sleeper = sim.spawn("sleeper", [&](Context& ctx) {
    ctx.delay(1.0);  // waker's first unpark lands here and is absorbed
    while (!flag) ctx.park();
    observed = true;
  });
  sim.spawn("waker", [&](Context& ctx) {
    ctx.delay(0.5);
    ctx.simulator().unpark(sleeper);  // early, before the condition is set
    ctx.delay(1.0);
    flag = true;
    ctx.simulator().unpark(sleeper);  // real wakeup
  });
  sim.run();
  EXPECT_TRUE(observed);
}

TEST(Sim, DelayIsNotCutShortBySpuriousUnpark) {
  Simulator sim;
  Time t_end = -1;
  Pid p = kNoPid;
  p = sim.spawn("p", [&](Context& ctx) {
    ctx.delay(3.0);
    t_end = ctx.now();
  });
  sim.spawn("noise", [&](Context& ctx) {
    ctx.delay(1.0);
    ctx.simulator().unpark(p);
    ctx.delay(1.0);
    ctx.simulator().unpark(p);
  });
  sim.run();
  EXPECT_DOUBLE_EQ(t_end, 3.0);
}

TEST(Sim, KillUnwindsParkedProcess) {
  Simulator sim;
  bool cleanup_ran = false;
  bool after_park = false;
  struct Guard {
    bool* flag;
    ~Guard() { *flag = true; }
  };
  const Pid victim = sim.spawn("victim", [&](Context& ctx) {
    Guard g{&cleanup_ran};
    ctx.park();
    after_park = true;
  });
  sim.spawn("killer", [&](Context& ctx) {
    ctx.delay(1.0);
    ctx.simulator().kill(victim);
  });
  sim.run();
  EXPECT_TRUE(cleanup_ran);      // RAII unwound
  EXPECT_FALSE(after_park);      // body did not continue
  EXPECT_FALSE(sim.alive(victim));
  EXPECT_TRUE(sim.finished(victim));
}

TEST(Sim, KillDuringDelayUnwindsAtWakeup) {
  Simulator sim;
  Time died_after = -1;
  const Pid victim = sim.spawn("victim", [&](Context& ctx) {
    ctx.delay(10.0);
    died_after = ctx.now();  // never reached
  });
  sim.spawn("killer", [&](Context& ctx) {
    ctx.delay(1.0);
    ctx.simulator().kill(victim);
  });
  sim.run();
  EXPECT_DOUBLE_EQ(died_after, -1);
  EXPECT_TRUE(sim.finished(victim));
}

TEST(Sim, CheckKilledThrowsInsideComputeLoop) {
  Simulator sim;
  int iterations = 0;
  const Pid victim = sim.spawn("victim", [&](Context& ctx) {
    for (int i = 0; i < 100; ++i) {
      ctx.delay(1.0);
      ctx.check_killed();
      ++iterations;
    }
  });
  sim.spawn("killer", [&](Context& ctx) {
    ctx.delay(5.5);
    ctx.simulator().kill(victim);
  });
  sim.run();
  EXPECT_EQ(iterations, 5);
}

TEST(Sim, DeadlockDetected) {
  Simulator sim;
  sim.spawn("stuck", [&](Context& ctx) { ctx.park(); });
  EXPECT_THROW(sim.run(), support::DeadlockError);
}

TEST(Sim, ExceptionInProcessPropagatesToRun) {
  Simulator sim;
  sim.spawn("thrower", [&](Context& ctx) {
    ctx.delay(1.0);
    throw support::UsageError("boom");
  });
  EXPECT_THROW(sim.run(), support::UsageError);
}

TEST(Sim, DynamicSpawnDuringRun) {
  Simulator sim;
  Time child_start = -1;
  sim.spawn("parent", [&](Context& ctx) {
    ctx.delay(2.0);
    ctx.simulator().spawn("child", [&](Context& cctx) {
      child_start = cctx.now();
      cctx.delay(1.0);
    });
    ctx.delay(5.0);
  });
  sim.run();
  EXPECT_DOUBLE_EQ(child_start, 2.0);
}

TEST(Sim, ManyProcessesInterleaveDeterministically) {
  auto fingerprint = [] {
    Simulator sim;
    std::vector<std::pair<Pid, Time>> trace;
    sim.set_switch_hook([&](Pid p, Time t) { trace.emplace_back(p, t); });
    constexpr int kN = 64;
    for (int i = 0; i < kN; ++i) {
      // += instead of operator+(const char*, string&&): the latter trips
      // GCC 12's -Wrestrict false positive (PR105651) under -Werror.
      std::string name = "p";
      name += std::to_string(i);
      sim.spawn(name, [i](Context& ctx) {
        for (int k = 0; k < 10; ++k) ctx.delay(0.001 * ((i * 7 + k) % 13 + 1));
      });
    }
    sim.run();
    return trace;
  };
  const auto a = fingerprint();
  const auto b = fingerprint();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b);
}

TEST(Sim, EventCountTracksExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(static_cast<double>(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Sim, ProcessNamesAreStored) {
  Simulator sim;
  const Pid p = sim.spawn("alpha", [](Context&) {});
  EXPECT_EQ(sim.name(p), "alpha");
  sim.run();
}

TEST(Sim, ScheduleInPastThrows) {
  Simulator sim;
  sim.schedule_at(5.0, [&] {
    EXPECT_THROW(sim.schedule_at(1.0, [] {}), support::InvariantError);
  });
  sim.run();
}

// --- Same-timestamp FIFO stability ------------------------------------------
// These pin the tie-break contract the event queue must preserve: events with
// equal timestamps run in schedule order (sequence-numbered FIFO), no matter
// whether they were scheduled ahead of time, from inside a tied event, or as
// unpark/kill resumes. Execution order among ties is semantically load-
// bearing (it decides NIC reservation order in the network model), so any
// queue replacement is verified against these, not vice versa.

TEST(Sim, EventScheduledAtNowRunsAfterPendingTies) {
  // C is created at t=1 from inside A, so it carries a later sequence number
  // than the pre-scheduled B and must run after it.
  Simulator sim;
  std::vector<char> order;
  sim.schedule_at(1.0, [&] {
    order.push_back('A');
    sim.schedule_at(1.0, [&] { order.push_back('C'); });
  });
  sim.schedule_at(1.0, [&] { order.push_back('B'); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C'}));
}

TEST(Sim, ChainedSameTimeSchedulingStaysFifo) {
  // Each tied event appends the next; the chain must interleave strictly
  // after all previously queued ties, producing pure schedule order.
  Simulator sim;
  std::vector<int> order;
  std::function<void(int)> chain = [&](int depth) {
    order.push_back(depth);
    if (depth < 5) sim.schedule_at(2.0, [&chain, depth] { chain(depth + 1); });
  };
  sim.schedule_at(2.0, [&] { chain(0); });
  sim.schedule_at(2.0, [&] { order.push_back(100); });
  sim.schedule_at(2.0, [&] { order.push_back(101); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 100, 101, 1, 2, 3, 4, 5}));
}

TEST(Sim, UnparkRunsAfterPendingSameTimeEvents) {
  // The resume created by unpark is sequenced like any other event: ties
  // already in the queue at unpark time run first.
  Simulator sim;
  std::vector<char> order;
  const Pid sleeper = sim.spawn("sleeper", [&](Context& ctx) {
    ctx.park();
    order.push_back('W');
  });
  sim.schedule_at(1.0, [&] {
    order.push_back('A');
    sim.unpark(sleeper);
  });
  sim.schedule_at(1.0, [&] { order.push_back('B'); });
  sim.schedule_at(1.0, [&] { order.push_back('C'); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C', 'W'}));
}

TEST(Sim, UnparkOrderDecidesSameTimeWakeOrder) {
  // Several parked processes unparked back-to-back at one timestamp wake in
  // unpark order, not pid order.
  Simulator sim;
  std::vector<int> woke;
  std::vector<Pid> pids;
  for (int i = 0; i < 3; ++i) {
    // += instead of operator+(const char*, string&&): the latter trips
    // GCC 12's -Wrestrict false positive (PR105651) under -Werror.
    std::string name = "p";
    name += std::to_string(i);
    pids.push_back(sim.spawn(name, [&woke, i](Context& ctx) {
      ctx.park();
      woke.push_back(i);
    }));
  }
  sim.schedule_at(1.0, [&] {
    sim.unpark(pids[2]);
    sim.unpark(pids[0]);
    sim.unpark(pids[1]);
  });
  sim.run();
  EXPECT_EQ(woke, (std::vector<int>{2, 0, 1}));
}

TEST(Sim, KillDuringTiedBatchUnwindsAfterRemainingTies) {
  // kill() wakes the victim through a fresh resume, so events already tied
  // at the kill timestamp run before the victim's stack unwinds.
  Simulator sim;
  std::vector<std::string> order;
  struct Guard {
    std::vector<std::string>* log;
    ~Guard() { log->push_back("unwind"); }
  };
  const Pid victim = sim.spawn("victim", [&](Context& ctx) {
    Guard g{&order};
    ctx.park();
  });
  sim.schedule_at(1.0, [&] {
    order.push_back("kill");
    sim.kill(victim);
  });
  sim.schedule_at(1.0, [&] { order.push_back("tie"); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"kill", "tie", "unwind"}));
  EXPECT_TRUE(sim.finished(victim));
}

TEST(Sim, UnparkThenDelayYieldsToWokenProcessFirst) {
  // A wakes B then delays: B's same-time resume precedes A's future resume,
  // so the delay cannot take the advance-in-place fast path past it.
  Simulator sim;
  std::vector<std::pair<char, Time>> order;
  Pid b = kNoPid;
  b = sim.spawn("b", [&](Context& ctx) {
    ctx.park();
    order.emplace_back('b', ctx.now());
  });
  sim.spawn("a", [&](Context& ctx) {
    ctx.delay(1.0);
    ctx.simulator().unpark(b);
    ctx.delay(0.5);
    order.emplace_back('a', ctx.now());
  });
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].first, 'b');
  EXPECT_DOUBLE_EQ(order[0].second, 1.0);
  EXPECT_EQ(order[1].first, 'a');
  EXPECT_DOUBLE_EQ(order[1].second, 1.5);
}

TEST(Sim, MixedScaleTimestampsPopInStableGlobalOrder) {
  // Deterministic pseudo-random mix of microsecond-scale (comm latency) and
  // second-scale (compute delay) timestamps, with duplicates: pops must
  // follow (time, schedule order) exactly, across six decades of time.
  Simulator sim;
  std::vector<std::pair<double, int>> expected;
  std::vector<std::pair<double, int>> got;
  std::uint64_t state = 0x12345678ULL;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 40);
  };
  for (int i = 0; i < 2000; ++i) {
    double t;
    const double r = next();
    if (i % 10 == 3) {
      t = 2.5;  // repeated exact tie across scales
    } else if (i % 3 == 0) {
      t = 1e-6 * (1.0 + r / 1e3);  // near-future comm scale
    } else {
      t = 1.0 + r / 1e4;  // far compute scale
    }
    expected.emplace_back(t, i);
    sim.schedule_at(t, [&got, t, i] { got.emplace_back(t, i); });
  }
  std::stable_sort(
      expected.begin(), expected.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  sim.run();
  EXPECT_TRUE(got == expected);
}

TEST(Sim, HugeTimestampAfterCommScaleTrafficStillDrains) {
  // After microsecond-scale traffic, events at timestamps so large that a
  // microsecond step rounds away in double (1e13 + 1e-6 == 1e13) must
  // still drain, in (t, seq) order.
  Simulator sim;
  int ran = 0;
  Time last = -1;
  // Two interleaved delayers: every delay sees the other's pending resume,
  // takes the slow path and pushes a ~2 us lead into the timed queue.
  for (int pnum = 0; pnum < 2; ++pnum) {
    std::string pname = "p";
    pname += std::to_string(pnum);
    sim.spawn(std::move(pname), [](Context& ctx) {
      for (int i = 0; i < 2000; ++i) ctx.delay(2e-6);
    });
  }
  sim.schedule_at(1e13, [&] { ++ran; });
  sim.schedule_at(1e13, [&] { ++ran; });
  sim.schedule_at(2e13, [&] {
    ++ran;
    last = sim.now();
  });
  sim.run();
  EXPECT_EQ(ran, 3);
  EXPECT_DOUBLE_EQ(last, 2e13);
}

// --- EventHeap driven directly ---------------------------------------------

/// Stable-address node arena for driving the queue without a Simulator.
struct NodeArena {
  std::deque<EventNode> pool;

  EventNode* make(Time t, std::uint64_t seq) {
    pool.emplace_back();
    pool.back().t = t;
    pool.back().seq = seq;
    return &pool.back();
  }
};

TEST(EventHeap, RandomizedDifferentialAgainstPriorityQueue) {
  // Differential check against std::priority_queue on adversarial mixes:
  // huge bases, denormal / near-zero leads, exact same-instant bursts, and
  // 1e15 tails, with pops interleaved. Every pop must match the reference's
  // strict (t, seq) minimum bit-for-bit. Each trial runs two epochs on one
  // queue: the first is drained mid-flight (teardown path) and must hand back
  // exactly the queued events; the second restarts the clock at zero, at or
  // below every first-epoch timestamp, so a drained queue must behave like a
  // freshly constructed one.
  using Ref = std::pair<double, std::uint64_t>;
  const double bases[] = {0.0, 1e15, 1.0};
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    std::uint64_t state = 0x9e3779b97f4a7c15ULL ^
                          (trial * 0x517cc1b727220a95ULL + 0xda3e39cb94b95bdbULL);
    auto rnd = [&state] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return state >> 11;
    };
    EventHeap q;
    NodeArena arena;
    std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref;
    double now = bases[trial % 3];
    double last_t = now;
    std::uint64_t seq = 0;
    const auto pop_and_check = [&] {
      EventNode* n = q.pop();
      ASSERT_NE(n, nullptr);
      ASSERT_EQ(n->t, ref.top().first);
      ASSERT_EQ(n->seq, ref.top().second);
      now = n->t;
      ref.pop();
    };
    const auto step = [&] {
      if (!ref.empty() && rnd() % 4 == 0) {
        pop_and_check();
        return;
      }
      double t;
      switch (rnd() % 6) {
        case 0:
          t = last_t;  // exact same-instant burst (reuses a prior timestamp)
          break;
        case 1:
          t = now + 5e-318 * static_cast<double>(1 + rnd() % 3);  // denormal
          break;
        case 2:
          t = now;  // zero lead
          break;
        case 3:
          t = now + 1e-9 * static_cast<double>(rnd() % 4000);  // comm scale
          break;
        case 4:  // heavy tail: leads spanning 12 decades
          t = now + 1e-6 * std::pow(10.0, static_cast<double>(rnd() % 12));
          break;
        default:
          t = now + 1e15;  // 1e15 tail
          break;
      }
      if (t < now) t = now;  // FP guard; the contract forbids past pushes
      last_t = t;
      q.push(arena.make(t, seq));
      ref.emplace(t, seq);
      ++seq;
    };

    // Epoch 1, then drain whatever is still queued.
    for (int op = 0; op < 4000; ++op) step();
    std::vector<Ref> drained;
    q.drain([&](EventNode* n) { drained.emplace_back(n->t, n->seq); });
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pop(), nullptr);
    std::sort(drained.begin(), drained.end());
    ASSERT_EQ(drained.size(), ref.size());
    for (const Ref& r : drained) {
      ASSERT_EQ(r, ref.top());
      ref.pop();
    }

    // Epoch 2 on the drained queue, with the clock back at zero.
    now = last_t = 0.0;
    for (int op = 0; op < 4000; ++op) step();
    while (!ref.empty() && !HasFatalFailure()) pop_and_check();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pop(), nullptr);
  }
}

}  // namespace
}  // namespace repmpi::sim
