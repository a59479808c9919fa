// Failure-injection tests for intra-parallelization, covering the three
// crash cases of Section III-B2 plus crashes outside sections, and the
// Fig.-2 true-dependence hazard on inout re-execution. Parameterized sweeps
// act as property tests: for every (crash site, task index, policy) the
// surviving replica must end with exactly the correct state.

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <tuple>
#include <vector>

#include "fault/failure.hpp"
#include "intra/runtime.hpp"
#include "rep_test_harness.hpp"

namespace repmpi::intra {
namespace {

using repmpi::testing::RepFixture;

/// Runs an inout "scale and shift" workload (v = v*3 + 1 per element, one
/// task per 8-element block) under a crash plan; returns final vectors per
/// world rank for surviving processes.
std::map<int, std::vector<double>> run_inout_workload(
    fault::FaultPlan& plan, int sections = 1,
    SchedulePolicy policy = SchedulePolicy::kStaticBlock,
    bool overlap = true) {
  RepFixture f(1, 2);
  std::map<int, std::vector<double>> results;
  f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
    Runtime rt(comm, {.mode = Runtime::Mode::kShared,
                      .policy = policy,
                      .overlap = overlap,
                      .faults = &plan});
    std::vector<double> v(64);
    std::iota(v.begin(), v.end(), 0.0);
    for (int s = 0; s < sections; ++s) {
      Section sec(rt);
      const int id = rt.register_task(
          [](TaskArgs& a) -> net::ComputeCost {
            auto p = a.get<double>(0);
            for (double& x : p) x = x * 3.0 + 1.0;
            return {2.0 * static_cast<double>(p.size()),
                    16.0 * static_cast<double>(p.size())};
          },
          {{ArgTag::kInOut, 8}});
      for (int t = 0; t < 8; ++t)
        rt.launch(id, {Binding::of(std::span<double>(v).subspan(
                          static_cast<std::size_t>(t) * 8, 8))});
    }
    results[proc.world_rank()] = v;
  });
  return results;
}

std::vector<double> expected_inout(int sections) {
  std::vector<double> v(64);
  std::iota(v.begin(), v.end(), 0.0);
  for (int s = 0; s < sections; ++s)
    for (double& x : v) x = x * 3.0 + 1.0;
  return v;
}

TEST(IntraFailure, CrashBeforeAnyUpdateSent) {
  // Case 1 of Section III-B2: the failure occurs before the replica sent
  // any update for the task — survivors re-execute it.
  fault::FaultPlan plan;
  plan.add({.world_rank = 1, .site = fault::CrashSite::kAfterTaskExec,
            .nth = 1});
  const auto results = run_inout_workload(plan);
  ASSERT_EQ(results.count(0), 1u);
  EXPECT_EQ(results.count(1), 0u);  // crashed
  EXPECT_EQ(results.at(0), expected_inout(1));
}

TEST(IntraFailure, CrashMidUpdatePartialDelivery) {
  // Case 3 of Section III-B2 / Fig. 2: the replica dies between arg sends,
  // so the survivor holds a *partial* update and must re-execute from the
  // pre-copies. With a single inout arg per task, crash between tasks'
  // sends exercises partial delivery at task granularity; the dedicated
  // Fig2 test below exercises arg granularity.
  fault::FaultPlan plan;
  plan.add({.world_rank = 1, .site = fault::CrashSite::kBetweenArgSends,
            .nth = 2});
  const auto results = run_inout_workload(plan);
  ASSERT_EQ(results.count(0), 1u);
  EXPECT_EQ(results.at(0), expected_inout(1));
}

TEST(IntraFailure, Fig2TrueDependenceHazard) {
  // The exact scenario of Fig. 2: a task reads and writes `a` and writes
  // `b`; the executor sends the update of `a`, then dies before sending
  // `b`. Without the extra copy, the survivor would re-execute with the
  // already-updated `a` and compute a=3, b=6; with the copy discipline it
  // must get a=2, b=4.
  RepFixture f(1, 2);
  std::map<int, std::pair<double, double>> results;
  fault::FaultPlan plan;
  // Lane 1 (world rank 1) dies between sending arg 0 (a) and arg 1 (b).
  plan.add({.world_rank = 1, .site = fault::CrashSite::kBetweenArgSends,
            .nth = 1, .detail = 1});
  f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
    Runtime rt(comm, {.mode = Runtime::Mode::kShared, .faults = &plan});
    double a = 1.0, b = 0.0;
    double dummy = 0.0;  // occupies lane 0 so the a/b task goes to lane 1
    {
      Section s(rt);
      const int id_dummy = rt.register_task(
          [](TaskArgs& ar) -> net::ComputeCost {
            ar.scalar<double>(0) = 7.0;
            return {1.0, 8.0};
          },
          {{ArgTag::kOut, 8}});
      const int id_ab = rt.register_task(
          [](TaskArgs& ar) -> net::ComputeCost {
            double& av = ar.scalar<double>(0);
            double& bv = ar.scalar<double>(1);
            av = av + 1.0;
            bv = av * 2.0;
            return {2.0, 32.0};
          },
          {{ArgTag::kInOut, 8}, {ArgTag::kOut, 8}});
      rt.launch(id_dummy, {Binding::scalar(dummy)});  // task 0 -> lane 0
      rt.launch(id_ab, {Binding::scalar(a), Binding::scalar(b)});  // -> lane 1
    }
    results[proc.world_rank()] = {a, b};
  });
  ASSERT_EQ(results.count(0), 1u);
  EXPECT_DOUBLE_EQ(results.at(0).first, 2.0);
  EXPECT_DOUBLE_EQ(results.at(0).second, 4.0);
}

TEST(IntraFailure, CrashOutsideSectionNeedsNoAction) {
  // Section III-B2: "If a replica fails outside sections, no specific
  // action is required" — the next sections run all tasks on the survivor.
  RepFixture f(1, 2);
  std::map<int, std::vector<double>> results;
  f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
    Runtime rt(comm, {.mode = Runtime::Mode::kShared});
    std::vector<double> v(64);
    std::iota(v.begin(), v.end(), 0.0);
    auto do_section = [&] {
      Section sec(rt);
      const int id = rt.register_task(
          [](TaskArgs& a) -> net::ComputeCost {
            auto p = a.get<double>(0);
            for (double& x : p) x = x * 3.0 + 1.0;
            return {2.0 * static_cast<double>(p.size()), 16.0 * p.size()};
          },
          {{ArgTag::kInOut, 8}});
      for (int t = 0; t < 8; ++t)
        rt.launch(id, {Binding::of(std::span<double>(v).subspan(
                          static_cast<std::size_t>(t) * 8, 8))});
    };
    do_section();
    if (proc.world_rank() == 1) {
      proc.world().crash(1);
      proc.elapse(1.0);
    }
    proc.elapse(0.01);  // let the detector announce
    do_section();
    results[proc.world_rank()] = v;
    EXPECT_EQ(rt.stats().sections, 2);
  });
  ASSERT_EQ(results.count(0), 1u);
  EXPECT_EQ(results.at(0), expected_inout(2));
  // Survivor executed: 4 tasks (shared) + 8 tasks (alone) = 12.
}

TEST(IntraFailure, CrashAtSectionEntry) {
  fault::FaultPlan plan;
  plan.add({.world_rank = 1, .site = fault::CrashSite::kSectionEntry,
            .nth = 1});
  const auto results = run_inout_workload(plan);
  ASSERT_EQ(results.count(0), 1u);
  EXPECT_EQ(results.at(0), expected_inout(1));
}

TEST(IntraFailure, CrashInLaterSectionAfterSharingWorked) {
  fault::FaultPlan plan;
  plan.add({.world_rank = 1, .site = fault::CrashSite::kBeforeTaskExec,
            .nth = 7});  // dies in the 2nd section (4 local tasks per sec.)
  const auto results = run_inout_workload(plan, /*sections=*/3);
  ASSERT_EQ(results.count(0), 1u);
  EXPECT_EQ(results.at(0), expected_inout(3));
}

TEST(IntraFailure, ReexecutionRestoresThisSectionsPreImage) {
  // Fig. 2 in the second of two sections that reuse the same task slots
  // (and their pre-image buffers). Each section runs a = a + 1, b = 2a on
  // lane 1; in section 2 lane 1 sends a = 3 and dies before b. Lane 0 must
  // roll a back to section 2's pre-image (2) and re-execute: a = 3, b = 6.
  // No rollback gives a = 4, b = 8; section 1's pre-image gives a = 2, b = 4.
  RepFixture f(1, 2);
  std::map<int, std::pair<double, double>> results;
  fault::FaultPlan plan;
  plan.add({.world_rank = 1, .site = fault::CrashSite::kBetweenArgSends,
            .nth = 2, .detail = 1});
  f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
    Runtime rt(comm, {.mode = Runtime::Mode::kShared, .faults = &plan});
    double a = 1.0, b = 0.0;
    double dummy = 0.0;  // occupies lane 0 so the a/b task goes to lane 1
    for (int section = 0; section < 2; ++section) {
      Section s(rt);
      const int id_dummy = rt.register_task(
          [](TaskArgs& ar) -> net::ComputeCost {
            ar.scalar<double>(0) += 1.0;
            return {1.0, 8.0};
          },
          {{ArgTag::kInOut, 8}});
      const int id_ab = rt.register_task(
          [](TaskArgs& ar) -> net::ComputeCost {
            double& av = ar.scalar<double>(0);
            av = av + 1.0;
            ar.scalar<double>(1) = av * 2.0;
            return {2.0, 32.0};
          },
          {{ArgTag::kInOut, 8}, {ArgTag::kOut, 8}});
      rt.launch(id_dummy, {Binding::scalar(dummy)});
      rt.launch(id_ab, {Binding::scalar(a), Binding::scalar(b)});
    }
    results[proc.world_rank()] = {a, b};
  });
  ASSERT_EQ(results.count(0), 1u);
  EXPECT_EQ(results.count(1), 0u);
  EXPECT_DOUBLE_EQ(results.at(0).first, 3.0);
  EXPECT_DOUBLE_EQ(results.at(0).second, 6.0);
}

TEST(IntraFailure, Lane0CrashAlsoHandled) {
  fault::FaultPlan plan;
  plan.add({.world_rank = 0, .site = fault::CrashSite::kAfterTaskExec,
            .nth = 2});
  const auto results = run_inout_workload(plan);
  ASSERT_EQ(results.count(1), 1u);
  EXPECT_EQ(results.count(0), 0u);
  EXPECT_EQ(results.at(1), expected_inout(1));
}

// Property sweep: every (site, occurrence, policy, overlap) combination must
// leave the survivor with the exact expected state.
using SweepParam = std::tuple<fault::CrashSite, int, SchedulePolicy, bool>;

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = fault::to_string(std::get<0>(info.param));
  name += "_n" + std::to_string(std::get<1>(info.param));
  name += std::get<2>(info.param) == SchedulePolicy::kStaticBlock ? "_block"
                                                                  : "_rr";
  name += std::get<3>(info.param) ? "_ov" : "_noov";
  return name;
}

class IntraFailureSweep : public ::testing::TestWithParam<SweepParam> {};

INSTANTIATE_TEST_SUITE_P(
    Sites, IntraFailureSweep,
    ::testing::Combine(
        ::testing::Values(fault::CrashSite::kSectionEntry,
                          fault::CrashSite::kBeforeTaskExec,
                          fault::CrashSite::kAfterTaskExec,
                          fault::CrashSite::kBetweenArgSends,
                          fault::CrashSite::kSectionExit),
        ::testing::Values(1, 2, 4),
        ::testing::Values(SchedulePolicy::kStaticBlock,
                          SchedulePolicy::kRoundRobin),
        ::testing::Values(true, false)),
    sweep_name);

TEST_P(IntraFailureSweep, SurvivorStateExact) {
  const auto& [site, nth, policy, overlap] = GetParam();
  fault::FaultPlan plan;
  plan.add({.world_rank = 1, .site = site, .nth = nth});
  const auto results =
      run_inout_workload(plan, /*sections=*/2, policy, overlap);
  ASSERT_EQ(results.count(0), 1u);
  EXPECT_EQ(results.at(0), expected_inout(2))
      << "site=" << fault::to_string(site) << " nth=" << nth;
}

TEST(IntraFailure, DegreeThreeTwoSurvivorsConsistent) {
  RepFixture f(1, 3);
  std::map<int, std::vector<double>> results;
  fault::FaultPlan plan;
  plan.add({.world_rank = 1, .site = fault::CrashSite::kAfterTaskExec,
            .nth = 1});
  f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
    Runtime rt(comm, {.mode = Runtime::Mode::kShared, .faults = &plan});
    std::vector<double> v(72);
    std::iota(v.begin(), v.end(), 0.0);
    {
      Section s(rt);
      const int id = rt.register_task(
          [](TaskArgs& a) -> net::ComputeCost {
            auto p = a.get<double>(0);
            for (double& x : p) x = x * 3.0 + 1.0;
            return {2.0 * static_cast<double>(p.size()), 16.0 * p.size()};
          },
          {{ArgTag::kInOut, 8}});
      for (int t = 0; t < 9; ++t)
        rt.launch(id, {Binding::of(std::span<double>(v).subspan(
                          static_cast<std::size_t>(t) * 8, 8))});
    }
    results[proc.world_rank()] = v;
  });
  std::vector<double> expect(72);
  std::iota(expect.begin(), expect.end(), 0.0);
  for (double& x : expect) x = x * 3.0 + 1.0;
  ASSERT_EQ(results.count(0), 1u);
  ASSERT_EQ(results.count(2), 1u);
  EXPECT_EQ(results.at(0), expect);
  EXPECT_EQ(results.at(2), expect);
}

TEST(IntraFailure, TwoReplicaFailuresAtSameVirtualTimestamp) {
  // Edge case: with degree 3, replicas 1 and 2 both crash at the same
  // instrumentation site and occurrence — replicas execute in virtual-time
  // lockstep, so both failures land at the same virtual timestamp. The
  // runtime must survive the double announcement and leave the last
  // replica with exact state.
  RepFixture f(1, 3);
  std::map<int, std::vector<double>> results;
  fault::FaultPlan plan;
  plan.add({.world_rank = 1, .site = fault::CrashSite::kAfterTaskExec,
            .nth = 1});
  plan.add({.world_rank = 2, .site = fault::CrashSite::kAfterTaskExec,
            .nth = 1});
  f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
    Runtime rt(comm, {.mode = Runtime::Mode::kShared, .faults = &plan});
    std::vector<double> v(72);
    std::iota(v.begin(), v.end(), 0.0);
    {
      Section s(rt);
      const int id = rt.register_task(
          [](TaskArgs& a) -> net::ComputeCost {
            auto p = a.get<double>(0);
            for (double& x : p) x = x * 3.0 + 1.0;
            return {2.0 * static_cast<double>(p.size()), 16.0 * p.size()};
          },
          {{ArgTag::kInOut, 8}});
      for (int t = 0; t < 9; ++t)
        rt.launch(id, {Binding::of(std::span<double>(v).subspan(
                          static_cast<std::size_t>(t) * 8, 8))});
    }
    results[proc.world_rank()] = v;
  });
  EXPECT_EQ(plan.fired(), 2);
  ASSERT_EQ(results.count(0), 1u);
  EXPECT_EQ(results.count(1), 0u);
  EXPECT_EQ(results.count(2), 0u);
  std::vector<double> expect(72);
  std::iota(expect.begin(), expect.end(), 0.0);
  for (double& x : expect) x = x * 3.0 + 1.0;
  EXPECT_EQ(results.at(0), expect);
}

TEST(IntraFailure, FailureScheduledPastRunHorizonNeverFires) {
  // Edge case: a rule whose occurrence count lies beyond anything the run
  // reaches must be a pure no-op — nobody dies, every replica finishes with
  // exact state, and the plan reports zero fired rules.
  fault::FaultPlan plan;
  plan.add({.world_rank = 1, .site = fault::CrashSite::kAfterTaskExec,
            .nth = 1000000});
  const auto results = run_inout_workload(plan, /*sections=*/2);
  EXPECT_EQ(plan.fired(), 0);
  ASSERT_EQ(results.count(0), 1u);
  ASSERT_EQ(results.count(1), 1u);
  EXPECT_EQ(results.at(0), expected_inout(2));
  EXPECT_EQ(results.at(1), expected_inout(2));
}

TEST(IntraFailure, SdcThenFailStopOnSameRank) {
  // Edge case: the same replica suffers a silent data corruption during its
  // 2nd task execution AND fail-stops right after that execution, before
  // sending the update. The fail-stop masks the SDC — the corrupted bytes
  // never escape the dead replica, so the survivor (which re-executes from
  // pre-copies) must end bit-exact.
  fault::FaultPlan plan;
  plan.add_corruption({.world_rank = 1, .nth = 2});
  plan.add({.world_rank = 1, .site = fault::CrashSite::kAfterTaskExec,
            .nth = 2});
  const auto results = run_inout_workload(plan);
  EXPECT_EQ(plan.fired(), 1);
  EXPECT_GE(plan.corruptions_fired(), 1);
  ASSERT_EQ(results.count(0), 1u);
  EXPECT_EQ(results.count(1), 0u);
  EXPECT_EQ(results.at(0), expected_inout(1));
}

TEST(IntraFailure, ReexecutionCountsTracked) {
  fault::FaultPlan plan;
  plan.add({.world_rank = 1, .site = fault::CrashSite::kSectionEntry,
            .nth = 1});
  RepFixture f(1, 2);
  IntraStats survivor_stats;
  f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
    Runtime rt(comm, {.mode = Runtime::Mode::kShared, .faults = &plan});
    std::vector<double> v(64, 1.0);
    {
      Section s(rt);
      const int id = rt.register_task(
          [](TaskArgs& a) -> net::ComputeCost {
            auto p = a.get<double>(0);
            for (double& x : p) x *= 2.0;
            return {static_cast<double>(p.size()), 16.0 * p.size()};
          },
          {{ArgTag::kInOut, 8}});
      for (int t = 0; t < 8; ++t)
        rt.launch(id, {Binding::of(std::span<double>(v).subspan(
                          static_cast<std::size_t>(t) * 8, 8))});
    }
    if (proc.world_rank() == 0) survivor_stats = rt.stats();
  });
  // Lane 1 died at entry: lane 0 executes its 4, then re-executes 4.
  EXPECT_EQ(survivor_stats.tasks_executed, 8);
  EXPECT_EQ(survivor_stats.tasks_reexecuted, 4);
  EXPECT_EQ(survivor_stats.tasks_received, 0);
}

}  // namespace
}  // namespace repmpi::intra
