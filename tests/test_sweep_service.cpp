// End-to-end tests of the sweep service: the real repmpi_sweepd and
// repmpi_sweepctl binaries (paths injected by CMake) driven over a spool
// directory in the test temp dir. Covers the service lifecycle (ping /
// submit / query / wait / drain), durable-queue crash recovery (SIGKILL
// the daemon mid-service, restart, resumed cells complete bit-identically
// to a one-shot sweep), and admission control (over-capacity submits get
// a bounded-time NACK with the distinct exit code, never a hang).

#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef REPMPI_SWEEP_BIN
#error "REPMPI_SWEEP_BIN must be defined by the build"
#endif
#ifndef REPMPI_SWEEPD_BIN
#error "REPMPI_SWEEPD_BIN must be defined by the build"
#endif
#ifndef REPMPI_SWEEPCTL_BIN
#error "REPMPI_SWEEPCTL_BIN must be defined by the build"
#endif

namespace {

struct CmdResult {
  int code = -1;
  std::string output;
};

/// Runs a shell command, capturing stdout only (stderr passes through to
/// the test log) — dumps must be byte-comparable without stderr noise.
CmdResult run_cmd(const std::string& cmd) {
  CmdResult result;
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
    result.output.append(buf, n);
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) result.code = WEXITSTATUS(status);
  if (WIFSIGNALED(status)) result.code = 128 + WTERMSIG(status);
  return result;
}

/// Identical cell parameters everywhere so dumps are byte-comparable
/// between the daemon-served sweep and the one-shot reference sweep.
const char kCellParams[] = " --jobs=2 --nx=6 --iters=2";

std::string ctl(const std::string& spool, const std::string& rest) {
  return std::string(REPMPI_SWEEPCTL_BIN) + " " + rest + " --spool=" + spool;
}

/// Kills and reaps the sweep workers a dead daemon left behind. Workers
/// run in their own process groups, so a daemon SIGKILL does not reach
/// them; because the test process is a child subreaper (see Daemon), they
/// are reparented to it. Every child of ours outside our own process group
/// is such an orphan: daemons and popen shells stay in the test's group.
void reap_orphaned_workers() {
  const pid_t self = ::getpid();
  const pid_t own_group = ::getpgrp();
  DIR* proc = ::opendir("/proc");
  if (proc == nullptr) return;
  while (const dirent* e = ::readdir(proc)) {
    const pid_t pid = static_cast<pid_t>(std::atoi(e->d_name));
    if (pid <= 0) continue;
    std::ifstream stat_file(std::string("/proc/") + e->d_name + "/stat");
    std::string stat;
    std::getline(stat_file, stat);
    // Fields after the parenthesised command name: state, ppid, pgrp.
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(stat.substr(close + 1));
    char state = 0;
    pid_t ppid = 0;
    pid_t pgrp = 0;
    if (!(fields >> state >> ppid >> pgrp)) continue;
    if (ppid != self || pgrp == own_group || pgrp <= 1) continue;
    ::kill(-pgrp, SIGKILL);
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  ::closedir(proc);
}

/// A running daemon instance: fork/exec'd with optional chaos env, killed
/// and reaped on destruction if the test did not already collect it,
/// together with any worker it orphaned.
class Daemon {
 public:
  Daemon(const std::string& spool, const std::string& extra_args = "",
         const std::string& chaos_env = "") {
    // Orphaned workers of a killed daemon are reparented to this process
    // instead of init, so the destructor can kill and reap them.
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);
    pid_ = ::fork();
    if (pid_ == 0) {
      // `exec` so pid_ IS the daemon (signals and wait status are its own,
      // not a wrapping shell's). chaos_env is space-separated K=V pairs.
      const std::string cmd =
          (chaos_env.empty() ? "" : chaos_env + " ") + "exec " +
          REPMPI_SWEEPD_BIN + " --spool=" + spool + kCellParams +
          " --sweep-bin=" + REPMPI_SWEEP_BIN +
          (extra_args.empty() ? "" : " " + extra_args) + " > " + spool +
          "/daemon.log 2>&1";
      ::execlp("/bin/sh", "sh", "-c", cmd.c_str(), nullptr);
      ::_exit(127);
    }
  }

  ~Daemon() {
    if (pid_ > 0 && !reaped_) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    reap_orphaned_workers();
  }

  /// Waits (bounded) for the daemon to exit; returns the wait status via
  /// the shell wrapper: 0 for a clean daemon exit.
  int wait_exit(double timeout_sec = 60.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_sec);
    int status = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        reaped_ = true;
        return WIFEXITED(status) ? WEXITSTATUS(status)
                                 : 128 + WTERMSIG(status);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return -1;  // still running
  }

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
};

/// Polls ping until the daemon answers (it may still be binding).
void wait_ready(const std::string& spool) {
  for (int i = 0; i < 200; ++i) {
    if (run_cmd(ctl(spool, "ping")).code == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  FAIL() << "daemon on " << spool << " never answered ping";
}

std::string fresh_spool(const std::string& name) {
  const std::string spool = ::testing::TempDir() + "repmpi_spool_" + name;
  run_cmd("rm -rf " + spool);
  ::mkdir(spool.c_str(), 0777);
  return spool;
}

std::string dump_results(const std::string& spool) {
  const CmdResult r =
      run_cmd(ctl(spool, "dump " + spool + "/results.bin"));
  EXPECT_EQ(r.code, 0);
  return r.output;
}

class SweepService : public ::testing::Test {
 protected:
  // One clean one-shot reference sweep: the byte-identity baseline every
  // daemon-served dump is compared against, plus the replay trace.
  static void SetUpTestSuite() {
    const std::string log = ::testing::TempDir() + "repmpi_svc_ref.bin";
    std::remove(log.c_str());
    std::remove((log + ".blob").c_str());
    ASSERT_EQ(run_cmd(std::string(REPMPI_SWEEP_BIN) + " --log=" + log +
                      kCellParams + " > /dev/null")
                  .code,
              0);
    const CmdResult d = run_cmd(std::string(REPMPI_SWEEP_BIN) +
                                " --dump --log=" + log);
    ASSERT_EQ(d.code, 0);
    clean_dump_ = new std::string(d.output);

    trace_path_ = new std::string(::testing::TempDir() + "repmpi_svc_trace");
    ASSERT_EQ(run_cmd(std::string(REPMPI_SWEEP_BIN) + " --list-cells > " +
                      *trace_path_)
                  .code,
              0);
  }
  static void TearDownTestSuite() {
    delete clean_dump_;
    delete trace_path_;
    clean_dump_ = nullptr;
    trace_path_ = nullptr;
  }
  static const std::string* clean_dump_;
  static const std::string* trace_path_;
};
const std::string* SweepService::clean_dump_ = nullptr;
const std::string* SweepService::trace_path_ = nullptr;

TEST_F(SweepService, LifecycleSubmitQueryWaitDrain) {
  const std::string spool = fresh_spool("lifecycle");
  Daemon daemon(spool);
  wait_ready(spool);

  CmdResult r = run_cmd(ctl(spool, "ping"));
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.output.find("repmpi_sweepd pid="), std::string::npos);

  // Unknown cell: queried before any submit.
  r = run_cmd(ctl(spool, "query-cell hpccg.l2.d2.none"));
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.output.find("unknown"), std::string::npos);

  // Submit two cells, one of them twice back-to-back: the duplicate of a
  // still-pending cell coalesces onto the scheduled run.
  r = run_cmd(ctl(spool, "submit hpccg.l2.d2.none hpccg.l2.d2.none "
                         "hpccg.l2.d1.none"));
  EXPECT_EQ(r.code, 0) << r.output;
  EXPECT_NE(r.output.find("hpccg.l2.d2.none: queued"), std::string::npos);
  EXPECT_NE(r.output.find("hpccg.l2.d2.none: coalesced"), std::string::npos)
      << r.output;

  // A malformed key is refused outright (NACK exit code, bad-request).
  r = run_cmd(ctl(spool, "submit not.a.cell.key"));
  EXPECT_EQ(r.code, 6);

  r = run_cmd(ctl(spool, "wait --timeout-sec=120"));
  EXPECT_EQ(r.code, 0) << r.output;

  r = run_cmd(ctl(spool, "query-cell hpccg.l2.d2.none"));
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.output.find("done status=ok"), std::string::npos) << r.output;

  // status reflects the two completed cells.
  r = run_cmd(ctl(spool, "status"));
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.output.find("active=0"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("keys=2"), std::string::npos) << r.output;

  // Drain: the daemon acks, stops admitting, and exits cleanly.
  r = run_cmd(ctl(spool, "drain"));
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.output.find("draining"), std::string::npos);
  EXPECT_EQ(daemon.wait_exit(), 0);

  // Post-drain: its results log verifies clean.
  EXPECT_EQ(run_cmd(std::string(REPMPI_SWEEP_BIN) + " --verify-log=" +
                    spool + "/results.bin > /dev/null")
                .code,
            0);
}

TEST_F(SweepService, FullGridReplayMatchesOneShotSweepByteForByte) {
  const std::string spool = fresh_spool("replay");
  Daemon daemon(spool);
  wait_ready(spool);

  CmdResult r = run_cmd(ctl(spool, "replay " + *trace_path_));
  EXPECT_EQ(r.code, 0) << r.output;
  EXPECT_NE(r.output.find("14/14 cell(s) accepted"), std::string::npos)
      << r.output;
  EXPECT_EQ(run_cmd(ctl(spool, "wait --timeout-sec=300")).code, 0);
  EXPECT_EQ(run_cmd(ctl(spool, "drain")).code, 0);
  EXPECT_EQ(daemon.wait_exit(), 0);

  // The acceptance bar: a daemon-served grid dumps byte-identically to
  // the one-shot sweep of the same grid.
  EXPECT_EQ(dump_results(spool), *clean_dump_);
}

TEST_F(SweepService, SigkillMidServiceThenRestartResumesAndStaysIdentical) {
  // The ISSUE's headline scenario: SIGKILL the daemon mid-service (via
  // the chaos knob, after its 4th durable result), restart it, and let
  // the durable queue resume the accepted-but-unfinished cells — no
  // resubmission, byte-identical final dump.
  // --jobs=1 plus a 2s stall on the first cell: no result can land until
  // the stall ends, so the replay always finishes submitting all 14 cells
  // before the 4th-result kill fires. (The stall is a pre-run sleep; the
  // cell's metrics are virtual-time and unaffected.) --client-cap=64 lets
  // the replay connection hold the whole grid in flight at once.
  const std::string spool = fresh_spool("killresume");
  {
    Daemon doomed(spool, "--jobs=1 --client-cap=64",
                  "REPMPI_FAULT_DAEMON_KILL_AFTER=4 "
                  "REPMPI_FAULT_STALL_CELL=hpccg.l2.d1.none "
                  "REPMPI_FAULT_STALL_SEC=2");
    wait_ready(spool);
    const CmdResult r = run_cmd(ctl(spool, "replay " + *trace_path_));
    EXPECT_EQ(r.code, 0) << r.output;  // all 14 accepted before any kill
    EXPECT_EQ(doomed.wait_exit(120.0), 128 + SIGKILL);
  }

  // The fsck must pass on what the dead daemon left behind (every append
  // is durable; the kill lands between appends).
  EXPECT_EQ(run_cmd(std::string(REPMPI_SWEEP_BIN) + " --verify-log=" +
                    spool + "/results.bin > /dev/null")
                .code,
            0);

  Daemon revived(spool);
  wait_ready(spool);
  // No resubmission: the queue log alone drives the resume — proven below
  // by the complete, byte-identical dump.
  EXPECT_EQ(run_cmd(ctl(spool, "wait --timeout-sec=300")).code, 0);
  EXPECT_EQ(run_cmd(ctl(spool, "drain")).code, 0);
  EXPECT_EQ(revived.wait_exit(), 0);

  EXPECT_EQ(dump_results(spool), *clean_dump_);
  // Exactly 14 records: resumed cells ran once, completed cells were not
  // re-run (their queue records were satisfied by epoch comparison).
  const CmdResult stats =
      run_cmd(ctl(spool, "stats " + spool + "/results.bin"));
  EXPECT_EQ(stats.code, 0);
  EXPECT_NE(stats.output.find("records=14"), std::string::npos)
      << stats.output;
  EXPECT_NE(stats.output.find("ok=14"), std::string::npos) << stats.output;
}

TEST_F(SweepService, OverCapacityGetsBoundedTimeNackNotAHang) {
  // Queue depth 2, with a worker stall keeping slots occupied: the third
  // distinct submit must be answered NACK busy (exit 6) within bounded
  // time — the explicit-backpressure acceptance criterion.
  // --jobs=1: the stalled cell occupies the only slot, so the second cell
  // stays queued and depth 2 is deterministically full for the third.
  const std::string spool = fresh_spool("busynack");
  Daemon daemon(spool, "--jobs=1 --queue-depth=2 --timeout-sec=30",
                "REPMPI_FAULT_STALL_CELL=hpccg.l2.d1.none "
                "REPMPI_FAULT_STALL_SEC=60");
  wait_ready(spool);

  EXPECT_EQ(run_cmd(ctl(spool, "submit hpccg.l2.d1.none")).code, 0);
  EXPECT_EQ(run_cmd(ctl(spool, "submit hpccg.l4.d1.none")).code, 0);
  const auto t0 = std::chrono::steady_clock::now();
  const CmdResult r = run_cmd(ctl(spool, "submit hpccg.l2.d2.none"));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(r.code, 6);
  EXPECT_LT(elapsed, 5.0) << "backpressure took " << elapsed
                          << "s — that is a hang, not an answer";
}

TEST_F(SweepService, PerClientInFlightCapIsEnforced) {
  const std::string spool = fresh_spool("clientcap");
  Daemon daemon(spool, "--client-cap=1 --timeout-sec=30",
                "REPMPI_FAULT_STALL_CELL=hpccg.l2.d1.none "
                "REPMPI_FAULT_STALL_SEC=60");
  wait_ready(spool);
  // One connection, two distinct cells: the second submit exceeds the
  // client's in-flight cap while the first (stalled) is still running.
  const CmdResult r =
      run_cmd(ctl(spool, "submit hpccg.l2.d1.none hpccg.l4.d1.none"));
  EXPECT_EQ(r.code, 6) << r.output;
  // A NEW connection still has budget: the cap is per client, not global.
  EXPECT_EQ(run_cmd(ctl(spool, "submit hpccg.l4.d1.none")).code, 0);
}

TEST_F(SweepService, DrainParksQueuedCellsForTheNextIncarnation) {
  // Drain with a deep backlog on one slot: never-started cells stay
  // parked (durable), and the restarted daemon picks them up without any
  // resubmission.
  const std::string spool = fresh_spool("drainpark");
  {
    Daemon daemon(spool, "--jobs=1");
    wait_ready(spool);
    ASSERT_EQ(run_cmd(ctl(spool, "replay " + *trace_path_)).code, 0);
    ASSERT_EQ(run_cmd(ctl(spool, "drain")).code, 0);
    EXPECT_EQ(daemon.wait_exit(120.0), 0);
  }
  Daemon revived(spool);
  wait_ready(spool);
  EXPECT_EQ(run_cmd(ctl(spool, "wait --timeout-sec=300")).code, 0);
  EXPECT_EQ(run_cmd(ctl(spool, "drain")).code, 0);
  EXPECT_EQ(revived.wait_exit(), 0);
  EXPECT_EQ(dump_results(spool), *clean_dump_);
}

}  // namespace
