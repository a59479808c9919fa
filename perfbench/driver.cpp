// perfbench_driver — the repmpi benchmark, measured from outside the library.
//
// One process runs one workload as a closed loop with a single client: the
// next scenario starts only after the previous one finished and its results
// were verified. Every call into a layer's public entry point
// (apps::run_app, kernels::grid_matrix_cached / build_grid_matrix,
// kernels::init_particles_cached / init_particles, support::TaskPool) is
// timed here, and the layers' existing public counters
// (sim::substrate_totals, kernels::kernel_totals, RunResult, IntraStats,
// ComputeCacheStats) are read around those calls. Nothing inside the library
// is instrumented.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    [--trace-out FILE] [--commit C] [--source-sha H]
//   perfbench_driver --crash-scan MAX_NTH
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
// traced scenarios, records spans in memory (written to --trace-out at the
// end) and prints the per-layer metrics. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. --crash-scan runs
// every single-replica crash point (nth <= MAX_NTH) of the sweep_grid cells
// once through the sweep_grid oracle and lists the points that fail it.
//
// Correctness oracle (needs no stored answer): in every scenario the SDR and
// intra runs' app outputs are bit-identical to the native run's, every
// finished rank agrees, every sweep crash cell matches its native cell, no
// job fails, and each run's virtual fingerprint (wallclock, phase_max,
// messages, bytes, outputs) repeats exactly across the process's scenarios.
// RunResult::events is deliberately not part of it: it is a host-side count
// a substrate change may legitimately alter.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/amg.hpp"
#include "apps/gtc.hpp"
#include "apps/hpccg.hpp"
#include "apps/runner.hpp"
#include "kernels/backend.hpp"
#include "kernels/pic.hpp"
#include "kernels/sparse.hpp"
#include "sim/simulator.hpp"
#include "support/compute_cache.hpp"
#include "support/rng.hpp"
#include "support/task_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace repmpi;
using apps::RunMode;

double wall_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double kernel_s(const kernels::KernelTotals& k, kernels::KernelFamily f) {
  return 1e-9 * static_cast<double>(k.ns[static_cast<int>(f)]);
}

double kernel_total_s(const kernels::KernelTotals& k) {
  double s = 0;
  for (int f = 0; f < static_cast<int>(kernels::KernelFamily::kCount); ++f)
    s += kernel_s(k, static_cast<kernels::KernelFamily>(f));
  return s;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- Spans -------------------------------------------------------------------

struct Span {
  std::string name;
  int id = -1;
  int parent = -1;
  int scenario = -1;  ///< -1: the set-up phase or a probe
  double start = 0;
  double end = 0;
  std::vector<std::pair<std::string, double>> counters;
};

/// In-memory span recorder. Disabled, open() returns -1 and records nothing,
/// so the untraced scenarios run the same code without span bookkeeping.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  int open(std::string name, int parent, int scenario) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.scenario = scenario;
    s.start = wall_now();
    return add(std::move(s));
  }

  void close(int id,
             std::vector<std::pair<std::string, double>> counters = {}) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = wall_now();
    s.counters = std::move(counters);
  }

  /// Adopts a finished span recorded elsewhere (a pool worker's cell).
  int add(Span s) {
    if (!enabled_) return -1;
    s.id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(int id) const { return spans_[static_cast<std::size_t>(id)]; }

  /// Duration minus the union of the intervals its children cover (children
  /// on pool workers overlap each other, so a plain sum would over-count).
  double self_s(int id) const {
    const Span& s = span(id);
    std::vector<std::pair<double, double>> kids;
    for (const Span& c : spans_)
      if (c.parent == id) kids.emplace_back(c.start, c.end);
    std::sort(kids.begin(), kids.end());
    double covered = 0, reach = s.start;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, reach);
      if (b > lo) covered += b - lo;
      reach = std::max(reach, b);
    }
    return (s.end - s.start) - covered;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// --- One timed call into apps::run_app -----------------------------------------

/// An app main that returns the app's scalar outputs; every finished rank
/// of a run reports them and they must agree bit for bit.
using App = std::function<std::vector<double>(apps::AppContext&)>;

struct Call {
  std::string name;  ///< span name: run_app.native / .sdr / .intra / .crash
  int ranks = 0;     ///< physical ranks the run launched
  double start = 0;
  double wall_s = 0;
  sim::SubstrateTotals sub;
  kernels::KernelTotals kern;
  apps::RunResult res;
  std::vector<double> out;
  std::string error;  ///< non-empty: the call failed or its ranks disagree
};

std::string bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, u);
  return buf;
}

std::string bits(const std::vector<double>& v) {
  std::string s;
  for (const double d : v) s += bits(d) + ",";
  return s;
}

/// The virtual-time result of a run, bit-exact. Host-side counts stay out.
std::string virtual_fingerprint(const Call& c) {
  std::string s = "wall=" + bits(c.res.wallclock);
  for (const auto& [phase, t] : c.res.phase_max) s += " " + phase + "=" + bits(t);
  s += " msgs=" + std::to_string(c.res.net_messages) +
       " bytes=" + std::to_string(c.res.net_bytes) + " out=" + bits(c.out);
  return s;
}

Call timed_run(std::string name, const apps::RunConfig& cfg, const App& app) {
  Call c;
  c.name = std::move(name);
  c.ranks = cfg.num_physical();
  std::vector<std::vector<double>> per_rank(
      static_cast<std::size_t>(cfg.num_physical()));
  const sim::SubstrateTotals sub0 = sim::substrate_totals();
  const kernels::KernelTotals kern0 = kernels::kernel_totals();
  c.start = wall_now();
  try {
    c.res = apps::run_app(cfg, [&](apps::AppContext& ctx) {
      per_rank[static_cast<std::size_t>(ctx.proc.world_rank())] = app(ctx);
    });
  } catch (const std::exception& e) {
    c.error = c.name + " threw: " + e.what();
  }
  c.wall_s = wall_now() - c.start;
  c.sub = sim::substrate_totals();
  c.sub -= sub0;
  c.kern = kernels::kernel_totals();
  c.kern -= kern0;
  for (const auto& o : per_rank) {
    if (o.empty()) continue;  // crashed rank
    if (c.out.empty()) c.out = o;
    else if (bits(o) != bits(c.out) && c.error.empty())
      c.error = c.name + ": finished ranks disagree";
  }
  if (c.error.empty() && c.out.empty()) c.error = c.name + ": no rank finished";
  if (c.error.empty() && c.res.job_failed) c.error = c.name + ": job failed";
  return c;
}

std::vector<std::pair<std::string, double>> call_counters(const Call& c) {
  return {
      {"events", static_cast<double>(c.sub.events)},
      {"fiber_switches", static_cast<double>(c.sub.fiber_switches)},
      {"heap_bypass", static_cast<double>(c.sub.heap_bypass)},
      {"wakeups_elided", static_cast<double>(c.sub.wakeups_elided)},
      {"messages", static_cast<double>(c.res.net_messages)},
      {"bytes", static_cast<double>(c.res.net_bytes)},
      {"kernel_s", kernel_total_s(c.kern)},
      {"cache_hits", static_cast<double>(c.res.compute_cache.hits)},
      {"cache_misses", static_cast<double>(c.res.compute_cache.misses)},
      {"tasks_executed", static_cast<double>(c.res.intra_total.tasks_executed)},
      {"ranks_crashed", static_cast<double>(c.res.ranks_crashed)},
  };
}

// --- Set-up: cold fill of the matrix and particle memos ----------------------

struct MatrixShape {
  kernels::Stencil stencil;
  int nx, ny, nz;
  bool lower, upper;
};

struct ParticleSpec {
  std::size_t n;
  double lx, ly;
  support::Rng rng;  ///< the exact stream the app forks for this rank
};

struct Inputs {
  std::vector<MatrixShape> matrices;
  std::vector<ParticleSpec> particles;
};

/// The (lower, upper) neighbour variants of a z-stacked decomposition.
void add_decomposition(Inputs& in, kernels::Stencil st, int nx, int ny, int nz,
                       int logical) {
  const auto add = [&](bool lo, bool up) {
    for (const MatrixShape& m : in.matrices)
      if (m.stencil == st && m.nx == nx && m.ny == ny && m.nz == nz &&
          m.lower == lo && m.upper == up)
        return;
    in.matrices.push_back({st, nx, ny, nz, lo, up});
  };
  if (logical == 1) return add(false, false);
  add(false, true);
  if (logical > 2) add(true, true);
  add(true, false);
}

struct SetupTimes {
  std::vector<double> total, matrices, particles;
};

/// Repetition 0 is the real cold fill through the memoized builders (the
/// memos then serve every scenario); later repetitions rebuild the same
/// inputs through the unmemoized public builders, so setup_s is a median
/// over several set-ups of one process.
SetupTimes run_setup(const Inputs& in, Tracer& tr) {
  constexpr int kMinReps = 5, kMaxReps = 60;
  constexpr double kMinSeconds = 1.0;
  SetupTimes t;
  const double begin = wall_now();
  const int root = tr.open("setup", -1, -1);
  for (int rep = 0; rep < kMaxReps; ++rep) {
    if (rep >= kMinReps && wall_now() - begin >= kMinSeconds) break;
    const double t0 = wall_now();
    const int ms = tr.open("setup.grid_matrix", root, -1);
    for (const MatrixShape& m : in.matrices) {
      if (rep == 0)
        kernels::grid_matrix_cached(m.stencil, m.nx, m.ny, m.nz, m.lower,
                                    m.upper);
      else
        kernels::build_grid_matrix(m.stencil, m.nx, m.ny, m.nz, m.lower,
                                   m.upper);
    }
    tr.close(ms);
    const double t1 = wall_now();
    const int ps = tr.open("setup.particles", root, -1);
    for (const ParticleSpec& p : in.particles) {
      if (rep == 0) {
        kernels::init_particles_cached(p.n, p.lx, p.ly, p.rng);
      } else {
        kernels::Particles parts;
        kernels::init_particles(parts, p.n, p.lx, p.ly, p.rng);
      }
    }
    tr.close(ps);
    const double t2 = wall_now();
    t.matrices.push_back(t1 - t0);
    t.particles.push_back(t2 - t1);
    t.total.push_back(t2 - t0);
  }
  tr.close(root);
  return t;
}

// --- Workloads -----------------------------------------------------------------

struct Scenario {
  std::vector<Call> calls;
  double wall_s = 0;
  double cpu_s = 0;
  int span = -1;
  // sweep_grid only:
  double grid_wall_s = 0;
  unsigned workers = 0;
  std::vector<std::string> errors;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Inputs inputs() const = 0;
  /// Runs one scenario's calls (spans as children of `parent`).
  virtual void run(Scenario& s, Tracer& tr, int parent, int id) = 0;
  /// Appends oracle violations of a finished scenario to s.errors.
  virtual void verify(Scenario& s) = 0;
  /// The run the traced probes A/B: the workload's failure-free intra run.
  virtual apps::RunConfig probe_config() const = 0;
  virtual const App& probe_app() const = 0;
  /// Outputs the probe runs must reproduce (the matching native run's).
  virtual std::vector<double> probe_reference() const = 0;

 protected:
  /// Checks that a run's virtual fingerprint repeats the first scenario's.
  void check_repeat(const std::string& key, const Call& c,
                    std::vector<std::string>& errors) {
    const std::string fp = virtual_fingerprint(c);
    const auto [it, fresh] = fingerprints_.emplace(key, fp);
    if (!fresh && it->second != fp)
      errors.push_back(key + ": virtual fingerprint changed between scenarios");
  }

 private:
  std::map<std::string, std::string> fingerprints_;
};

/// amg_gmres, hpccg_large, gtc_pic: one scenario is a native, an SDR and an
/// intra run of the same app and problem.
class ThreeModeWorkload : public Workload {
 public:
  ThreeModeWorkload(int logical, std::uint64_t seed, App app, Inputs in)
      : logical_(logical), seed_(seed), app_(std::move(app)), in_(std::move(in)) {}

  Inputs inputs() const override { return in_; }

  void run(Scenario& s, Tracer& tr, int parent, int id) override {
    static constexpr std::pair<RunMode, const char*> kModes[] = {
        {RunMode::kNative, "run_app.native"},
        {RunMode::kReplicated, "run_app.sdr"},
        {RunMode::kIntra, "run_app.intra"},
    };
    for (const auto& [mode, name] : kModes) {
      const int sp = tr.open(name, parent, id);
      s.calls.push_back(timed_run(name, config(mode), app_));
      tr.close(sp, call_counters(s.calls.back()));
    }
  }

  void verify(Scenario& s) override {
    const Call& native = s.calls.front();
    for (const Call& c : s.calls) {
      if (!c.error.empty()) {
        s.errors.push_back(c.error);
        continue;
      }
      if (c.res.ranks_finished != c.ranks)
        s.errors.push_back(c.name + ": not every rank finished");
      if (bits(c.out) != bits(native.out))
        s.errors.push_back(c.name + ": outputs differ from native");
      check_repeat(c.name, c, s.errors);
    }
    if (reference_.empty() && s.errors.empty()) reference_ = native.out;
  }

  apps::RunConfig probe_config() const override { return config(RunMode::kIntra); }
  const App& probe_app() const override { return app_; }
  std::vector<double> probe_reference() const override { return reference_; }

 private:
  apps::RunConfig config(RunMode mode) const {
    apps::RunConfig cfg;
    cfg.mode = mode;
    cfg.num_logical = logical_;
    cfg.degree = 2;
    cfg.seed = seed_;
    return cfg;
  }

  int logical_;
  std::uint64_t seed_;
  App app_;
  Inputs in_;
  std::vector<double> reference_;
};

std::vector<double> hpccg_outputs(const apps::HpccgResult& r) {
  return {r.rnorm0, r.rnorm, r.xsum, static_cast<double>(r.iterations)};
}

/// sweep_grid: the `sweep` bench's grid of small HPCCG cells on a TaskPool
/// (bench/bench_sweep.cpp). Logical {2,4} x degree {1,2,3}; every replicated
/// cell runs failure-free and with the bench's two single-replica crashes:
/// plane 1 of logical rank 0 dies after its 2nd task (early) or between the
/// update sends of its 4*iterations-th task (late). Draws nothing from the
/// seed. --crash-scan runs every crash point of these cells instead.
class SweepWorkload : public Workload {
 public:
  struct Cell {
    int logical;
    int degree;
    std::optional<fault::CrashRule> crash;
  };

  static apps::HpccgParams params() {
    apps::HpccgParams p;
    p.nx = p.ny = 24;
    p.nz = 48;
    p.iterations = 4;
    return p;
  }

  static std::vector<Cell> grid_cells() {
    const int iters = params().iterations;
    std::vector<Cell> cells;
    for (const int logical : {2, 4}) cells.push_back({logical, 1, {}});
    for (const int logical : {2, 4})
      for (const int degree : {2, 3}) {
        cells.push_back({logical, degree, {}});
        fault::CrashRule early, late;
        early.world_rank = late.world_rank = logical;
        early.site = fault::CrashSite::kAfterTaskExec;
        early.nth = 2;
        late.site = fault::CrashSite::kBetweenArgSends;
        late.nth = 4 * iters;
        cells.push_back({logical, degree, early});
        cells.push_back({logical, degree, late});
      }
    return cells;
  }

  /// Every single-replica crash point (rank, site, nth <= max_nth) of the
  /// grid's replicated cells, plus the native cells they are checked against.
  /// Every site is reached at least 4 times per rank here; a point a run
  /// never reaches fails the oracle as "saw 0" crashed ranks.
  static std::vector<Cell> scan_cells(int max_nth) {
    static constexpr fault::CrashSite kSites[] = {
        fault::CrashSite::kSectionEntry,   fault::CrashSite::kBeforeTaskExec,
        fault::CrashSite::kAfterTaskExec,  fault::CrashSite::kBetweenArgSends,
        fault::CrashSite::kSectionExit,
    };
    std::vector<Cell> cells;
    for (const int logical : {2, 4}) cells.push_back({logical, 1, {}});
    for (const int logical : {2, 4})
      for (const int degree : {2, 3})
        for (int rank = 0; rank < logical * degree; ++rank)
          for (const fault::CrashSite site : kSites)
            for (int nth = 1; nth <= max_nth; ++nth) {
              fault::CrashRule rule;
              rule.world_rank = rank;
              rule.site = site;
              rule.nth = nth;
              cells.push_back({logical, degree, rule});
            }
    return cells;
  }

  explicit SweepWorkload(std::vector<Cell> cells) : cells_(std::move(cells)) {
    app_ = [p = params()](apps::AppContext& ctx) {
      return hpccg_outputs(apps::hpccg(ctx, p));
    };
  }

  Inputs inputs() const override {
    const apps::HpccgParams p = params();
    Inputs in;
    for (const int logical : {2, 4})
      add_decomposition(in, kernels::Stencil::k27pt, p.nx, p.ny, p.nz, logical);
    return in;
  }

  void run(Scenario& s, Tracer& tr, int parent, int id) override {
    s.calls.resize(cells_.size());
    // Half the cores: the grid still runs concurrently, and a core stays
    // free for the rest of the host, which would otherwise stretch the
    // makespan of whichever cell it preempts.
    s.workers = std::max(1u, support::TaskPool::default_jobs() / 2);
    const int grid = tr.open("task_pool.grid", parent, id);
    const double t0 = wall_now();
    {
      support::TaskPool pool(s.workers);
      for (std::size_t i = 0; i < cells_.size(); ++i) {
        pool.submit([this, &s, i] {
          const Cell& cell = cells_[i];
          // A fresh plan per run: FaultPlan counts occurrences.
          fault::FaultPlan plan;
          apps::RunConfig cfg = cell_config(cell);
          if (cell.crash) {
            plan.add(*cell.crash);
            cfg.faults = &plan;
          }
          s.calls[i] = timed_run(cell_name(cell), cfg, app_);
        });
      }
      pool.wait();
    }
    s.grid_wall_s = wall_now() - t0;
    tr.close(grid);
    for (const Call& c : s.calls) {
      Span sp;
      sp.name = c.name;
      sp.parent = grid;
      sp.scenario = id;
      sp.start = c.start;
      sp.end = c.start + c.wall_s;
      sp.counters = call_counters(c);
      tr.add(std::move(sp));
    }
  }

  void verify(Scenario& s) override {
    std::map<int, std::vector<double>> native;  // logical -> outputs
    for (std::size_t i = 0; i < cells_.size(); ++i)
      if (cells_[i].degree == 1) native[cells_[i].logical] = s.calls[i].out;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      const Call& c = s.calls[i];
      const std::string key = cell_key(cell);
      if (!c.error.empty()) {
        s.errors.push_back(key + ": " + c.error);
        continue;
      }
      if (c.res.ranks_crashed != (cell.crash ? 1 : 0))
        s.errors.push_back(key + ": expected " +
                           std::to_string(cell.crash ? 1 : 0) +
                           " crashed rank(s), saw " +
                           std::to_string(c.res.ranks_crashed));
      if (bits(c.out) != bits(native[cell.logical]))
        s.errors.push_back(key + ": outputs differ from the native cell");
      check_repeat(key, c, s.errors);
    }
    if (reference_.empty() && s.errors.empty()) reference_ = native[4];
  }

  apps::RunConfig probe_config() const override {
    return cell_config({4, 3, {}});
  }
  const App& probe_app() const override { return app_; }
  std::vector<double> probe_reference() const override { return reference_; }

 private:
  static apps::RunConfig cell_config(const Cell& c) {
    apps::RunConfig cfg;
    cfg.mode = c.degree == 1 ? RunMode::kNative : RunMode::kIntra;
    cfg.num_logical = c.logical;
    cfg.degree = c.degree;
    return cfg;
  }
  static std::string cell_name(const Cell& c) {
    if (c.degree == 1) return "run_app.native";
    return c.crash ? "run_app.crash" : "run_app.intra";
  }
  static std::string cell_key(const Cell& c) {
    char buf[96];
    if (c.crash)
      std::snprintf(buf, sizeof buf, "l%d_d%d_crash_r%d_%s_n%d", c.logical,
                    c.degree, c.crash->world_rank,
                    fault::to_string(c.crash->site), c.crash->nth);
    else std::snprintf(buf, sizeof buf, "l%d_d%d", c.logical, c.degree);
    return buf;
  }

  App app_;
  std::vector<Cell> cells_;
  std::vector<double> reference_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  // The library sees only inputs drawn from the seed: RunConfig::seed, the
  // per-rank streams GTC's particle populations come from. AMG and HPCCG
  // draw nothing from it.
  const std::uint64_t run_seed = support::Rng(seed).next_u64();
  if (name == "amg_gmres") {
    apps::AmgParams p;
    p.stencil = kernels::Stencil::k7pt;
    p.solver = apps::AmgParams::Solver::kGMRES;
    p.nx = p.ny = p.nz = 24;
    p.iterations = 2;
    p.gmres_restart = 10;
    Inputs in;
    for (int l = 0, n = p.nx; l < p.levels; ++l, n /= 2)
      add_decomposition(in, p.stencil, n, n, n, 16);
    return std::make_unique<ThreeModeWorkload>(
        16, run_seed,
        [p](apps::AppContext& ctx) {
          const apps::AmgResult r = apps::amg(ctx, p);
          return std::vector<double>{r.rnorm0, r.rnorm,
                                     static_cast<double>(r.iterations)};
        },
        std::move(in));
  }
  if (name == "hpccg_large") {
    apps::HpccgParams p;
    p.nx = p.ny = 48;
    p.nz = 96;
    p.iterations = 6;
    Inputs in;
    add_decomposition(in, kernels::Stencil::k27pt, p.nx, p.ny, p.nz, 8);
    return std::make_unique<ThreeModeWorkload>(
        8, run_seed,
        [p](apps::AppContext& ctx) { return hpccg_outputs(apps::hpccg(ctx, p)); },
        std::move(in));
  }
  if (name == "gtc_pic") {
    const apps::GtcParams p;
    constexpr int kLogical = 16;
    Inputs in;
    // gtc() draws its population from ctx.rng.fork(17), and the runner
    // seeds ctx.rng as Rng(cfg.seed).fork(logical rank).
    for (int r = 0; r < kLogical; ++r)
      in.particles.push_back({p.particles_per_rank, static_cast<double>(p.grid),
                              static_cast<double>(p.grid),
                              support::Rng(run_seed)
                                  .fork(static_cast<std::uint64_t>(r))
                                  .fork(17)});
    return std::make_unique<ThreeModeWorkload>(
        kLogical, run_seed,
        [p](apps::AppContext& ctx) {
          const apps::GtcResult r = apps::gtc(ctx, p);
          return std::vector<double>{r.kinetic_energy, r.total_charge,
                                     static_cast<double>(r.steps)};
        },
        std::move(in));
  }
  if (name == "sweep_grid")
    return std::make_unique<SweepWorkload>(SweepWorkload::grid_cells());
  return nullptr;
}

// --- Metrics -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-layer values of one traced scenario (sums over its run_app calls).
std::map<std::string, double> layer_values(const Scenario& s) {
  std::map<std::string, double> m;
  sim::SubstrateTotals sub;
  kernels::KernelTotals kern;
  support::ComputeCacheStats cache;
  intra::IntraStats in;
  double run_s = 0, messages = 0, bytes = 0, crashed = 0, job_failed = 0;
  std::map<std::string, double> mode_s;
  std::vector<double> cells;
  for (const Call& c : s.calls) {
    sub += c.sub;
    kern += c.kern;
    cache.hits += c.res.compute_cache.hits;
    cache.misses += c.res.compute_cache.misses;
    cache.bypasses += c.res.compute_cache.bypasses;
    cache.uncached += c.res.compute_cache.uncached;
    cache.shared_bytes += c.res.compute_cache.shared_bytes;
    in.sections += c.res.intra_total.sections;
    in.tasks_executed += c.res.intra_total.tasks_executed;
    in.tasks_received += c.res.intra_total.tasks_received;
    in.tasks_reexecuted += c.res.intra_total.tasks_reexecuted;
    in.update_bytes_sent += c.res.intra_total.update_bytes_sent;
    messages += static_cast<double>(c.res.net_messages);
    bytes += static_cast<double>(c.res.net_bytes);
    crashed += c.res.ranks_crashed;
    job_failed += c.res.job_failed ? 1 : 0;
    run_s += c.wall_s;
    mode_s[c.name] += c.wall_s;
    cells.push_back(c.wall_s);
  }
  const double events = static_cast<double>(sub.events);
  const double kern_s = kernel_total_s(kern);
  m["sim.events"] = events;
  m["sim.fiber_switches"] = static_cast<double>(sub.fiber_switches);
  m["sim.heap_bypass_frac"] = ratio(static_cast<double>(sub.heap_bypass), events);
  m["sim.wakeups_elided"] = static_cast<double>(sub.wakeups_elided);
  m["sim.host_ns_per_event"] = 1e9 * ratio(run_s - kern_s, events);
  m["simmpi.messages"] = messages;
  m["simmpi.bytes"] = bytes;
  m["run_app.native_s"] = mode_s["run_app.native"];
  m["run_app.sdr_s"] = mode_s["run_app.sdr"];
  m["run_app.intra_s"] = mode_s["run_app.intra"];
  m["run_app.crash_s"] = mode_s["run_app.crash"];
  m["run_app.nonkernel_s"] = run_s - kern_s;
  m["replication.sdr_over_native"] =
      ratio(mode_s["run_app.sdr"], mode_s["run_app.native"]);
  m["intra.intra_over_sdr"] =
      ratio(mode_s["run_app.intra"], mode_s["run_app.sdr"]);
  m["intra.sections"] = static_cast<double>(in.sections);
  m["intra.tasks_executed"] = static_cast<double>(in.tasks_executed);
  m["intra.tasks_received"] = static_cast<double>(in.tasks_received);
  m["intra.tasks_reexecuted"] = static_cast<double>(in.tasks_reexecuted);
  m["intra.update_mb"] = 1e-6 * static_cast<double>(in.update_bytes_sent);
  m["compute_cache.hits"] = static_cast<double>(cache.hits);
  m["compute_cache.misses"] = static_cast<double>(cache.misses);
  m["compute_cache.bypasses"] = static_cast<double>(cache.bypasses);
  m["compute_cache.uncached"] = static_cast<double>(cache.uncached);
  m["compute_cache.hit_ratio"] = ratio(static_cast<double>(cache.hits),
                                       static_cast<double>(cache.hits + cache.misses));
  m["compute_cache.shared_mb"] = 1e-6 * static_cast<double>(cache.shared_bytes);
  m["kernels.spmv_s"] = kernel_s(kern, kernels::KernelFamily::kSpmv);
  m["kernels.vector_s"] = kernel_s(kern, kernels::KernelFamily::kVector);
  m["kernels.pic_charge_s"] = kernel_s(kern, kernels::KernelFamily::kPicCharge);
  m["kernels.pic_push_s"] = kernel_s(kern, kernels::KernelFamily::kPicPush);
  // Kernel seconds are summed over pool workers, so on sweep_grid the share
  // of the (parallel) scenario wall can exceed 1.
  m["kernels.share"] = ratio(kern_s, s.wall_s);
  m["fault.ranks_crashed"] = crashed;
  m["fault.job_failed"] = job_failed;
  m["task_pool.cell_s"] = s.workers ? median(cells) : 0.0;
  m["task_pool.speedup"] = s.workers ? ratio(run_s, s.grid_wall_s) : 0.0;
  m["task_pool.busy_frac"] =
      s.workers ? ratio(run_s, s.grid_wall_s * s.workers) : 0.0;
  return m;
}

const char* layer_unit(const std::string& name) {
  static const std::map<std::string, const char*> units = {
      {"sim.heap_bypass_frac", "frac"},  {"sim.host_ns_per_event", "ns"},
      {"simmpi.bytes", "bytes"},         {"replication.sdr_over_native", "ratio"},
      {"intra.intra_over_sdr", "ratio"}, {"intra.update_mb", "MB"},
      {"compute_cache.hit_ratio", "frac"}, {"compute_cache.shared_mb", "MB"},
      {"kernels.share", "frac"},         {"task_pool.speedup", "ratio"},
      {"task_pool.busy_frac", "frac"},   {"trace.attributed_frac", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  if (const auto it = units.find(name); it != units.end()) return it->second;
  if (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0) return "s";
  return "count";
}

// --- Probes (traced run only) -------------------------------------------------

/// A/B of the workload's intra run: `b` minus `a` in host seconds (median
/// over alternating pairs), each run checked against the native outputs.
double probe_ab(Workload& w, Tracer& tr, const char* a_name, const char* b_name,
                const std::function<void(apps::RunConfig&, bool b)>& arm,
                std::vector<std::string>& errors) {
  constexpr int kPairs = 3;
  std::vector<double> a_s, b_s;
  const int root = tr.open(std::string("probe.") + b_name, -1, -1);
  for (int pair = 0; pair < kPairs; ++pair) {
    for (int k = 0; k < 2; ++k) {
      const bool b = (pair % 2 == 0) == (k == 1);
      apps::RunConfig cfg = w.probe_config();
      arm(cfg, b);
      const char* name = b ? b_name : a_name;
      const int sp = tr.open(name, root, -1);
      const Call c = timed_run(name, cfg, w.probe_app());
      tr.close(sp, call_counters(c));
      arm(cfg, false);
      if (!c.error.empty()) errors.push_back(c.error);
      else if (bits(c.out) != bits(w.probe_reference()))
        errors.push_back(std::string(name) + ": outputs differ from native");
      (b ? b_s : a_s).push_back(c.wall_s);
    }
  }
  tr.close(root);
  return median(b_s) - median(a_s);
}

// --- Host fingerprint -----------------------------------------------------------

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_sha = "unknown";
  int crash_scan = 0;  ///< > 0: run the crash scan up to this nth instead
};

std::string host_json(const Args& a) {
  std::ostringstream os;
  os << "{\"cpu\": \"" << json_escape(cpu_model()) << "\", \"nproc\": "
     << support::TaskPool::default_jobs() << ", \"backend\": \""
     << kernels::to_string(kernels::process_default_backend())
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"commit\": \""
     << json_escape(a.commit) << "\", \"source_sha256\": \""
     << json_escape(a.source_sha) << "\", \"workload\": \""
     << json_escape(a.workload) << "\", \"seed\": " << a.seed << "}";
  return os.str();
}

void write_trace(const Args& a, const Tracer& tr,
                 const std::map<std::string, double>& self_s) {
  std::ofstream f(a.trace_out);
  if (!f) throw std::runtime_error("cannot write " + a.trace_out);
  f << "{\"host\": " << host_json(a) << ",\n \"self_s\": {";
  bool first = true;
  for (const auto& [name, s] : self_s) {
    f << (first ? "" : ", ") << "\"" << name << "\": " << num(s);
    first = false;
  }
  f << "},\n \"spans\": [";
  const double t0 = tr.spans().empty() ? 0.0 : tr.spans().front().start;
  for (const Span& s : tr.spans()) {
    f << (s.id ? ",\n  " : "\n  ") << "{\"id\": " << s.id
      << ", \"name\": \"" << s.name << "\", \"parent\": " << s.parent
      << ", \"scenario\": " << s.scenario << ", \"start\": " << num(s.start - t0)
      << ", \"end\": " << num(s.end - t0) << ", \"counters\": {";
    for (std::size_t i = 0; i < s.counters.size(); ++i)
      f << (i ? ", " : "") << "\"" << s.counters[i].first
        << "\": " << num(s.counters[i].second);
    f << "}}";
  }
  f << "\n]}\n";
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0 && a.seconds <= 600)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--commit") a.commit = v;
    else if (k == "--source-sha") a.source_sha = v;
    else if (k == "--crash-scan") {
      a.crash_scan = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (*end != '\0' || !(a.crash_scan >= 1 && a.crash_scan <= 16))
        return false;
    } else return false;
  }
  return argc % 2 == 1 && (!a.workload.empty() || a.crash_scan > 0);
}

/// --crash-scan N: one scenario of every sweep crash point with nth <= N,
/// through the sweep_grid oracle. Prints each point that fails it; exit 1
/// if any does.
int crash_scan(int max_nth) {
  SweepWorkload w(SweepWorkload::scan_cells(max_nth));
  Tracer tr;
  Scenario s;
  w.run(s, tr, -1, 0);
  w.verify(s);
  for (const std::string& e : s.errors)
    std::printf("CRASH POINT FAILURE %s\n", e.c_str());
  std::printf("crash scan: %zu cells, %zu failure(s)\n", s.calls.size(),
              s.errors.size());
  return s.errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--commit C] "
                 "[--source-sha H]\n"
                 "       perfbench_driver --crash-scan MAX_NTH\n");
    return 2;
  }
  if (args.crash_scan > 0) return crash_scan(args.crash_scan);
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s' (amg_gmres, hpccg_large, "
                 "gtc_pic, sweep_grid)\n", args.workload.c_str());
    return 2;
  }
  std::printf("host %s\n", host_json(args).c_str());

  Tracer tr;
  tr.set_enabled(args.trace);
  const SetupTimes setup = run_setup(w->inputs(), tr);

  // Closed loop. Scenario 0 warms the fiber-stack and payload pools and pins
  // the virtual fingerprints; it is verified but not timed. In the traced
  // run untraced and traced scenarios alternate, so the tracing overhead is
  // measured on the same process.
  std::vector<Scenario> done;
  std::vector<std::string> errors;
  int failed = 0;
  const double loop_start = wall_now();
  for (int id = 0;; ++id) {
    const bool timed = id > 0;
    if (timed && wall_now() - loop_start >= args.seconds && done.size() >= 4)
      break;
    tr.set_enabled(args.trace && id % 2 == 1);
    Scenario s;
    s.span = tr.open("scenario", -1, id);
    const double c0 = cpu_now(), t0 = wall_now();
    w->run(s, tr, s.span, id);
    const int vs = tr.open("verify", s.span, id);
    w->verify(s);
    tr.close(vs);
    s.wall_s = wall_now() - t0;
    s.cpu_s = cpu_now() - c0;
    tr.close(s.span);
    if (!s.errors.empty()) {
      ++failed;
      for (const std::string& e : s.errors)
        errors.push_back("scenario " + std::to_string(id) + ": " + e);
    }
    if (timed) done.push_back(std::move(s));
  }
  int attempted = static_cast<int>(done.size()) + 1;

  std::vector<double> plain_wall, plain_cpu, traced_wall;
  std::vector<std::map<std::string, double>> layers;
  std::vector<double> attributed;
  for (const Scenario& s : done) {
    if (s.span < 0) {
      plain_wall.push_back(s.wall_s);
      plain_cpu.push_back(s.cpu_s);
      continue;
    }
    traced_wall.push_back(s.wall_s);
    layers.push_back(layer_values(s));
    double covered = 0;
    for (const Span& c : tr.spans())
      if (c.parent == s.span) covered += c.end - c.start;
    const Span& root = tr.span(s.span);
    attributed.push_back(ratio(covered, root.end - root.start));
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics = {
        {"scenario_s", median(plain_wall), "s"},
        {"scenario_cpu_s", median(plain_cpu), "s"},
        {"setup_s", median(setup.total), "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
    };
    std::printf("scenario_s: median %.4f s, q1 %.4f, q3 %.4f, %zu samples\n",
                median(plain_wall), quantile(plain_wall, 0.25),
                quantile(plain_wall, 0.75), plain_wall.size());
  } else {
    // Each probe is one more attempted scenario of the oracle.
    tr.set_enabled(true);
    const auto probe = [&](const char* b_name, const auto& arm) {
      std::vector<std::string> probe_errors;
      const double saved =
          probe_ab(*w, tr, "run_app.intra", b_name, arm, probe_errors);
      ++attempted;
      if (!probe_errors.empty()) ++failed;
      errors.insert(errors.end(), probe_errors.begin(), probe_errors.end());
      return saved;
    };
    const double saved_cache = probe(
        "run_app.intra.no_shared_compute", [](apps::RunConfig&, bool b) {
          if (b) setenv("REPMPI_NO_SHARED_COMPUTE", "1", 1);
          else unsetenv("REPMPI_NO_SHARED_COMPUTE");
        });
    const double saved_simd =
        probe("run_app.intra.scalar", [](apps::RunConfig& cfg, bool b) {
          cfg.backend = b ? kernels::Backend::kScalar : kernels::Backend::kAuto;
        });

    std::map<std::string, std::vector<double>> by_name;
    for (const auto& m : layers)
      for (const auto& [k, v] : m) by_name[k].push_back(v);
    for (const auto& [k, v] : by_name) metrics.push_back({k, median(v), layer_unit(k)});
    metrics.push_back({"setup.grid_matrix_s", median(setup.matrices), "s"});
    metrics.push_back({"setup.particles_s", median(setup.particles), "s"});
    metrics.push_back({"compute_cache.saved_s", saved_cache, "s"});
    metrics.push_back({"kernels.simd_saved_s", saved_simd, "s"});
    metrics.push_back({"trace.attributed_frac", median(attributed), "frac"});
    metrics.push_back({"trace.overhead_frac",
                       ratio(median(traced_wall), median(plain_wall)) - 1.0,
                       "frac"});

    std::map<std::string, double> self_s;
    for (const Span& s : tr.spans()) self_s[s.name] += tr.self_s(s.id);
    std::printf("span self time (s, summed over the run):\n");
    for (const auto& [name, s] : self_s) std::printf("  %-36s %.4f\n", name.c_str(), s);
    if (!args.trace_out.empty()) write_trace(args, tr, self_s);
  }

  for (const std::string& e : errors) std::printf("ORACLE FAILURE %s\n", e.c_str());
  std::printf("error_rate: %d/%d = %.4f\n", failed, attempted,
              static_cast<double>(failed) / attempted);

  std::string out = "{\"correct\": " + std::string(errors.empty() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  out += "}}";
  std::printf("%s\n", out.c_str());
  return errors.empty() ? 0 : 1;
}
