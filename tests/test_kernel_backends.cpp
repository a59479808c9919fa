// Pluggable kernel backends (kernels/backend.hpp): runtime dispatch
// mechanics, bitwise scalar-vs-AVX2 equivalence for every dispatched kernel
// family (SpMV row gather, stencil, PIC) on randomized and edge-shaped
// inputs, the REPMPI_VERIFY_BACKEND recompute-and-compare mode across all
// four apps, and backend-agnosticism of the end-to-end virtual-time results
// (including ComputeCache sharing and a run's backend install on a fresh
// thread).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "apps/amg.hpp"
#include "apps/gtc.hpp"
#include "apps/hpccg.hpp"
#include "apps/minighost.hpp"
#include "apps/runner.hpp"
#include "kernels/backend.hpp"
#include "kernels/pic.hpp"
#include "kernels/sparse.hpp"
#include "kernels/stencil.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace repmpi {
namespace {

using kernels::Backend;

/// The SIMD backends this build + host can actually execute (none on a
/// scalar-only toolchain or CPU — the bitwise tests then trivially pass).
std::vector<Backend> simd_backends() {
  std::vector<Backend> out;
  if (kernels::backend_supported(Backend::kAvx2)) out.push_back(Backend::kAvx2);
  return out;
}

void expect_bits_eq(std::span<const double> want, std::span<const double> got,
                    const char* what, Backend b) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(want[i]),
              std::bit_cast<std::uint64_t>(got[i]))
        << what << " backend=" << kernels::to_string(b) << " i=" << i
        << " want=" << want[i] << " got=" << got[i];
  }
}

// ---------------------------------------------------------------------------
// Dispatch mechanics
// ---------------------------------------------------------------------------

TEST(BackendDispatch, NameRoundTrip) {
  for (Backend b : {Backend::kAuto, Backend::kScalar, Backend::kAvx2}) {
    Backend parsed;
    ASSERT_TRUE(kernels::backend_from_string(kernels::to_string(b), &parsed));
    EXPECT_EQ(parsed, b);
  }
  Backend parsed;
  EXPECT_FALSE(kernels::backend_from_string("", &parsed));
  EXPECT_FALSE(kernels::backend_from_string("bogus", &parsed));
  EXPECT_FALSE(kernels::backend_from_string("AVX2", &parsed));  // case matters
  EXPECT_FALSE(kernels::backend_from_string("avx512", &parsed));  // removed
}

TEST(BackendDispatch, ScalarAlwaysThereAndDetectIsSupported) {
  EXPECT_TRUE(kernels::backend_compiled(Backend::kScalar));
  EXPECT_TRUE(kernels::backend_supported(Backend::kScalar));
  EXPECT_TRUE(kernels::backend_supported(Backend::kAuto));
  const Backend best = kernels::detect_backend();
  EXPECT_NE(best, Backend::kAuto);
  EXPECT_TRUE(kernels::backend_supported(best));
  // A supported backend implies its code is compiled into this binary.
  for (Backend b : simd_backends()) EXPECT_TRUE(kernels::backend_compiled(b));
}

TEST(BackendDispatch, ScopedBackendInstallsAndRestores) {
  const Backend outer = kernels::active_backend();
  {
    const kernels::ScopedBackend scalar(Backend::kScalar);
    EXPECT_EQ(kernels::active_backend(), Backend::kScalar);
    EXPECT_EQ(kernels::active_ops().kind, Backend::kScalar);
    for (Backend b : simd_backends()) {
      const kernels::ScopedBackend simd(b);
      EXPECT_EQ(kernels::active_backend(), b);
      EXPECT_EQ(kernels::active_ops().kind, b);
    }
    EXPECT_EQ(kernels::active_backend(), Backend::kScalar);
  }
  EXPECT_EQ(kernels::active_backend(), outer);
  // kAuto resolves to the process default rather than installing "auto".
  const kernels::ScopedBackend aut(Backend::kAuto);
  EXPECT_EQ(kernels::active_backend(), kernels::process_default_backend());
}

TEST(BackendDispatch, ProcessDefaultGovernsThreadsWithoutScopes) {
  kernels::set_process_default_backend(Backend::kScalar);
  Backend seen = Backend::kAuto;
  std::thread([&seen] { seen = kernels::active_backend(); }).join();
  EXPECT_EQ(seen, Backend::kScalar);
  kernels::set_process_default_backend(Backend::kAuto);  // re-arm detection
  EXPECT_EQ(kernels::process_default_backend(), kernels::detect_backend());
}

TEST(BackendDispatch, OpsTableKindMatchesRequest) {
  EXPECT_EQ(kernels::backend_ops(Backend::kScalar).kind, Backend::kScalar);
  for (Backend b : simd_backends()) {
    EXPECT_EQ(kernels::backend_ops(b).kind, b);
  }
}

// ---------------------------------------------------------------------------
// Bitwise scalar-vs-SIMD equivalence, kernel family by kernel family. All
// calls go through the public kernel entry points under a ScopedBackend, so
// the dispatch seam itself is on the tested path.
// ---------------------------------------------------------------------------

TEST(BackendBitwise, CsrRowGatherStructured) {
  support::Rng rng(0x5eedULL);
  struct Shape {
    int nx, ny, nz;
  };
  // 5x4x6 has interior runs long enough for full vectors plus tails; 3x3x3
  // is all boundary classes; 4x3x3 gives 2-wide interior runs (pure tail).
  const Shape shapes[] = {{5, 4, 6}, {3, 3, 3}, {4, 3, 3}};
  for (Backend b : simd_backends()) {
    for (const kernels::Stencil st :
         {kernels::Stencil::k7pt, kernels::Stencil::k27pt}) {
      for (const bool lower : {false, true}) {
        for (const bool upper : {false, true}) {
          for (const Shape& s : shapes) {
            const kernels::GridOperator a =
                kernels::build_grid_matrix(st, s.nx, s.ny, s.nz, lower, upper);
            std::vector<double> x(a.vector_len());
            for (double& v : x) v = rng.uniform(-2.0, 2.0);
            x[0] = 1e-310;

            std::vector<double> want(static_cast<std::size_t>(a.rows()));
            std::vector<double> got(want.size(), -7.0);
            {
              const kernels::ScopedBackend scope(Backend::kScalar);
              kernels::row_gather(a, x, want, 0, a.rows());
            }
            {
              const kernels::ScopedBackend scope(b);
              kernels::row_gather(a, x, got, 0, a.rows());
              // Sub-range starting at an odd row: the SIMD run boundary
              // lands mid-plane.
              const std::int64_t r0 = a.rows() / 3 | 1;
              std::vector<double> part(static_cast<std::size_t>(a.rows() - r0));
              kernels::row_gather(a, x, part, r0, a.rows());
              for (std::size_t i = 0; i < part.size(); ++i) {
                ASSERT_EQ(std::bit_cast<std::uint64_t>(
                              want[static_cast<std::size_t>(r0) + i]),
                          std::bit_cast<std::uint64_t>(part[i]))
                    << "sub-range backend=" << kernels::to_string(b);
              }
            }
            expect_bits_eq(want, got, "row_gather", b);
          }
        }
      }
    }
  }
}

TEST(BackendBitwise, Stencil27) {
  support::Rng rng(0x27272727ULL);
  struct Shape {
    int nx, ny, nz;
  };
  // 9x5x4 exercises full vectors + tails per row; 3x3x3 is minimum-interior;
  // 2x3x3 has no interior columns at all (pure edge fallback).
  const Shape shapes[] = {{9, 5, 4}, {3, 3, 3}, {2, 3, 3}};
  for (Backend b : simd_backends()) {
    for (const Shape& s : shapes) {
      kernels::Grid3D in(s.nx, s.ny, s.nz);
      for (double& v : in.data) v = rng.uniform(-1.0, 1.0);
      in.data[0] = 1e-310;

      kernels::Grid3D want(s.nx, s.ny, s.nz), got(s.nx, s.ny, s.nz);
      {
        const kernels::ScopedBackend scope(Backend::kScalar);
        kernels::stencil27(in, want);
      }
      {
        const kernels::ScopedBackend scope(b);
        // Split into ranges so the z-range entry point is covered too.
        kernels::stencil27_range(in, got, 0, s.nz / 2 + 1);
        kernels::stencil27_range(in, got, s.nz / 2 + 1, s.nz);
      }
      expect_bits_eq(want.data, got.data, "stencil27", b);
    }
  }
}

/// 257 particles (tail after 4- and 8-wide blocks), with positions pushed
/// far outside the domain, landing exactly on the boundary, and denormal
/// velocities — the inputs that force the SIMD wrap's libm-fmod fallback
/// lanes and the axis classification edge cases.
kernels::Particles edge_particles(double lx, double ly) {
  kernels::Particles p;
  kernels::init_particles(p, 257, lx, ly, support::Rng(0x9191ULL));
  p.x[3] = 5.0 * lx;
  p.y[3] = -3.7 * ly;
  p.x[7] = lx;  // wraps to exactly 0
  p.y[7] = ly;
  p.x[101] = -1e-310;  // negative denormal position
  p.vx[11] = 1e-310;
  p.vy[11] = -4e-311;
  return p;
}

TEST(BackendBitwise, PicChargeDeposit) {
  const double lx = 13.0, ly = 9.0;
  const kernels::Particles p = edge_particles(lx, ly);
  for (Backend b : simd_backends()) {
    kernels::Field2D want(16, 12), got(16, 12);
    {
      const kernels::ScopedBackend scope(Backend::kScalar);
      kernels::charge_deposit(p, 0, p.count(), lx, ly, want);
    }
    {
      const kernels::ScopedBackend scope(b);
      kernels::charge_deposit(p, 0, p.count(), lx, ly, got);
      // Sub-range deposits accumulate identically too (odd split point).
      kernels::Field2D split(16, 12);
      kernels::charge_deposit(p, 0, 129, lx, ly, split);
      kernels::charge_deposit(p, 129, p.count(), lx, ly, split);
      expect_bits_eq(want.v, split.v, "charge_deposit split", b);
    }
    expect_bits_eq(want.v, got.v, "charge_deposit", b);
  }
}

TEST(BackendBitwise, PicPushMultiStep) {
  const double lx = 13.0, ly = 9.0;
  support::Rng rng(0x7777ULL);
  kernels::Field2D ex(16, 12), ey(16, 12);
  for (double& v : ex.v) v = rng.uniform(-0.5, 0.5);
  for (double& v : ey.v) v = rng.uniform(-0.5, 0.5);

  for (Backend b : simd_backends()) {
    kernels::Particles want = edge_particles(lx, ly);
    kernels::Particles got = want;
    // Several steps so divergence anywhere would compound and be caught.
    for (int step = 0; step < 3; ++step) {
      {
        const kernels::ScopedBackend scope(Backend::kScalar);
        kernels::push(want.x, want.y, want.vx, want.vy, want.rho, lx, ly,
                      0.05, ex, ey);
      }
      {
        const kernels::ScopedBackend scope(b);
        kernels::push(got.x, got.y, got.vx, got.vy, got.rho, lx, ly, 0.05, ex,
                      ey);
      }
      expect_bits_eq(want.x, got.x, "push.x", b);
      expect_bits_eq(want.y, got.y, "push.y", b);
      expect_bits_eq(want.vx, got.vx, "push.vx", b);
      expect_bits_eq(want.vy, got.vy, "push.vy", b);
    }
  }
}

// ---------------------------------------------------------------------------
// Recompute-and-compare mode
// ---------------------------------------------------------------------------

TEST(BackendVerifyMode, MismatchAborts) {
  const double want[] = {1.0, 2.0, 3.0};
  const double same[] = {1.0, 2.0, 3.0};
  EXPECT_NO_THROW(kernels::verify_backend_match("k", same, want, 3));
  const double off_by_one_ulp[] = {
      1.0, std::bit_cast<double>(std::bit_cast<std::uint64_t>(2.0) + 1), 3.0};
  EXPECT_THROW(kernels::verify_backend_match("k", off_by_one_ulp, want, 3),
               support::InvariantError);
  // -0.0 vs +0.0 compare equal as doubles but differ bitwise: must abort.
  const double neg_zero[] = {-0.0};
  const double pos_zero[] = {0.0};
  EXPECT_THROW(kernels::verify_backend_match("k", neg_zero, pos_zero, 1),
               support::InvariantError);
}

/// RAII for set_verify_backend (restores the env-resolved default).
class ScopedVerifyBackend {
 public:
  ScopedVerifyBackend() { kernels::set_verify_backend(true); }
  ~ScopedVerifyBackend() { kernels::set_verify_backend(false); }
};

TEST(BackendVerifyMode, AllFourAppsPassRecomputeAndCompare) {
  // Every kernel dispatched on the best SIMD backend is recomputed through
  // the scalar reference and compared bit for bit, across all four apps at
  // degrees 2 and 3 (same configurations as SharedComputeVerifyMode, so the
  // ComputeCache sharing paths are live under verification as well).
  ScopedVerifyBackend verify;
  ASSERT_TRUE(kernels::verify_backend_active());
  for (const int degree : {2, 3}) {
    apps::RunConfig cfg;
    cfg.mode = apps::RunMode::kReplicated;
    cfg.num_logical = 2;
    cfg.degree = degree;
    cfg.backend = kernels::detect_backend();

    apps::HpccgParams hp;
    hp.nx = hp.ny = hp.nz = 8;
    hp.iterations = 2;
    apps::run_app(cfg, [&](apps::AppContext& ctx) { apps::hpccg(ctx, hp); });

    apps::MiniGhostParams mp;
    mp.nx = mp.ny = mp.nz = 8;
    mp.steps = 2;
    mp.num_vars = 2;
    apps::run_app(cfg,
                  [&](apps::AppContext& ctx) { apps::minighost(ctx, mp); });

    apps::GtcParams gp;
    gp.grid = 16;
    gp.particles_per_rank = 500;
    gp.steps = 2;
    apps::run_app(cfg, [&](apps::AppContext& ctx) { apps::gtc(ctx, gp); });

    apps::AmgParams ap;
    ap.nx = ap.ny = ap.nz = 8;
    ap.levels = 2;
    ap.iterations = 2;
    ap.coarse_smooth = 2;
    apps::run_app(cfg, [&](apps::AppContext& ctx) { apps::amg(ctx, ap); });
  }
  // Intra-parallelized path too: task-split sub-ranges verify as well.
  apps::RunConfig intra;
  intra.mode = apps::RunMode::kIntra;
  intra.num_logical = 2;
  intra.degree = 2;
  intra.backend = kernels::detect_backend();
  apps::HpccgParams hp;
  hp.nx = hp.ny = hp.nz = 8;
  hp.iterations = 2;
  apps::run_app(intra, [&](apps::AppContext& ctx) { apps::hpccg(ctx, hp); });
}

// ---------------------------------------------------------------------------
// End to end: the backend never changes a virtual-time number.
// ---------------------------------------------------------------------------

struct AppOutcome {
  apps::RunResult run;
  double value = 0;
  Backend active = Backend::kAuto;  ///< backend the rank mains ran under
};

AppOutcome run_hpccg(Backend backend) {
  apps::RunConfig cfg;
  cfg.mode = apps::RunMode::kIntra;
  cfg.num_logical = 2;
  cfg.degree = 2;
  cfg.backend = backend;
  apps::HpccgParams p;
  p.nx = p.ny = p.nz = 8;
  p.iterations = 3;
  AppOutcome out;
  out.run = apps::run_app(cfg, [&](apps::AppContext& ctx) {
    out.active = kernels::active_backend();
    const apps::HpccgResult r = apps::hpccg(ctx, p);
    out.value = r.xsum + r.rnorm;
  });
  return out;
}

void expect_same_outcome(const AppOutcome& a, const AppOutcome& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.run.wallclock),
            std::bit_cast<std::uint64_t>(b.run.wallclock));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value),
            std::bit_cast<std::uint64_t>(b.value));
  EXPECT_EQ(a.run.net_messages, b.run.net_messages);
  EXPECT_EQ(a.run.net_bytes, b.run.net_bytes);
  EXPECT_EQ(a.run.intra_total.tasks_executed, b.run.intra_total.tasks_executed);
}

TEST(BackendEndToEnd, ComputeCacheSharingBitIdenticalAcrossBackends) {
  const std::vector<Backend> simd = simd_backends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD backend on this build/host";
  const AppOutcome scalar = run_hpccg(Backend::kScalar);
  EXPECT_GT(scalar.run.compute_cache.hits, 0u) << "sharing inactive?";
  for (Backend b : simd) {
    const AppOutcome vec = run_hpccg(b);
    expect_same_outcome(scalar, vec);
    // Identical kernel output bytes hash to identical cache traffic.
    EXPECT_EQ(scalar.run.compute_cache.hits, vec.run.compute_cache.hits);
    EXPECT_EQ(scalar.run.compute_cache.shared_bytes,
              vec.run.compute_cache.shared_bytes);
  }
}

TEST(BackendEndToEnd, FreshThreadInstallsTheRunBackend) {
  const std::vector<Backend> simd = simd_backends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD backend on this build/host";
  // A sweep pool cell runs its simulation on a worker thread that never
  // set a backend: cfg.backend must still reach the rank fibers there, and
  // results must match the scalar run on the main thread.
  const AppOutcome scalar = run_hpccg(Backend::kScalar);
  AppOutcome vec;
  std::thread cell([&vec, b = simd.back()] { vec = run_hpccg(b); });
  cell.join();
  EXPECT_EQ(scalar.active, Backend::kScalar);
  EXPECT_EQ(vec.active, simd.back());
  expect_same_outcome(scalar, vec);
}

}  // namespace
}  // namespace repmpi
