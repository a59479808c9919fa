// Numeric correctness tests for the computational kernels: vector ops
// against closed forms, the matrix-free grid operators against a literal
// CSR reference (bitwise, every backend, every sub-range), sparsemv
// against a dense reference, stencil properties, and PIC invariants
// (charge conservation, determinism, periodic wrap).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "kernels/backend.hpp"
#include "kernels/pic.hpp"
#include "kernels/sparse.hpp"
#include "kernels/stencil.hpp"
#include "kernels/vector_ops.hpp"
#include "support/rng.hpp"

namespace repmpi::kernels {
namespace {

/// Empty, shorter than one vector register, and odd remainders of 2-, 4- and
/// 8-wide loops: the compiler may vectorize the vector ops.
constexpr std::size_t kEdgeLengths[] = {0, 1, 3, 5, 7, 67};

/// Small dyadic values: every product and sum in the closed forms below is
/// exact, so they must match the kernels exactly.
std::vector<double> ramp(std::size_t n, double step, double shift) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = step * static_cast<double>(i % 11) + shift;
  return v;
}

TEST(VectorOps, Waxpby) {
  std::vector<double> x{1, 2, 3}, y{10, 20, 30}, w(3);
  const auto cost = waxpby(2.0, x, 0.5, y, w);
  EXPECT_DOUBLE_EQ(w[0], 7.0);
  EXPECT_DOUBLE_EQ(w[1], 14.0);
  EXPECT_DOUBLE_EQ(w[2], 21.0);
  EXPECT_DOUBLE_EQ(cost.flops, 6.0);

  const double alpha = 1.5, beta = -0.25;
  for (const std::size_t n : kEdgeLengths) {
    const std::vector<double> xs = ramp(n, 0.5, -2.0);
    const std::vector<double> ys = ramp(n, 3.0, 1.0);
    std::vector<double> ws(n, -7.0);
    waxpby(alpha, xs, beta, ys, ws);
    std::vector<double> aliased = xs;
    waxpby(alpha, aliased, beta, ys, aliased);  // w == x
    for (std::size_t i = 0; i < n; ++i) {
      const double want = alpha * xs[i] + beta * ys[i];
      EXPECT_EQ(ws[i], want) << "n=" << n << " i=" << i;
      EXPECT_EQ(aliased[i], want) << "aliased n=" << n << " i=" << i;
    }
  }
}

TEST(VectorOps, Ddot) {
  std::vector<double> x{1, 2, 3}, y{4, 5, 6};
  double out = 0;
  ddot(x, y, &out);
  EXPECT_DOUBLE_EQ(out, 32.0);

  for (const std::size_t n : kEdgeLengths) {
    const std::vector<double> xs = ramp(n, 0.5, -2.0);
    const std::vector<double> ys = ramp(n, 3.0, 1.0);
    double want = 0.0;
    for (std::size_t i = 0; i < n; ++i) want += xs[i] * ys[i];
    double got = -7.0;
    ddot(xs, ys, &got);
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

TEST(VectorOps, Axpy) {
  std::vector<double> x{1, 1, 1}, y{1, 2, 3};
  axpy(3.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[2], 6.0);

  const double alpha = -0.75;
  for (const std::size_t n : kEdgeLengths) {
    const std::vector<double> xs = ramp(n, 0.5, -2.0);
    const std::vector<double> y0 = ramp(n, 3.0, 1.0);
    std::vector<double> ys = y0;
    axpy(alpha, xs, ys);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(ys[i], y0[i] + alpha * xs[i]) << "n=" << n << " i=" << i;
  }
}

// --- Grid operators against a literal CSR reference ------------------------

/// The operator in literal CSR form: every cell's couplings emitted in
/// stencil order, out-of-domain x/y couplings dropped, z couplings off the
/// local slab redirected into the halo planes when that neighbor exists.
/// The matrix-free operator must reproduce this row for row.
struct RefCsr {
  std::vector<std::int64_t> row_start{0};
  std::vector<std::int64_t> col;
  std::vector<double> val;

  std::int64_t rows() const {
    return static_cast<std::int64_t>(row_start.size()) - 1;
  }
  std::int64_t nnz(std::int64_t r0, std::int64_t r1) const {
    return row_start[static_cast<std::size_t>(r1)] -
           row_start[static_cast<std::size_t>(r0)];
  }
};

RefCsr reference_csr(Stencil stencil, int nx, int ny, int nz, bool has_lower,
                     bool has_upper) {
  RefCsr m;
  const double diag = stencil == Stencil::k27pt ? 27.0 : 7.0;
  const std::int64_t plane = static_cast<std::int64_t>(nx) * ny;
  const std::int64_t halo_bottom = plane * nz;
  const std::int64_t halo_top = halo_bottom + plane;
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        const auto emit = [&](int cx, int cy, int cz, double v) {
          if (cx < 0 || cx >= nx || cy < 0 || cy >= ny) return;
          const std::int64_t in_plane = static_cast<std::int64_t>(cy) * nx + cx;
          if (cz < 0) {
            if (!has_lower) return;
            m.col.push_back(halo_bottom + in_plane);
          } else if (cz >= nz) {
            if (!has_upper) return;
            m.col.push_back(halo_top + in_plane);
          } else {
            m.col.push_back(cz * plane + in_plane);
          }
          m.val.push_back(v);
        };
        if (stencil == Stencil::k27pt) {
          for (int dz = -1; dz <= 1; ++dz)
            for (int dy = -1; dy <= 1; ++dy)
              for (int dx = -1; dx <= 1; ++dx) {
                const bool self = dx == 0 && dy == 0 && dz == 0;
                emit(x + dx, y + dy, z + dz, self ? diag : -1.0);
              }
        } else {
          emit(x, y, z, diag);
          emit(x - 1, y, z, -1.0);
          emit(x + 1, y, z, -1.0);
          emit(x, y - 1, z, -1.0);
          emit(x, y + 1, z, -1.0);
          emit(x, y, z - 1, -1.0);
          emit(x, y, z + 1, -1.0);
        }
        m.row_start.push_back(static_cast<std::int64_t>(m.col.size()));
      }
    }
  }
  return m;
}

/// The general CSR walk: y[r] = Σ_k val[k] * x[col[k]] in entry order.
std::vector<double> reference_spmv(const RefCsr& m,
                                   const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(m.rows()));
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    double s = 0.0;
    for (std::int64_t k = m.row_start[static_cast<std::size_t>(r)];
         k < m.row_start[static_cast<std::size_t>(r) + 1]; ++k) {
      s += m.val[static_cast<std::size_t>(k)] *
           x[static_cast<std::size_t>(m.col[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(r)] = s;
  }
  return y;
}

std::vector<Backend> testable_backends() {
  std::vector<Backend> out{Backend::kScalar};
  if (backend_supported(Backend::kAvx2)) out.push_back(Backend::kAvx2);
  return out;
}

TEST(Sparse, OperatorMatchesLiteralCsrOnEverySmallShape) {
  // Every shape with 1..5 cells per axis covers all four boundary classes
  // per axis (length 1: both faces; 2: low and high only; 3+: interior
  // runs of every length up to 3), both stencils and all neighbor pairs.
  support::Rng rng(0x5eed5eedULL);
  for (const Stencil st : {Stencil::k7pt, Stencil::k27pt}) {
    for (const bool lower : {false, true}) {
      for (const bool upper : {false, true}) {
        for (int nx = 1; nx <= 5; ++nx) {
          for (int ny = 1; ny <= 5; ++ny) {
            for (int nz = 1; nz <= 5; ++nz) {
              const GridOperator a =
                  build_grid_matrix(st, nx, ny, nz, lower, upper);
              const RefCsr ref = reference_csr(st, nx, ny, nz, lower, upper);
              const std::int64_t rows = ref.rows();
              const std::string where =
                  "stencil=" + std::to_string(static_cast<int>(st)) +
                  " lower=" + std::to_string(lower) +
                  " upper=" + std::to_string(upper) + " shape=" +
                  std::to_string(nx) + "x" + std::to_string(ny) + "x" +
                  std::to_string(nz);
              ASSERT_EQ(a.rows(), rows) << where;
              ASSERT_EQ(a.nnz(), ref.nnz(0, rows)) << where;
              std::vector<double> x(a.vector_len());
              for (double& v : x) v = rng.uniform(-2.0, 2.0);
              const std::vector<double> want = reference_spmv(ref, x);

              for (const Backend b : testable_backends()) {
                const ScopedBackend scope(b);
                std::vector<double> y(static_cast<std::size_t>(rows));
                for (std::int64_t r0 = 0; r0 < rows; ++r0) {
                  std::fill(y.begin(), y.end(), -7.0);
                  const net::ComputeCost cost =
                      sparsemv_range(a, x, y, r0, rows);
                  const net::ComputeCost ref_cost =
                      sparsemv_cost(rows - r0, ref.nnz(r0, rows));
                  ASSERT_EQ(a.nnz(r0, rows), ref.nnz(r0, rows))
                      << where << " r0=" << r0;
                  ASSERT_EQ(cost.flops, ref_cost.flops) << where;
                  ASSERT_EQ(cost.mem_bytes, ref_cost.mem_bytes) << where;
                  for (std::int64_t r = r0; r < rows; ++r) {
                    const auto i = static_cast<std::size_t>(r);
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(want[i]),
                              std::bit_cast<std::uint64_t>(y[i]))
                        << where << " backend=" << to_string(b)
                        << " r0=" << r0 << " row=" << r;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(Sparse, InteriorRowHas27Nonzeros) {
  const RefCsr ref = reference_csr(Stencil::k27pt, 5, 5, 5, true, true);
  const GridOperator m = build_grid_matrix(Stencil::k27pt, 5, 5, 5, true, true);
  EXPECT_EQ(ref.rows(), 125);
  EXPECT_EQ(m.rows(), 125);
  // Center row (2,2,2).
  const std::int64_t r = (2 * 5 + 2) * 5 + 2;
  EXPECT_EQ(ref.nnz(r, r + 1), 27);
  EXPECT_EQ(m.nnz(r, r + 1), 27);
}

TEST(Sparse, CornerRowTruncated) {
  // Corner of the global domain (no lower neighbor): 2*2*2 = 8 couplings.
  const RefCsr ref = reference_csr(Stencil::k27pt, 5, 5, 5, false, true);
  const GridOperator m = build_grid_matrix(Stencil::k27pt, 5, 5, 5, false, true);
  EXPECT_EQ(ref.nnz(0, 1), 8);
  EXPECT_EQ(m.nnz(0, 1), 8);
}

TEST(Sparse, SevenPointStructure) {
  const RefCsr ref = reference_csr(Stencil::k7pt, 4, 4, 4, true, true);
  const GridOperator m = build_grid_matrix(Stencil::k7pt, 4, 4, 4, true, true);
  const std::int64_t r = (2 * 4 + 2) * 4 + 2;  // interior row
  EXPECT_EQ(ref.nnz(r, r + 1), 7);
  EXPECT_EQ(m.nnz(r, r + 1), 7);
  EXPECT_EQ(m.diagonal(), 7.0);
}

TEST(Sparse, BoundaryRowsReferenceHalo) {
  const RefCsr ref = reference_csr(Stencil::k7pt, 3, 3, 2, true, true);
  const GridOperator m = build_grid_matrix(Stencil::k7pt, 3, 3, 2, true, true);
  // Row (1,1,0) must reference the bottom halo at index interior + y*nx + x.
  bool found_halo = false;
  const std::int64_t r = (0 * 3 + 1) * 3 + 1;
  for (std::int64_t k = ref.row_start[static_cast<std::size_t>(r)];
       k < ref.row_start[static_cast<std::size_t>(r) + 1]; ++k) {
    const auto c = static_cast<std::size_t>(ref.col[static_cast<std::size_t>(k)]);
    if (c == m.halo_bottom() + 1 * 3 + 1) found_halo = true;
    EXPECT_LT(c, m.vector_len());
  }
  EXPECT_TRUE(found_halo);
}

TEST(Sparse, SpmvMatchesDenseReference) {
  const GridOperator m = build_grid_matrix(Stencil::k27pt, 4, 3, 3, true, false);
  const RefCsr ref = reference_csr(Stencil::k27pt, 4, 3, 3, true, false);
  std::vector<double> x(m.vector_len());
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(static_cast<double>(i) * 0.7);
  std::vector<double> y(static_cast<std::size_t>(m.rows()), 0.0);
  sparsemv(m, x, y);

  const std::vector<double> want = reference_spmv(ref, x);
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(y[r]),
              std::bit_cast<std::uint64_t>(want[r]))
        << "row " << r;
  }
}

TEST(Sparse, SpmvRangeEqualsFull) {
  const GridOperator m = build_grid_matrix(Stencil::k27pt, 4, 4, 4, true, true);
  std::vector<double> x(m.vector_len(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.01 * i;
  std::vector<double> full(static_cast<std::size_t>(m.rows()));
  std::vector<double> ranged(static_cast<std::size_t>(m.rows()));
  sparsemv(m, x, full);
  sparsemv_range(m, x, ranged, 0, m.rows() / 2);
  sparsemv_range(m, x, ranged, m.rows() / 2, m.rows());
  EXPECT_EQ(full, ranged);
}

TEST(Sparse, DiagonalDominance) {
  const RefCsr ref = reference_csr(Stencil::k27pt, 4, 4, 4, true, true);
  const GridOperator m = build_grid_matrix(Stencil::k27pt, 4, 4, 4, true, true);
  for (std::int64_t r = 0; r < ref.rows(); ++r) {
    double diag = 0, offsum = 0;
    for (std::int64_t k = ref.row_start[static_cast<std::size_t>(r)];
         k < ref.row_start[static_cast<std::size_t>(r) + 1]; ++k) {
      const double v = ref.val[static_cast<std::size_t>(k)];
      if (v > 0) diag = v;
      else offsum += -v;
    }
    EXPECT_EQ(diag, m.diagonal());
    EXPECT_GT(diag, offsum);  // strictly dominant: boundary rows drop -1s
  }
}

TEST(Stencil, ConstantFieldIsFixedPoint) {
  Grid3D in(4, 4, 4), out(4, 4, 4);
  for (double& v : in.data) v = 3.5;  // including halos
  stencil27(in, out);
  for (int z = 0; z < 4; ++z)
    for (int y = 0; y < 4; ++y)
      for (int x = 0; x < 4; ++x) EXPECT_DOUBLE_EQ(out.at(x, y, z), 3.5);
}

TEST(Stencil, AverageSmoothsPeak) {
  Grid3D in(5, 5, 5), out(5, 5, 5);
  in.at(2, 2, 2) = 27.0;
  stencil27(in, out);
  EXPECT_DOUBLE_EQ(out.at(2, 2, 2), 1.0);
  EXPECT_DOUBLE_EQ(out.at(1, 2, 2), 1.0);
  EXPECT_DOUBLE_EQ(out.at(0, 0, 0), 0.0);
}

TEST(Stencil, GridSumRangeAdds) {
  Grid3D g(3, 3, 4);
  for (int z = 0; z < 4; ++z)
    for (int y = 0; y < 3; ++y)
      for (int x = 0; x < 3; ++x) g.at(x, y, z) = 1.0 + z;
  double total = 0, lower = 0, upper = 0;
  grid_sum_range(g, 0, 4, &total);
  grid_sum_range(g, 0, 2, &lower);
  grid_sum_range(g, 2, 4, &upper);
  EXPECT_DOUBLE_EQ(total, 9.0 * (1 + 2 + 3 + 4));
  EXPECT_DOUBLE_EQ(lower + upper, total);
}

TEST(Pic, InitIsDeterministic) {
  Particles a, b;
  init_particles(a, 1000, 16.0, 16.0, support::Rng(42));
  init_particles(b, 1000, 16.0, 16.0, support::Rng(42));
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.vy, b.vy);
  for (std::size_t i = 0; i < a.count(); ++i) {
    EXPECT_GE(a.x[i], 0.0);
    EXPECT_LT(a.x[i], 16.0);
  }
}

TEST(Pic, ChargeDepositionConservesCharge) {
  Particles p;
  init_particles(p, 500, 8.0, 8.0, support::Rng(7));
  Field2D grid(8, 8);
  charge_deposit(p, 0, p.count(), 8.0, 8.0, grid);
  const double total =
      std::accumulate(grid.v.begin(), grid.v.end(), 0.0);
  // 4 ring points x 0.25 weight = 1 unit of charge per particle.
  EXPECT_NEAR(total, 500.0, 1e-9);
}

TEST(Pic, ChargeDepositRangesCompose) {
  Particles p;
  init_particles(p, 400, 8.0, 8.0, support::Rng(9));
  Field2D whole(8, 8), a(8, 8), b(8, 8);
  charge_deposit(p, 0, 400, 8.0, 8.0, whole);
  charge_deposit(p, 0, 200, 8.0, 8.0, a);
  charge_deposit(p, 200, 400, 8.0, 8.0, b);
  for (std::size_t i = 0; i < whole.v.size(); ++i)
    EXPECT_NEAR(whole.v[i], a.v[i] + b.v[i], 1e-9);
}

TEST(Pic, PushKeepsParticlesInDomain) {
  Particles p;
  init_particles(p, 300, 8.0, 8.0, support::Rng(5));
  Field2D charge(8, 8), ex(8, 8), ey(8, 8);
  charge_deposit(p, 0, p.count(), 8.0, 8.0, charge);
  field_solve(charge, ex, ey);
  for (int step = 0; step < 10; ++step)
    push(p.x, p.y, p.vx, p.vy, p.rho, 8.0, 8.0, 0.2, ex, ey);
  for (std::size_t i = 0; i < p.count(); ++i) {
    EXPECT_GE(p.x[i], 0.0);
    EXPECT_LT(p.x[i], 8.0);
    EXPECT_GE(p.y[i], 0.0);
    EXPECT_LT(p.y[i], 8.0);
  }
}

TEST(Pic, PushIsDeterministic) {
  auto run = [] {
    Particles p;
    init_particles(p, 200, 8.0, 8.0, support::Rng(3));
    Field2D charge(8, 8), ex(8, 8), ey(8, 8);
    charge_deposit(p, 0, p.count(), 8.0, 8.0, charge);
    field_solve(charge, ex, ey);
    push(p.x, p.y, p.vx, p.vy, p.rho, 8.0, 8.0, 0.1, ex, ey);
    return p.x;
  };
  EXPECT_EQ(run(), run());
}

TEST(Pic, FieldSolveProducesOpposingGradients) {
  // field_solve computes E = grad(phi) of the smoothed blob: the gradient
  // points *toward* the peak, so it flips sign across the blob.
  Field2D charge(16, 16), ex(16, 16), ey(16, 16);
  charge.at(8, 8) = 10.0;
  field_solve(charge, ex, ey);
  EXPECT_LT(ex.at(9, 8), 0.0);
  EXPECT_GT(ex.at(7, 8), 0.0);
  EXPECT_LT(ey.at(8, 9), 0.0);
  EXPECT_GT(ey.at(8, 7), 0.0);
}

TEST(Costs, KernelCostConstantsAreConsistent) {
  // sparsemv per output byte must be much more expensive than waxpby per
  // output byte (the Fig. 5a argument), and ddot's output is O(1).
  const auto wax = waxpby_cost(1000);
  const auto dot = ddot_cost(1000);
  const auto smv = sparsemv_cost(1000, 27000);
  EXPECT_GT(smv.flops, 20.0 * wax.flops);
  EXPECT_GT(smv.mem_bytes, 10.0 * wax.mem_bytes);
  EXPECT_DOUBLE_EQ(dot.flops, wax.flops);
}

}  // namespace
}  // namespace repmpi::kernels
