#include "kernels/sparse.hpp"

#include <algorithm>
#include <array>
#include <tuple>
#include <vector>

#include "kernels/backend.hpp"
#include "kernels/backend_detail.hpp"
#include "support/compute_cache.hpp"
#include "support/error.hpp"

namespace repmpi::kernels {

namespace {

/// Boundary class of index i on an axis of length n (see StencilTables).
int axis_class(std::int64_t i, std::int64_t n) {
  return n == 1 ? 3 : i == 0 ? 0 : i == n - 1 ? 2 : 1;
}

/// How many of the indices [0, k) of an axis of length n fall in each class.
std::array<std::int64_t, 4> class_counts(std::int64_t n, std::int64_t k) {
  if (n == 1) return {0, 0, 0, k};
  const std::int64_t low = std::min<std::int64_t>(k, 1);
  const std::int64_t high = k == n ? 1 : 0;
  return {low, k - low - high, high, 0};
}

/// Fills m.tables from m's shape, stencil and neighbour flags.
void build_stencil_tables(GridOperator& m) {
  const std::int64_t nx = m.nx;
  const std::int64_t plane = static_cast<std::int64_t>(m.plane());
  const std::int64_t rows = m.rows();
  const double diag = m.diagonal();

  struct Pt {
    int dx, dy, dz;
  };
  Pt pts[27];
  int npts = 0;
  if (m.stencil == Stencil::k27pt) {
    for (int dz = -1; dz <= 1; ++dz)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx) pts[npts++] = {dx, dy, dz};
  } else {
    pts[npts++] = {0, 0, 0};
    pts[npts++] = {-1, 0, 0};
    pts[npts++] = {+1, 0, 0};
    pts[npts++] = {0, -1, 0};
    pts[npts++] = {0, +1, 0};
    pts[npts++] = {0, 0, -1};
    pts[npts++] = {0, 0, +1};
  }

  const auto low = [](int c) { return c == 0 || c == 3; };
  const auto high = [](int c) { return c == 2 || c == 3; };
  for (int zc = 0; zc < 4; ++zc) {
    for (int yc = 0; yc < 4; ++yc) {
      for (int xc = 0; xc < 4; ++xc) {
        StencilTables::Table& t = m.tables.t[zc][yc][xc];
        for (int j = 0; j < npts; ++j) {
          const auto [dx, dy, dz] = pts[j];
          if ((low(xc) && dx < 0) || (high(xc) && dx > 0)) continue;
          if ((low(yc) && dy < 0) || (high(yc) && dy > 0)) continue;
          std::int64_t zoff;
          if (dz < 0 && low(zc)) {
            if (!m.has_lower) continue;
            zoff = rows;  // bottom halo plane
          } else if (dz > 0 && high(zc)) {
            if (!m.has_upper) continue;
            zoff = 2 * plane;  // top halo plane
          } else {
            zoff = dz * plane;
          }
          t.off[t.npts] = zoff + dy * nx + dx;
          t.w[t.npts] = (dx == 0 && dy == 0 && dz == 0) ? diag : -1.0;
          ++t.npts;
        }
      }
    }
  }
}

}  // namespace

std::int64_t GridOperator::nnz_before(std::int64_t r) const {
  // Each prefix of the row order is whole planes, then whole x-lines of
  // one plane, then a prefix of one x-line; count the rows of each class
  // in every part and weight them by the class's point count.
  const auto line = [this](int zc, int yc, std::int64_t k) {
    const auto cx = class_counts(nx, k);
    std::int64_t s = 0;
    for (int xc = 0; xc < 4; ++xc) s += cx[xc] * tables.t[zc][yc][xc].npts;
    return s;
  };
  const auto lines = [&](int zc, std::int64_t k) {
    const auto cy = class_counts(ny, k);
    std::int64_t s = 0;
    for (int yc = 0; yc < 4; ++yc) s += cy[yc] * line(zc, yc, nx);
    return s;
  };
  const std::int64_t p = static_cast<std::int64_t>(plane());
  const std::int64_t z = r / p;
  const std::int64_t rem = r - z * p;
  const std::int64_t y = rem / nx;
  const auto cz = class_counts(nz, z);
  std::int64_t s = 0;
  for (int zc = 0; zc < 4; ++zc) s += cz[zc] * lines(zc, ny);
  if (z < nz) {
    const int zc = axis_class(z, nz);
    s += lines(zc, y) + line(zc, axis_class(y, ny), rem - y * nx);
  }
  return s;
}

std::int64_t GridOperator::nnz(std::int64_t r0, std::int64_t r1) const {
  REPMPI_CHECK(r0 >= 0 && r1 <= rows() && r0 <= r1);
  return nnz_before(r1) - nnz_before(r0);
}

GridOperator build_grid_matrix(Stencil stencil, int nx, int ny, int nz,
                               bool has_lower, bool has_upper) {
  REPMPI_CHECK(nx > 0 && ny > 0 && nz > 0);
  GridOperator m;
  m.nx = nx;
  m.ny = ny;
  m.nz = nz;
  m.has_lower = has_lower;
  m.has_upper = has_upper;
  m.stencil = stencil;
  build_stencil_tables(m);
  m.total_nnz = m.nnz(0, m.rows());
  return m;
}

std::shared_ptr<const GridOperator> grid_matrix_cached(Stencil stencil,
                                                       int nx, int ny, int nz,
                                                       bool has_lower,
                                                       bool has_upper) {
  using Key = std::tuple<int, int, int, int, bool, bool>;
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::size_t h = std::hash<int>{}(std::get<0>(k));
      h = support::hash_combine(h, std::hash<int>{}(std::get<1>(k)));
      h = support::hash_combine(h, std::hash<int>{}(std::get<2>(k)));
      h = support::hash_combine(h, std::hash<int>{}(std::get<3>(k)));
      h = support::hash_combine(h, std::hash<bool>{}(std::get<4>(k)));
      return support::hash_combine(h, std::hash<bool>{}(std::get<5>(k)));
    }
  };
  static support::FifoMemo<Key, GridOperator, KeyHash> memo(12);

  return memo.get_or_build(
      Key{static_cast<int>(stencil), nx, ny, nz, has_lower, has_upper}, [&] {
        return std::make_shared<const GridOperator>(
            build_grid_matrix(stencil, nx, ny, nz, has_lower, has_upper));
      });
}

namespace {

/// Rows [r0, r1) on a given backend. Interior runs of each x-line go
/// through ops.gather_table (the backend's batched unit); single boundary
/// cells stay common scalar code in every backend.
void gather_impl(const GridOperator& a, const double* xp, double* out,
                 std::int64_t r0, std::int64_t r1, const BackendOps& ops) {
  const std::int64_t nx = a.nx, ny = a.ny, nz = a.nz;
  const std::int64_t plane = nx * ny;
  // Single edge cells run inline (a function call per boundary row would
  // dominate on small/coarse grids).
  const auto one_row = [xp, out, r0](std::int64_t rr,
                                     const StencilTables::Table& t) {
    out[rr - r0] = detail::gather_one_row(xp, rr, t);
  };
  std::int64_t r = r0;
  while (r < r1) {
    const std::int64_t z = r / plane;
    const std::int64_t rem = r - z * plane;
    const std::int64_t yy = rem / nx;
    const std::int64_t xx = rem - yy * nx;
    const auto& row_tabs =
        a.tables.t[axis_class(z, nz)][axis_class(yy, ny)];
    if (nx == 1) {
      one_row(r, row_tabs[3]);
      ++r;
      continue;
    }
    const std::int64_t row_base = r - xx;
    const std::int64_t row_end = std::min(r1, row_base + nx);
    if (xx == 0) {
      one_row(r, row_tabs[0]);
      ++r;
    }
    const std::int64_t mid_end = std::min(row_end, row_base + nx - 1);
    if (r < mid_end) {
      ops.gather_table(xp, out + (r - r0), r, mid_end, row_tabs[1]);
      r = mid_end;
    }
    if (r < row_end) {
      one_row(r, row_tabs[2]);
      r = row_end;
    }
  }
}

}  // namespace

void row_gather(const GridOperator& a, std::span<const double> x,
                std::span<double> acc, std::int64_t r0, std::int64_t r1) {
  REPMPI_CHECK(r0 >= 0 && r1 <= a.rows() && r0 <= r1);
  REPMPI_CHECK(acc.size() >= static_cast<std::size_t>(r1 - r0));
  REPMPI_CHECK(x.size() >= a.vector_len());  // halo strides read past rows
  const KernelTimer timer(KernelFamily::kSpmv);
  const BackendOps& ops = active_ops();
  gather_impl(a, x.data(), acc.data(), r0, r1, ops);
  if (ops.kind != Backend::kScalar && verify_backend_active()) {
    std::vector<double> want(static_cast<std::size_t>(r1 - r0));
    gather_impl(a, x.data(), want.data(), r0, r1,
                backend_ops(Backend::kScalar));
    verify_backend_match("row_gather", acc.data(), want.data(), want.size());
  }
}

net::ComputeCost sparsemv_range(const GridOperator& a,
                                std::span<const double> x, std::span<double> y,
                                std::int64_t r0, std::int64_t r1) {
  REPMPI_CHECK(r0 >= 0 && r1 <= a.rows() && r0 <= r1);
  row_gather(a, x,
             y.subspan(static_cast<std::size_t>(r0),
                       static_cast<std::size_t>(r1 - r0)),
             r0, r1);
  return sparsemv_cost(r1 - r0, a.nnz(r0, r1));
}

}  // namespace repmpi::kernels
