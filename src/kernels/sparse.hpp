#pragma once

// Matrix-free grid operators (HPCCG's 27-point matrix, the AMG proxy's
// 27-/7-point stencils) with a 1-D domain decomposition along z.
//
// Vector layout per logical rank: the local nx*ny*nz interior values first,
// then the bottom halo plane (nx*ny values from the z-1 neighbor), then the
// top halo plane. Couplings of boundary rows point into the halo region,
// so sparsemv needs no index translation after a halo exchange.
//
// An operator stores no per-row or per-nonzero arrays: every row is one of
// 4 x 4 x 4 boundary classes, and each class is a fixed (offset, weight)
// list. Its size does not grow with the grid.

#include <cstdint>
#include <memory>
#include <span>

#include "net/machine_model.hpp"

namespace repmpi::kernels {

/// Stencil shape for the grid operators.
enum class Stencil { k7pt, k27pt };

/// Per-operator stride tables: one (offset, weight) list per (z, y, x)
/// boundary-class combination. A class per axis is 0 for the low face
/// (index 0 of an axis of length >= 2), 1 for the interior, 2 for the high
/// face (index n-1 of an axis of length >= 2) and 3 when both faces are
/// boundaries (an axis of length 1). Entries are in the stencil's emit
/// order — k27pt is the dz/dy/dx triple loop, k7pt is center, x-1, x+1,
/// y-1, y+1, z-1, z+1 — with out-of-domain x/y couplings dropped; z
/// couplings off the bottom (top) plane become the constant halo strides
/// rows + dy*nx + dx (2*plane + dy*nx + dx) when a neighbor exists and are
/// dropped otherwise. Public because the kernel backends
/// (kernels/backend.hpp) take one Table as the unit of batched row
/// execution.
struct StencilTables {
  struct Table {
    std::int64_t off[27];
    double w[27];
    int npts = 0;
  };
  Table t[4][4][4];  // [zclass][yclass][xclass]
};

/// The local operator of one logical rank: an nx*ny*nz grid stencil whose
/// off-diagonals are -1 and whose diagonal is the stencil size.
struct GridOperator {
  int nx = 0, ny = 0, nz = 0;
  bool has_lower = false, has_upper = false;
  Stencil stencil = Stencil::k7pt;
  StencilTables tables;
  std::int64_t total_nnz = 0;

  std::int64_t rows() const {
    return static_cast<std::int64_t>(interior());
  }
  std::int64_t nnz() const { return total_nnz; }
  /// Non-zeros of rows [r0, r1), exact.
  std::int64_t nnz(std::int64_t r0, std::int64_t r1) const;
  /// The diagonal entry of every row.
  double diagonal() const { return stencil == Stencil::k27pt ? 27.0 : 7.0; }

  std::size_t interior() const {
    return static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
           static_cast<std::size_t>(nz);
  }
  std::size_t plane() const {
    return static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  }
  /// Length a multiplicand vector must have: interior + two halo planes.
  std::size_t vector_len() const { return interior() + 2 * plane(); }
  std::size_t halo_bottom() const { return interior(); }
  std::size_t halo_top() const { return interior() + plane(); }

 private:
  /// Non-zeros of rows [0, r).
  std::int64_t nnz_before(std::int64_t r) const;
};

/// Builds the local operator for one logical rank of a z-stacked global
/// domain. `has_lower`/`has_upper` say whether a neighbor rank exists below/
/// above (global boundary rows simply drop the out-of-domain couplings,
/// like HPCCG's generate_matrix). Off-diagonals are -1, the diagonal is the
/// stencil size (27 or 7), making the operator diagonally dominant SPD.
GridOperator build_grid_matrix(Stencil stencil, int nx, int ny, int nz,
                               bool has_lower, bool has_upper);

/// Memoized build_grid_matrix. Every rank of a z-stacked decomposition
/// (except the two boundary ranks) owns a bit-identical local operator, and
/// benches re-run the same configurations many times — the cache turns
/// O(ranks * runs) operator constructions into O(distinct shapes). Entries
/// are immutable and shared; a bounded FIFO evicts old shapes (live
/// references keep their operator alive regardless). Thread-safe for
/// concurrent simulations: built once under a mutex, then read through
/// immutable shared_ptrs. Host-side memoization only: the simulated setup
/// cost a caller charges is unchanged.
std::shared_ptr<const GridOperator> grid_matrix_cached(Stencil stencil,
                                                       int nx, int ny, int nz,
                                                       bool has_lower,
                                                       bool has_upper);

/// acc[i] = Σ_k w(r0+i, k) * x[col(r0+i, k)] in stencil emit order for rows
/// [r0, r1) — the row gather shared by sparsemv and the Jacobi smoother.
/// x must be vector_len long.
void row_gather(const GridOperator& a, std::span<const double> x,
                std::span<double> acc, std::int64_t r0, std::int64_t r1);

/// y[r0, r1) = (A * x)[r0, r1) over a row range; x must be vector_len long.
net::ComputeCost sparsemv_range(const GridOperator& a,
                                std::span<const double> x, std::span<double> y,
                                std::int64_t r0, std::int64_t r1);

inline net::ComputeCost sparsemv(const GridOperator& a,
                                 std::span<const double> x,
                                 std::span<double> y) {
  return sparsemv_range(a, x, y, 0, a.rows());
}

/// Cost of multiplying `nnz` non-zeros over `rows` rows: 2 flops per nnz;
/// value+index streams plus gather/output traffic.
inline net::ComputeCost sparsemv_cost(std::int64_t rows, std::int64_t nnz) {
  return {2.0 * static_cast<double>(nnz),
          12.0 * static_cast<double>(nnz) + 16.0 * static_cast<double>(rows)};
}

}  // namespace repmpi::kernels
