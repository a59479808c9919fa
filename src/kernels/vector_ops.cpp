#include "kernels/vector_ops.hpp"

#include "kernels/backend.hpp"
#include "support/error.hpp"

namespace repmpi::kernels {

// Plain loops, outside the backend seam: the vector ops are memory-bound and
// SIMD versions measured no faster. This TU is built with -ffp-contract=off,
// so the compiler may vectorize the elementwise loops but never fuses their
// multiply-add pairs; the results do not depend on the kernel backend.

net::ComputeCost waxpby(double alpha, std::span<const double> x, double beta,
                        std::span<const double> y, std::span<double> w) {
  REPMPI_CHECK(x.size() == y.size() && y.size() == w.size());
  // HPCCG special-cases alpha==1/beta==1; the arithmetic shortcut does not
  // change the memory-bound cost, so one code path suffices here.
  const KernelTimer timer(KernelFamily::kVector);
  const std::size_t n = w.size();
  for (std::size_t i = 0; i < n; ++i) w[i] = alpha * x[i] + beta * y[i];
  return waxpby_cost(n);
}

net::ComputeCost ddot(std::span<const double> x, std::span<const double> y,
                      double* out) {
  REPMPI_CHECK(x.size() == y.size() && out != nullptr);
  const KernelTimer timer(KernelFamily::kVector);
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  *out = acc;
  return ddot_cost(x.size());
}

net::ComputeCost axpy(double alpha, std::span<const double> x,
                      std::span<double> y) {
  REPMPI_CHECK(x.size() == y.size());
  const KernelTimer timer(KernelFamily::kVector);
  const std::size_t n = y.size();
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
  return {2.0 * static_cast<double>(n), 24.0 * static_cast<double>(n)};
}

}  // namespace repmpi::kernels
