// Reproduces Fig. 6a: AMG2013 with the preconditioned conjugate gradient
// solver on a Laplace-type problem, 27-point stencil.
//
// Paper (252 native / 504 replicated processes, 100^3 per process):
// E = 1 / 0.48 / 0.61, with intra-parallelized sections covering 62% of
// the native execution time.

#include "apps/amg.hpp"
#include "fig6_common.hpp"

namespace repmpi::bench {
namespace {

REPMPI_BENCH(fig6a, "AMG2013, 27-point stencil, PCG solver") {
  const Options& opt = ctx.opt();
  const int procs = static_cast<int>(opt.get_int("procs", 16));
  const int nx = static_cast<int>(opt.get_int("nx", 24));
  const int iters = static_cast<int>(opt.get_int("iters", 4));

  print_header(ctx.out(), "Fig. 6a — AMG2013 (27-point stencil, PCG solver)",
               "Ropars et al., IPDPS'15, Figure 6a",
               "E = 1 / 0.48 / 0.61; sections = 62% of native time");
  print_scale_note(ctx.out(), "paper: 252/504 processes, 100^3; here: " +
                   std::to_string(procs) + "/" + std::to_string(2 * procs) +
                   " simulated processes, " + std::to_string(nx) + "^3");

  apps::AmgParams p;
  p.stencil = kernels::Stencil::k27pt;
  p.solver = apps::AmgParams::Solver::kPCG;
  p.nx = p.ny = p.nz = nx;
  p.levels = static_cast<int>(opt.get_int("levels", p.levels));
  p.coarse_smooth =
      static_cast<int>(opt.get_int("coarse_smooth", p.coarse_smooth));
  p.iterations = iters;

  const std::set<std::string> sections{"matvec", "smoother", "ddot"};
  auto body = [&](RunConfig& cfg) {
    return apps::run_app(cfg,
                         [&](apps::AppContext& ctx) { apps::amg(ctx, p); });
  };
  std::vector<Fig6Row> rows;
  rows.push_back(
      fig6_run(RunMode::kNative, procs, "Open MPI", sections, body));
  rows.push_back(
      fig6_run(RunMode::kReplicated, procs, "SDR-MPI", sections, body));
  rows.push_back(fig6_run(RunMode::kIntra, procs, "intra", sections, body));
  fig6_print(ctx.out(), rows, rows[0].total, 2);
  ctx.metric("eff_sdr", rows[1].efficiency);
  ctx.metric("eff_intra", rows[2].efficiency);
  ctx.metric("sections_share_native",
             rows[0].sections / (rows[0].sections + rows[0].others));
  return 0;
}

}  // namespace
}  // namespace repmpi::bench
