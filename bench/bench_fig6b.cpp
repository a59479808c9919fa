// Reproduces Fig. 6b: AMG2013 with the GMRES solver on a Laplace-type
// problem, 7-point stencil.
//
// Paper (252/504 processes, 100^3): E = 1 / 0.49 / 0.59, with sections
// covering 42% of the native execution time — less than Fig. 6a because
// the 7-point operator makes the parallelizable kernels cheaper relative
// to orthogonalization, grid transfers and coarse work.

#include "apps/amg.hpp"
#include "fig6_common.hpp"

namespace repmpi::bench {
namespace {

REPMPI_BENCH(fig6b, "AMG2013, 7-point stencil, GMRES solver") {
  const Options& opt = ctx.opt();
  const int procs = static_cast<int>(opt.get_int("procs", 16));
  const int nx = static_cast<int>(opt.get_int("nx", 24));
  const int restarts = static_cast<int>(opt.get_int("restarts", 2));

  print_header(ctx.out(), "Fig. 6b — AMG2013 (7-point stencil, GMRES solver)",
               "Ropars et al., IPDPS'15, Figure 6b",
               "E = 1 / 0.49 / 0.59; sections = 42% of native time");
  print_scale_note(ctx.out(), "paper: 252/504 processes, 100^3; here: " +
                   std::to_string(procs) + "/" + std::to_string(2 * procs) +
                   " simulated processes, " + std::to_string(nx) + "^3");

  apps::AmgParams p;
  p.stencil = kernels::Stencil::k7pt;
  p.solver = apps::AmgParams::Solver::kGMRES;
  p.nx = p.ny = p.nz = nx;
  p.levels = static_cast<int>(opt.get_int("levels", p.levels));
  p.coarse_smooth =
      static_cast<int>(opt.get_int("coarse_smooth", p.coarse_smooth));
  p.iterations = restarts;
  p.gmres_restart = 10;

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
