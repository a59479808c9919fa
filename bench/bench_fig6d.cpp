// Reproduces Fig. 6d: MiniGhost, boundary-exchange stencil mini-app — the
// paper's example of an application where intra-parallelization cannot pay
// off.
//
// Paper (256/512 processes, 128x128x64): E = 1 / 0.49 / 0.51. The 27-point
// stencil's output is a whole new grid, so sharing it moves as many bytes
// as it saves in compute; only GRID_SUM (~10% of native time) is
// intra-parallelized, for a marginal gain.

#include "apps/minighost.hpp"
#include "fig6_common.hpp"

namespace repmpi::bench {
namespace {

REPMPI_BENCH(fig6d, "MiniGhost 27-point stencil halo exchange") {
  const Options& opt = ctx.opt();
  const int procs = static_cast<int>(opt.get_int("procs", 16));
  const int nx = static_cast<int>(opt.get_int("nx", 32));
  const int nz = static_cast<int>(opt.get_int("nz", 16));
  const int steps = static_cast<int>(opt.get_int("steps", 6));

  print_header(ctx.out(), "Fig. 6d — MiniGhost (27-point stencil halo exchange)",
               "Ropars et al., IPDPS'15, Figure 6d",
               "E = 1 / 0.49 / 0.51; only GRID_SUM (~10% of time) is "
               "intra-parallelized");
  print_scale_note(ctx.out(), "paper: 256/512 processes, 128x128x64; here: " +
                   std::to_string(procs) + "/" + std::to_string(2 * procs) +
                   " simulated processes, " + std::to_string(nx) + "x" +
                   std::to_string(nx) + "x" + std::to_string(nz));

  apps::MiniGhostParams p;
  p.nx = p.ny = nx;
  p.nz = nz;
  p.steps = steps;

  const std::set<std::string> sections{"gridsum"};
  auto body = [&](RunConfig& cfg) {
    return apps::run_app(
        cfg, [&](apps::AppContext& ctx) { apps::minighost(ctx, p); });
  };
  std::vector<Fig6Row> rows;
  rows.push_back(
      fig6_run(RunMode::kNative, procs, "Open MPI", sections, body));
  rows.push_back(
      fig6_run(RunMode::kReplicated, procs, "SDR-MPI", sections, body));
  rows.push_back(fig6_run(RunMode::kIntra, procs, "intra", sections, body));
  fig6_print(ctx.out(), rows, rows[0].total, 2);

  // The configuration the paper rejected: intra-parallelizing the stencil
  // itself buys nothing (update = full grid).
  apps::MiniGhostParams p_stencil = p;
  p_stencil.intra_stencil = true;
  RunConfig cfg;
  cfg.mode = RunMode::kIntra;
  cfg.num_logical = procs;
  const double t_stencil_intra =
      apps::run_app(cfg, [&](apps::AppContext& ctx) {
        apps::minighost(ctx, p_stencil);
      }).wallclock;
  ctx.out() << "intra-parallelized stencil variant (rejected by the paper): "
            << "E = " << fmt_eff(rows[0].total / t_stencil_intra / 2)
            << " (~ same as plain replication or worse)\n";
  ctx.metric("eff_sdr", rows[1].efficiency);
  ctx.metric("eff_intra", rows[2].efficiency);
  ctx.metric("eff_intra_stencil", rows[0].total / t_stencil_intra / 2);
  return 0;
}

}  // namespace
}  // namespace repmpi::bench
