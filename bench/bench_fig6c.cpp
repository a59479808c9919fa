// Reproduces Fig. 6c: GTC, 3-D particle-in-cell gyrokinetic code.
//
// Paper (256/512 processes; mzetamax=64, npartdom=4, micell=200):
// E = 1 / 0.49 / 0.71; the intra-parallelized kernels (charge + push)
// account for 75% of the native execution time, and the extra copy of the
// inout particle arrays costs ~6% on the affected tasks.

#include "apps/gtc.hpp"
#include "fig6_common.hpp"

namespace repmpi::bench {
namespace {

REPMPI_BENCH(fig6c, "GTC gyrokinetic particle-in-cell") {
  const Options& opt = ctx.opt();
  const int procs = static_cast<int>(opt.get_int("procs", 16));
  const std::size_t particles =
      static_cast<std::size_t>(opt.get_int("particles", 40000));
  const int steps = static_cast<int>(opt.get_int("steps", 4));

  print_header(ctx.out(), "Fig. 6c — GTC (gyrokinetic particle-in-cell)",
               "Ropars et al., IPDPS'15, Figure 6c",
               "E = 1 / 0.49 / 0.71; charge+push = 75% of native time; "
               "inout extra copy ~6% on affected tasks");
  print_scale_note(ctx.out(), "paper: 256/512 processes, micell=200; here: " +
                   std::to_string(procs) + "/" + std::to_string(2 * procs) +
                   " simulated processes, " + std::to_string(particles) +
                   " particles per process");

  apps::GtcParams p;
  p.particles_per_rank = particles;
  p.steps = steps;

  const std::set<std::string> sections{"charge", "push"};
  intra::IntraStats intra_stats;
  auto body = [&](RunConfig& cfg) {
    RunResult r = apps::run_app(
        cfg, [&](apps::AppContext& ctx) { apps::gtc(ctx, p); });
    if (cfg.mode == RunMode::kIntra) intra_stats = r.intra_total;
    return r;
  };
  std::vector<Fig6Row> rows;
  rows.push_back(
      fig6_run(RunMode::kNative, procs, "Open MPI", sections, body));
  rows.push_back(
      fig6_run(RunMode::kReplicated, procs, "SDR-MPI", sections, body));
  rows.push_back(fig6_run(RunMode::kIntra, procs, "intra", sections, body));
  fig6_print(ctx.out(), rows, rows[0].total, 2);

  // The paper's inout observation: extra-copy overhead on affected tasks.
  const double copy_share =
      intra_stats.inout_copy_time /
      (intra_stats.section_time > 0 ? intra_stats.section_time : 1.0);
  ctx.out() << "inout extra-copy time / section time = "
            << Table::fmt(copy_share, 3) << " (paper: ~0.06 on the affected "
            << "tasks)\n";
  ctx.metric("eff_sdr", rows[1].efficiency);
  ctx.metric("eff_intra", rows[2].efficiency);
  ctx.metric("inout_copy_share", copy_share);
  return 0;
}

}  // namespace
}  // namespace repmpi::bench
