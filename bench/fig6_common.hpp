#pragma once

// Shared harness for the Fig. 6 application panels. Protocol (paper V-D):
// the problem size is fixed and the replicated runs use twice the physical
// resources, so matching the native run time means 50% efficiency:
// E = 0.5 * T_native / T_x. Each panel prints the stacked breakdown the
// paper plots — time in intra-parallelized sections vs. the unmodified rest
// ("others") — plus the efficiency above each bar.

#include <set>

#include "bench_common.hpp"

namespace repmpi::bench {

struct Fig6Row {
  std::string label;
  int physical_procs = 0;
  double total = 0;
  double sections = 0;
  double others = 0;
  double efficiency = 0;
};

/// Runs one mode and splits its phase breakdown into sections/others.
template <typename RunFn>
Fig6Row fig6_run(RunMode mode, int num_logical, const char* label,
                 const std::set<std::string>& section_phases, RunFn&& fn) {
  RunConfig cfg;
  cfg.mode = mode;
  cfg.num_logical = num_logical;
  const RunResult r = fn(cfg);
  Fig6Row row;
  row.label = label;
  row.physical_procs = cfg.num_physical();
  row.total = r.wallclock;
  for (const auto& [phase, t] : r.phase_max) {
    if (section_phases.count(phase)) row.sections += t;
    else row.others += t;
  }
  return row;
}

/// Prints the panel and fills Fig6Row::efficiency in place so callers can
/// reuse the exact plotted values as JSON metrics.
inline void fig6_print(std::ostream& os, std::vector<Fig6Row>& rows,
                       double t_native, int degree) {
  Table t({"config", "physical procs", "time (s)", "sections (s)",
           "others (s)", "sections share", "efficiency"});
  for (auto& row : rows) {
    row.efficiency = row.label == "Open MPI"
                         ? 1.0
                         : t_native / row.total / degree;
    t.add_row({row.label, std::to_string(row.physical_procs),
               Table::fmt(row.total, 4), Table::fmt(row.sections, 4),
               Table::fmt(row.others, 4),
               Table::fmt(row.sections / (row.sections + row.others), 2),
               fmt_eff(row.efficiency)});
  }
  t.print(os);
}

}  // namespace repmpi::bench
