// Figure 4 (a-c): how servers should be distributed across switch types.
//
// Two switch types wired as an unbiased random graph; the x-axis sweeps
// the number of servers on the large switches, normalized so x = 1 is the
// port-proportional split. Panels vary (a) the port ratio, (b) the small-
// switch count, and (c) the total server count (oversubscription).
//
// Paper expectation: every curve peaks at x = 1 (proportional placement).
#include <cstdlib>

#include "scenario/figures/figure_common.h"
#include "scenario/figures/figures.h"

namespace topo::scenario {
namespace {

// Returns the mean throughput, or an infeasibility marker when the split
// cannot hold the requested server total (the clamps in with_server_split
// would silently change it, which is not the paper's experiment).
Cell lambda_at_ratio(const FigureConfig& config, TwoTypeSpec base,
                     int total_servers, double ratio,
                     std::uint64_t point_salt) {
  const TwoTypeSpec spec = with_server_split(base, total_servers, ratio);
  const int achieved = spec.num_large * spec.servers_per_large +
                       spec.num_small * spec.servers_per_small;
  if (std::abs(achieved - total_servers) > spec.num_small ||
      spec.servers_per_large >= spec.large_ports ||
      spec.servers_per_small >= spec.small_ports) {
    return std::string("-");
  }
  return figure_point(config, "two_type",
                      {{"num_large", spec.num_large},
                       {"num_small", spec.num_small},
                       {"large_ports", spec.large_ports},
                       {"small_ports", spec.small_ports},
                       {"total_servers", total_servers},
                       {"placement_ratio", ratio}},
                      Rng::derive_seed(config.seed, point_salt))
      .lambda.mean;
}

const std::vector<double>& sweep_ratios(const FigureConfig& config) {
  static const std::vector<double> quick{0.4, 0.6, 0.8, 1.0,
                                         1.2, 1.6, 2.0, 2.4};
  static const std::vector<double> full{0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
                                        1.1, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2,
                                        2.4};
  return config.full ? full : quick;
}

void run(ScenarioRun& ctx, const FigureConfig& config) {
  const auto& ratios = sweep_ratios(config);

  // (a) port ratios 3:1, 2:1, 3:2 with 20 large (30p) + 40 small switches.
  {
    ctx.banner(
        "Figure 4(a): server distribution, port ratio series "
        "(20 large @30p + 40 small, 400 servers)");
    TablePrinter table({"x_ratio", "ports_3to1", "ports_2to1", "ports_3to2"});
    for (double x : ratios) {
      std::vector<Cell> row{x};
      int salt = 0;
      for (int small_ports : {10, 15, 20}) {
        TwoTypeSpec spec;
        spec.num_large = 20;
        spec.num_small = 40;
        spec.large_ports = 30;
        spec.small_ports = small_ports;
        row.push_back(lambda_at_ratio(config, spec, 400, x,
                                      1000 + salt++ * 37));
      }
      table.add_row(std::move(row));
    }
    ctx.table(table);
  }

  // (b) small-switch count 20/30/40 with 20 large (30p), small 20p.
  {
    ctx.banner(
        "Figure 4(b): server distribution, small-switch count "
        "series (20 large @30p, small @20p, 500 servers)");
    TablePrinter table({"x_ratio", "small_20", "small_30", "small_40"});
    for (double x : ratios) {
      std::vector<Cell> row{x};
      int salt = 0;
      for (int num_small : {20, 30, 40}) {
        TwoTypeSpec spec;
        spec.num_large = 20;
        spec.num_small = num_small;
        spec.large_ports = 30;
        spec.small_ports = 20;
        row.push_back(lambda_at_ratio(config, spec, 500, x,
                                      2000 + salt++ * 37));
      }
      table.add_row(std::move(row));
    }
    ctx.table(table);
  }

  // (c) oversubscription: 480/510/540 servers on fixed equipment.
  {
    ctx.banner(
        "Figure 4(c): server distribution, server count series "
        "(20 large @30p + 30 small @20p)");
    TablePrinter table({"x_ratio", "servers_480", "servers_510",
                        "servers_540"});
    for (double x : ratios) {
      std::vector<Cell> row{x};
      int salt = 0;
      for (int servers : {480, 510, 540}) {
        TwoTypeSpec spec;
        spec.num_large = 20;
        spec.num_small = 30;
        spec.large_ports = 30;
        spec.small_ports = 20;
        row.push_back(lambda_at_ratio(config, spec, servers, x,
                                      3000 + salt++ * 37));
      }
      table.add_row(std::move(row));
    }
    ctx.table(table);
  }
  ctx.out() << "Expected: every series peaks at x_ratio = 1 "
               "(port-proportional placement).\n";
}

}  // namespace

void register_fig04() {
  register_figure("fig04_server_distribution",
                  "Figure 4: server distribution across two switch types",
                  /*quick_runs=*/3, /*full_runs=*/20, FigureSolver::kCells,
                  run);
}

}  // namespace topo::scenario
