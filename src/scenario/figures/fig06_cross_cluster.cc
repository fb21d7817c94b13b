// Figure 6 (a-c): throughput vs the volume of cross-cluster wiring.
//
// Servers are placed port-proportionally; the x-axis sweeps the number of
// links crossing the large/small switch clusters as a multiple of the
// expectation under uniform random wiring (x = 1 is a vanilla random
// graph). Panels vary (a) port ratios, (b) small-switch counts, and
// (c) total servers.
//
// Paper expectation: a wide plateau at peak throughput with a collapse
// once the cross-cluster cut becomes the bottleneck (small x).
#include "scenario/figures/figure_common.h"
#include "scenario/figures/figures.h"

namespace topo::scenario {
namespace {

// Port-proportional servers (the family's default placement_ratio 1).
double lambda_at_fraction(const FigureConfig& config, int num_small,
                          int small_ports, int total_servers, double fraction,
                          std::uint64_t salt) {
  return figure_point(config, "two_type",
                      {{"num_large", 20},
                       {"num_small", num_small},
                       {"large_ports", 30},
                       {"small_ports", small_ports},
                       {"total_servers", total_servers},
                       {"cross_fraction", fraction}},
                      Rng::derive_seed(config.seed, salt))
      .lambda.mean;
}

const std::vector<double>& sweep_fractions(const FigureConfig& config) {
  static const std::vector<double> quick{0.1, 0.2, 0.4, 0.6, 0.8,
                                         1.0, 1.4, 2.0};
  static const std::vector<double> full{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8,
                                        1.0, 1.2, 1.4, 1.6, 1.8, 2.0};
  return config.full ? full : quick;
}

void run(ScenarioRun& ctx, const FigureConfig& config) {
  const auto& fractions = sweep_fractions(config);

  {
    ctx.banner(
        "Figure 6(a): cross-cluster links, port ratio series "
        "(20 large @30p + 40 small, 400 servers)");
    TablePrinter table({"x_cross", "ports_3to1", "ports_2to1", "ports_3to2"});
    for (double x : fractions) {
      std::vector<Cell> row{x};
      int salt = 0;
      for (int small_ports : {10, 15, 20}) {
        row.push_back(lambda_at_fraction(config, 40, small_ports, 400, x,
                                         11000 + salt++ * 41));
      }
      table.add_row(std::move(row));
    }
    ctx.table(table);
  }

  {
    ctx.banner(
        "Figure 6(b): cross-cluster links, small-switch count "
        "series (20 large @30p, small @20p, 500 servers)");
    TablePrinter table({"x_cross", "small_20", "small_30", "small_40"});
    for (double x : fractions) {
      std::vector<Cell> row{x};
      int salt = 0;
      for (int num_small : {20, 30, 40}) {
        row.push_back(lambda_at_fraction(config, num_small, 20, 500, x,
                                         12000 + salt++ * 41));
      }
      table.add_row(std::move(row));
    }
    ctx.table(table);
  }

  {
    ctx.banner(
        "Figure 6(c): cross-cluster links, server count series "
        "(20 large @30p + 30 small @20p)");
    TablePrinter table({"x_cross", "servers_300", "servers_500",
                        "servers_700"});
    for (double x : fractions) {
      std::vector<Cell> row{x};
      int salt = 0;
      for (int servers : {300, 500, 700}) {
        row.push_back(lambda_at_fraction(config, 30, 20, servers, x,
                                         13000 + salt++ * 41));
      }
      table.add_row(std::move(row));
    }
    ctx.table(table);
  }
  ctx.out() << "Expected: throughput stable at its peak across a wide range "
               "of x, dropping sharply at small x.\n";
}

}  // namespace

void register_fig06() {
  register_figure("fig06_cross_cluster",
                  "Figure 6: throughput vs cross-cluster wiring volume",
                  /*quick_runs=*/3, /*full_runs=*/20, FigureSolver::kCells,
                  run);
}

}  // namespace topo::scenario
