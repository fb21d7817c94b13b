// Figure 5: server placement across a power-law pool of switches.
//
// Port counts follow a truncated power law with mean 6/8/10; servers are
// attached in proportion to port_count^beta and the rest wired uniformly
// at random. Throughput is normalized to the beta = 1 value of each curve.
//
// Paper expectation: beta = 1 (proportional) is among the optima, with a
// broad flat region around beta in [1, 1.4] and degradation toward both
// extremes (larger variance there, too).
#include "scenario/figures/figure_common.h"
#include "scenario/figures/figures.h"

namespace topo::scenario {
namespace {

// 40 switches; the power_law_pool family holds total servers at its
// default 45% of total ports across the sweep.
ExperimentStats stats_at_beta(const FigureConfig& config, double avg_ports,
                              double beta, std::uint64_t salt) {
  return figure_point(config, "power_law_pool",
                      {{"n", 40}, {"avg_ports", avg_ports}, {"beta", beta}},
                      Rng::derive_seed(config.seed, salt));
}

void run(ScenarioRun& ctx, const FigureConfig& config) {
  std::vector<double> betas;
  if (config.full) {
    betas = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6};
  } else {
    betas = {0.0, 0.4, 0.8, 1.0, 1.2, 1.6};
  }

  ctx.banner(
      "Figure 5: power-law port counts, servers proportional to "
      "port^beta (normalized to beta=1)");
  TablePrinter table({"beta", "avg_ports_6", "avg_ports_8", "avg_ports_10",
                      "stdev_frac_8"});
  std::vector<double> baseline(3, 1.0);
  {
    int i = 0;
    for (double avg : {6.0, 8.0, 10.0}) {
      baseline[static_cast<std::size_t>(i++)] =
          stats_at_beta(config, avg, 1.0, 5000 + static_cast<int>(avg))
              .lambda.mean;
    }
  }
  for (double beta : betas) {
    std::vector<Cell> row{beta};
    int i = 0;
    double stdev_frac_8 = 0.0;
    for (double avg : {6.0, 8.0, 10.0}) {
      const ExperimentStats stats = stats_at_beta(
          config, avg, beta, 6000 + static_cast<int>(avg) * 101 +
                                 static_cast<int>(beta * 10));
      row.push_back(stats.lambda.mean / baseline[static_cast<std::size_t>(i++)]);
      if (avg == 8.0 && stats.lambda.mean > 0.0) {
        stdev_frac_8 = stats.lambda.stdev / stats.lambda.mean;
      }
    }
    row.push_back(stdev_frac_8);
    table.add_row(std::move(row));
  }
  ctx.table(table);
  ctx.out() << "Expected: flat optimum around beta in [1, 1.4]; larger "
               "run-to-run variance at the extremes.\n";
}

}  // namespace

void register_fig05() {
  register_figure("fig05_powerlaw_beta",
                  "Figure 5: power-law pools, servers ~ ports^beta",
                  /*quick_runs=*/4, /*full_runs=*/20, FigureSolver::kCells,
                  run);
}

}  // namespace topo::scenario
