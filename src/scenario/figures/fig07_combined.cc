// Figure 7 (a,b): joint sweep of server distribution and cross-cluster
// wiring. Each curve fixes a server split (e.g. "16H, 2L" = 16 servers on
// each large switch, 2 on each small one); the x-axis sweeps cross-cluster
// connectivity.
//
// Paper expectation: several configurations reach peak throughput, and
// the proportional split with vanilla randomness (x = 1) is among them;
// strongly skewed splits lose throughput everywhere.
#include "scenario/figures/figure_common.h"
#include "scenario/figures/figures.h"

namespace topo::scenario {
namespace {

struct Split {
  int per_large = 0;
  int per_small = 0;
};

void run_panel(ScenarioRun& ctx, const FigureConfig& config,
               const std::string& title, int small_ports,
               const std::vector<Split>& splits, std::uint64_t salt_base) {
  ctx.banner(title);
  std::vector<std::string> headers{"x_cross"};
  for (const Split& s : splits) {
    headers.push_back(std::to_string(s.per_large) + "H_" +
                      std::to_string(s.per_small) + "L");
  }
  TablePrinter table(std::move(headers));

  static const std::vector<double> quick{0.2, 0.4, 0.6, 0.8, 1.0, 1.4, 2.0};
  static const std::vector<double> full{0.2, 0.3, 0.4, 0.5, 0.6, 0.8,
                                        1.0, 1.2, 1.4, 1.6, 1.8, 2.0};
  const auto& fractions = config.full ? full : quick;

  for (double x : fractions) {
    std::vector<Cell> row{x};
    int salt = 0;
    for (const Split& split : splits) {
      row.push_back(
          figure_point(config, "two_type",
                       {{"num_large", 20},
                        {"num_small", 40},
                        {"large_ports", 30},
                        {"small_ports", small_ports},
                        {"servers_per_large", split.per_large},
                        {"servers_per_small", split.per_small},
                        {"cross_fraction", x}},
                       Rng::derive_seed(config.seed, salt_base + salt++ * 53))
              .lambda.mean);
    }
    table.add_row(std::move(row));
  }
  ctx.table(table);
}

void run(ScenarioRun& ctx, const FigureConfig& config) {
  // (a) 20 large (30p) + 40 small (10p); 400 servers total per split.
  run_panel(ctx, config,
            "Figure 7(a): combined sweep, 20 large @30p + 40 small @10p "
            "(400 servers; 12H_4L is proportional)",
            10,
            {{16, 2}, {14, 3}, {12, 4}, {10, 5}, {8, 6}}, 21000);

  // (b) 20 large (30p) + 40 small (20p); 560 servers total per split.
  run_panel(ctx, config,
            "Figure 7(b): combined sweep, 20 large @30p + 40 small @20p "
            "(560 servers; 14H_7L is proportional)",
            20,
            {{22, 3}, {18, 5}, {14, 7}, {10, 9}, {6, 11}}, 22000);

  ctx.out() << "Expected: proportional splits (12H_4L / 14H_7L) at x ~ 1 "
               "are among the peak configurations.\n";
}

}  // namespace

void register_fig07() {
  register_figure("fig07_combined",
                  "Figure 7: joint server-split x cross-cluster sweep",
                  /*quick_runs=*/3, /*full_runs=*/10,  // paper used 10 runs
                  FigureSolver::kCells, run);
}

}  // namespace topo::scenario
