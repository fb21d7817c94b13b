// Figure 8 (a-c): heterogeneous line-speeds.
//
// 20 large switches (40 low-speed ports) + 20 small switches (15 ports);
// large switches additionally carry a few high-line-speed links wired only
// among themselves. (a) sweeps server splits; (b) sweeps the high-speed
// multiplier at 6 links per large switch; (c) sweeps the number of
// high-speed links at speed 4.
//
// Paper expectation: several configurations tie for peak throughput (the
// picture is less clear-cut than with uniform speeds), and the benefit of
// faster/more H-links vanishes when cross-cluster wiring is starved.
#include "scenario/figures/figure_common.h"
#include "scenario/figures/figures.h"

namespace topo::scenario {
namespace {

double lambda_for(const FigureConfig& config, int per_large, int per_small,
                  int hs_links, double hs_speed, double fraction,
                  std::uint64_t salt) {
  return figure_point(config, "two_type",
                      {{"num_large", 20},
                       {"num_small", 20},
                       {"large_ports", 40},
                       {"small_ports", 15},
                       {"servers_per_large", per_large},
                       {"servers_per_small", per_small},
                       {"cross_fraction", fraction},
                       {"hs_links_per_large", hs_links},
                       {"hs_speed", hs_speed}},
                      Rng::derive_seed(config.seed, salt))
      .lambda.mean;
}

const std::vector<double>& sweep_fractions(const FigureConfig& config) {
  static const std::vector<double> quick{0.2, 0.4, 0.6, 0.8, 1.0, 1.3, 1.6};
  static const std::vector<double> full{0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0,
                                        1.2, 1.4, 1.6, 1.8, 2.0};
  return config.full ? full : quick;
}

void run(ScenarioRun& ctx, const FigureConfig& config) {
  const auto& fractions = sweep_fractions(config);

  // (a) server splits with 3 high-speed (10x) links per large switch.
  {
    ctx.banner(
        "Figure 8(a): line-speed heterogeneity, server splits "
        "(20 large @40p + 20 small @15p, 3 H-links @10x)");
    TablePrinter table(
        {"x_cross", "36H_7L", "35H_8L", "34H_9L", "33H_10L", "32H_11L"});
    for (double x : fractions) {
      std::vector<Cell> row{x};
      int salt = 0;
      for (const auto& [h, l] : std::vector<std::pair<int, int>>{
               {36, 7}, {35, 8}, {34, 9}, {33, 10}, {32, 11}}) {
        row.push_back(lambda_for(config, h, l, 3, 10.0, x,
                                 31000 + salt++ * 59));
      }
      table.add_row(std::move(row));
    }
    ctx.table(table);
  }

  // (b) high-speed multiplier sweep at 6 H-links per large switch.
  {
    ctx.banner(
        "Figure 8(b): high-speed multiplier sweep (6 H-links per "
        "large switch, proportional-ish servers 31H/12L)");
    TablePrinter table({"x_cross", "speed_2", "speed_4", "speed_8"});
    for (double x : fractions) {
      std::vector<Cell> row{x};
      int salt = 0;
      for (double speed : {2.0, 4.0, 8.0}) {
        row.push_back(lambda_for(config, 31, 12, 6, speed, x,
                                 32000 + salt++ * 59));
      }
      table.add_row(std::move(row));
    }
    ctx.table(table);
  }

  // (c) H-link count sweep at speed 4.
  {
    ctx.banner(
        "Figure 8(c): high-speed link count sweep (speed 4x, "
        "proportional-ish servers 31H/12L)");
    TablePrinter table({"x_cross", "links_3", "links_6", "links_9"});
    for (double x : fractions) {
      std::vector<Cell> row{x};
      int salt = 0;
      for (int links : {3, 6, 9}) {
        row.push_back(lambda_for(config, 31, 12, links, 4.0, x,
                                 33000 + salt++ * 59));
      }
      table.add_row(std::move(row));
    }
    ctx.table(table);
  }
  ctx.out() << "Expected: more/faster H-links help near x ~ 1 but not when "
               "the cross-cluster cut is starved (small x).\n";
}

}  // namespace

void register_fig08() {
  register_figure("fig08_linespeeds",
                  "Figure 8: heterogeneous line-speed overlays",
                  /*quick_runs=*/3, /*full_runs=*/20, FigureSolver::kCells,
                  run);
}

}  // namespace topo::scenario
