// Figure 9 (a-c): decomposing throughput into utilization, path length,
// and stretch (T = C * U / (<D> * AS * f), all curves normalized to their
// value at the throughput peak).
//
// (a) re-runs the Fig 4(c) "480 servers" server-placement sweep,
// (b) the Fig 6(c) "500 servers" cross-cluster sweep,
// (c) the Fig 8(c) "3 H-links" line-speed sweep.
//
// Paper expectation: utilization tracks throughput most closely —
// bottlenecks, not path inflation, govern the losses; path length
// contributes visibly only at the skewed end of (a).
#include "scenario/figures/figure_common.h"
#include "scenario/figures/figures.h"

namespace topo::scenario {
namespace {

struct PointMetrics {
  double x = 0.0;
  double lambda = 0.0;
  double utilization = 0.0;
  double inverse_spl = 0.0;
  double inverse_stretch = 0.0;
};

void emit_normalized(ScenarioRun& ctx, const std::string& title,
                     const std::vector<PointMetrics>& points) {
  ctx.banner(title);
  // Normalize every metric to its value at the throughput-peak x.
  std::size_t peak = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].lambda > points[peak].lambda) peak = i;
  }
  const PointMetrics& p = points[peak];
  TablePrinter table(
      {"x", "throughput", "utilization", "inverse_spl", "inverse_stretch"});
  for (const PointMetrics& m : points) {
    table.add_row({m.x, p.lambda > 0 ? m.lambda / p.lambda : 0.0,
                   p.utilization > 0 ? m.utilization / p.utilization : 0.0,
                   p.inverse_spl > 0 ? m.inverse_spl / p.inverse_spl : 0.0,
                   p.inverse_stretch > 0
                       ? m.inverse_stretch / p.inverse_stretch
                       : 0.0});
  }
  ctx.table(table);
}

// One two_type data point at sweep coordinate x.
PointMetrics measure(const FigureConfig& config, ParamMap params, double x,
                     std::uint64_t salt) {
  const ExperimentStats stats =
      figure_point(config, "two_type", std::move(params),
                   Rng::derive_seed(config.seed, salt));
  PointMetrics m;
  m.x = x;
  m.lambda = stats.lambda.mean;
  m.utilization = stats.utilization.mean;
  m.inverse_spl = stats.inverse_spl.mean;
  m.inverse_stretch = stats.inverse_stretch.mean;
  return m;
}

void run(ScenarioRun& ctx, const FigureConfig& config) {
  const std::vector<double> placement_xs =
      config.full ? std::vector<double>{0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 2.0}
                  : std::vector<double>{0.4, 0.8, 1.0, 1.4, 2.0};
  const std::vector<double> cross_xs =
      config.full
          ? std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0, 1.3, 1.6}
          : std::vector<double>{0.1, 0.3, 0.6, 1.0, 1.6};

  // (a) Fig 4(c) '480 servers': server placement sweep.
  {
    std::vector<PointMetrics> points;
    int salt = 0;
    for (double x : placement_xs) {
      points.push_back(measure(config,
                               {{"num_large", 20},
                                {"num_small", 30},
                                {"large_ports", 30},
                                {"small_ports", 20},
                                {"total_servers", 480},
                                {"placement_ratio", x}},
                               x, 41000 + salt++ * 61));
    }
    emit_normalized(ctx,
                    "Figure 9(a): decomposition for the Fig 4(c) 480-server "
                    "placement sweep",
                    points);
  }

  // (b) Fig 6(c) '500 servers': cross-cluster sweep.
  {
    std::vector<PointMetrics> points;
    int salt = 0;
    for (double x : cross_xs) {
      points.push_back(measure(config,
                               {{"num_large", 20},
                                {"num_small", 30},
                                {"large_ports", 30},
                                {"small_ports", 20},
                                {"total_servers", 500},
                                {"cross_fraction", x}},
                               x, 42000 + salt++ * 61));
    }
    emit_normalized(ctx,
                    "Figure 9(b): decomposition for the Fig 6(c) 500-server "
                    "cross-cluster sweep",
                    points);
  }

  // (c) Fig 8(c) '3 H-links': line-speed sweep.
  {
    std::vector<PointMetrics> points;
    int salt = 0;
    for (double x : cross_xs) {
      points.push_back(measure(config,
                               {{"num_large", 20},
                                {"num_small", 20},
                                {"large_ports", 40},
                                {"small_ports", 15},
                                {"servers_per_large", 31},
                                {"servers_per_small", 12},
                                {"hs_links_per_large", 3},
                                {"hs_speed", 4.0},
                                {"cross_fraction", x}},
                               x, 43000 + salt++ * 61));
    }
    emit_normalized(ctx,
                    "Figure 9(c): decomposition for the Fig 8(c) 3-H-link "
                    "sweep",
                    points);
  }
  ctx.out() << "Expected: the utilization column tracks the throughput "
               "column most closely in every panel.\n";
}

}  // namespace

void register_fig09() {
  register_figure("fig09_decomposition",
                  "Figure 9: throughput decomposition (U, 1/SPL, 1/AS)",
                  /*quick_runs=*/3, /*full_runs=*/20, FigureSolver::kCells,
                  run);
}

}  // namespace topo::scenario
