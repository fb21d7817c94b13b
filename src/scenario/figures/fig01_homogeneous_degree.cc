// Figure 1 (a,b): random regular graphs vs the bounds as density grows.
//
// N = 40 switches throughout; the x-axis sweeps the network degree r.
// (a) Throughput as a ratio to the universal upper bound N*r/(f*d*), for
//     all-to-all and permutation traffic with 5 and 10 servers per switch.
// (b) Observed ASPL vs the Cerf et al. lower bound d*.
//
// Paper expectation: the ratio climbs toward 1 with density (all-to-all
// reaching ~1 by r >= 13), and ASPL hugs the bound.
#include "scenario/figures/figure_common.h"
#include "scenario/figures/figures.h"

namespace topo::scenario {
namespace {

double throughput_ratio(const FigureConfig& config, int n, int r,
                        int servers_per_switch, TrafficKind traffic) {
  const ExperimentStats stats = figure_point(
      config, "random_regular",
      {{"n", n}, {"ports", r + servers_per_switch}, {"degree", r}},
      config.seed + r, traffic);
  // Network demand actually offered: same-switch flows never enter the
  // network, and all-to-all demands are normalized to one unit of egress
  // per server (see evaluate_throughput).
  const double servers = static_cast<double>(n) * servers_per_switch;
  const double f =
      traffic == TrafficKind::kAllToAll
          ? servers * (servers - servers_per_switch) / (servers - 1.0)
          : servers * (1.0 - 1.0 / n);
  const double bound = homogeneous_throughput_upper_bound(n, r, f);
  return stats.lambda.mean / bound;
}

void run(ScenarioRun& ctx, const FigureConfig& config) {
  const int n = 40;

  std::vector<int> degrees;
  if (config.full) {
    for (int r = 3; r <= 35; ++r) degrees.push_back(r);
  } else {
    degrees = {4, 6, 8, 11, 14, 17, 20, 24, 28, 32};
  }

  ctx.banner("Figure 1(a): throughput vs upper bound, N=40, degree sweep");
  TablePrinter table({"degree", "all_to_all", "perm_10_per_switch",
                      "perm_5_per_switch"});
  for (int r : degrees) {
    table.add_row({static_cast<long long>(r),
                   throughput_ratio(config, n, r, 5, TrafficKind::kAllToAll),
                   throughput_ratio(config, n, r, 10, TrafficKind::kPermutation),
                   throughput_ratio(config, n, r, 5, TrafficKind::kPermutation)});
  }
  ctx.table(table);

  ctx.banner("Figure 1(b): ASPL vs lower bound, N=40, degree sweep");
  TablePrinter aspl_table({"degree", "observed_aspl", "aspl_lower_bound",
                           "ratio"});
  for (int r : degrees) {
    std::vector<double> observed;
    for (int run = 0; run < config.runs; ++run) {
      const Graph g = random_regular_graph(
          n, r, Rng::derive_seed(config.seed, 100 + r * 31 + run));
      observed.push_back(average_shortest_path_length(g));
    }
    const double mean_aspl = mean_of(observed);
    const double bound = aspl_lower_bound(n, r);
    aspl_table.add_row({static_cast<long long>(r), mean_aspl, bound,
                        mean_aspl / bound});
  }
  ctx.table(aspl_table);
}

}  // namespace

void register_fig01() {
  register_figure("fig01_homogeneous_degree",
                  "Figure 1: RRG throughput/ASPL vs bounds, degree sweep "
                  "(N=40)",
                  /*quick_runs=*/3, /*full_runs=*/20, FigureSolver::kCells,
                  run);
}

}  // namespace topo::scenario
