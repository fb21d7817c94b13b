// Figure 2 (a,b): random regular graphs vs the bounds as size grows.
//
// Degree r = 10 throughout; the x-axis sweeps the switch count N (the
// network gets sparser rightward). Same series as Figure 1.
//
// Paper expectation: ratios fall gently with size; all-to-all stays the
// highest; ASPL stays close to the bound (within ~10%).
#include "scenario/figures/figure_common.h"
#include "scenario/figures/figures.h"

namespace topo::scenario {
namespace {

double throughput_ratio(const FigureConfig& config, int n, int r,
                        int servers_per_switch, TrafficKind traffic) {
  const ExperimentStats stats = figure_point(
      config, "random_regular",
      {{"n", n}, {"ports", r + servers_per_switch}, {"degree", r}},
      config.seed + n, traffic);
  // Network demand actually offered: same-switch flows never enter the
  // network, and all-to-all demands are normalized to one unit of egress
  // per server (see evaluate_throughput).
  const double servers = static_cast<double>(n) * servers_per_switch;
  const double f =
      traffic == TrafficKind::kAllToAll
          ? servers * (servers - servers_per_switch) / (servers - 1.0)
          : servers * (1.0 - 1.0 / n);
  return stats.lambda.mean / homogeneous_throughput_upper_bound(n, r, f);
}

void run(ScenarioRun& ctx, const FigureConfig& config) {
  const int r = 10;

  std::vector<int> sizes;
  if (config.full) {
    sizes = {15, 20, 30, 40, 60, 80, 100, 120, 140, 160, 180, 200};
  } else {
    sizes = {15, 20, 30, 40, 60, 80, 120};
  }
  // The paper notes its LP solver does not scale for all-to-all (the
  // commodity count grows quadratically); ours does better but we still
  // cap the all-to-all series in quick mode.
  const int a2a_cap = config.full ? 200 : 60;

  ctx.banner("Figure 2(a): throughput vs upper bound, degree=10, size sweep");
  TablePrinter table({"size", "all_to_all", "perm_10_per_switch",
                      "perm_5_per_switch"});
  for (int n : sizes) {
    Cell a2a = std::string("-");
    if (n <= a2a_cap) {
      a2a = throughput_ratio(config, n, r, 5, TrafficKind::kAllToAll);
    }
    table.add_row({static_cast<long long>(n), a2a,
                   throughput_ratio(config, n, r, 10, TrafficKind::kPermutation),
                   throughput_ratio(config, n, r, 5, TrafficKind::kPermutation)});
  }
  ctx.table(table);

  ctx.banner("Figure 2(b): ASPL vs lower bound, degree=10, size sweep");
  TablePrinter aspl_table({"size", "observed_aspl", "aspl_lower_bound",
                           "ratio"});
  for (int n : sizes) {
    std::vector<double> observed;
    for (int run = 0; run < config.runs; ++run) {
      const Graph g = random_regular_graph(
          n, r, Rng::derive_seed(config.seed, 200 + n * 17 + run));
      observed.push_back(average_shortest_path_length(g));
    }
    const double mean_aspl = mean_of(observed);
    const double bound = aspl_lower_bound(n, r);
    aspl_table.add_row({static_cast<long long>(n), mean_aspl, bound,
                        mean_aspl / bound});
  }
  ctx.table(aspl_table);
}

}  // namespace

void register_fig02() {
  register_figure("fig02_homogeneous_size",
                  "Figure 2: RRG throughput/ASPL vs bounds, size sweep "
                  "(degree 10)",
                  /*quick_runs=*/3, /*full_runs=*/20, FigureSolver::kCells,
                  run);
}

}  // namespace topo::scenario
