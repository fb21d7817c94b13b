// Figure 3: the ASPL lower bound's "curved step" behaviour at degree 4.
//
// The x-tics {17, 53, 161, 485, 1457} are exactly where the ideal
// degree-4 Moore tree fills a level and the bound starts a new distance
// level. The observed-to-bound ratio approaches 1 as N grows.
#include "scenario/figures/figure_common.h"
#include "scenario/figures/figures.h"

namespace topo::scenario {
namespace {

void run(ScenarioRun& ctx, const FigureConfig& config) {
  const int r = 4;

  ctx.banner(
      "Figure 3: ASPL bound steps, degree=4 (x-tics at Moore-tree "
      "level boundaries)");
  ctx.out() << "Moore-tree level boundaries for degree 4:";
  for (int level = 1; level <= 6; ++level) {
    ctx.out() << ' ' << moore_nodes_within(r, level);
  }
  ctx.out() << "\n";

  std::vector<int> sizes;
  if (config.full) {
    sizes = {9,   13,  17,  25,  37,  53,  81,  119, 161, 243,
             357, 485, 729, 1093, 1457};
  } else {
    sizes = {9, 17, 37, 53, 109, 161, 325, 485, 971, 1457};
  }

  TablePrinter table({"size", "observed_aspl", "aspl_lower_bound", "ratio"});
  for (int n : sizes) {
    const int even_n = (n * r) % 2 == 0 ? n : n + 1;
    std::vector<double> observed;
    for (int run = 0; run < config.runs; ++run) {
      const Graph g = random_regular_graph(
          even_n, r, Rng::derive_seed(config.seed, n * 13 + run));
      observed.push_back(average_shortest_path_length(g));
    }
    const double mean_aspl = mean_of(observed);
    const double bound = aspl_lower_bound(even_n, r);
    table.add_row({static_cast<long long>(even_n), mean_aspl, bound,
                   mean_aspl / bound});
  }
  ctx.table(table);
  ctx.out() << "Expected: ratio column approaches 1 as size grows.\n";
}

}  // namespace

void register_fig03() {
  register_figure("fig03_aspl_steps",
                  "Figure 3: ASPL lower-bound steps at degree 4",
                  /*quick_runs=*/3, /*full_runs=*/10, FigureSolver::kNone, run);
}

}  // namespace topo::scenario
