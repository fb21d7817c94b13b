// Figure 11: the analytically determined cross-cluster capacity threshold
// below which throughput must fall off its peak.
//
// For each of 18 two-cluster configurations we sweep cross-cluster
// connectivity, take the peak throughput T*, and compute the threshold
//   C-bar* = T* * 2 n1 n2 / (n1 + n2)
// (in directed capacity units), i.e. as a fraction of the vanilla-random
// cross capacity: x* = C-bar* / (2 * expected_cross_links). The paper's
// claim: for every configuration, measured throughput at x < x* is below
// the peak.
#include "scenario/figures/figure_common.h"
#include "scenario/figures/figures.h"

namespace topo::scenario {
namespace {

// Port-proportional servers (the family's default placement_ratio 1).
double lambda_at(const FigureConfig& config, const TwoTypeSpec& spec,
                 int total_servers, double x, std::uint64_t salt) {
  return figure_point(config, "two_type",
                      {{"num_large", spec.num_large},
                       {"num_small", spec.num_small},
                       {"large_ports", spec.large_ports},
                       {"small_ports", spec.small_ports},
                       {"total_servers", total_servers},
                       {"cross_fraction", x}},
                      Rng::derive_seed(config.seed, salt))
      .lambda.mean;
}

void run(ScenarioRun& ctx, const FigureConfig& config) {
  // 18 configurations: 3 port ratios x 3 small-switch counts x 2 server
  // totals (quick mode samples 9 of them).
  struct Config {
    int num_small;
    int small_ports;
    int servers;
  };
  std::vector<Config> cases;
  for (int num_small : {20, 30, 40}) {
    for (int small_ports : {10, 15, 20}) {
      for (int servers : {360, 480}) {
        cases.push_back({num_small, small_ports, servers});
      }
    }
  }
  if (!config.full) {
    std::vector<Config> sampled;
    for (std::size_t i = 0; i < cases.size(); i += 2) sampled.push_back(cases[i]);
    cases = std::move(sampled);
  }

  const std::vector<double> fractions = {0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0};

  ctx.banner(
      "Figure 11: throughput drop threshold across 18 two-cluster "
      "configurations (x* = predicted drop point)");
  TablePrinter table({"config", "peak_T", "x_star", "lambda_below_x_star",
                      "drop_confirmed"});
  int index = 0;
  for (const Config& c : cases) {
    TwoTypeSpec spec;
    spec.num_large = 20;
    spec.num_small = c.num_small;
    spec.large_ports = 30;
    spec.small_ports = c.small_ports;
    spec = with_server_split(spec, c.servers, 1.0);

    double peak = 0.0;
    std::vector<double> lambdas;
    int salt = 0;
    for (double x : fractions) {
      lambdas.push_back(lambda_at(config, spec, c.servers, x,
                                  61000 + index * 997 + salt++ * 71));
      peak = std::max(peak, lambdas.back());
    }

    const double n1 =
        static_cast<double>(spec.num_large) * spec.servers_per_large;
    const double n2 =
        static_cast<double>(spec.num_small) * spec.servers_per_small;
    const double threshold_capacity = cross_capacity_threshold(peak, n1, n2);
    const double expected_cross = two_type_expected_cross(spec);
    // Each cross link is one unit of capacity in each direction.
    const double x_star = threshold_capacity / (2.0 * expected_cross);

    // Throughput at the largest sweep point strictly below x*.
    double lambda_below = -1.0;
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      if (fractions[i] < x_star) lambda_below = lambdas[i];
    }
    const bool confirmed = lambda_below < 0.0 || lambda_below < peak * 0.99;
    const std::string name = std::to_string(c.num_small) + "S@" +
                             std::to_string(c.small_ports) + "p/" +
                             std::to_string(c.servers) + "srv";
    table.add_row({name, peak, x_star,
                   lambda_below < 0.0 ? Cell{std::string("n/a")}
                                      : Cell{lambda_below},
                   std::string(confirmed ? "yes" : "NO")});
    ++index;
  }
  ctx.table(table);
  ctx.out() << "Expected: drop_confirmed = yes for every configuration "
               "(throughput below the predicted threshold is sub-peak).\n";
}

}  // namespace

void register_fig11() {
  register_figure("fig11_threshold",
                  "Figure 11: predicted cross-cluster throughput-drop "
                  "threshold",
                  /*quick_runs=*/2, /*full_runs=*/10, FigureSolver::kCells,
                  run);
}

}  // namespace topo::scenario
