// Figure 10 (a,b): the Eqn-1 throughput bound vs observed throughput.
//
// For two-cluster topologies, Eqn 1 bounds throughput by
//   min{ C / (<D> (n1+n2)),  C-bar (n1+n2) / (2 n1 n2) }.
// (a) uniform line-speeds: the bound should sit close above the
//     measurement; (b) mixed line-speeds: the bound can be loose.
#include "scenario/figures/figure_common.h"
#include "scenario/figures/figures.h"

namespace topo::scenario {
namespace {

struct BoundPoint {
  double observed = 0.0;
  double bound = 0.0;
};

// Evaluates one (topology seed, traffic seed) pair and the Eqn-1 bound on
// the SAME permutation instance: the cut component uses the instance's
// actual cross-cluster demand rather than its expectation, so the bound
// is valid per run (the paper notes the expectation form only holds up to
// an asymptotically insignificant error).
BoundPoint measure(const FigureConfig& config, const TwoTypeSpec& spec,
                   std::uint64_t salt) {
  BoundPoint point;
  std::vector<double> observed;
  std::vector<double> bounds;
  for (int run = 0; run < config.runs; ++run) {
    const std::uint64_t topo_seed = Rng::derive_seed(
        Rng::derive_seed(config.seed, salt), 2 * static_cast<std::uint64_t>(run));
    const std::uint64_t traffic_seed = Rng::derive_seed(
        Rng::derive_seed(config.seed, salt),
        2 * static_cast<std::uint64_t>(run) + 1);
    try {
      const BuiltTopology t = build_two_type(spec, topo_seed);
      Rng traffic_rng(traffic_seed);
      const TrafficMatrix tm =
          random_permutation_traffic(t.servers, traffic_rng);
      const auto commodities = aggregate_to_commodities(tm, t.servers);
      FlowOptions flow;
      flow.epsilon = config.epsilon;
      flow.mode = config.solver;
      const ThroughputResult r = max_concurrent_flow(t.graph, commodities, flow);
      observed.push_back(r.lambda);

      std::vector<char> in_a(static_cast<std::size_t>(t.graph.num_nodes()), 0);
      for (int i = 0; i < spec.num_large; ++i) {
        in_a[static_cast<std::size_t>(i)] = 1;
      }
      // Path-length component of Eqn 1.
      const double total_servers = t.servers.total();
      const double path_bound = t.graph.total_directed_capacity() /
                                (average_shortest_path_length(t.graph) *
                                 total_servers);
      // Cut component with the instance's actual cross demand.
      double cross_demand = 0.0;
      for (const Commodity& c : commodities) {
        if (in_a[static_cast<std::size_t>(c.src)] !=
            in_a[static_cast<std::size_t>(c.dst)]) {
          cross_demand += c.demand;
        }
      }
      const double c_bar = 2.0 * cut_capacity(t.graph, in_a);
      const double cut_bound =
          cross_demand > 0.0 ? c_bar / cross_demand : path_bound;
      bounds.push_back(std::min(path_bound, cut_bound));
    } catch (const ConstructionFailure&) {
      observed.push_back(0.0);
      bounds.push_back(0.0);
    }
  }
  point.observed = mean_of(observed);
  point.bound = mean_of(bounds);
  return point;
}

TwoTypeSpec uniform_case(int small_ports, int servers, double fraction) {
  TwoTypeSpec spec;
  spec.num_large = 20;
  spec.num_small = 40;
  spec.large_ports = 30;
  spec.small_ports = small_ports;
  spec = with_server_split(spec, servers, 1.0);
  spec.cross_fraction = fraction;
  return spec;
}

TwoTypeSpec mixed_case(int hs_links, double hs_speed, double fraction) {
  TwoTypeSpec spec;
  spec.num_large = 20;
  spec.num_small = 20;
  spec.large_ports = 40;
  spec.small_ports = 15;
  spec.servers_per_large = 31;
  spec.servers_per_small = 12;
  spec.hs_links_per_large = hs_links;
  spec.hs_speed = hs_speed;
  spec.cross_fraction = fraction;
  return spec;
}

void run(ScenarioRun& ctx, const FigureConfig& config) {
  const std::vector<double> fractions =
      config.full
          ? std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0, 1.3, 1.6}
          : std::vector<double>{0.1, 0.2, 0.4, 0.7, 1.0, 1.6};

  {
    ctx.banner(
        "Figure 10(a): Eqn-1 bound vs observed, uniform "
        "line-speeds (A: 3:1 ports, B: 3:2 ports)");
    TablePrinter table(
        {"x_cross", "bound_A", "throughput_A", "bound_B", "throughput_B"});
    int salt = 0;
    for (double x : fractions) {
      const BoundPoint a = measure(config, uniform_case(10, 400, x),
                                   51000 + salt * 67);
      const BoundPoint b = measure(config, uniform_case(20, 560, x),
                                   52000 + salt * 67);
      ++salt;
      table.add_row({x, a.bound, a.observed, b.bound, b.observed});
    }
    ctx.table(table);
  }

  {
    ctx.banner(
        "Figure 10(b): Eqn-1 bound vs observed, mixed line-speeds "
        "(A: 3 links @10x, B: 6 @4x, C: 9 @4x)");
    TablePrinter table({"x_cross", "bound_A", "throughput_A", "bound_B",
                        "throughput_B", "bound_C", "throughput_C"});
    int salt = 0;
    for (double x : fractions) {
      const BoundPoint a = measure(config, mixed_case(3, 10.0, x),
                                   53000 + salt * 67);
      const BoundPoint b = measure(config, mixed_case(6, 4.0, x),
                                   54000 + salt * 67);
      const BoundPoint c = measure(config, mixed_case(9, 4.0, x),
                                   55000 + salt * 67);
      ++salt;
      table.add_row({x, a.bound, a.observed, b.bound, b.observed, c.bound,
                     c.observed});
    }
    ctx.table(table);
  }
  ctx.out() << "Expected: bound >= throughput everywhere; tight for (a), "
               "looser for (b).\n";
}

}  // namespace

void register_fig10() {
  register_figure("fig10_bound_vs_observed",
                  "Figure 10: Eqn-1 bound vs observed throughput",
                  /*quick_runs=*/3, /*full_runs=*/20, FigureSolver::kDirect,
                  run);
}

}  // namespace topo::scenario
