#include "search/case_studies.h"

#include <iostream>

#include "core/topobench.h"
#include "scenario/sweep.h"
#include "util/error.h"
#include "util/exit_codes.h"

namespace topo::search {
namespace {

// `runs` runs of `family` at `params` from point seed `seed`: one data
// point through the sweep cell path (scenario::run_point).
ExperimentStats point_stats(const std::string& family,
                            scenario::ParamMap params, double epsilon,
                            int runs, std::uint64_t seed) {
  scenario::SweepRunConfig config;
  config.runs = runs;
  config.epsilon = epsilon;
  config.master_seed = seed;
  return scenario::run_point({family, std::move(params)},
                             TrafficKind::kPermutation, 1.0, config)
      .points.front()
      .stats;
}

}  // namespace

int vl2_rewiring_case_study(int argc, const char* const* argv,
                            std::ostream& os) {
  try {
    const Flags flags(argc, argv, {"da", "di", "runs"});
    Vl2Params params;
    params.d_a = flags.get_int("da", 12);
    params.d_i = flags.get_int("di", 12);
    const int runs = flags.get_int("runs", 3);
    require(runs >= 1, "--runs must be >= 1");

    os << "== VL2 rewiring case study ==\n\n";
    os << "Equipment: " << params.d_i << " aggregation switches ("
       << params.d_a << " x 10G ports), " << params.d_a / 2
       << " core switches (" << params.d_i
       << " x 10G ports), ToRs with 20 x 1G servers + 2 x 10G uplinks.\n";

    const int nominal = vl2_nominal_tors(params);
    os << "VL2 supports " << nominal << " ToRs (" << 20 * nominal
       << " servers) at full throughput by construction.\n";

    EvalOptions options;
    options.flow.epsilon = 0.05;

    // Sanity check VL2 itself through the same solver.
    const BuiltTopology vl2 = vl2_topology(params);
    const ThroughputResult vl2_result = evaluate_throughput(vl2, options, 3);
    os << "Solver check on VL2 at nominal size: lambda = " << vl2_result.lambda
       << " (expected ~1.0)\n\n";

    // Binary search the rewired design: a ToR count passes when every
    // run reaches lambda >= 0.95, all probes drawing from point seed 17.
    const auto probe = [&](int tors) {
      try {
        const ExperimentStats stats = point_stats(
            "rewired_vl2",
            {{"d_a", params.d_a}, {"d_i", params.d_i}, {"tors", tors}},
            options.flow.epsilon, runs, /*seed=*/17);
        return stats.infeasible_runs == 0 && stats.lambda.min >= 0.95;
      } catch (const InvalidArgument&) {
        return false;  // ToR count beyond what the pool can host
      }
    };
    const int rewired = max_tors_at_full_throughput(
        nominal / 2, rewired_vl2_max_tors(params), probe);

    os << "Rewired pool supports " << rewired << " ToRs (" << 20 * rewired
       << " servers) at full throughput across " << runs << " runs.\n";
    os << "Improvement over VL2: "
       << 100.0 * (static_cast<double>(rewired) / nominal - 1.0)
       << "% more servers from the same equipment.\n";
    os << "(The paper reports up to 43% at DA=20, DI=28, growing with "
          "scale.)\n";
    return kExitOk;
  } catch (const InvalidArgument& e) {
    std::cerr << e.what() << "\n";
    return kExitUsage;
  }
}

int heterogeneous_design_case_study(int argc, const char* const* argv,
                                    std::ostream& os) {
  try {
    const Flags flags(
        argc, argv, {"large", "small", "large-ports", "small-ports", "servers"});
    TwoTypeSpec base;
    base.num_large = flags.get_int("large", 10);
    base.num_small = flags.get_int("small", 20);
    base.large_ports = flags.get_int("large-ports", 24);
    base.small_ports = flags.get_int("small-ports", 12);
    const int servers = flags.get_int("servers", 220);

    os << "== Heterogeneous design advisor ==\n\n";
    os << "Pool: " << base.num_large << " large switches (" << base.large_ports
       << " ports) + " << base.num_small << " small switches ("
       << base.small_ports << " ports); " << servers
       << " servers to attach.\n\n";

    EvalOptions options;
    options.flow.epsilon = 0.08;
    const int runs = 3;

    // 1. Server placement sweep at vanilla random wiring.
    os << "Server placement (x = servers on large switches relative to "
          "the port-proportional split):\n";
    TablePrinter placement(
        {"x", "servers_per_large", "servers_per_small", "throughput"});
    double best_lambda = 0.0;
    double best_ratio = 1.0;
    for (double x : {0.5, 0.75, 1.0, 1.25, 1.5, 2.0}) {
      const TwoTypeSpec spec = with_server_split(base, servers, x);
      if (spec.servers_per_large >= spec.large_ports) continue;
      const ExperimentStats stats = point_stats(
          "two_type",
          {{"num_large", base.num_large},
           {"num_small", base.num_small},
           {"large_ports", base.large_ports},
           {"small_ports", base.small_ports},
           {"total_servers", servers},
           {"placement_ratio", x}},
          options.flow.epsilon, runs, /*seed=*/7);
      placement.add_row({x, static_cast<long long>(spec.servers_per_large),
                         static_cast<long long>(spec.servers_per_small),
                         stats.lambda.mean});
      if (stats.lambda.mean > best_lambda) {
        best_lambda = stats.lambda.mean;
        best_ratio = x;
      }
    }
    placement.print(os);
    os << "Best split found at x = " << best_ratio
       << " (paper: x = 1, proportional, is always among the best).\n\n";

    // 2. Cross-type wiring sweep at the proportional split.
    os << "Cross-type wiring (x = cross links relative to vanilla "
          "randomness), proportional servers:\n";
    const TwoTypeSpec proportional = with_server_split(base, servers, 1.0);
    TablePrinter wiring({"x", "throughput", "eqn1_bound"});
    for (double x : {0.15, 0.3, 0.5, 0.75, 1.0, 1.5}) {
      TwoTypeSpec spec = proportional;
      spec.cross_fraction = x;
      const BuiltTopology t = build_two_type(spec, 11);
      const ThroughputResult r = evaluate_throughput(t, options, 13);
      std::vector<char> in_large(static_cast<std::size_t>(t.graph.num_nodes()),
                                 0);
      for (int i = 0; i < spec.num_large; ++i) {
        in_large[static_cast<std::size_t>(i)] = 1;
      }
      const double n1 =
          static_cast<double>(spec.num_large) * spec.servers_per_large;
      const double n2 =
          static_cast<double>(spec.num_small) * spec.servers_per_small;
      const TwoClusterBound bound =
          two_cluster_throughput_bound(t.graph, in_large, n1, n2);
      wiring.add_row({x, r.lambda, bound.combined});
    }
    wiring.print(os);

    // 3. The drop threshold: how much clustering is safe (useful for cable
    // optimization, per §6.2).
    const double n1 = static_cast<double>(proportional.num_large) *
                      proportional.servers_per_large;
    const double n2 = static_cast<double>(proportional.num_small) *
                      proportional.servers_per_small;
    const double cbar_star = cross_capacity_threshold(best_lambda, n1, n2);
    const double x_star =
        cbar_star / (2.0 * two_type_expected_cross(proportional));
    os << "\nRecommendation: proportional servers ("
       << proportional.servers_per_large << " per large, "
       << proportional.servers_per_small
       << " per small), random wiring. Cross-type links can be reduced to ~"
       << 100.0 * x_star
       << "% of vanilla randomness (e.g. to shorten cables) before "
          "throughput must drop.\n";
    return kExitOk;
  } catch (const InvalidArgument& e) {
    std::cerr << e.what() << "\n";
    return kExitUsage;
  }
}

}  // namespace topo::search
