// Ablation: optimal routing vs strictly-shortest-path (ECMP) routing.
//
// Reproduces the routing observation behind the paper's §8 methodology:
// on structured Clos topologies (fat-tree), every shortest path is
// equivalent and ECMP matches optimal routing; on random graphs, pinning
// flows to strictly shortest paths squanders capacity (1-hop pairs get a
// single path) — which is why Jellyfish-style designs route over
// k-shortest (including non-minimal) paths via MPTCP.
#include <functional>

#include "bench_common.h"

#include "topo/fat_tree.h"

namespace topo {
namespace {

using bench::BenchConfig;
using Builder = std::function<BuiltTopology(std::uint64_t seed)>;

struct RoutingPoint {
  double optimal = 0.0;
  double ecmp = 0.0;
};

std::uint64_t topo_seed_for(const BenchConfig& config, std::uint64_t salt,
                            int run) {
  return Rng::derive_seed(Rng::derive_seed(config.seed, salt),
                          2 * static_cast<std::uint64_t>(run));
}

std::uint64_t traffic_seed_for(const BenchConfig& config, std::uint64_t salt,
                               int run) {
  return Rng::derive_seed(Rng::derive_seed(config.seed, salt),
                          2 * static_cast<std::uint64_t>(run) + 1);
}

RoutingPoint compare(const BenchConfig& config, const Builder& builder,
                     std::uint64_t salt) {
  RoutingPoint point;
  std::vector<double> optimal;
  std::vector<double> ecmp;
  for (int run = 0; run < config.runs; ++run) {
    const BuiltTopology t = builder(topo_seed_for(config, salt, run));
    const std::uint64_t traffic_seed = traffic_seed_for(config, salt, run);
    EvalOptions options = bench::eval_options(config);
    optimal.push_back(evaluate_throughput(t, options, traffic_seed).lambda);
    options.flow.restrict_to_shortest_paths = true;
    ecmp.push_back(evaluate_throughput(t, options, traffic_seed).lambda);
  }
  point.optimal = mean_of(optimal);
  point.ecmp = mean_of(ecmp);
  return point;
}

}  // namespace
}  // namespace topo

int main(int argc, char** argv) {
  using namespace topo;
  const bench::BenchConfig config =
      bench::parse_bench_config(argc, argv, /*quick_runs=*/3, /*full_runs=*/10);

  print_banner(std::cout,
               "Ablation: optimal vs strictly-shortest-path (ECMP) routing");
  TablePrinter table({"topology", "optimal", "ecmp", "ecmp_fraction"});

  {
    // The fat-tree is deterministic, so this point is one fixed topology
    // under several traffic draws — the batch-trials API evaluates the
    // draws concurrently (same seed derivation as the builder path).
    const BuiltTopology t = fat_tree_topology(8);  // 128 servers, non-blocking
    std::vector<std::uint64_t> traffic_seeds;
    for (int run = 0; run < config.runs; ++run) {
      traffic_seeds.push_back(traffic_seed_for(config, 101, run));
    }
    EvalOptions options = bench::eval_options(config);
    std::vector<double> optimal;
    for (const ThroughputResult& r :
         evaluate_throughput_trials(t, options, traffic_seeds)) {
      optimal.push_back(r.lambda);
    }
    options.flow.restrict_to_shortest_paths = true;
    std::vector<double> ecmp;
    for (const ThroughputResult& r :
         evaluate_throughput_trials(t, options, traffic_seeds)) {
      ecmp.push_back(r.lambda);
    }
    const RoutingPoint p{mean_of(optimal), mean_of(ecmp)};
    table.add_row({std::string("fat_tree_k8"), p.optimal, p.ecmp,
                   p.ecmp / p.optimal});
  }
  {
    const Builder rrg = [](std::uint64_t seed) {
      return random_regular_topology(40, 15, 10, seed);  // 200 servers
    };
    const RoutingPoint p = compare(config, rrg, 102);
    table.add_row({std::string("rrg_40x10"), p.optimal, p.ecmp,
                   p.ecmp / p.optimal});
  }
  {
    const Builder dense_rrg = [](std::uint64_t seed) {
      return random_regular_topology(40, 25, 20, seed);
    };
    const RoutingPoint p = compare(config, dense_rrg, 103);
    table.add_row({std::string("rrg_40x20"), p.optimal, p.ecmp,
                   p.ecmp / p.optimal});
  }
  table.emit(std::cout, config.csv);
  std::cout << "Expected: ecmp_fraction ~1 for the fat-tree, well below 1 "
               "for random graphs (ECMP pins 1-hop pairs to single links; "
               "k-shortest/MPTCP routing is required there).\n";
  return 0;
}
