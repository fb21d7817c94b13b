// Property-based tests of the concurrent-flow solver: scaling laws,
// monotonicity, and symmetry that must hold for any correct max
// concurrent flow implementation (up to the certified gap).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "flow/concurrent_flow.h"
#include "topo/random_regular.h"
#include "util/rng.h"

namespace topo {
namespace {

std::vector<Commodity> permutation_commodities(int n, int shift) {
  std::vector<Commodity> commodities;
  for (int i = 0; i < n; ++i) commodities.push_back({i, (i + shift) % n, 1.0});
  return commodities;
}

FlowOptions tight() {
  FlowOptions o;
  o.epsilon = 0.05;
  return o;
}

class ScalingLaws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScalingLaws, CapacityScalesThroughputLinearly) {
  const std::uint64_t seed = GetParam();
  const Graph g = random_regular_graph(16, 4, seed);
  Graph scaled(16);
  for (const Edge& e : g.edges()) scaled.add_edge(e.u, e.v, e.capacity * 3.0);
  const auto commodities = permutation_commodities(16, 5);
  const double base = max_concurrent_flow(g, commodities, tight()).lambda;
  const double tripled =
      max_concurrent_flow(scaled, commodities, tight()).lambda;
  EXPECT_NEAR(tripled / base, 3.0, 3.0 * 0.12);
}

TEST_P(ScalingLaws, DemandScalesThroughputInversely) {
  const std::uint64_t seed = GetParam();
  const Graph g = random_regular_graph(16, 4, seed);
  auto commodities = permutation_commodities(16, 5);
  const double base = max_concurrent_flow(g, commodities, tight()).lambda;
  for (Commodity& c : commodities) c.demand *= 4.0;
  const double heavy = max_concurrent_flow(g, commodities, tight()).lambda;
  EXPECT_NEAR(heavy * 4.0 / base, 1.0, 0.12);
}

TEST_P(ScalingLaws, AddingAnEdgeNeverHurtsMuch) {
  const std::uint64_t seed = GetParam();
  const Graph g = random_regular_graph(16, 4, seed);
  Graph augmented(16);
  for (const Edge& e : g.edges()) augmented.add_edge(e.u, e.v, e.capacity);
  // Add an extra edge between two non-adjacent nodes.
  for (NodeId u = 0; u < 16; ++u) {
    bool added = false;
    for (NodeId v = u + 2; v < 16; ++v) {
      if (!g.has_edge(u, v)) {
        augmented.add_edge(u, v, 1.0);
        added = true;
        break;
      }
    }
    if (added) break;
  }
  const auto commodities = permutation_commodities(16, 5);
  const double base = max_concurrent_flow(g, commodities, tight()).lambda;
  const double more =
      max_concurrent_flow(augmented, commodities, tight()).lambda;
  // Monotone up to solver noise: both are (1-eps)-certified lower bounds.
  EXPECT_GE(more, base * (1.0 - 2.0 * 0.05));
}

TEST_P(ScalingLaws, RelabelingNodesPreservesThroughput) {
  const std::uint64_t seed = GetParam();
  const Graph g = random_regular_graph(14, 4, seed);
  // Relabel i -> (i + 3) mod 14.
  const auto relabel = [](NodeId v) { return (v + 3) % 14; };
  Graph h(14);
  for (const Edge& e : g.edges()) {
    h.add_edge(relabel(e.u), relabel(e.v), e.capacity);
  }
  auto commodities = permutation_commodities(14, 5);
  const double lambda_g = max_concurrent_flow(g, commodities, tight()).lambda;
  for (Commodity& c : commodities) {
    c.src = relabel(c.src);
    c.dst = relabel(c.dst);
  }
  const double lambda_h = max_concurrent_flow(h, commodities, tight()).lambda;
  EXPECT_NEAR(lambda_g, lambda_h, 0.08 * lambda_g);
}

TEST_P(ScalingLaws, MergingParallelCommoditiesIsEquivalent) {
  const std::uint64_t seed = GetParam();
  const Graph g = random_regular_graph(12, 4, seed);
  // Two unit commodities over the same pair == one of demand two.
  const std::vector<Commodity> split{{0, 6, 1.0}, {0, 6, 1.0}, {3, 9, 1.0}};
  const std::vector<Commodity> merged{{0, 6, 2.0}, {3, 9, 1.0}};
  const double a = max_concurrent_flow(g, split, tight()).lambda;
  const double b = max_concurrent_flow(g, merged, tight()).lambda;
  EXPECT_NEAR(a, b, 0.08 * std::max(a, b));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScalingLaws,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL));

TEST(FlowInvariants, DualAlwaysAtLeastPrimal) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Graph g = random_regular_graph(18, 4, seed);
    const auto commodities = permutation_commodities(18, 7);
    const ThroughputResult r = max_concurrent_flow(g, commodities);
    EXPECT_GE(r.dual_bound, r.lambda * (1.0 - 1e-9));
    EXPECT_GE(r.gap, 0.0);
    EXPECT_LE(r.gap, 1.0);
  }
}

TEST(FlowInvariants, ArcFlowConservesAtIntermediateNodes) {
  // With a single commodity, net flow at any non-endpoint node is zero.
  Graph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 4, 2.0);
  g.add_edge(0, 4, 0.3);
  const ThroughputResult r =
      max_concurrent_flow(g, {{0, 4, 1.0}}, FlowOptions{.epsilon = 0.03});
  for (NodeId n = 1; n <= 3; ++n) {
    double net = 0.0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& edge = g.edge(e);
      if (edge.u == n) {
        net += r.arc_flow[static_cast<std::size_t>(2 * e)];
        net -= r.arc_flow[static_cast<std::size_t>(2 * e + 1)];
      } else if (edge.v == n) {
        net -= r.arc_flow[static_cast<std::size_t>(2 * e)];
        net += r.arc_flow[static_cast<std::size_t>(2 * e + 1)];
      }
    }
    EXPECT_NEAR(net, 0.0, 1e-6);
  }
}

// Approx mode reports the flow of a window of recent phases, not of all
// of them; whatever window wins, the reported flow must be one feasible
// concurrent flow of value lambda: within capacity on every arc,
// conserving lambda * demand at every node, and under the dual bound.
TEST(FlowInvariants, ApproxFlowIsFeasibleAndConserving) {
  Rng rng(2024);
  for (int instance = 0; instance < 200; ++instance) {
    SCOPED_TRACE(::testing::Message() << "instance " << instance);
    int n = rng.uniform_int(12, 30);
    const int degree = rng.uniform_int(3, 6);
    if (n * degree % 2 != 0) ++n;
    const Graph rrg = random_regular_graph(n, degree, rng.engine()());
    Graph g(n);  // same wiring, mixed line speeds
    for (const Edge& e : rrg.edges()) {
      g.add_edge(e.u, e.v, rng.uniform(0.5, 2.0));
    }
    std::vector<Commodity> commodities;
    const int count = rng.uniform_int(4, 2 * n);
    while (static_cast<int>(commodities.size()) < count) {
      const int src = rng.uniform_int(0, n - 1);
      const int dst = rng.uniform_int(0, n - 1);
      if (src != dst) commodities.push_back({src, dst, rng.uniform(0.2, 3.0)});
    }
    FlowOptions options;
    options.mode = SolverMode::kApprox;
    options.restrict_to_shortest_paths = instance % 4 == 3;
    // The cap keeps the loop quick and also exercises the capped exit,
    // which reports whatever window won the last phase.
    options.max_phases = 200;
    const ThroughputResult r = max_concurrent_flow(g, commodities, options);
    ASSERT_TRUE(r.feasible);
    ASSERT_GT(r.lambda, 0.0);
    EXPECT_LE(r.lambda, r.dual_bound);

    std::vector<double> net_out(static_cast<std::size_t>(n), 0.0);
    std::vector<double> expected(static_cast<std::size_t>(n), 0.0);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& edge = g.edge(e);
      const double forward = r.arc_flow[static_cast<std::size_t>(2 * e)];
      const double backward = r.arc_flow[static_cast<std::size_t>(2 * e + 1)];
      EXPECT_LE(forward, edge.capacity * (1.0 + 1e-12));
      EXPECT_LE(backward, edge.capacity * (1.0 + 1e-12));
      net_out[static_cast<std::size_t>(edge.u)] += forward - backward;
      net_out[static_cast<std::size_t>(edge.v)] += backward - forward;
    }
    for (const Commodity& c : commodities) {
      expected[static_cast<std::size_t>(c.src)] += r.lambda * c.demand;
      expected[static_cast<std::size_t>(c.dst)] -= r.lambda * c.demand;
    }
    const double scale = r.lambda * r.total_demand;
    for (NodeId v = 0; v < n; ++v) {
      const double error = std::abs(net_out[static_cast<std::size_t>(v)] -
                                    expected[static_cast<std::size_t>(v)]);
      EXPECT_LE(error, 1e-9 * scale) << "node " << v;
    }
  }
}

TEST(FlowInvariants, TotalDemandReported) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  const ThroughputResult r =
      max_concurrent_flow(g, {{0, 2, 1.5}, {2, 0, 2.5}});
  EXPECT_DOUBLE_EQ(r.total_demand, 4.0);
}

TEST(FlowInvariants, PhasesBoundedByOptions) {
  const Graph g = random_regular_graph(12, 4, 3);
  FlowOptions options;
  options.epsilon = 0.001;  // unreachably tight
  options.max_phases = 25;
  const ThroughputResult r =
      max_concurrent_flow(g, permutation_commodities(12, 5), options);
  EXPECT_LE(r.phases, 25);
  EXPECT_GT(r.lambda, 0.0);  // still returns a feasible answer
}

TEST(FlowInvariants, StagnationCutoffStops) {
  const Graph g = random_regular_graph(12, 4, 3);
  FlowOptions options;
  options.epsilon = 1e-6;  // never reached
  options.stagnation_phases = 10;
  options.max_phases = 100000;
  const ThroughputResult r =
      max_concurrent_flow(g, permutation_commodities(12, 5), options);
  EXPECT_LT(r.phases, 10000);  // stopped by stagnation, not max_phases
}

}  // namespace
}  // namespace topo
