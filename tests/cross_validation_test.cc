// Cross-validation of the Garg-Konemann FPTAS against the exact LP on
// instances small enough for dense simplex, plus the certificate
// invariant lambda <= dual_bound on larger random instances.
#include <gtest/gtest.h>

#include <vector>

#include "flow/concurrent_flow.h"
#include "lp/mcf_lp.h"
#include "topo/random_regular.h"
#include "util/rng.h"

namespace topo {
namespace {

std::vector<Commodity> random_commodities(const Graph& g, int count,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Commodity> commodities;
  while (static_cast<int>(commodities.size()) < count) {
    const int src = rng.uniform_int(0, g.num_nodes() - 1);
    const int dst = rng.uniform_int(0, g.num_nodes() - 1);
    if (src == dst) continue;
    commodities.push_back({src, dst, rng.uniform(0.5, 2.0)});
  }
  return commodities;
}

TEST(CrossValidation, FptasWithinEpsilonOfExactLp) {
  for (SolverMode mode : {SolverMode::kExact, SolverMode::kApprox}) {
    FlowOptions options;
    options.epsilon = 0.05;
    options.mode = mode;
    for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
      SCOPED_TRACE(::testing::Message()
                   << (mode == SolverMode::kApprox ? "approx" : "exact")
                   << " seed " << seed);
      const Graph g = random_regular_graph(10, 3, seed);
      const auto commodities = random_commodities(g, 6, seed + 100);
      const McfLpResult exact = solve_concurrent_flow_lp(g, commodities);
      ASSERT_EQ(exact.status, LpStatus::kOptimal);
      const ThroughputResult fptas =
          max_concurrent_flow(g, commodities, options);
      ASSERT_TRUE(fptas.feasible);
      // The FPTAS reports a certified feasible lambda, so it can never
      // exceed the LP optimum; with a certified gap of epsilon it must
      // also land within (1 - epsilon) of it.
      EXPECT_LE(fptas.lambda, exact.lambda + 1e-7);
      EXPECT_GE(fptas.lambda, (1.0 - options.epsilon) * exact.lambda - 1e-7);
      // The dual certificate brackets the true optimum from above.
      EXPECT_GE(fptas.dual_bound, exact.lambda - 1e-7);
    }
  }
}

TEST(CrossValidation, LambdaNeverExceedsDualBound) {
  FlowOptions options;
  options.epsilon = 0.1;
  for (std::uint64_t seed : {3u, 7u, 13u}) {
    const Graph g = random_regular_graph(24, 4, seed);
    const auto commodities = random_commodities(g, 24, seed + 9);
    const ThroughputResult r = max_concurrent_flow(g, commodities, options);
    ASSERT_TRUE(r.feasible);
    EXPECT_LE(r.lambda, r.dual_bound + 1e-9) << "seed " << seed;
    EXPECT_GE(r.gap, 0.0);
  }
}

TEST(CrossValidation, RestrictedRoutingStaysBelowUnrestricted) {
  // Shortest-path-restricted routing optimizes over a subset of paths, so
  // its certified throughput cannot beat unrestricted routing by more
  // than solver tolerance.
  const Graph g = random_regular_graph(16, 4, 91);
  const auto commodities = random_commodities(g, 12, 17);
  FlowOptions options;
  options.epsilon = 0.05;
  const ThroughputResult free_routing =
      max_concurrent_flow(g, commodities, options);
  options.restrict_to_shortest_paths = true;
  const ThroughputResult ecmp = max_concurrent_flow(g, commodities, options);
  ASSERT_TRUE(free_routing.feasible);
  ASSERT_TRUE(ecmp.feasible);
  EXPECT_LE(ecmp.lambda, free_routing.dual_bound + 1e-9);
}

}  // namespace
}  // namespace topo
