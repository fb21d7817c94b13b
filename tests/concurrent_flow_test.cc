// Tests for the FPTAS concurrent-flow solver, including cross-validation
// against the exact LP and the paper's throughput-decomposition identity.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bounds/bounds.h"
#include "core/failure.h"
#include "flow/concurrent_flow.h"
#include "lp/mcf_lp.h"
#include "topo/random_regular.h"
#include "traffic/traffic.h"
#include "util/rng.h"

namespace topo {
namespace {

FlowOptions tight() {
  FlowOptions o;
  o.epsilon = 0.05;
  return o;
}

TEST(ConcurrentFlow, SinglePathExact) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  const ThroughputResult r = max_concurrent_flow(g, {{0, 2, 1.0}}, tight());
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(r.lambda, 1.0, 1e-9);  // primal reaches exactly capacity
  EXPECT_GE(r.dual_bound, r.lambda - 1e-9);
}

TEST(ConcurrentFlow, CertifiedGapHolds) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 0, 1.0);
  const ThroughputResult r = max_concurrent_flow(
      g, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}}, tight());
  EXPECT_LE(r.gap, 0.05 + 1e-9);
  EXPECT_GE(r.lambda, (1.0 - 0.05) * 1.5 - 1e-6);  // known OPT = 1.5
  EXPECT_LE(r.lambda, 1.5 + 1e-6);
}

TEST(ConcurrentFlow, DisconnectedReportsInfeasible) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const ThroughputResult r = max_concurrent_flow(g, {{0, 2, 1.0}});
  EXPECT_FALSE(r.feasible);
  EXPECT_DOUBLE_EQ(r.lambda, 0.0);
}

TEST(ConcurrentFlow, EmptyGraphInfeasible) {
  Graph g(3);
  const ThroughputResult r = max_concurrent_flow(g, {{0, 2, 1.0}});
  EXPECT_FALSE(r.feasible);
}

TEST(ConcurrentFlow, RejectsMalformedCommodities) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  EXPECT_THROW((void)max_concurrent_flow(g, {}), InvalidArgument);
  EXPECT_THROW((void)max_concurrent_flow(g, {{0, 0, 1.0}}), InvalidArgument);
  EXPECT_THROW((void)max_concurrent_flow(g, {{0, 1, 0.0}}), InvalidArgument);
}

TEST(ConcurrentFlow, FlowsRespectCapacities) {
  const Graph g = random_regular_graph(16, 4, 3);
  std::vector<Commodity> commodities;
  for (int i = 0; i < 16; ++i) commodities.push_back({i, (i + 5) % 16, 2.0});
  const ThroughputResult r = max_concurrent_flow(g, commodities, tight());
  for (int arc = 0; arc < 2 * g.num_edges(); ++arc) {
    EXPECT_LE(r.arc_flow[static_cast<std::size_t>(arc)],
              g.edge(arc / 2).capacity + 1e-7);
  }
}

TEST(ConcurrentFlow, DecompositionIdentityHolds) {
  // The paper's T = C*U / (<D> * AS * f) identity, with f the total demand
  // and <D>*AS the mean routed path length, holds exactly by construction.
  const Graph g = random_regular_graph(20, 4, 9);
  std::vector<Commodity> commodities;
  for (int i = 0; i < 20; ++i) commodities.push_back({i, (i + 7) % 20, 1.0});
  const ThroughputResult r = max_concurrent_flow(g, commodities, tight());
  ASSERT_TRUE(r.feasible);
  const double c_total = g.total_directed_capacity();
  const double reconstructed =
      c_total * r.utilization /
      (r.demand_weighted_spl * r.stretch * r.total_demand);
  EXPECT_NEAR(reconstructed, r.lambda, 1e-6 * r.lambda);
}

TEST(ConcurrentFlow, UtilizationWithinUnitRange) {
  const Graph g = random_regular_graph(14, 3, 2);
  std::vector<Commodity> commodities;
  for (int i = 0; i < 14; ++i) commodities.push_back({i, (i + 3) % 14, 1.0});
  const ThroughputResult r = max_concurrent_flow(g, commodities);
  EXPECT_GT(r.utilization, 0.0);
  EXPECT_LE(r.utilization, 1.0 + 1e-9);
}

TEST(ConcurrentFlow, StretchAtLeastOne) {
  const Graph g = random_regular_graph(14, 3, 2);
  std::vector<Commodity> commodities;
  for (int i = 0; i < 14; ++i) commodities.push_back({i, (i + 3) % 14, 1.0});
  const ThroughputResult r = max_concurrent_flow(g, commodities);
  EXPECT_GE(r.stretch, 1.0 - 1e-6);
}

TEST(ConcurrentFlow, HighCapacityEdgePreferred) {
  // Two parallel 2-hop routes, one 10x faster: throughput ~ 11 total.
  Graph g(4);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 3, 10.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  const ThroughputResult r = max_concurrent_flow(g, {{0, 3, 1.0}}, tight());
  EXPECT_GE(r.lambda, 0.95 * 11.0);
  EXPECT_LE(r.lambda, 11.0 + 1e-6);
}

// Cross-validation against the exact LP over random instances.
class FptasVsLp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FptasVsLp, WithinCertifiedGap) {
  const std::uint64_t seed = GetParam();
  const Graph g = random_regular_graph(10, 3, seed);
  Rng rng(seed + 1000);
  std::vector<Commodity> commodities;
  for (int i = 0; i < 6; ++i) {
    const int src = rng.uniform_int(0, 9);
    int dst = rng.uniform_int(0, 9);
    if (dst == src) dst = (dst + 1) % 10;
    commodities.push_back({src, dst, 1.0 + rng.uniform()});
  }
  const McfLpResult exact = solve_concurrent_flow_lp(g, commodities);
  ASSERT_EQ(exact.status, LpStatus::kOptimal);
  const ThroughputResult approx =
      max_concurrent_flow(g, commodities, tight());
  // The FPTAS is a lower bound within its certified gap of the optimum,
  // and its dual bound must be above the optimum.
  EXPECT_LE(approx.lambda, exact.lambda * (1.0 + 1e-6));
  EXPECT_GE(approx.lambda, exact.lambda * (1.0 - 0.05) - 1e-9);
  EXPECT_GE(approx.dual_bound, exact.lambda * (1.0 - 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Sweep, FptasVsLp,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL,
                                           6ULL, 7ULL, 8ULL));

// Property: the Theorem-1 path-length bound holds for the measured
// throughput on arbitrary random instances.
class Theorem1Property
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(Theorem1Property, MeasuredThroughputBelowBound) {
  const auto [n, r, seed] = GetParam();
  if ((n * r) % 2 != 0) GTEST_SKIP();
  const Graph g = random_regular_graph(n, r, seed);
  std::vector<Commodity> commodities;
  for (int i = 0; i < n; ++i) commodities.push_back({i, (i + n / 2) % n, 1.0});
  const ThroughputResult measured = max_concurrent_flow(g, commodities);
  const double bound = throughput_upper_bound(g, commodities);
  EXPECT_LE(measured.lambda, bound * (1.0 + 1e-6));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem1Property,
    ::testing::Combine(::testing::Values(12, 24, 40),
                       ::testing::Values(3, 5, 8),
                       ::testing::Values(11ULL, 12ULL)));

// Bit pins: the IEEE-754 bit patterns of lambda and dual_bound, and the
// phase count, of four seeded solves. The golden tables compare at 1e-9,
// so a change that moves a certificate by a rounding passes them; these
// fail on any moved bit. Regenerate only for an intended numerics change
// (which also bumps kSolverVersionTag or kSolverApproxVersionTag); the
// failure messages print the new values.
struct BitPin {
  const char* name;
  const char* lambda;
  const char* dual_bound;
  int phases;
};

const BitPin kBitPins[] = {
    {"exact_rrg", "3febeb9a020a32ff", "3fee56346fd99b0c", 219},
    {"exact_shortest_paths", "3fd542090bc27cd5", "3fd710cda403b03f", 94},
    {"exact_link_failures", "3fe64e7b54166c61", "3fe83c460d40f3fb", 191},
    {"approx_rrg", "3fec000000000000", "3fee6b7a0cd8d6c2", 106},
};

std::string bits_hex(double x) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(x)));
  return buf;
}

// RRG(40, 12, 8): 40 source groups, so the dual pass runs full and
// partial distance batches.
ThroughputResult pinned_solve(const std::string& name) {
  BuiltTopology topo = random_regular_topology(40, 12, 8, 5);
  if (name == "exact_link_failures") {
    FailureSpec spec;
    spec.uniform.link_fraction = 0.15;
    topo = apply_failures(topo, spec, 9);
  }
  Rng rng(13);
  const std::vector<Commodity> commodities = aggregate_to_commodities(
      random_permutation_traffic(topo.servers, rng), topo.servers);
  FlowOptions options;
  options.restrict_to_shortest_paths = name == "exact_shortest_paths";
  if (name == "approx_rrg") options.mode = SolverMode::kApprox;
  return max_concurrent_flow(topo.graph, commodities, options);
}

TEST(SolverBits, CertificatesKeepTheirBits) {
  for (const BitPin& pin : kBitPins) {
    SCOPED_TRACE(pin.name);
    const ThroughputResult r = pinned_solve(pin.name);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(bits_hex(r.lambda), pin.lambda) << "lambda " << r.lambda;
    EXPECT_EQ(bits_hex(r.dual_bound), pin.dual_bound)
        << "dual_bound " << r.dual_bound;
    EXPECT_EQ(r.phases, pin.phases);
  }
}

}  // namespace
}  // namespace topo
