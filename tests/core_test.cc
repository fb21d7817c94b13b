// Tests for the core evaluation / experiment layer: single evaluations,
// data points run through the sweep cell path, and the Fig-12 bisection.
#include <gtest/gtest.h>

#include "core/evaluate.h"
#include "core/experiment.h"
#include "flow/bottleneck.h"
#include "scenario/sweep.h"
#include "topo/het_random.h"
#include "topo/random_regular.h"
#include "topo/vl2.h"
#include "util/rng.h"

namespace topo {
namespace {

EvalOptions quick_eval() {
  EvalOptions o;
  o.flow.epsilon = 0.08;
  return o;
}

TEST(Evaluate, PermutationOnRrgHasPositiveThroughput) {
  const BuiltTopology t = random_regular_topology(16, 8, 5, 2);
  const ThroughputResult r = evaluate_throughput(t, quick_eval(), 7);
  EXPECT_TRUE(r.feasible);
  EXPECT_GT(r.lambda, 0.1);
  EXPECT_LT(r.lambda, 5.0);
}

TEST(Evaluate, AllToAllUsesAggregatedCommodities) {
  const BuiltTopology t = random_regular_topology(8, 6, 4, 2);
  EvalOptions o = quick_eval();
  o.traffic = TrafficKind::kAllToAll;
  const ThroughputResult r = evaluate_throughput(t, o, 7);
  EXPECT_TRUE(r.feasible);
  // Each of 16 servers offers 1 unit of egress split over 15 destinations;
  // the 1 same-switch destination (of the 15) never enters the network.
  EXPECT_NEAR(r.total_demand, 16.0 * 14.0 / 15.0, 1e-9);
}

TEST(Evaluate, ChunkyFractionRespected) {
  const BuiltTopology t = random_regular_topology(10, 8, 4, 2);
  EvalOptions o = quick_eval();
  o.traffic = TrafficKind::kChunky;
  o.chunky_fraction = 1.0;
  const ThroughputResult r = evaluate_throughput(t, o, 3);
  EXPECT_TRUE(r.feasible);
  EXPECT_GT(r.lambda, 0.0);
}

TEST(Evaluate, DeterministicForSameSeed) {
  const BuiltTopology t = random_regular_topology(12, 8, 5, 4);
  const ThroughputResult a = evaluate_throughput(t, quick_eval(), 11);
  const ThroughputResult b = evaluate_throughput(t, quick_eval(), 11);
  EXPECT_DOUBLE_EQ(a.lambda, b.lambda);
}

TEST(Evaluate, DifferentTrafficSeedsDiffer) {
  const BuiltTopology t = random_regular_topology(12, 8, 5, 4);
  const ThroughputResult a = evaluate_throughput(t, quick_eval(), 1);
  const ThroughputResult b = evaluate_throughput(t, quick_eval(), 2);
  EXPECT_NE(a.lambda, b.lambda);
}

// `runs` runs of `family` at `params` from point seed `seed`: one data
// point through the sweep cell path.
ExperimentStats point_stats(const std::string& family,
                            scenario::ParamMap params, int runs,
                            std::uint64_t seed, double epsilon = 0.08) {
  scenario::SweepRunConfig config;
  config.runs = runs;
  config.epsilon = epsilon;
  config.master_seed = seed;
  return scenario::run_point({family, std::move(params)},
                             TrafficKind::kPermutation, 1.0, config)
      .points.front()
      .stats;
}

const scenario::ParamMap kRrg14 = {{"n", 14}, {"ports", 8}, {"degree", 5}};

TEST(Experiment, AggregatesOverRuns) {
  const ExperimentStats stats = point_stats("random_regular", kRrg14, 4, 99);
  EXPECT_EQ(stats.lambda.count, 4u);
  EXPECT_GT(stats.lambda.mean, 0.0);
  EXPECT_EQ(stats.infeasible_runs, 0);
  EXPECT_GE(stats.lambda.max, stats.lambda.min);
}

TEST(Experiment, DeterministicForMasterSeed) {
  const ExperimentStats a = point_stats("random_regular", kRrg14, 3, 5);
  const ExperimentStats b = point_stats("random_regular", kRrg14, 3, 5);
  EXPECT_DOUBLE_EQ(a.lambda.mean, b.lambda.mean);
  EXPECT_DOUBLE_EQ(a.utilization.mean, b.utilization.mean);
}

TEST(Experiment, RunToRunVarianceIsModest) {
  // The paper reports ~1% standard deviations; at our small test scale we
  // allow more, but variance should still be far below the mean.
  const ExperimentStats stats = point_stats(
      "random_regular", {{"n", 20}, {"ports", 10}, {"degree", 6}}, 6, 17);
  EXPECT_LT(stats.lambda.stdev, 0.15 * stats.lambda.mean);
}

TEST(Experiment, VL2NominalIsNearFullThroughput) {
  // VL2 at its nominal size is non-oversubscribed by construction: the
  // solver's certified lower bound should be close to 1.
  const ExperimentStats stats =
      point_stats("vl2", {{"d_a", 8}, {"d_i", 8}}, 3, 3, /*epsilon=*/0.05);
  EXPECT_GE(stats.lambda.min, 0.93);
  EXPECT_LE(stats.lambda.max, 1.02);
}

// Two switches joined by one link of `capacity`, each hosting `tors`
// one-server "ToRs".
BuiltTopology dumbbell(double capacity, int tors) {
  BuiltTopology t;
  t.graph = Graph(2);
  t.graph.add_edge(0, 1, capacity);
  t.servers.per_switch = {tors, tors};
  t.node_class = {0, 0};
  t.class_names = {"switch"};
  return t;
}

// True when every run's lambda reaches `threshold`, run r drawing traffic
// seed derive_seed(seed, 2r + 1) as run r of a data point does (the
// dumbbell ignores its topology seed).
bool every_run_reaches(const BuiltTopology& t, const EvalOptions& options,
                       int runs, double threshold, std::uint64_t seed) {
  for (int r = 0; r < runs; ++r) {
    const std::uint64_t traffic_seed =
        Rng::derive_seed(seed, 2 * static_cast<std::uint64_t>(r) + 1);
    const ThroughputResult result =
        evaluate_throughput(t, options, traffic_seed);
    if (!result.feasible || result.lambda < threshold) return false;
  }
  return true;
}

TEST(FullThroughputBisection, FindsCapacityStep) {
  // A dumbbell whose capacity supports at most 6 "ToRs" at full
  // throughput (each ToR = 1 server on each side, crossing demand).
  EvalOptions options;
  options.flow.epsilon = 0.05;
  // Permutation over 2*tors servers: about half the flows cross the
  // dumbbell in each direction => full throughput while tors <~ 6.
  const int found = max_tors_at_full_throughput(1, 40, [&](int tors) {
    return every_run_reaches(dumbbell(6.0, tors), options, 2, 0.93, 77);
  });
  EXPECT_GE(found, 5);
  EXPECT_LE(found, 13);
}

TEST(FullThroughputBisection, ReturnsBelowMinWhenImpossible) {
  // Chunky traffic always crosses ToRs (a server permutation over two
  // 2-server switches can land entirely intra-switch and trivially pass).
  EvalOptions options;
  options.traffic = TrafficKind::kChunky;
  options.chunky_fraction = 1.0;
  EXPECT_EQ(max_tors_at_full_throughput(2, 10,
                                        [&](int tors) {
                                          return every_run_reaches(
                                              dumbbell(0.01, tors), options,
                                              1, 0.95, 1);
                                        }),
            1);
}

TEST(FullThroughputBisection, Monotone) {
  // Larger max range cannot reduce the found value.
  const auto probe = [](int tors) {
    const ExperimentStats stats = point_stats(
        "rewired_vl2", {{"d_a", 8}, {"d_i", 8}, {"tors", tors}}, 1, 5);
    return stats.infeasible_runs == 0 && stats.lambda.min >= 0.9;
  };
  const int small_range = max_tors_at_full_throughput(4, 20, probe);
  const int large_range = max_tors_at_full_throughput(
      4, rewired_vl2_max_tors({.d_a = 8, .d_i = 8}), probe);
  EXPECT_GE(large_range, small_range);
}

TEST(Bottleneck, ClassUtilizationAggregates) {
  TwoTypeSpec spec;
  spec.num_large = 4;
  spec.num_small = 8;
  spec.large_ports = 12;
  spec.small_ports = 6;
  spec.servers_per_large = 4;
  spec.servers_per_small = 2;
  const BuiltTopology t = build_two_type(spec, 3);
  const ThroughputResult r = evaluate_throughput(t, quick_eval(), 5);
  ASSERT_TRUE(r.feasible);
  const auto classes = utilization_by_class(t, r);
  ASSERT_FALSE(classes.empty());
  double total_links = 0;
  for (const auto& c : classes) {
    EXPECT_GE(c.mean_utilization, 0.0);
    EXPECT_LE(c.mean_utilization, 1.0 + 1e-9);
    EXPECT_LE(c.max_utilization, 1.0 + 1e-9);
    EXPECT_GE(c.class_b, c.class_a);
    total_links += c.num_links;
  }
  EXPECT_EQ(static_cast<int>(total_links), t.graph.num_edges());
  EXPECT_EQ(class_pair_label(classes.front(), t.class_names).find("large"), 0u);
}

}  // namespace
}  // namespace topo
