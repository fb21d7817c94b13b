// Scenario-engine unit tests: registry contents and lookup, sweep
// enumeration, deterministic seed fan-out (including run_point's one-point
// contract), axis binding, the figures' cell path and flag rejection, and
// the machine-readable JSON emission.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <vector>

#include "core/experiment.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "scenario/topo_registry.h"
#include "util/error.h"
#include "util/rng.h"

namespace topo::scenario {
namespace {

ScenarioSpec tiny_rrg_spec() {
  ScenarioSpec spec;
  spec.name = "test_tiny";
  spec.description = "tiny RRG sweep";
  spec.topology = {"random_regular", {{"n", 12}, {"ports", 6}, {"degree", 4}}};
  spec.axes = {{"link_failure_fraction", {0.0, 0.25}, {}}};
  spec.quick_runs = 2;
  return spec;
}

SweepRunConfig tiny_config() {
  SweepRunConfig config;
  config.runs = 2;
  config.epsilon = 0.25;  // loose: these tests care about wiring, not bounds
  config.master_seed = 5;
  return config;
}

TEST(Registry, ListsAllThirteenFiguresAndTheSweeps) {
  register_builtin_scenarios();
  int figures = 0;
  int sweeps = 0;
  for (const ScenarioInfo* info : list_scenarios()) {
    if (info->name.rfind("fig", 0) == 0) ++figures;
    if (info->name.rfind("sweep_", 0) == 0) ++sweeps;
    EXPECT_FALSE(info->description.empty()) << info->name;
  }
  EXPECT_EQ(figures, 13);
  EXPECT_GE(sweeps, 5);
}

TEST(Registry, ExactAndUniquePrefixLookup) {
  register_builtin_scenarios();
  ASSERT_NE(find_scenario("fig05_powerlaw_beta"), nullptr);
  // Unique prefix resolves...
  const ScenarioInfo* by_prefix = find_scenario("fig05");
  ASSERT_NE(by_prefix, nullptr);
  EXPECT_EQ(by_prefix->name, "fig05_powerlaw_beta");
  // ...ambiguous ("fig1" matches fig10..fig13) and unknown do not.
  EXPECT_EQ(find_scenario("fig1"), nullptr);
  EXPECT_EQ(find_scenario("no_such_scenario"), nullptr);
}

TEST(Registry, ReRegistrationIsIdempotent) {
  register_builtin_scenarios();
  const std::size_t before = list_scenarios().size();
  register_builtin_scenarios();
  EXPECT_EQ(list_scenarios().size(), before);
}

TEST(TopoRegistry, EveryFamilyBuildsWithDefaults) {
  for (const FamilyInfo& family : topology_families()) {
    SCOPED_TRACE(family.name);
    const BuiltTopology t = family.build({}, /*seed=*/3);
    EXPECT_GT(t.graph.num_nodes(), 0);
    EXPECT_GT(t.graph.num_edges(), 0);
    EXPECT_EQ(t.servers.num_switches(), t.graph.num_nodes());
    EXPECT_GT(t.servers.total(), 0);
  }
  EXPECT_EQ(find_family("no_such_family"), nullptr);
}

TEST(Sweep, EnumeratesCartesianProductFirstAxisSlowest) {
  ScenarioSpec spec = tiny_rrg_spec();
  spec.axes = {{"a", {1.0, 2.0}, {}}, {"b", {10.0, 20.0, 30.0}, {}}};
  const auto points = SweepRunner(spec, tiny_config()).enumerate_points();
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(points[0], (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(points[1], (std::vector<double>{1.0, 20.0}));
  EXPECT_EQ(points[3], (std::vector<double>{2.0, 10.0}));
  // Full mode without full_values falls back to the smoke values.
  SweepRunConfig full = tiny_config();
  full.full = true;
  EXPECT_EQ(SweepRunner(spec, full).enumerate_points().size(), 6u);
}

TEST(Sweep, DeterministicAcrossInvocations) {
  const ScenarioSpec spec = tiny_rrg_spec();
  const SweepResult a = SweepRunner(spec, tiny_config()).run();
  const SweepResult b = SweepRunner(spec, tiny_config()).run();
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].stats.lambda.mean, b.points[i].stats.lambda.mean);
    EXPECT_EQ(a.points[i].stats.dual_bound.mean,
              b.points[i].stats.dual_bound.mean);
  }
}

TEST(Sweep, RunPointSeedsRunsFromThePointSeed) {
  // The documented one-point fan-out: run r of run_point builds with
  // topology seed derive_seed(S, 2r) and draws traffic with seed
  // derive_seed(S, 2r + 1), S being the config's master seed.
  const SweepRunConfig config = tiny_config();
  const ParamMap params{{"n", 12}, {"ports", 6}, {"degree", 4}};
  const SweepResult point = run_point({"random_regular", params},
                                      TrafficKind::kPermutation, 1.0, config);
  ASSERT_EQ(point.points.size(), 1u);

  EvalOptions options;
  options.flow.epsilon = config.epsilon;
  std::vector<ThroughputResult> direct;
  for (int r = 0; r < config.runs; ++r) {
    const std::uint64_t run = static_cast<std::uint64_t>(r);
    direct.push_back(evaluate_throughput(
        find_family("random_regular")
            ->build(params, Rng::derive_seed(config.master_seed, 2 * run)),
        options, Rng::derive_seed(config.master_seed, 2 * run + 1)));
  }
  const ExperimentStats expected = summarize_runs(direct);
  const ExperimentStats& stats = point.points[0].stats;
  EXPECT_EQ(stats.lambda.count, static_cast<std::size_t>(config.runs));
  EXPECT_EQ(stats.lambda.mean, expected.lambda.mean);
  EXPECT_EQ(stats.lambda.min, expected.lambda.min);
  EXPECT_EQ(stats.dual_bound.mean, expected.dual_bound.mean);
  EXPECT_EQ(stats.utilization.mean, expected.utilization.mean);
}

// Runs a registered figure in golden mode (one run, seed 1) and returns
// its stdout; `json` receives the recorded tables, `err` its stderr.
std::string run_figure(const std::string& name, const std::string& cache_dir,
                       std::string* json, std::string* err) {
  register_builtin_scenarios();
  ScenarioOptions options;
  options.runs = 1;
  options.cache_dir = cache_dir;
  std::ostringstream out;
  ScenarioRun run(options, out);
  ::testing::internal::CaptureStderr();
  find_scenario(name)->run(run);
  *err = ::testing::internal::GetCapturedStderr();
  std::ostringstream tables;
  write_scenario_json(tables, name, options, run.tables());
  *json = tables.str();
  return out.str();
}

TEST(Figures, CachedRunsPrintTheUncachedTables) {
  // A ported figure's data points are sweep cells: a cold run fills the
  // cache, a warm rerun computes nothing, and both print the uncached
  // run's tables byte for byte.
  const std::string dir = ::testing::TempDir() + "/topobench_fig09_cache";
  std::filesystem::remove_all(dir);
  std::string uncached_json, cold_json, warm_json, err;
  const std::string uncached =
      run_figure("fig09_decomposition", "", &uncached_json, &err);
  EXPECT_EQ(err, "");
  const std::string cold =
      run_figure("fig09_decomposition", dir, &cold_json, &err);
  EXPECT_EQ(err, "cache fig09_decomposition: 0 hits, 15 misses (" + dir +
                     ")\n");
  const std::string warm =
      run_figure("fig09_decomposition", dir, &warm_json, &err);
  EXPECT_EQ(err, "cache fig09_decomposition: 15 hits, 0 misses (" + dir +
                     ")\n");
  EXPECT_FALSE(uncached.empty());
  EXPECT_EQ(cold, uncached);
  EXPECT_EQ(warm, uncached);
  EXPECT_EQ(cold_json, uncached_json);
  EXPECT_EQ(warm_json, uncached_json);
  std::filesystem::remove_all(dir);
}

TEST(Figures, FlagsAFigureCannotHonourFailBeforeAnyOutput) {
  register_builtin_scenarios();
  const std::string dir = ::testing::TempDir() + "/topobench_fig_rejected";
  std::filesystem::remove_all(dir);
  const auto expect_rejected = [&](const std::string& name,
                                   const ScenarioOptions& options,
                                   const std::string& flag) {
    std::ostringstream out;
    ScenarioRun run(options, out);
    try {
      find_scenario(name)->run(run);
      ADD_FAILURE() << name << " accepted " << flag;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(run.tables().empty()) << name;
    EXPECT_EQ(out.str(), "") << name;
    EXPECT_FALSE(std::filesystem::exists(dir)) << name;
  };
  ScenarioOptions sharded;
  sharded.runs = 1;
  sharded.cache_dir = dir;
  sharded.shard_count = 2;
  expect_rejected("fig09_decomposition", sharded, "--shard");
  ScenarioOptions striped;
  striped.stripe = "range";
  expect_rejected("fig12_vl2", striped, "--stripe");
  ScenarioOptions cached;
  cached.runs = 1;
  cached.cache_dir = dir;
  expect_rejected("fig03_aspl_steps", cached, "--cache-dir");
  expect_rejected("fig10_bound_vs_observed", cached, "--cache-dir");
  ScenarioOptions solver;
  solver.solver = "approx";
  expect_rejected("fig03_aspl_steps", solver, "--solver");
}

TEST(Sweep, FailureAxisDegradesThroughput) {
  const SweepResult result =
      SweepRunner(tiny_rrg_spec(), tiny_config()).run();
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_GT(result.points[0].stats.lambda.mean, 0.0);
  // A quarter of the links gone must cost measurable throughput.
  EXPECT_LT(result.points[1].stats.lambda.mean,
            result.points[0].stats.lambda.mean);
}

TEST(Sweep, ReuseTopologySharesBuildsAcrossPoints) {
  // With reuse, the capacity_factor=1 point must match the plain
  // single-point sweep on the same master seed run-for-run (same
  // topologies, same traffic seeds).
  ScenarioSpec spec = tiny_rrg_spec();
  spec.axes = {{"capacity_factor", {1.0, 0.5}, {}}};
  spec.reuse_topology = true;
  const SweepResult reused = SweepRunner(spec, tiny_config()).run();
  ASSERT_EQ(reused.points.size(), 2u);
  EXPECT_GT(reused.points[0].stats.lambda.mean,
            reused.points[1].stats.lambda.mean);
  // Derating to half capacity lands in the ballpark of half the
  // throughput. (Exact 0.5x scaling of the true optimum is asserted with
  // the exact LP in failure_injection_test; the FPTAS certificates at
  // loose epsilon are only approximately scale-invariant.)
  EXPECT_GT(reused.points[1].stats.lambda.mean,
            0.3 * reused.points[0].stats.lambda.mean);
  EXPECT_LT(reused.points[1].stats.lambda.mean,
            0.7 * reused.points[0].stats.lambda.mean);
}

TEST(Sweep, UnknownFamilyOrEmptyAxisRaises) {
  ScenarioSpec spec = tiny_rrg_spec();
  spec.topology.family = "no_such_family";
  EXPECT_THROW((void)SweepRunner(spec, tiny_config()).run(), InvalidArgument);
  ScenarioSpec empty_axis = tiny_rrg_spec();
  empty_axis.axes = {{"link_failure_fraction", {}, {}}};
  EXPECT_THROW((void)SweepRunner(empty_axis, tiny_config()).run(),
               InvalidArgument);
}

TEST(Sweep, MisspelledAxisOrParamRaisesInsteadOfSweepingNothing) {
  // A typo'd name would otherwise fall through to the topology ParamMap,
  // be ignored by every builder, and report identical cells with no error.
  ScenarioSpec typo_axis = tiny_rrg_spec();
  typo_axis.axes = {{"lnik_failure_fraction", {0.0, 0.1}, {}}};
  EXPECT_THROW((void)SweepRunner(typo_axis, tiny_config()).run(),
               InvalidArgument);
  ScenarioSpec typo_param = tiny_rrg_spec();
  typo_param.topology.params["degre"] = 4;
  EXPECT_THROW((void)SweepRunner(typo_param, tiny_config()).run(),
               InvalidArgument);
}

TEST(Sweep, ReuseModeStreamIsPointIndependent) {
  // Two sweep points with the SAME axis value must produce bitwise-equal
  // statistics in reuse mode: topology, workload, and failure draw all
  // derive from (master, run) only — this is what makes failure sweeps
  // degrade nested failed sets of a fixed instance per run.
  ScenarioSpec spec = tiny_rrg_spec();
  spec.axes = {{"link_failure_fraction", {0.1, 0.1}, {}}};
  spec.reuse_topology = true;
  const SweepResult result = SweepRunner(spec, tiny_config()).run();
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.points[0].stats.lambda.mean,
            result.points[1].stats.lambda.mean);
  EXPECT_EQ(result.points[0].stats.dual_bound.mean,
            result.points[1].stats.dual_bound.mean);
}

TEST(ScenarioRunContext, RecordsTablesAndWritesJson) {
  ScenarioOptions options;
  options.runs = 1;
  std::ostringstream stream;
  ScenarioRun run(options, stream);
  run.banner("Test table");
  TablePrinter table({"x", "name", "count"});
  table.add_row({0.5, std::string("a\"b"), static_cast<long long>(7)});
  run.table(table);
  run.out() << "trailing note\n";

  // Stream got the banner, the aligned table, and the note.
  const std::string text = stream.str();
  EXPECT_NE(text.find("== Test table =="), std::string::npos);
  EXPECT_NE(text.find("trailing note"), std::string::npos);

  ASSERT_EQ(run.tables().size(), 1u);
  EXPECT_EQ(run.tables()[0].title, "Test table");

  std::ostringstream json;
  write_scenario_json(json, "unit", options, run.tables());
  const std::string out = json.str();
  EXPECT_NE(out.find("\"scenario\": \"unit\""), std::string::npos);
  EXPECT_NE(out.find("\"headers\": [\"x\", \"name\", \"count\"]"),
            std::string::npos);
  EXPECT_NE(out.find("a\\\"b"), std::string::npos);  // escaped quote
  EXPECT_NE(out.find("0.5"), std::string::npos);
}

TEST(ScenarioOptionsFlags, ParsesShardStripe) {
  const char* argv[] = {"prog", "--shard", "1/3", "--cache-dir", "dir"};
  const ScenarioOptions options = parse_scenario_options(5, argv);
  EXPECT_EQ(options.shard_index, 1);
  EXPECT_EQ(options.shard_count, 3);
  EXPECT_EQ(options.cache_dir, "dir");

  const char* plain[] = {"prog"};
  const ScenarioOptions defaults = parse_scenario_options(1, plain);
  EXPECT_EQ(defaults.shard_index, 0);
  EXPECT_EQ(defaults.shard_count, 1);

  // The degenerate 0/1 stripe is an unsharded run and needs no cache.
  const char* unsharded[] = {"prog", "--shard", "0/1"};
  EXPECT_EQ(parse_scenario_options(3, unsharded).shard_count, 1);
}

TEST(ScenarioOptionsFlags, RejectsMalformedOrCachelessShard) {
  const auto parse = [](std::vector<const char*> argv) {
    return parse_scenario_options(static_cast<int>(argv.size()), argv.data());
  };
  // A sharded run without a cache dir would compute a stripe and discard it.
  EXPECT_THROW(parse({"p", "--shard", "1/2"}), InvalidArgument);
  EXPECT_THROW(parse({"p", "--shard", "2/2", "--cache-dir", "d"}),
               InvalidArgument);
  EXPECT_THROW(parse({"p", "--shard", "-1/2", "--cache-dir", "d"}),
               InvalidArgument);
  EXPECT_THROW(parse({"p", "--shard", "1/0", "--cache-dir", "d"}),
               InvalidArgument);
  EXPECT_THROW(parse({"p", "--shard", "nope", "--cache-dir", "d"}),
               InvalidArgument);
  EXPECT_THROW(parse({"p", "--shard", "1/", "--cache-dir", "d"}),
               InvalidArgument);
  EXPECT_THROW(parse({"p", "--shard", "/2", "--cache-dir", "d"}),
               InvalidArgument);
  EXPECT_THROW(parse({"p", "--shard", "1/2/3", "--cache-dir", "d"}),
               InvalidArgument);
}

TEST(ScenarioOptionsFlags, RejectsEpsilonOutsideTheUnitInterval) {
  const auto parse = [](std::vector<const char*> argv) {
    return parse_scenario_options(static_cast<int>(argv.size()), argv.data());
  };
  for (const char* eps : {"0", "1", "-0.1", "nan"}) {
    SCOPED_TRACE(eps);
    try {
      (void)parse({"p", "--eps", eps});
      ADD_FAILURE() << "accepted --eps " << eps;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("--eps"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_DOUBLE_EQ(parse({"p", "--eps", "0.05"}).epsilon, 0.05);
  EXPECT_DOUBLE_EQ(parse({"p"}).epsilon, 0.08);
}

TEST(ScenarioRunContext, RunsDefaultRespectsModeAndOverride) {
  ScenarioOptions options;
  std::ostringstream stream;
  EXPECT_EQ(ScenarioRun(options, stream).runs(3, 20), 3);
  options.full = true;
  EXPECT_EQ(ScenarioRun(options, stream).runs(3, 20), 20);
  options.runs = 7;
  EXPECT_EQ(ScenarioRun(options, stream).runs(3, 20), 7);
}

}  // namespace
}  // namespace topo::scenario
