// Solver-mode acceptance tests: the exact/approx contract from the
// README "Solver modes" section.
//
// Approx mode must stay within the certified epsilon of exact mode on
// every registered sweep topology, must be byte-deterministic for any
// thread count (checked through the real CLI binary at 1/2/8 threads),
// and must never perturb the cache address of an exact-mode cell —
// flipping the mode, or turning any approx knob in approx mode, changes
// the key, while the same knobs are inert in exact mode so the whole
// historical exact cell population stays warm. Plus the spec-file
// surface: the "solver" key, the "solver_mode" axis, and the
// cdf_file/cdf_table workload keys with their mutual exclusions.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluate.h"
#include "scenario/cache.h"
#include "scenario/scenario.h"
#include "scenario/spec_io.h"
#include "scenario/sweep.h"
#include "scenario/topo_registry.h"
#include "traffic/workload.h"
#include "util/error.h"
#include "util/json.h"
#include "util/subprocess.h"

namespace topo::scenario {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/topobench_solver_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Approx lambda must sit within the certified tolerance of exact lambda
// on every registered sweep's base topology. Both runs certify a
// (1-eps)-approximation of the same optimum, so the two certified values
// can differ by at most eps relative once both gaps are within target.
TEST(SolverModes, ApproxMatchesExactOnRegisteredSweeps) {
  register_builtin_scenarios();
  const double eps = 0.08;
  int compared = 0;
  for (const ScenarioSpec* spec : list_spec_scenarios()) {
    EvalOptions options;
    options.flow.epsilon = eps;
    options.traffic = spec->traffic;
    options.chunky_fraction = spec->chunky_fraction;
    options.hot_fraction = spec->hot_fraction;
    options.hot_multiplier = spec->hot_multiplier;
    options.stride = spec->stride;
    // packet_sim stays off: the tolerance contract is about the fluid
    // solver, and the co-sim is mode-independent.
    const FamilyInfo* family = find_family(spec->topology.family);
    ASSERT_NE(family, nullptr) << spec->name;
    const BuiltTopology topology = family->build(spec->topology.params, 1);

    EvalOptions exact = options;
    exact.flow.mode = SolverMode::kExact;
    EvalOptions approx = options;
    approx.flow.mode = SolverMode::kApprox;
    const ThroughputResult e = evaluate_throughput(topology, exact, 1);
    const ThroughputResult a = evaluate_throughput(topology, approx, 1);
    ASSERT_TRUE(e.feasible) << spec->name;
    ASSERT_TRUE(a.feasible) << spec->name;
    // The relative bound is only meaningful when both runs certified
    // their target gap (a max_phases bailout certifies a looser one).
    if (e.gap <= eps && a.gap <= eps) {
      EXPECT_LE(std::abs(a.lambda - e.lambda) / e.lambda, eps)
          << spec->name << ": exact " << e.lambda << " approx " << a.lambda;
      ++compared;
    }
  }
  // The registry is never empty and the base topologies are easy
  // instances; if nothing got compared the gap guard is miswired.
  EXPECT_GT(compared, 0);
}

// Approx mode reports the best window of recent phases as its primal, so
// it certifies long before the all-phases average (what exact mode
// reports) sheds its badly balanced first phases: on the search-sized
// RRG it needs at most half of exact mode's phases.
TEST(SolverModes, ApproxCertifiesInHalfTheExactPhases) {
  const FamilyInfo* family = find_family("random_regular");
  ASSERT_NE(family, nullptr);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const BuiltTopology topology =
        family->build({{"n", 48}, {"ports", 12}, {"degree", 8}}, seed);
    EvalOptions exact;
    exact.flow.epsilon = 0.08;
    EvalOptions approx = exact;
    approx.flow.mode = SolverMode::kApprox;
    const ThroughputResult e = evaluate_throughput(topology, exact, seed);
    const ThroughputResult a = evaluate_throughput(topology, approx, seed);
    ASSERT_LE(e.gap, 0.08);
    ASSERT_LE(a.gap, 0.08);
    EXPECT_LE(2 * a.phases, e.phases)
        << "approx " << a.phases << " phases, exact " << e.phases;
    EXPECT_LE(a.lambda, a.dual_bound);
  }
}

// In-process determinism: the approx trajectory is a pure function of
// the inputs, so two evaluations are bit-identical.
TEST(SolverModes, ApproxIsBitDeterministicInProcess) {
  const FamilyInfo* family = find_family("random_regular");
  ASSERT_NE(family, nullptr);
  const BuiltTopology topology =
      family->build({{"n", 20}, {"ports", 8}, {"degree", 5}}, 3);
  EvalOptions options;
  options.flow.mode = SolverMode::kApprox;
  const ThroughputResult a = evaluate_throughput(topology, options, 7);
  const ThroughputResult b = evaluate_throughput(topology, options, 7);
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.dual_bound, b.dual_bound);
  EXPECT_EQ(a.phases, b.phases);
}

// The cornerstone of the cache contract: an exact-mode cell's identity
// contains no approx material at all, so (a) every cell written before
// approx mode existed keeps its address and (b) approx knobs are inert
// in exact mode. Approx mode joins the identity explicitly, and every
// approx knob (and the approx version tag) perturbs only approx keys.
TEST(SolverModes, ExactCellKeysUntouchedByApproxKnobs) {
  CellIdentity cell;
  cell.family = "random_regular";
  cell.params = {{"degree", 8}, {"n", 32}, {"ports", 12}};
  cell.topo_seed = 7;
  cell.traffic_seed = 9;

  const std::string exact_json = cell_identity_json(cell);
  EXPECT_EQ(exact_json.find("solver_mode"), std::string::npos) << exact_json;
  EXPECT_EQ(exact_json.find("approx"), std::string::npos) << exact_json;
  const std::uint64_t exact_key = cell_key(cell);

  // Approx knobs without approx mode: same identity, same address.
  CellIdentity inert = cell;
  inert.options.flow.approx_stale_factor = 1.05;
  inert.options.flow.approx_round_size = 8;
  EXPECT_EQ(cell_identity_json(inert), exact_json);
  EXPECT_EQ(cell_key(inert), exact_key);

  // Flipping the mode changes the address and injects the approx tag.
  CellIdentity approx = cell;
  approx.options.flow.mode = SolverMode::kApprox;
  const std::uint64_t approx_key = cell_key(approx);
  EXPECT_NE(approx_key, exact_key);
  EXPECT_NE(cell_identity_json(approx).find(kSolverApproxVersionTag),
            std::string::npos);

  // Each approx knob perturbs approx keys (they are identity in that
  // mode: they change the certified numbers).
  CellIdentity stale = approx;
  stale.options.flow.approx_stale_factor = 1.05;
  EXPECT_NE(cell_key(stale), approx_key);
  CellIdentity round = approx;
  round.options.flow.approx_round_size = 8;
  EXPECT_NE(cell_key(round), approx_key);
}

// User-supplied CDF tables join the cell identity as the parsed points,
// never as a path: identical tables share cells, different tables do
// not, and registry-named cells carry no table material.
TEST(SolverModes, CustomCdfIdentityIsTheParsedTable) {
  CellIdentity cell;
  cell.family = "random_regular";
  cell.params = {{"degree", 5}, {"n", 16}, {"ports", 9}};
  cell.options.packet_sim.enabled = true;
  cell.options.packet_sim.fct.enabled = true;
  cell.options.packet_sim.fct.cdf = "custom";
  cell.options.packet_sim.fct.custom_cdf = {{100.0, 0.0}, {1e6, 1.0}};

  const std::string json = cell_identity_json(cell);
  EXPECT_NE(json.find("cdf_table"), std::string::npos) << json;

  CellIdentity same = cell;
  EXPECT_EQ(cell_key(same), cell_key(cell));

  CellIdentity different = cell;
  different.options.packet_sim.fct.custom_cdf.back().bytes = 2e6;
  EXPECT_NE(cell_key(different), cell_key(cell));

  CellIdentity named = cell;
  named.options.packet_sim.fct.custom_cdf.clear();
  named.options.packet_sim.fct.cdf = "websearch";
  EXPECT_EQ(cell_identity_json(named).find("cdf_table"), std::string::npos);
}

// The spec surface: "solver" serializes only when approx (legacy specs
// stay byte-identical), round-trips, and rejects unknown names; a
// "solver_mode" axis takes only 0/1.
TEST(SolverModes, SpecSolverKeyRoundTripsAndValidates) {
  register_builtin_scenarios();
  const ScenarioSpec* base = find_spec_scenario("sweep_rrg_link_failures");
  ASSERT_NE(base, nullptr);

  const std::string exact_json = spec_to_json(*base);
  EXPECT_EQ(exact_json.find("\"solver\""), std::string::npos);

  ScenarioSpec approx = *base;
  approx.solver = SolverMode::kApprox;
  const std::string approx_json = spec_to_json(approx);
  EXPECT_NE(approx_json.find("\"solver\": \"approx\""), std::string::npos);
  const ScenarioSpec parsed = spec_from_json(approx_json);
  EXPECT_EQ(parsed.solver, SolverMode::kApprox);
  EXPECT_EQ(spec_to_json(parsed), approx_json);

  std::string bad = approx_json;
  const std::size_t at = bad.find("\"approx\"");
  ASSERT_NE(at, std::string::npos);
  bad.replace(at, 8, "\"fast\"");
  EXPECT_THROW((void)spec_from_json(bad), InvalidArgument);

  ScenarioSpec swept = *base;
  swept.axes.push_back({"solver_mode", {0, 1}, {}});
  EXPECT_NO_THROW(validate_spec(swept));
  swept.axes.back().values = {0, 2};
  EXPECT_THROW(validate_spec(swept), InvalidArgument);
}

// The workload-table spec surface: cdf_table round-trips byte-stably as
// the canonical form, cdf_file loads (and strictly validates) a table
// file, and the three cdf keys are mutually exclusive.
TEST(SolverModes, WorkloadCdfTableAndFileSpecKeys) {
  register_builtin_scenarios();
  const ScenarioSpec* base = find_spec_scenario("sweep_fct_load");
  ASSERT_NE(base, nullptr);

  ScenarioSpec custom = *base;
  custom.packet_sim.fct.cdf = "custom";
  custom.packet_sim.fct.custom_cdf = {{100.0, 0.0}, {1000.0, 0.5},
                                      {100000.0, 1.0}};
  const std::string json = spec_to_json(custom);
  EXPECT_NE(json.find("\"cdf_table\""), std::string::npos);
  // The canonical form drops the registry name entirely.
  EXPECT_EQ(json.find("\"cdf\":"), std::string::npos) << json;
  const ScenarioSpec parsed = spec_from_json(json);
  ASSERT_EQ(parsed.packet_sim.fct.custom_cdf.size(), 3u);
  EXPECT_EQ(parsed.packet_sim.fct.custom_cdf[1].bytes, 1000.0);
  EXPECT_EQ(spec_to_json(parsed), json);

  // cdf_file: the file is parsed at spec-load time into the same table
  // form (the path never survives into the spec).
  const std::string dir = fresh_dir("cdf_file");
  const std::string cdf_path = write_file(
      dir + "/sizes.cdf", "# bytes cum_prob\n100 0\n1000 0.5\n100000 1\n");
  std::string file_json = json;
  const std::string table_text = "\"cdf_table\": [[100, 0], [1000, 0.5], "
                                 "[100000, 1]]";
  const std::size_t table_at = file_json.find(table_text);
  ASSERT_NE(table_at, std::string::npos) << file_json;
  file_json.replace(table_at, table_text.size(),
                    "\"cdf_file\": " + json_string(cdf_path));
  const ScenarioSpec from_file = spec_from_json(file_json);
  ASSERT_EQ(from_file.packet_sim.fct.custom_cdf.size(), 3u);
  EXPECT_EQ(from_file.packet_sim.fct.cdf, "custom");
  // Loading a file and inlining the table are the same spec — they
  // canonicalize to the identical document, so they share cache cells.
  EXPECT_EQ(spec_to_json(from_file), json);

  // A malformed table file fails loudly, naming the path.
  const std::string bad_path =
      write_file(dir + "/bad.cdf", "100 0\n50 0.5\n100000 1\n");
  EXPECT_THROW((void)load_flow_size_cdf_file(bad_path), InvalidArgument);

  // The three cdf keys are mutually exclusive.
  std::string conflict = json;
  conflict.replace(conflict.find("\"cdf_table\""), 11,
                   "\"cdf\": \"websearch\", \"cdf_table\"");
  EXPECT_THROW((void)spec_from_json(conflict), InvalidArgument);
  std::string file_conflict = json;
  file_conflict.replace(
      file_conflict.find("\"cdf_table\""), 11,
      "\"cdf_file\": " + json_string(cdf_path) + ", \"cdf_table\"");
  EXPECT_THROW((void)spec_from_json(file_conflict), InvalidArgument);
}

// End-to-end determinism through the real CLI: an approx sweep's output
// is byte-identical at 1, 2, and 8 threads, and the --solver override
// on an exact spec reproduces the approx-spec output exactly.
TEST(SolverModes, CliApproxOutputIdenticalAcrossThreadCounts) {
  const std::string dir = fresh_dir("cli");
  ScenarioSpec spec;
  spec.name = "solver_modes_test_tiny";
  spec.description = "tiny RRG sweep (solver-mode tests)";
  spec.topology = {"random_regular", {{"n", 12}, {"ports", 6}, {"degree", 4}}};
  spec.axes = {{"link_failure_fraction", {0.0, 0.2}, {}}};
  spec.quick_runs = 1;
  spec.solver = SolverMode::kApprox;
  const std::string approx_path =
      write_file(dir + "/approx_spec.json", spec_to_json(spec));
  spec.solver = SolverMode::kExact;
  const std::string exact_path =
      write_file(dir + "/exact_spec.json", spec_to_json(spec));

  auto run = [&](const std::string& spec_path, int threads,
                 const std::vector<std::string>& extra,
                 const std::string& log_name) {
    std::vector<std::string> argv = {TOPOBENCH_CLI_PATH, "--spec", spec_path,
                                     "--csv", "--eps=0.25", "--seed=5"};
    argv.insert(argv.end(), extra.begin(), extra.end());
    SpawnOptions options;
    options.env = {{"TOPOBENCH_THREADS", std::to_string(threads)}};
    options.log_path = dir + "/" + log_name;
    Subprocess child = Subprocess::spawn(argv, options);
    EXPECT_TRUE(child.wait().ok()) << log_name;
    return read_file(options.log_path);
  };

  const std::string t1 = run(approx_path, 1, {}, "approx_t1.log");
  const std::string t2 = run(approx_path, 2, {}, "approx_t2.log");
  const std::string t8 = run(approx_path, 8, {}, "approx_t8.log");
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);

  // --solver approx on the exact spec is the same computation.
  const std::string overridden =
      run(exact_path, 2, {"--solver", "approx"}, "override_t2.log");
  EXPECT_EQ(t1, overridden);

  // And exact mode is a genuinely different trajectory (sanity that the
  // spec's solver key actually reached the solver).
  const std::string exact = run(exact_path, 1, {}, "exact_t1.log");
  EXPECT_NE(t1, exact);
}

// An --eps the solver would reject fails in flag parsing, before a
// figure prints anything: Fig 12's bisection used to read the solver's
// rejection as a failed probe and print a wrong panel first.
TEST(SolverModes, CliRejectsOutOfRangeEpsBeforeAnyOutput) {
  const std::string dir = fresh_dir("cli_eps");
  for (const char* scenario : {"fig12_vl2", "fig03_aspl_steps"}) {
    SCOPED_TRACE(scenario);
    SpawnOptions options;
    options.log_path = dir + "/" + scenario + ".log";
    Subprocess child = Subprocess::spawn(
        {TOPOBENCH_CLI_PATH, scenario, "--runs", "1", "--eps", "0"}, options);
    const Subprocess::Status status = child.wait();
    EXPECT_EQ(status.state, Subprocess::Status::State::kExited);
    EXPECT_EQ(status.exit_code, 2);
    // stdout and stderr share the log: the error line is all there is.
    EXPECT_EQ(read_file(options.log_path),
              "--eps must lie in (0, 1), got: 0\n");
  }
}

}  // namespace
}  // namespace topo::scenario
