// Cell-address corpus: pins the content address (scenario/cache.h
// cell_key) of every cell the registered sweep scenarios and a tiny
// topology search address, so any change to plans, seed fan-out, axis
// binding, or cell identity that would orphan cached cells fails here.
//
// A merge_only sweep against an empty cache computes nothing and names
// every cell it could not find — here, all of them — in
// SweepResult::missing, so listing a sweep's addresses takes
// milliseconds. Each registered spec scenario is pinned in smoke mode,
// in full mode, and in smoke mode under the approx solver override, as
// fnv1a64 over its keys in enumeration order. The search is pinned by
// the names of the cell files a cold run leaves in its cache dir.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "scenario/cache.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "search/driver.h"

namespace topo::scenario {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/topobench_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

struct Listing {
  int cells = 0;
  std::string digest;  ///< hash_hex(fnv1a64(one "<key hex>\n" per cell)).
};

// Every cell address of one sweep invocation, without computing a cell.
Listing list_cells(const ScenarioSpec& spec, bool full,
                   const std::string& solver, const std::string& dir) {
  SweepRunConfig config;  // master seed 1, epsilon 0.08: the CLI defaults
  config.runs = full ? spec.full_runs : spec.quick_runs;
  config.full = full;
  config.solver_override = solver;
  config.cache_dir = dir;
  config.merge_only = true;
  const SweepResult result = SweepRunner(spec, config).run();
  EXPECT_EQ(result.cache_hits, 0);
  EXPECT_TRUE(result.points.empty());
  std::string material;
  for (const MissingCell& cell : result.missing) {
    material += hash_hex(cell.key) + "\n";
  }
  return {static_cast<int>(result.missing.size()),
          hash_hex(fnv1a64(material))};
}

struct PinnedSweep {
  const char* scenario;
  int smoke_cells;
  const char* smoke;   ///< Smoke mode, quick_runs.
  const char* full;    ///< Full mode, full_runs.
  const char* approx;  ///< Smoke mode under solver_override = "approx".
};

// Regenerate only for an INTENDED identity change (which orphans every
// cached cell it touches): the failure messages print the new digests.
const PinnedSweep kPinned[] = {
    {"sweep_fat_tree_link_failures", 12, "f3c355a71995959b",
     "95b389787c12bf88", "a174ba9e0d5b4674"},
    {"sweep_fat_tree_targeted_cuts", 15, "8e5c463e8b09822c",
     "9c68f61a36f919dc", "eda493bde17835d9"},
    {"sweep_fct_load", 3, "628f6446e2bc905b",
     "bf9f790dd93c5c6f", "a4e3a72313f8097a"},
    {"sweep_packet_vs_flow", 1, "0275b454ba813747",
     "be470137448ff86d", "55903b12123ce954"},
    {"sweep_rrg_capacity_degradation", 15, "5a28ba86b8e132e1",
     "7c6eaa1d04c4cd29", "1211376794aed74b"},
    {"sweep_rrg_correlated_failures", 12, "701e079322f2df33",
     "99bbd5e9f3c1f638", "8592bf7016b31588"},
    {"sweep_rrg_link_failures", 15, "bedd3b56c3d3fcdb",
     "b122e6b3a1f240b4", "82ebed2cbcfc3836"},
    {"sweep_rrg_switch_failures", 15, "774851b990967ae6",
     "b921e04d1f2cb7f9", "b6875359ffc9f115"},
    {"sweep_small_world_shortcuts", 9, "049f9c4c5d031a9a",
     "87bbab59626c3dfb", "17645c7d02011821"},
    {"sweep_two_type_cross_failures", 18, "d57866cbe4604ddf",
     "cf865a6926ee2990", "38c9f9a3b831bf34"},
    {"sweep_vl2_chunky", 15, "26d8841baa48cb8a",
     "1c0bf4758fbd3588", "d907e22434bd64d4"},
    {"sweep_vl2_class_failures", 12, "2474391208f83b57",
     "aff9a836d43abe03", "e0211b98ffe220b1"},
};

TEST(CellAddresses, EveryRegisteredSweepKeepsItsCellKeys) {
  register_builtin_scenarios();
  const std::string dir = fresh_dir("cell_addresses");
  std::vector<std::string> registered;
  int smoke_cells = 0;
  for (const ScenarioSpec* spec : list_spec_scenarios()) {
    SCOPED_TRACE(spec->name);
    registered.push_back(spec->name);
    const auto pinned = std::find_if(
        std::begin(kPinned), std::end(kPinned),
        [&](const PinnedSweep& p) { return spec->name == p.scenario; });
    ASSERT_NE(pinned, std::end(kPinned)) << "pin the new scenario's cells";
    const Listing smoke = list_cells(*spec, false, "", dir);
    smoke_cells += smoke.cells;
    EXPECT_EQ(smoke.cells, pinned->smoke_cells);
    EXPECT_EQ(smoke.digest, pinned->smoke);
    EXPECT_EQ(list_cells(*spec, true, "", dir).digest, pinned->full);
    EXPECT_EQ(list_cells(*spec, false, "approx", dir).digest, pinned->approx);
  }
  EXPECT_EQ(registered.size(), std::size(kPinned));
  EXPECT_EQ(smoke_cells, 142);
  // Listing never writes: the cache dir is still empty.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(CellAddresses, TinySearchWritesThePinnedCellFiles) {
  ScenarioSpec spec;
  spec.name = "cell_address_search";
  spec.topology = {"random_regular", {{"n", 10}, {"ports", 5}, {"degree", 3}}};
  spec.search.enabled = true;
  spec.search.budget = 2;
  spec.search.restarts = 1;
  spec.search.population = 2;
  search::SearchDriverOptions options;
  options.runs = 2;
  options.epsilon = 0.1;
  options.master_seed = 11;
  options.cache_dir = fresh_dir("cell_address_search");
  const search::SearchResult result = search::run_search(spec, options);

  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.cache_dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  std::string material;
  for (const std::string& name : names) material += name + "\n";
  EXPECT_EQ(static_cast<int>(names.size()), result.cache_misses);
  EXPECT_EQ(names.size(), 10u);  // 5 distinct candidates x 2 runs
  EXPECT_EQ(hash_hex(fnv1a64(material)), "6120add315d12e35");
  std::filesystem::remove_all(options.cache_dir);
}

}  // namespace
}  // namespace topo::scenario
