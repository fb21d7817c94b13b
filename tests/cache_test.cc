// Result-cache tests: cold vs warm equivalence (bit-identical reductions,
// zero recomputation on warm), spec-hash sensitivity to every field,
// content-addressed cell reuse across axis edits and run counts, the
// corruption trust model (truncated / corrupted / foreign files are
// recomputed, never trusted), the cross-process store contract sharding
// relies on (racing writers, stale-temp sweeping), the cell executor's
// lookup-then-compute rule, and shard striping (stripes partition the
// cell grid; sharded cold runs + a coordinator warm run merge to the
// single-process result bit for bit).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "scenario/cache.h"
#include "scenario/cell_executor.h"
#include "scenario/spec_io.h"
#include "scenario/sweep.h"
#include "util/error.h"

namespace topo::scenario {
namespace {

ScenarioSpec tiny_rrg_spec() {
  ScenarioSpec spec;
  spec.name = "cache_test_tiny";
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

// A fresh empty cache directory per test.
std::string fresh_cache_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/topobench_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void expect_points_bitwise_equal(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.points[i].coords, b.points[i].coords);
    EXPECT_EQ(a.points[i].stats.lambda.mean, b.points[i].stats.lambda.mean);
    EXPECT_EQ(a.points[i].stats.lambda.stdev, b.points[i].stats.lambda.stdev);
    EXPECT_EQ(a.points[i].stats.lambda.min, b.points[i].stats.lambda.min);
    EXPECT_EQ(a.points[i].stats.dual_bound.mean,
              b.points[i].stats.dual_bound.mean);
    EXPECT_EQ(a.points[i].stats.utilization.mean,
              b.points[i].stats.utilization.mean);
    EXPECT_EQ(a.points[i].stats.inverse_spl.mean,
              b.points[i].stats.inverse_spl.mean);
    EXPECT_EQ(a.points[i].stats.inverse_stretch.mean,
              b.points[i].stats.inverse_stretch.mean);
    EXPECT_EQ(a.points[i].stats.infeasible_runs,
              b.points[i].stats.infeasible_runs);
  }
}

TEST(Cache, ColdThenWarmIsBitIdenticalWithZeroRecomputation) {
  const ScenarioSpec spec = tiny_rrg_spec();
  SweepRunConfig config = tiny_config();
  const SweepResult uncached = SweepRunner(spec, config).run();
  EXPECT_EQ(uncached.cache_hits, 0);
  EXPECT_EQ(uncached.cache_misses, 0);  // no cache configured

  config.cache_dir = fresh_cache_dir("cold_warm");
  const SweepResult cold = SweepRunner(spec, config).run();
  EXPECT_EQ(cold.cache_hits, 0);
  EXPECT_EQ(cold.cache_misses, 4);  // 2 points x 2 runs
  expect_points_bitwise_equal(uncached, cold);

  const SweepResult warm = SweepRunner(spec, config).run();
  EXPECT_EQ(warm.cache_hits, 4);
  EXPECT_EQ(warm.cache_misses, 0);
  expect_points_bitwise_equal(cold, warm);
  std::filesystem::remove_all(config.cache_dir);
}

TEST(Cache, EditingOneAxisValueRecomputesOnlyThatColumn) {
  ScenarioSpec spec = tiny_rrg_spec();
  SweepRunConfig config = tiny_config();
  config.cache_dir = fresh_cache_dir("axis_edit");
  const SweepResult cold = SweepRunner(spec, config).run();
  ASSERT_EQ(cold.cache_misses, 4);

  // Replace one value: the untouched column's cells hit, the edited one
  // recomputes.
  spec.axes[0].values = {0.0, 0.3};
  const SweepResult edited = SweepRunner(spec, config).run();
  EXPECT_EQ(edited.cache_hits, 2);
  EXPECT_EQ(edited.cache_misses, 2);
  EXPECT_EQ(edited.points[0].stats.lambda.mean,
            cold.points[0].stats.lambda.mean);

  // Append a value: both existing columns hit (non-reuse point seeds are
  // index-derived, and indices of existing points are unchanged).
  spec.axes[0].values = {0.0, 0.3, 0.5};
  const SweepResult appended = SweepRunner(spec, config).run();
  EXPECT_EQ(appended.cache_hits, 4);
  EXPECT_EQ(appended.cache_misses, 2);
  std::filesystem::remove_all(config.cache_dir);
}

TEST(Cache, CellsAreSharedAcrossRunCounts) {
  // Content addressing: run r's cell identity does not depend on the
  // total run count, so a --runs 1 warm run reuses the first run of an
  // earlier --runs 2 sweep.
  const ScenarioSpec spec = tiny_rrg_spec();
  SweepRunConfig config = tiny_config();
  config.cache_dir = fresh_cache_dir("run_counts");
  (void)SweepRunner(spec, config).run();
  config.runs = 1;
  const SweepResult warm = SweepRunner(spec, config).run();
  EXPECT_EQ(warm.cache_hits, 2);
  EXPECT_EQ(warm.cache_misses, 0);
  std::filesystem::remove_all(config.cache_dir);
}

TEST(Cache, DifferentSeedOrEpsilonMissesEverything) {
  const ScenarioSpec spec = tiny_rrg_spec();
  SweepRunConfig config = tiny_config();
  config.cache_dir = fresh_cache_dir("seed_eps");
  (void)SweepRunner(spec, config).run();

  SweepRunConfig other_seed = config;
  other_seed.master_seed = 6;
  EXPECT_EQ(SweepRunner(spec, other_seed).run().cache_hits, 0);

  SweepRunConfig other_eps = config;
  other_eps.epsilon = 0.2;
  EXPECT_EQ(SweepRunner(spec, other_eps).run().cache_hits, 0);
  std::filesystem::remove_all(config.cache_dir);
}

TEST(Cache, ReuseTopologySweepsCacheToo) {
  ScenarioSpec spec = tiny_rrg_spec();
  spec.axes = {{"capacity_factor", {1.0, 0.5}, {}}};
  spec.reuse_topology = true;
  SweepRunConfig config = tiny_config();
  const SweepResult uncached = SweepRunner(spec, config).run();
  config.cache_dir = fresh_cache_dir("reuse");
  const SweepResult cold = SweepRunner(spec, config).run();
  const SweepResult warm = SweepRunner(spec, config).run();
  EXPECT_EQ(cold.cache_misses, 4);
  EXPECT_EQ(warm.cache_hits, 4);
  expect_points_bitwise_equal(uncached, warm);
  std::filesystem::remove_all(config.cache_dir);
}

TEST(Cache, CorruptedTruncatedOrForeignFilesAreRecomputed) {
  const ScenarioSpec spec = tiny_rrg_spec();
  SweepRunConfig config = tiny_config();
  config.cache_dir = fresh_cache_dir("corrupt");
  const SweepResult cold = SweepRunner(spec, config).run();
  ASSERT_EQ(cold.cache_misses, 4);

  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(config.cache_dir)) {
    files.push_back(entry.path().string());
  }
  ASSERT_EQ(files.size(), 4u);
  std::sort(files.begin(), files.end());

  // Truncate one entry mid-document.
  {
    std::ifstream in(files[0]);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    std::ofstream out(files[0], std::ios::trunc);
    out << content.substr(0, content.size() / 2);
  }
  // Corrupt a digit in another (still valid JSON; checksum must catch it).
  {
    std::ifstream in(files[1]);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    const std::size_t pos = content.find("\"lambda\": ");
    ASSERT_NE(pos, std::string::npos);
    const std::size_t digit = content.find_first_of("0123456789", pos + 10);
    ASSERT_NE(digit, std::string::npos);
    content[digit] = content[digit] == '9' ? '8' : '9';
    std::ofstream out(files[1], std::ios::trunc);
    out << content;
  }
  // Replace a third with something that is not a cache entry at all.
  {
    std::ofstream out(files[2], std::ios::trunc);
    out << "not json";
  }

  const SweepResult warm = SweepRunner(spec, config).run();
  EXPECT_EQ(warm.cache_hits, 1);
  EXPECT_EQ(warm.cache_misses, 3);
  expect_points_bitwise_equal(cold, warm);

  // Each rejected file was quarantined, not left in place: the bad bytes
  // survive under `.corrupt` for diagnosis.
  int quarantined = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(config.cache_dir)) {
    if (entry.path().string().ends_with(".corrupt")) ++quarantined;
  }
  EXPECT_EQ(quarantined, 3);

  // The recompute healed the entries: everything hits now.
  const SweepResult healed = SweepRunner(spec, config).run();
  EXPECT_EQ(healed.cache_hits, 4);
  std::filesystem::remove_all(config.cache_dir);
}

TEST(Cache, CorruptCellIsQuarantinedAndSlotRestorable) {
  ResultCache cache(fresh_cache_dir("quarantine"));
  ThroughputResult result;
  result.lambda = 0.75;
  result.dual_bound = 0.8;
  result.feasible = true;
  cache.store(99, result);
  const std::string path = cache.cell_path(99);
  ASSERT_TRUE(std::filesystem::exists(path));

  // Flip a payload digit so the checksum rejects the file on load.
  {
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    const std::size_t pos = content.find("\"lambda\": ");
    ASSERT_NE(pos, std::string::npos);
    const std::size_t digit = content.find_first_of("0123456789", pos + 10);
    ASSERT_NE(digit, std::string::npos);
    content[digit] = content[digit] == '9' ? '8' : '9';
    std::ofstream out(path, std::ios::trunc);
    out << content;
  }

  ThroughputResult loaded;
  EXPECT_FALSE(cache.load(99, &loaded));
  // The bad file moved aside; the slot is empty, not poisoned.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));

  // Re-storing the recomputed cell lands in the clean slot and verifies.
  cache.store(99, result);
  ASSERT_TRUE(cache.load(99, &loaded));
  EXPECT_EQ(loaded.lambda, result.lambda);
  std::filesystem::remove_all(cache.dir());
}

TEST(Cache, StoreLoadRoundTripsExactly) {
  ResultCache cache(fresh_cache_dir("roundtrip"));
  ThroughputResult result;
  result.lambda = 0.9346999999999999;
  result.dual_bound = 1.0153000000000001;
  result.gap = 0.07937;
  result.feasible = true;
  result.phases = 123;
  result.utilization = 1.0 / 3.0;
  result.mean_routed_path_length = 2.5;
  result.demand_weighted_spl = 2.25;
  result.stretch = 2.5 / 2.25;
  result.total_demand = 48.0;
  cache.store(17, result);

  ThroughputResult loaded;
  ASSERT_TRUE(cache.load(17, &loaded));
  EXPECT_EQ(loaded.lambda, result.lambda);
  EXPECT_EQ(loaded.dual_bound, result.dual_bound);
  EXPECT_EQ(loaded.gap, result.gap);
  EXPECT_EQ(loaded.feasible, result.feasible);
  EXPECT_EQ(loaded.phases, result.phases);
  EXPECT_EQ(loaded.utilization, result.utilization);
  EXPECT_EQ(loaded.mean_routed_path_length, result.mean_routed_path_length);
  EXPECT_EQ(loaded.demand_weighted_spl, result.demand_weighted_spl);
  EXPECT_EQ(loaded.stretch, result.stretch);
  EXPECT_EQ(loaded.total_demand, result.total_demand);
  EXPECT_TRUE(loaded.arc_flow.empty());  // documented: not cached

  // Unknown key is a clean miss, as is an infeasible default round trip.
  EXPECT_FALSE(cache.load(18, &loaded));
  cache.store(18, ThroughputResult{});
  ASSERT_TRUE(cache.load(18, &loaded));
  EXPECT_FALSE(loaded.feasible);
  EXPECT_EQ(loaded.lambda, 0.0);
  std::filesystem::remove_all(cache.dir());
}

TEST(SpecHash, ChangesForEveryFieldSeedEpsAndRuns) {
  const ScenarioSpec base_spec = tiny_rrg_spec();
  const SweepRunConfig base_config = tiny_config();
  const std::uint64_t base = spec_hash(base_spec, base_config);
  EXPECT_EQ(base, spec_hash(base_spec, base_config));  // deterministic

  const auto mutated_spec = [&](auto mutate) {
    ScenarioSpec spec = tiny_rrg_spec();
    mutate(spec);
    return spec_hash(spec, base_config);
  };
  EXPECT_NE(base, mutated_spec([](ScenarioSpec& s) { s.name = "other"; }));
  EXPECT_NE(base,
            mutated_spec([](ScenarioSpec& s) { s.description = "other"; }));
  EXPECT_NE(base, mutated_spec(
                      [](ScenarioSpec& s) { s.topology.family = "fat_tree"; }));
  EXPECT_NE(base, mutated_spec(
                      [](ScenarioSpec& s) { s.topology.params["n"] = 14; }));
  EXPECT_NE(base, mutated_spec([](ScenarioSpec& s) {
              s.traffic = TrafficKind::kAllToAll;
            }));
  EXPECT_NE(base,
            mutated_spec([](ScenarioSpec& s) { s.chunky_fraction = 0.5; }));
  EXPECT_NE(base, mutated_spec([](ScenarioSpec& s) {
              s.failure.uniform.link_fraction = 0.1;
            }));
  EXPECT_NE(base, mutated_spec([](ScenarioSpec& s) {
              s.failure.uniform.switch_fraction = 0.1;
            }));
  EXPECT_NE(base, mutated_spec([](ScenarioSpec& s) {
              s.failure.capacity_factor = 0.9;
            }));
  EXPECT_NE(base, mutated_spec([](ScenarioSpec& s) {
              s.failure.correlated.epicenter_fraction = 0.1;
            }));
  EXPECT_NE(base, mutated_spec([](ScenarioSpec& s) {
              s.failure.correlated.peer_probability = 0.5;
            }));
  EXPECT_NE(base, mutated_spec([](ScenarioSpec& s) {
              s.failure.per_class.switch_fraction["switch"] = 0.1;
            }));
  EXPECT_NE(base, mutated_spec([](ScenarioSpec& s) {
              s.failure.targeted.link_cuts = 3;
            }));
  EXPECT_NE(base, mutated_spec([](ScenarioSpec& s) {
              s.axes[0].param = "switch_failure_fraction";
            }));
  EXPECT_NE(base, mutated_spec([](ScenarioSpec& s) {
              s.axes[0].values.push_back(0.5);
            }));
  EXPECT_NE(base, mutated_spec([](ScenarioSpec& s) {
              s.axes[0].full_values = {0.0, 0.1, 0.2};
            }));
  EXPECT_NE(base, mutated_spec([](ScenarioSpec& s) { s.quick_runs = 4; }));
  EXPECT_NE(base, mutated_spec([](ScenarioSpec& s) { s.full_runs = 21; }));
  EXPECT_NE(base,
            mutated_spec([](ScenarioSpec& s) { s.reuse_topology = true; }));

  const auto mutated_config = [&](auto mutate) {
    SweepRunConfig config = tiny_config();
    mutate(config);
    return spec_hash(base_spec, config);
  };
  EXPECT_NE(base, mutated_config([](SweepRunConfig& c) { c.master_seed = 6; }));
  EXPECT_NE(base, mutated_config([](SweepRunConfig& c) { c.epsilon = 0.1; }));
  EXPECT_NE(base, mutated_config([](SweepRunConfig& c) { c.runs = 3; }));
  EXPECT_NE(base, mutated_config([](SweepRunConfig& c) { c.full = true; }));
}

TEST(CellIdentity, KeyCoversSeedsOptionsAndSolverTag) {
  CellIdentity cell;
  cell.family = "random_regular";
  cell.params = {{"n", 12}, {"ports", 6}, {"degree", 4}};
  cell.topo_seed = 100;
  cell.traffic_seed = 101;
  const std::uint64_t base = cell_key(cell);

  CellIdentity other = cell;
  other.topo_seed = 102;
  EXPECT_NE(base, cell_key(other));
  other = cell;
  other.traffic_seed = 102;
  EXPECT_NE(base, cell_key(other));
  other = cell;
  other.options.flow.epsilon = 0.1;
  EXPECT_NE(base, cell_key(other));
  other = cell;
  other.options.failure.uniform.link_fraction = 0.25;
  EXPECT_NE(base, cell_key(other));
  other = cell;
  other.params["degree"] = 5;
  EXPECT_NE(base, cell_key(other));
  // Every newer failure component perturbs the key too...
  other = cell;
  other.options.failure.correlated.epicenter_fraction = 0.1;
  EXPECT_NE(base, cell_key(other));
  other = cell;
  other.options.failure.correlated.peer_probability = 0.4;
  EXPECT_NE(base, cell_key(other));
  other = cell;
  other.options.failure.per_class.switch_fraction["switch"] = 0.2;
  EXPECT_NE(base, cell_key(other));
  other = cell;
  other.options.failure.targeted.link_cuts = 2;
  EXPECT_NE(base, cell_key(other));
  // ...while inactive components stay OUT of the identity string, so
  // uniform-only cells keep the addresses they had before the failure
  // subsystem grew components (old cache dirs stay warm).
  const std::string legacy_identity = cell_identity_json(cell);
  EXPECT_EQ(legacy_identity.find("blast"), std::string::npos);
  EXPECT_EQ(legacy_identity.find("per_class"), std::string::npos);
  EXPECT_EQ(legacy_identity.find("targeted"), std::string::npos);
  // The identity string pins the solver tag, so a version bump
  // invalidates every cell by construction.
  EXPECT_NE(cell_identity_json(cell).find(kSolverVersionTag),
            std::string::npos);
}

TEST(CellIdentity, PacketSimJoinsTheKeyOnlyWhenEnabled) {
  CellIdentity cell;
  cell.family = "rewired_vl2";
  cell.params = {{"d_a", 6}, {"d_i", 8}};
  cell.topo_seed = 7;
  cell.traffic_seed = 8;
  // Disabled co-simulation stays out of the identity string entirely:
  // every flow-only cell keeps its pre-packet-sim address.
  const std::uint64_t base = cell_key(cell);
  EXPECT_EQ(cell_identity_json(cell).find("packet_sim"), std::string::npos);

  CellIdentity packet = cell;
  packet.options.packet_sim.enabled = true;
  const std::uint64_t enabled_key = cell_key(packet);
  EXPECT_NE(base, enabled_key);
  // The packet section pins its own version tag and every sim knob.
  EXPECT_NE(cell_identity_json(packet).find(kPacketSimVersionTag),
            std::string::npos);
  CellIdentity other = packet;
  other.options.packet_sim.params.subflows = 4;
  EXPECT_NE(enabled_key, cell_key(other));
  other = packet;
  other.options.packet_sim.params.queue_packets = 99;
  EXPECT_NE(enabled_key, cell_key(other));
  other = packet;
  other.options.packet_sim.params.duration_ns += 1;
  EXPECT_NE(enabled_key, cell_key(other));
  other = packet;
  other.options.packet_sim.params.route_mode = sim::RouteMode::kEcmpHash;
  EXPECT_NE(enabled_key, cell_key(other));
}

TEST(CellIdentity, FctWorkloadJoinsTheKeyOnlyWhenEnabled) {
  CellIdentity cell;
  cell.family = "random_regular";
  cell.params = {{"n", 12}, {"ports", 6}, {"degree", 4}};
  cell.topo_seed = 7;
  cell.traffic_seed = 8;
  cell.options.packet_sim.enabled = true;
  // Bulk packet cells carry no workload section: their addresses are
  // exactly what pre-FCT builds computed, so old cache dirs stay warm.
  const std::uint64_t bulk_key = cell_key(cell);
  EXPECT_EQ(cell_identity_json(cell).find("workload"), std::string::npos);
  EXPECT_EQ(cell_identity_json(cell).find(kFctWorkloadVersionTag),
            std::string::npos);

  CellIdentity fct = cell;
  fct.options.packet_sim.fct.enabled = true;
  const std::uint64_t fct_key = cell_key(fct);
  EXPECT_NE(bulk_key, fct_key);
  // The workload section pins its own version tag plus both knobs.
  EXPECT_NE(cell_identity_json(fct).find(kFctWorkloadVersionTag),
            std::string::npos);
  CellIdentity other = fct;
  other.options.packet_sim.fct.cdf = "fb_hadoop";
  EXPECT_NE(fct_key, cell_key(other));
  other = fct;
  other.options.packet_sim.fct.load = 0.9;
  EXPECT_NE(fct_key, cell_key(other));

  // Hotspot / stride knobs likewise join the identity only under their
  // traffic kind — a permutation cell ignores them entirely.
  CellIdentity hotspot = cell;
  hotspot.options.hot_fraction = 0.3;
  EXPECT_EQ(cell_key(cell), cell_key(hotspot));
  hotspot.options.traffic = TrafficKind::kHotspot;
  const std::uint64_t hotspot_key = cell_key(hotspot);
  EXPECT_NE(cell_key(cell), hotspot_key);
  hotspot.options.hot_multiplier = 9.0;
  EXPECT_NE(hotspot_key, cell_key(hotspot));
  CellIdentity stride = cell;
  stride.options.traffic = TrafficKind::kStride;
  stride.options.stride = 3;
  const std::uint64_t stride_key = cell_key(stride);
  EXPECT_NE(cell_key(cell), stride_key);
  stride.options.stride = 5;
  EXPECT_NE(stride_key, cell_key(stride));
}

TEST(Cache, PacketResultFieldsRoundTripExactly) {
  ResultCache cache(fresh_cache_dir("packet_roundtrip"));
  ThroughputResult result;
  result.lambda = 0.8843354003774603;
  result.feasible = true;
  result.packet_sim_run = true;
  result.packet_mean_normalized = 0.8052859374999991;
  result.packet_p05_normalized = 0.490125;
  result.packet_min_normalized = 0.283875;
  result.packet_retransmits = 362165.0;
  result.packet_drops = 351375.0;
  cache.store(41, result);

  ThroughputResult loaded;
  ASSERT_TRUE(cache.load(41, &loaded));
  EXPECT_TRUE(loaded.packet_sim_run);
  EXPECT_EQ(loaded.packet_mean_normalized, result.packet_mean_normalized);
  EXPECT_EQ(loaded.packet_p05_normalized, result.packet_p05_normalized);
  EXPECT_EQ(loaded.packet_min_normalized, result.packet_min_normalized);
  EXPECT_EQ(loaded.packet_retransmits, result.packet_retransmits);
  EXPECT_EQ(loaded.packet_drops, result.packet_drops);

  // Flow-only cells round-trip without growing packet keys — their bytes
  // (and checksums) are identical to what pre-packet-sim builds wrote.
  ThroughputResult flow_only;
  flow_only.lambda = 0.5;
  flow_only.feasible = true;
  cache.store(42, flow_only);
  std::ifstream in(cache.cell_path(42));
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.find("packet_"), std::string::npos);
  ASSERT_TRUE(cache.load(42, &loaded));
  EXPECT_FALSE(loaded.packet_sim_run);
  std::filesystem::remove_all(cache.dir());
}

TEST(Cache, FctResultFieldsRoundTripExactly) {
  ResultCache cache(fresh_cache_dir("fct_roundtrip"));
  ThroughputResult result;
  result.lambda = 0.7151898734177216;
  result.feasible = true;
  result.packet_sim_run = true;
  result.fct_run = true;
  result.fct_p50_ns = 141311.0;
  result.fct_p95_ns = 4079012.0;
  result.fct_p99_ns = 10067080.0;
  result.fct_mean_ns = 791553.4028436019;
  result.fct_goodput = 0.115659375;
  result.fct_flows = 211.0;
  result.fct_completed = 204.0;
  cache.store(77, result);

  ThroughputResult loaded;
  ASSERT_TRUE(cache.load(77, &loaded));
  EXPECT_TRUE(loaded.fct_run);
  EXPECT_EQ(loaded.fct_p50_ns, result.fct_p50_ns);
  EXPECT_EQ(loaded.fct_p95_ns, result.fct_p95_ns);
  EXPECT_EQ(loaded.fct_p99_ns, result.fct_p99_ns);
  EXPECT_EQ(loaded.fct_mean_ns, result.fct_mean_ns);
  EXPECT_EQ(loaded.fct_goodput, result.fct_goodput);
  EXPECT_EQ(loaded.fct_flows, result.fct_flows);
  EXPECT_EQ(loaded.fct_completed, result.fct_completed);

  // Non-FCT cells round-trip without growing fct keys: their bytes (and
  // checksums) stay identical to what pre-FCT builds wrote.
  ThroughputResult bulk;
  bulk.lambda = 0.5;
  bulk.feasible = true;
  bulk.packet_sim_run = true;
  cache.store(78, bulk);
  std::ifstream in(cache.cell_path(78));
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes.find("fct_"), std::string::npos);
  ASSERT_TRUE(cache.load(78, &loaded));
  EXPECT_FALSE(loaded.fct_run);
  std::filesystem::remove_all(cache.dir());
}

TEST(Cache, FctWorkloadSweepCachesColdWarmIdentically) {
  // An FCT sweep through the cache: the warm run must replay percentiles
  // and goodput bit for bit with zero recomputation.
  ScenarioSpec spec;
  spec.name = "cache_test_fct";
  spec.description = "tiny FCT sweep";
  spec.topology = {"random_regular", {{"n", 12}, {"ports", 6}, {"degree", 4}}};
  spec.packet_sim.enabled = true;
  spec.packet_sim.fct.enabled = true;
  spec.packet_sim.fct.cdf = "fb_hadoop";
  spec.packet_sim.params.subflows = 1;
  spec.packet_sim.params.duration_ns = 5'000'000;
  spec.packet_sim.params.warmup_ns = 0;
  spec.axes = {{"load", {0.3, 0.7}, {}}};
  SweepRunConfig config = tiny_config();
  const SweepResult uncached = SweepRunner(spec, config).run();
  config.cache_dir = fresh_cache_dir("fct_cold_warm");
  const SweepResult cold = SweepRunner(spec, config).run();
  const SweepResult warm = SweepRunner(spec, config).run();
  EXPECT_EQ(cold.cache_misses, 4);
  EXPECT_EQ(warm.cache_hits, 4);
  EXPECT_EQ(warm.cache_misses, 0);
  expect_points_bitwise_equal(uncached, cold);
  expect_points_bitwise_equal(cold, warm);
  ASSERT_EQ(warm.points.size(), 2u);
  for (std::size_t i = 0; i < warm.points.size(); ++i) {
    EXPECT_EQ(warm.points[i].stats.fct_runs, 2);
    EXPECT_EQ(warm.points[i].stats.fct_p50.mean,
              cold.points[i].stats.fct_p50.mean);
    EXPECT_EQ(warm.points[i].stats.fct_p99.mean,
              cold.points[i].stats.fct_p99.mean);
    EXPECT_EQ(warm.points[i].stats.fct_goodput.mean,
              cold.points[i].stats.fct_goodput.mean);
  }
  std::filesystem::remove_all(config.cache_dir);
}

TEST(Cache, NewFailureFamiliesCacheColdWarmIdentically) {
  // One correlated + one targeted sweep through the cache: warm runs must
  // be bit-identical with zero recomputation (the CI failure-families
  // smoke job asserts the same property end-to-end via --spec).
  for (const char* axis : {"blast_probability", "targeted_link_cuts"}) {
    SCOPED_TRACE(axis);
    ScenarioSpec spec = tiny_rrg_spec();
    spec.name = std::string("cache_test_") + axis;
    if (std::string(axis) == "blast_probability") {
      spec.failure.correlated.epicenter_fraction = 0.1;
      spec.axes = {{axis, {0.0, 0.5}, {}}};
    } else {
      spec.axes = {{axis, {0, 3}, {}}};
    }
    spec.reuse_topology = true;
    SweepRunConfig config = tiny_config();
    const SweepResult uncached = SweepRunner(spec, config).run();
    config.cache_dir = fresh_cache_dir(std::string("family_") + axis);
    const SweepResult cold = SweepRunner(spec, config).run();
    const SweepResult warm = SweepRunner(spec, config).run();
    EXPECT_EQ(cold.cache_misses, 4);
    EXPECT_EQ(warm.cache_hits, 4);
    EXPECT_EQ(warm.cache_misses, 0);
    expect_points_bitwise_equal(uncached, cold);
    expect_points_bitwise_equal(cold, warm);
    std::filesystem::remove_all(config.cache_dir);
  }
}

TEST(Cache, RacingStoresOnOneKeyBothSucceedAndLoadsVerify) {
  // The temp-file + rename contract sharding depends on: two writers —
  // here two cache handles on the dir, as two shard processes would hold —
  // racing on the SAME cell key must both complete, and a subsequent load
  // must see one complete document (never a torn mix; the checksum
  // re-verification would reject it as a miss).
  const std::string dir = fresh_cache_dir("race");
  const ResultCache first(dir);
  const ResultCache second(dir);
  ThroughputResult result_a;
  result_a.lambda = 0.25;
  result_a.feasible = true;
  ThroughputResult result_b;
  result_b.lambda = 0.75;
  result_b.feasible = true;
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t key = 1000 + static_cast<std::uint64_t>(round);
    std::thread writer_a([&] { first.store(key, result_a); });
    std::thread writer_b([&] { second.store(key, result_b); });
    writer_a.join();
    writer_b.join();
    ThroughputResult loaded;
    ASSERT_TRUE(first.load(key, &loaded)) << "round " << round;
    EXPECT_TRUE(loaded.lambda == result_a.lambda ||
                loaded.lambda == result_b.lambda)
        << loaded.lambda;
  }
  // Every rename landed: no temp litter remains.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << entry.path();
  }
  std::filesystem::remove_all(dir);
}

TEST(Cache, StaleTempFilesAreSweptOnOpenFreshAndCellFilesKept) {
  const std::string dir = fresh_cache_dir("stale_tmp");
  {
    const ResultCache cache(dir);
    cache.store(42, ThroughputResult{});
  }
  // A crashed shard's leftover (old mtime) vs a live writer's in-flight
  // temp (fresh mtime): reopening the dir must sweep only the former.
  const std::string stale = dir + "/00000000deadbeef.json.tmp.aaaa";
  const std::string fresh = dir + "/00000000deadbeef.json.tmp.bbbb";
  {
    std::ofstream out(stale);
    out << "{\"version\": half a doc";
  }
  {
    std::ofstream out(fresh);
    out << "{\"version\": half a doc";
  }
  std::filesystem::last_write_time(
      stale, std::filesystem::file_time_type::clock::now() -
                 std::chrono::hours(2));
  const ResultCache reopened(dir);
  EXPECT_FALSE(std::filesystem::exists(stale));
  EXPECT_TRUE(std::filesystem::exists(fresh));
  ThroughputResult loaded;
  EXPECT_TRUE(reopened.load(42, &loaded));  // cell files are never touched
  std::filesystem::remove_all(dir);
}

TEST(Shard, StripesPartitionTheCellGridExactly) {
  // Every (points, runs, shard_count) shape: each flat cell index belongs
  // to exactly one stripe, so N shard runs cover the CellPlan with no
  // overlap and no gap.
  const std::vector<std::tuple<int, int, int>> shapes = {
      {1, 1, 1}, {5, 1, 2}, {2, 2, 2}, {3, 3, 3}, {4, 2, 5}, {2, 3, 7}};
  for (const auto& [points, runs, shards] : shapes) {
    SCOPED_TRACE(std::to_string(points) + "x" + std::to_string(runs) + "/" +
                 std::to_string(shards));
    for (int index = 0; index < points * runs; ++index) {
      int owners = 0;
      for (int s = 0; s < shards; ++s) {
        owners += cell_in_shard(index, s, shards) ? 1 : 0;
      }
      EXPECT_EQ(owners, 1) << "cell " << index;
    }
  }
}

TEST(Shard, ShardedColdRunsThenCoordinatorWarmMergeByteIdentical) {
  const ScenarioSpec spec = tiny_rrg_spec();
  SweepRunConfig config = tiny_config();
  const SweepResult single = SweepRunner(spec, config).run();

  // Two shard invocations over one shared dir. Stripes are disjoint, so
  // the shards together compute every cell exactly once; each shard
  // reduces only the points it has completely (stripe + cache hits).
  config.cache_dir = fresh_cache_dir("shard_merge");
  config.shard_count = 2;
  config.shard_index = 0;
  const SweepResult shard0 = SweepRunner(spec, config).run();
  EXPECT_EQ(shard0.cache_hits, 0);
  EXPECT_EQ(shard0.cache_misses, 2);  // cells 0 and 2 of 4
  EXPECT_EQ(shard0.shard_skipped, 2);
  // 2 runs per point straddle both stripes: nothing is complete yet.
  EXPECT_TRUE(shard0.points.empty());

  config.shard_index = 1;
  const SweepResult shard1 = SweepRunner(spec, config).run();
  EXPECT_EQ(shard1.cache_hits, 2);  // shard 0's cells, via the shared dir
  EXPECT_EQ(shard1.cache_misses, 2);
  EXPECT_EQ(shard1.shard_skipped, 0);
  // With the sibling stripe already published, every point completes —
  // and matches the single-process run bit for bit.
  expect_points_bitwise_equal(single, shard1);

  // Coordinator: same spec, no sharding, same cache dir — a pure merge.
  config.shard_index = 0;
  config.shard_count = 1;
  const SweepResult merged = SweepRunner(spec, config).run();
  EXPECT_EQ(merged.cache_hits, 4);
  EXPECT_EQ(merged.cache_misses, 0);
  EXPECT_EQ(merged.shard_skipped, 0);
  expect_points_bitwise_equal(single, merged);
  std::filesystem::remove_all(config.cache_dir);
}

TEST(Shard, ComposesWithReuseTopologyAndTargetedCuts) {
  // Reuse mode + the targeted component (whose ranking is memoized per
  // shared topology) under a 3-way shard split: the merged table must
  // equal the unsharded, uncached run exactly.
  ScenarioSpec spec = tiny_rrg_spec();
  spec.axes = {{"targeted_link_cuts", {0, 2}, {}}};
  spec.reuse_topology = true;
  SweepRunConfig config = tiny_config();
  const SweepResult single = SweepRunner(spec, config).run();

  config.cache_dir = fresh_cache_dir("shard_reuse");
  config.shard_count = 3;
  int computed = 0;
  for (int s = 0; s < 3; ++s) {
    config.shard_index = s;
    const SweepResult shard = SweepRunner(spec, config).run();
    computed += shard.cache_misses;
    EXPECT_EQ(shard.cache_hits + shard.cache_misses + shard.shard_skipped, 4);
  }
  EXPECT_EQ(computed, 4);  // disjoint stripes: every cell computed once

  config.shard_index = 0;
  config.shard_count = 1;
  const SweepResult merged = SweepRunner(spec, config).run();
  EXPECT_EQ(merged.cache_hits, 4);
  EXPECT_EQ(merged.cache_misses, 0);
  expect_points_bitwise_equal(single, merged);
  std::filesystem::remove_all(config.cache_dir);
}

TEST(CellExecutor, LooksEveryCellUpBeforeComputingAny) {
  // Both cells share one address. Lookups all finish before computation
  // starts, so neither can adopt the other's fresh store: both compute,
  // on any thread count, and a second pass hits both.
  const std::string dir = fresh_cache_dir("executor_duplicates");
  std::atomic<int> calls{0};
  const auto compute = [&](int) {
    calls.fetch_add(1);
    ThroughputResult result;
    result.lambda = 0.5;
    return result;
  };
  CellExecutor executor(dir);
  CellGrid cold(1, 2);
  cold.keys = {42, 42};
  const CellCounts first = executor.run(cold, CellStripe{}, compute);
  EXPECT_EQ(first.hits, 0);
  EXPECT_EQ(first.computed, 2);
  EXPECT_EQ(first.unavailable, 0);
  EXPECT_EQ(calls.load(), 2);

  CellGrid warm(1, 2);
  warm.keys = {42, 42};
  const CellCounts second = executor.run(warm, CellStripe{}, compute);
  EXPECT_EQ(second.hits, 2);
  EXPECT_EQ(second.computed, 0);
  EXPECT_EQ(warm.results[1].lambda, 0.5);
  EXPECT_EQ(calls.load(), 2);
  std::filesystem::remove_all(dir);
}

TEST(CellExecutor, StripesDecideWhoComputesAndAWiderPassFinishes) {
  const std::string dir = fresh_cache_dir("executor_stripes");
  const auto compute = [](int index) {
    ThroughputResult result;
    result.lambda = index;
    return result;
  };
  CellExecutor executor(dir);
  CellGrid grid(3, 2);  // 3 groups x 2 runs
  grid.keys = {1, 2, 3, 4, 5, 6};
  // A stripe that owns nothing (merge-only) computes nothing.
  EXPECT_EQ(executor.run(grid, CellStripe{0, 0}, compute).unavailable, 6);
  // Range stripes rank run-major: shard 0 of 2 owns run 0 of every group.
  const CellCounts shard0 = executor.run(
      grid, CellStripe{0, 2, StripeMode::kRange}, compute);
  EXPECT_EQ(shard0.computed, 3);
  EXPECT_EQ(grid.available, (std::vector<char>{1, 0, 1, 0, 1, 0}));
  // A pass owning everything resolves only what is still missing.
  const CellCounts rest = executor.run(grid, CellStripe{}, compute);
  EXPECT_EQ(rest.hits, 0);
  EXPECT_EQ(rest.computed, 3);
  EXPECT_EQ(rest.unavailable, 0);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(grid.results[static_cast<std::size_t>(i)].lambda, i);
  }
  std::filesystem::remove_all(dir);
}

TEST(Shard, InvalidShardConfigFailsLoudly) {
  const ScenarioSpec spec = tiny_rrg_spec();
  SweepRunConfig config = tiny_config();
  config.shard_count = 2;  // sharded but no cache dir: work would vanish
  EXPECT_THROW((void)SweepRunner(spec, config).run(), InvalidArgument);
  config.cache_dir = fresh_cache_dir("shard_bad");
  config.shard_index = 2;  // out of range
  EXPECT_THROW((void)SweepRunner(spec, config).run(), InvalidArgument);
  config.shard_index = -1;
  EXPECT_THROW((void)SweepRunner(spec, config).run(), InvalidArgument);
  config.shard_index = 0;
  config.shard_count = 0;
  EXPECT_THROW((void)SweepRunner(spec, config).run(), InvalidArgument);
  std::filesystem::remove_all(config.cache_dir);
}

TEST(Cache, UnwritableDirFailsLoudly) {
  EXPECT_THROW(ResultCache(""), InvalidArgument);
  EXPECT_THROW(ResultCache("/proc/definitely/not/writable"),
               InvalidArgument);
}

TEST(Cache, FailedStoreIsAnInternalErrorNotAUsageError) {
  // The CLIs map InvalidArgument to exit 2 ("usage") and any other Error
  // to exit 4 ("internal"); a disk or permission failure is the latter.
  const std::string dir = fresh_cache_dir("store_vanished");
  const ResultCache cache(dir);
  std::filesystem::remove_all(dir);
  try {
    cache.store(7, ThroughputResult{});
    ADD_FAILURE() << "store into a deleted dir did not throw";
  } catch (const InvalidArgument& e) {
    ADD_FAILURE() << "raised InvalidArgument: " << e.what();
  } catch (const Error&) {
  }
}

}  // namespace
}  // namespace topo::scenario
