// Multi-seed experiment running and the Fig-12 full-throughput search.
//
// The paper averages most data points over 20 runs (new random topology
// and new random traffic each run) and reports ~1% standard deviations.
// ExperimentRunner reproduces that loop with deterministic seed fan-out.
#ifndef TOPODESIGN_CORE_EXPERIMENT_H
#define TOPODESIGN_CORE_EXPERIMENT_H

#include <cstdint>
#include <functional>

#include "core/evaluate.h"
#include "util/stats.h"

namespace topo {

/// Builds a topology for run `i` from a derived seed.
using TopologyBuilder = std::function<BuiltTopology(std::uint64_t seed)>;

/// Aggregated metrics over the runs of one experimental data point.
struct ExperimentStats {
  Summary lambda;             ///< Throughput (per-unit-demand min flow).
  Summary utilization;        ///< U.
  Summary inverse_spl;        ///< 1 / demand-weighted shortest path length.
  Summary inverse_stretch;    ///< 1 / AS.
  Summary dual_bound;         ///< Certified upper bounds.
  int infeasible_runs = 0;    ///< Runs whose topology disconnected traffic.
  // Packet co-simulation metrics (EvalOptions::packet_sim), summarized
  // over the runs that executed a packet simulation; count == 0 and
  // zeroed summaries when no run did.
  Summary packet_mean;        ///< Mean normalized goodput per run.
  Summary packet_p05;         ///< 5th-percentile normalized goodput per run.
  int packet_sim_runs = 0;    ///< Runs that ran the packet co-simulation.
  // Finite-flow workload metrics (EvalOptions::packet_sim.fct), summarized
  // over the runs that executed the FCT workload; count == 0 and zeroed
  // summaries when no run did.
  Summary fct_p50;            ///< Median flow-completion time per run (ns).
  Summary fct_p95;            ///< 95th-percentile FCT per run (ns).
  Summary fct_p99;            ///< 99th-percentile FCT per run (ns).
  Summary fct_goodput;        ///< Aggregate goodput fraction per run.
  Summary fct_slowdown_p50;   ///< Median FCT slowdown (FCT / ideal FCT).
  Summary fct_slowdown_p99;   ///< 99th-percentile FCT slowdown per run.
  int fct_runs = 0;           ///< Runs that ran the FCT workload.
};

/// Reduces per-run results (in run order) to experiment statistics —
/// the reduction run_experiment applies, exported so the scenario sweep
/// runner summarizes its cells identically. Infeasible runs contribute
/// zero to every summary and are counted in infeasible_runs.
[[nodiscard]] ExperimentStats summarize_runs(
    const std::vector<ThroughputResult>& results);

/// Runs `runs` seeded repetitions of (build topology, draw workload,
/// solve) and summarizes. Construction failures (rare, extreme parameter
/// corners) count as infeasible runs with lambda 0, matching the paper's
/// treatment of disconnected/bottlenecked corners.
///
/// Runs execute concurrently on the shared pool (deterministically: seeds
/// are derived per run and statistics reduced in run order), so `builder`
/// must be safe to call from multiple threads — builders that only read
/// captured state and derive everything from the seed qualify.
[[nodiscard]] ExperimentStats run_experiment(const TopologyBuilder& builder,
                                             const EvalOptions& options,
                                             int runs,
                                             std::uint64_t master_seed);

/// Configuration of the Fig-12 binary search for the largest network (in
/// ToRs) still delivering full throughput.
struct FullThroughputSearch {
  /// Builds the topology with a given ToR count for run seed `seed`.
  std::function<BuiltTopology(int tors, std::uint64_t seed)> builder;
  int min_tors = 1;
  int max_tors = 1;
  /// Full throughput declared when the certified lambda of EVERY run is at
  /// least this threshold (the FPTAS reports a lower bound, so the same
  /// threshold applied to two designs compares them fairly).
  double threshold = 0.95;
  int runs = 3;
  EvalOptions options;
};

/// Binary-searches the largest ToR count in [min_tors, max_tors] whose
/// every run meets the threshold, evaluating each distinct ToR count at
/// most once. Returns min_tors - 1 if even min_tors fails.
[[nodiscard]] int max_tors_at_full_throughput(const FullThroughputSearch& search,
                                              std::uint64_t master_seed);

}  // namespace topo

#endif  // TOPODESIGN_CORE_EXPERIMENT_H
