// Multi-run statistics and the Fig-12 full-throughput bisection.
//
// The paper averages most data points over 20 runs (new random topology
// and new random traffic each run) and reports ~1% standard deviations.
// The runs themselves execute as cells of a sweep (scenario/sweep.h,
// run_point for a single data point); this layer holds the reduction
// every sweep point applies and the ToR-count bisection Fig 12 and the
// VL2 case study run over such points.
#ifndef TOPODESIGN_CORE_EXPERIMENT_H
#define TOPODESIGN_CORE_EXPERIMENT_H

#include <functional>
#include <vector>

#include "core/evaluate.h"
#include "util/stats.h"

namespace topo {

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

/// Reduces per-run results (in run order) to experiment statistics — the
/// reduction every sweep point applies. Infeasible runs contribute zero
/// to every summary and are counted in infeasible_runs.
[[nodiscard]] ExperimentStats summarize_runs(
    const std::vector<ThroughputResult>& results);

/// Binary-searches the largest ToR count in [min_tors, max_tors] that
/// `probe` accepts, probing each distinct count at most once. Assumes the
/// accepted counts form a prefix of the range (more ToRs on the same
/// equipment never helps). Returns min_tors - 1 if even min_tors fails.
/// Fig 12's probe accepts a count when every run of its data point
/// reaches lambda >= 0.95.
[[nodiscard]] int max_tors_at_full_throughput(
    int min_tors, int max_tors, const std::function<bool(int tors)>& probe);

}  // namespace topo

#endif  // TOPODESIGN_CORE_EXPERIMENT_H
