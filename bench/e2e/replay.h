// Traced replay: re-executes one job from outside the library, cell by
// cell, through the public layer functions, with a span around every
// layer call. The replay follows the seed fan-out sweep.h documents and
// must reproduce the untraced job's reduced output bit for bit.
#ifndef TOPOBENCH_E2E_REPLAY_H
#define TOPOBENCH_E2E_REPLAY_H

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace e2e {

/// Counts taken at the layer boundaries. Sums, except where noted.
struct Counters {
  double phases = 0.0;
  double gap_max = 0.0;       ///< Max over computed, feasible solves.
  int solver_cells = 0;       ///< Computed cells that ran the solver.
  int uncertified = 0;        ///< ... of which finished with gap > epsilon.
  double traffic_flows = 0.0; ///< Server flows plus finite-flow arrivals.
  double sim_events = 0.0;
  double sim_drops = 0.0;
  double sim_routes = 0.0;
  double sim_pool_max = 0.0;  ///< Max packet-pool capacity of one network.
  double fct_flows = 0.0;
  double fct_completed = 0.0;
  double cache_loads = 0.0;
  double cache_hits = 0.0;
  double cache_stores = 0.0;
  double cache_bytes = 0.0;
  double search_candidates = 0.0;
  double search_computed = 0.0;
  double search_memo_hits = 0.0;
  double mutate_ns = 0.0;
  double hash_ns = 0.0;
  double cost_ns = 0.0;
  double micro_calls = 0.0;   ///< Calls timed per micro-timed function.

  void add(const Counters& other);
};

struct ReplayOutcome {
  SpanLog log;
  Counters counters;
  /// Wall time, process CPU time and the layer spans' summed thread CPU
  /// time of the part of the replay that mirrors the untraced job (a
  /// search's "search.run" span; all of a sweep replay).
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double layer_cpu_s = 0.0;
  int cells = 0;
  int failed_cells = 0;
};

/// Replays sweep job `master_seed` into `cache_dir` (load, then compute
/// and store the misses, as SweepRunner does) and checks its reduced
/// points against `want_digest`.
[[nodiscard]] ReplayOutcome replay_sweep(const Workload& w,
                                         const topo::scenario::ScenarioSpec& spec,
                                         std::uint64_t master_seed,
                                         const std::string& cache_dir,
                                         std::uint64_t want_digest,
                                         std::vector<std::string>* errors);

/// Re-runs search job `master_seed` inside one span (its trace must equal
/// `untraced`'s), replays the baseline and best designs' cells, and
/// micro-times SearchSpace::mutate, candidate_hash_hex and CostModel::cost.
[[nodiscard]] ReplayOutcome replay_search(
    const Workload& w, const topo::scenario::ScenarioSpec& spec,
    std::uint64_t master_seed, const std::string& cache_dir,
    const topo::search::SearchResult& untraced,
    std::vector<std::string>* errors);

}  // namespace e2e

#endif  // TOPOBENCH_E2E_REPLAY_H
