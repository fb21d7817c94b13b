// SweepRunner: a ScenarioSpec, sharded and reduced.
//
// Enumerates the cartesian product of the spec's axes, plans every
// (sweep-point × run) cell with deterministic seed derivation, hands the
// grid to the CellExecutor (cell_executor.h: cache, stripe, pool), and
// reduces results in (point, run) order — so a sweep's numbers are
// bit-identical for any thread count. run_point evaluates one data point
// (a figure's, or a bisection probe's) as a one-point sweep, so every
// figure cell runs through the same executor and cache as sweep cells.
#ifndef TOPODESIGN_SCENARIO_SWEEP_H
#define TOPODESIGN_SCENARIO_SWEEP_H

#include <cstdint>

#include "core/experiment.h"
#include "scenario/cell_executor.h"
#include "scenario/scenario.h"
#include "scenario/spec.h"
#include "util/table.h"

namespace topo::scenario {

/// One reduced sweep point.
struct SweepPointResult {
  std::vector<double> coords;  ///< One value per axis, axis order.
  ExperimentStats stats;
};

/// One (point, run) cell a merge-only run could not find in the cache —
/// the raw material of the orchestrator's missing-cell manifest.
struct MissingCell {
  int point = 0;               ///< Point index in enumeration order.
  int run = 0;                 ///< Run index within the point.
  std::vector<double> coords;  ///< The point's axis values, axis order.
  std::uint64_t key = 0;       ///< Content address (cache.h cell_key).
};

/// A finished sweep.
struct SweepResult {
  std::vector<std::string> axis_names;
  /// Reduced points, in enumeration order. In a sharded run only
  /// COMPLETE points appear — those whose every cell was either in this
  /// shard's stripe or already cached; unsharded runs always reduce every
  /// point.
  std::vector<SweepPointResult> points;
  /// Cell-cache accounting (both zero when no cache_dir was configured).
  int cache_hits = 0;
  int cache_misses = 0;  ///< Cells evaluated (and stored) this run.
  /// Cells left to other shards (out of this run's stripe and not in the
  /// cache); 0 for unsharded runs.
  int shard_skipped = 0;
  /// Cells absent from the cache in a merge_only run (empty otherwise):
  /// every one names a point whose row was dropped from `points`.
  std::vector<MissingCell> missing;
};

/// Resolved run configuration for a sweep.
struct SweepRunConfig {
  int runs = 3;
  double epsilon = 0.08;
  std::uint64_t master_seed = 1;
  bool full = false;  ///< Use each axis's full_values when present.
  /// Content-addressed cell cache directory (cache.h); "" disables
  /// caching. Cached (point × run) cells are skipped and merged with
  /// fresh ones in the same ordered reduction, so a warm run's numbers
  /// are bit-identical to a cold one.
  std::string cache_dir;
  /// Distributed sharding: evaluate only stripe `shard_index` of
  /// `shard_count` deterministic stripes of the flat (point × run) cell
  /// grid (cell_executor.h CellStripe), publishing results through
  /// cache_dir (required when shard_count > 1 — without it a shard's work
  /// would be discarded). Striping never enters cell identity or seed
  /// fan-out, so every shard and the coordinator address identical cells:
  /// N shard invocations over a shared cache dir followed by an unsharded
  /// warm run of the same spec reproduce the single-process table byte
  /// for byte with zero coordinator recomputation.
  int shard_index = 0;
  int shard_count = 1;
  /// Stripe shape for sharded runs (ignored when shard_count == 1).
  /// Striping NEVER enters cell identity, seed fan-out, or the spec
  /// hash: any stripe mode publishes identical cells to the shared
  /// cache, so mixing modes across shards of one sweep merely changes
  /// who computes what.
  StripeMode stripe = StripeMode::kRoundRobin;
  /// Solver-mode override: "" keeps the spec's solver field, "exact" /
  /// "approx" force that mode for every cell (before axis binding, so a
  /// "solver_mode" axis still wins per point). Enters the spec hash and
  /// each cell's identity exactly like a spec-level solver change.
  std::string solver_override;
  /// Merge-only (coordinator degraded mode): evaluate NOTHING — reduce
  /// the points whose every cell the cache already holds, and report the
  /// rest in SweepResult::missing instead of recomputing them. Requires
  /// cache_dir. The orchestrator uses this after a stripe exhausts its
  /// retries, where silently recomputing a dead worker's cells inline
  /// could wedge the supervisor on the very cells that killed the
  /// workers.
  bool merge_only = false;
};

/// Runs a declarative scenario spec.
class SweepRunner {
 public:
  SweepRunner(const ScenarioSpec& spec, const SweepRunConfig& config)
      : spec_(&spec), config_(config) {}

  /// Evaluates every (point, run) cell on the shared pool and reduces.
  /// Seed fan-out: point p gets point_seed = derive_seed(master, p); run r
  /// of that point evaluates with topology seed derive_seed(point_seed, 2r)
  /// and traffic seed derive_seed(point_seed, 2r + 1).
  /// With spec.reuse_topology (eval-side axes only), run r's entire
  /// stream is point-independent instead — topology seed
  /// derive_seed(master, 2r), traffic seed derive_seed(master, 2r + 1) —
  /// so only the axis value changes between points and link-failure
  /// sweeps degrade prefix-nested failed sets of one fixed (topology,
  /// workload) pair per run (monotone curves up to FPTAS epsilon slack;
  /// see core/failure.h).
  /// Construction failures count as infeasible zero-throughput runs.
  /// With shard_count > 1 only the configured stripe of cells is
  /// evaluated (cached cells still merge wherever they live), and only
  /// complete points are reduced. Raises InvalidArgument for unknown
  /// families, axis/parameter names the family's builder would ignore,
  /// or a sharded config without a cache dir.
  [[nodiscard]] SweepResult run() const;

  /// The active sweep points (cartesian product, first axis slowest).
  [[nodiscard]] std::vector<std::vector<double>> enumerate_points() const;

 private:
  const ScenarioSpec* spec_;
  SweepRunConfig config_;
};

/// Evaluates one data point: `topology` under `traffic` (at
/// `chunky_fraction`), config.runs runs from point seed S =
/// config.master_seed, as a one-point sweep with reuse_topology set. Run
/// r therefore evaluates with topology seed derive_seed(S, 2r) and
/// traffic seed derive_seed(S, 2r + 1), and its cell has the address of
/// the equal cell of any sweep. The config's epsilon, cache dir and
/// solver override apply; it must be unsharded and not merge-only, so the
/// result always holds exactly one point. Construction failures count as
/// infeasible runs; an InvalidArgument from a build propagates.
[[nodiscard]] SweepResult run_point(const TopologySpec& topology,
                                    TrafficKind traffic,
                                    double chunky_fraction,
                                    const SweepRunConfig& config);

/// Renders a sweep result as the standard table: one column per axis, then
/// lambda/dual/utilization summaries and the infeasible-run count.
[[nodiscard]] TablePrinter sweep_table(const SweepResult& result);

/// Executes `spec` against a run context: resolves the SweepRunConfig
/// from the context's options (runs, epsilon, seed, mode, cache dir),
/// runs the sweep, and emits banner + sweep_table. Cache accounting goes
/// to stderr so scenario stdout/JSON stay byte-identical warm or cold.
/// Shared by registered sweep scenarios, `topobench --spec FILE`, and
/// the orchestrator's coordinator merge (which reads the returned result
/// for missing-cell accounting). `merge_only` forwards
/// SweepRunConfig::merge_only.
SweepResult run_spec_scenario(const ScenarioSpec& spec, ScenarioRun& ctx,
                              bool merge_only = false);

/// Registers `spec` as a named scenario whose run function executes the
/// sweep with the run context's options and emits sweep_table. The spec
/// itself is retained in a side registry for --dump-spec round-trips.
void register_spec_scenario(ScenarioSpec spec);

/// The retained spec of a spec-backed scenario; nullptr for scenarios
/// registered some other way (e.g. the figure scenarios).
[[nodiscard]] const ScenarioSpec* find_spec_scenario(const std::string& name);

/// All retained specs, sorted by name.
[[nodiscard]] std::vector<const ScenarioSpec*> list_spec_scenarios();

}  // namespace topo::scenario

#endif  // TOPODESIGN_SCENARIO_SWEEP_H
