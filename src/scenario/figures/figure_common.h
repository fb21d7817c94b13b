// Shared plumbing for the figure scenarios: the run configuration a
// figure resolves from its flags, the one call its data points evaluate
// through, and the registration that rejects the flags a figure cannot
// honour.
#ifndef TOPODESIGN_SCENARIO_FIGURES_FIGURE_COMMON_H
#define TOPODESIGN_SCENARIO_FIGURES_FIGURE_COMMON_H

#include <string>

#include "core/topobench.h"
#include "scenario/cell_executor.h"
#include "scenario/scenario.h"
#include "scenario/spec.h"

namespace topo::scenario {

/// How a figure solves, which decides the flags it honours. No figure
/// shards: its tables need every cell.
enum class FigureSolver {
  kNone,    ///< Graph metrics only: rejects --cache-dir and --solver.
  kDirect,  ///< Its own solver calls: honours --solver, rejects --cache-dir.
  kCells,   ///< Every data point through figure_point: honours both.
};

/// A figure's run configuration, resolved from the run context.
struct FigureConfig {
  int runs = 3;
  double epsilon = 0.08;
  std::uint64_t seed = 1;
  bool full = false;
  SolverMode solver = SolverMode::kExact;  ///< --solver.
  std::string cache_dir;                   ///< --cache-dir ("" = none).
  /// Cache accounting summed over the figure's data points; the
  /// registration reports it on stderr when a cache dir is set.
  CellCounts* counts = nullptr;
};

/// Evaluates one data point: `family` at `params`, config.runs runs from
/// point seed `point_seed`, through run_point (sweep.h). So every run is a
/// cached cell with the address of the equal sweep cell, and run r uses
/// topology seed derive_seed(point_seed, 2r) and traffic seed
/// derive_seed(point_seed, 2r + 1).
[[nodiscard]] ExperimentStats figure_point(
    const FigureConfig& config, const std::string& family, ParamMap params,
    std::uint64_t point_seed, TrafficKind traffic = TrafficKind::kPermutation,
    double chunky_fraction = 1.0);

using FigureFn = void (*)(ScenarioRun& ctx, const FigureConfig& config);

/// Registers figure `name`. Its run count defaults to quick_runs, or
/// full_runs with --full. Before any output the figure rejects --shard,
/// --stripe, and whatever `solver` says it cannot honour, naming the flag.
/// With --cache-dir it ends with one stderr line in the sweeps' shape:
/// "cache NAME: H hits, M misses (DIR)".
void register_figure(const std::string& name, const std::string& description,
                     int quick_runs, int full_runs, FigureSolver solver,
                     FigureFn run);

}  // namespace topo::scenario

#endif  // TOPODESIGN_SCENARIO_FIGURES_FIGURE_COMMON_H
