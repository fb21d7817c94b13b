#include "scenario/figures/figure_common.h"

#include <iostream>

#include "scenario/cache.h"
#include "scenario/spec_io.h"
#include "scenario/sweep.h"
#include "util/error.h"

namespace topo::scenario {

ExperimentStats figure_point(const FigureConfig& config,
                             const std::string& family, ParamMap params,
                             std::uint64_t point_seed, TrafficKind traffic,
                             double chunky_fraction) {
  SweepRunConfig cells;
  cells.runs = config.runs;
  cells.epsilon = config.epsilon;
  cells.master_seed = point_seed;
  cells.cache_dir = config.cache_dir;
  cells.solver_override = solver_mode_name(config.solver);
  const SweepResult result =
      run_point({family, std::move(params)}, traffic, chunky_fraction, cells);
  if (config.counts != nullptr) {
    config.counts->hits += result.cache_hits;
    config.counts->computed += result.cache_misses;
  }
  return result.points.front().stats;
}

void register_figure(const std::string& name, const std::string& description,
                     int quick_runs, int full_runs, FigureSolver solver,
                     FigureFn run) {
  const auto run_figure = [=](ScenarioRun& ctx) {
    const ScenarioOptions& options = ctx.options();
    const auto reject = [&](bool given, const std::string& flag,
                            const std::string& why) {
      if (given) {
        throw InvalidArgument(flag + " does not apply to " + name + ": " +
                              why);
      }
    };
    reject(options.shard_count > 1, "--shard",
           "a figure's tables need every cell");
    reject(!options.stripe.empty(), "--stripe",
           "a figure's tables need every cell");
    const std::string no_cells = solver == FigureSolver::kNone
                                     ? "it runs no solver"
                                     : "its solves do not run as cells";
    reject(solver != FigureSolver::kCells && !options.cache_dir.empty(),
           "--cache-dir", no_cells);
    reject(solver == FigureSolver::kNone && !options.solver.empty(),
           "--solver", no_cells);

    FigureConfig config;
    config.runs = ctx.runs(quick_runs, full_runs);
    config.epsilon = options.epsilon;
    config.seed = options.seed;
    config.full = options.full;
    config.solver = options.solver == "approx" ? SolverMode::kApprox
                                               : SolverMode::kExact;
    config.cache_dir = options.cache_dir;
    CellCounts counts;
    config.counts = &counts;
    // Opened once up front, so an unusable dir fails before any output.
    if (!config.cache_dir.empty()) (void)ResultCache(config.cache_dir);
    run(ctx, config);
    if (!config.cache_dir.empty()) {
      // stderr, like the sweeps' line: stdout stays byte-identical cold,
      // warm and uncached.
      std::cerr << "cache " << name << ": " << counts.hits << " hits, "
                << counts.computed << " misses (" << config.cache_dir << ")\n";
    }
  };
  register_scenario({name, description, run_figure});
}

}  // namespace topo::scenario
