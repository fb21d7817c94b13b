#include "scenario/sweep.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <mutex>
#include <utility>

#include "scenario/cache.h"
#include "scenario/spec_io.h"
#include "scenario/topo_registry.h"
#include "traffic/workload.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace topo::scenario {
namespace {

const std::vector<double>& axis_values(const SweepAxis& axis, bool full) {
  return full && !axis.full_values.empty() ? axis.full_values : axis.values;
}

// Applies one sweep coordinate to the topology params or the eval options.
void bind_coord(const std::string& name, double value, ParamMap& params,
                EvalOptions& options) {
  if (name == "link_failure_fraction") {
    options.failure.uniform.link_fraction = value;
  } else if (name == "switch_failure_fraction") {
    options.failure.uniform.switch_fraction = value;
  } else if (name == "blast_switch_fraction") {
    options.failure.correlated.epicenter_fraction = value;
  } else if (name == "blast_probability") {
    options.failure.correlated.peer_probability = value;
  } else if (name == "targeted_link_cuts") {
    options.failure.targeted.link_cuts = static_cast<int>(std::llround(value));
  } else if (name.rfind(kClassAxisPrefix, 0) == 0) {
    options.failure.per_class
        .switch_fraction[name.substr(kClassAxisPrefix.size())] = value;
  } else if (name == "capacity_factor") {
    options.failure.capacity_factor = value;
  } else if (name == "chunky_fraction") {
    options.chunky_fraction = value;
  } else if (name == "hot_fraction") {
    options.hot_fraction = value;
  } else if (name == "hot_multiplier") {
    options.hot_multiplier = value;
  } else if (name == "stride") {
    options.stride = static_cast<int>(std::llround(value));
  } else if (name == "load") {
    options.packet_sim.fct.load = value;
  } else if (name == "fan_in") {
    options.packet_sim.fct.fan_in = static_cast<int>(std::llround(value));
  } else if (name == "cdf") {
    // The axis value is an integer index into flow_size_cdfs(); binding
    // resolves it to the registered name (validate_spec range-checks it).
    options.packet_sim.fct.cdf =
        flow_size_cdfs()[static_cast<std::size_t>(std::llround(value))].name;
  } else if (name == "epsilon") {
    options.flow.epsilon = value;
  } else if (name == "solver_mode") {
    // 0 = exact, 1 = approx (validate_spec range-checks the values).
    options.flow.mode = std::llround(value) == 1 ? SolverMode::kApprox
                                                 : SolverMode::kExact;
  } else {
    params[name] = value;
  }
}

// The resolved inputs of one (point, run) cell — exactly what its result
// is a function of, so it doubles as the cache identity (cache.h).
struct CellPlan {
  ParamMap params;
  EvalOptions options;
  std::uint64_t topo_seed = 0;
  std::uint64_t traffic_seed = 0;
};

std::vector<std::shared_ptr<const ScenarioSpec>>& spec_registry() {
  static auto* specs = new std::vector<std::shared_ptr<const ScenarioSpec>>();
  return *specs;
}

}  // namespace

bool is_eval_axis(const std::string& param) {
  return param == "link_failure_fraction" ||
         param == "switch_failure_fraction" ||
         param == "blast_switch_fraction" || param == "blast_probability" ||
         param == "targeted_link_cuts" ||
         param.rfind(kClassAxisPrefix, 0) == 0 ||
         param == "capacity_factor" || param == "chunky_fraction" ||
         param == "hot_fraction" || param == "hot_multiplier" ||
         param == "stride" || param == "load" || param == "fan_in" ||
         param == "cdf" || param == "epsilon" || param == "solver_mode";
}

EvalOptions eval_options(const ScenarioSpec& spec, double epsilon) {
  EvalOptions options;
  options.flow.epsilon = epsilon;
  options.flow.mode = spec.solver;
  options.traffic = spec.traffic;
  options.chunky_fraction = spec.chunky_fraction;
  options.hot_fraction = spec.hot_fraction;
  options.hot_multiplier = spec.hot_multiplier;
  options.stride = spec.stride;
  options.failure = spec.failure;
  options.packet_sim = spec.packet_sim;
  return options;
}

std::vector<std::vector<double>> SweepRunner::enumerate_points() const {
  std::vector<std::vector<double>> points{{}};
  for (const SweepAxis& axis : spec_->axes) {
    const std::vector<double>& values = axis_values(axis, config_.full);
    require(!values.empty(), "sweep axis " + axis.param + " has no values");
    std::vector<std::vector<double>> next;
    next.reserve(points.size() * values.size());
    for (const std::vector<double>& prefix : points) {
      for (double v : values) {
        std::vector<double> point = prefix;
        point.push_back(v);
        next.push_back(std::move(point));
      }
    }
    points = std::move(next);
  }
  return points;
}

SweepResult SweepRunner::run() const {
  const ScenarioSpec& spec = *spec_;
  require(config_.runs >= 1, "sweep requires runs >= 1");
  require(config_.shard_count >= 1, "shard_count must be >= 1");
  require(config_.shard_index >= 0 &&
              config_.shard_index < config_.shard_count,
          "shard_index must be in [0, shard_count)");
  // A shard's only output channel is the shared cache: without one its
  // stripe would be computed and thrown away.
  require(config_.shard_count == 1 || !config_.cache_dir.empty(),
          "sharded sweeps require a cache dir (the coordinator merges "
          "shards through it)");
  // Merge-only evaluates nothing, so the cache is its only input.
  require(!config_.merge_only || !config_.cache_dir.empty(),
          "merge_only requires a cache dir (there is nothing else to "
          "merge from)");
  // One validator for file-parsed and programmatic specs alike: known
  // family, known parameter/axis names (a typo'd axis would otherwise
  // sweep nothing and report identical cells without an error), sane
  // ranges. Messages name the offending key.
  validate_spec(spec);
  const FamilyInfo* family = find_family(spec.topology.family);
  CellExecutor executor(config_.cache_dir);

  const std::vector<std::vector<double>> points = enumerate_points();
  const int runs = config_.runs;
  const int num_points = static_cast<int>(points.size());
  const int num_cells = num_points * runs;

  bool reuse = spec.reuse_topology;
  for (const SweepAxis& axis : spec.axes) {
    if (!is_eval_axis(axis.param)) reuse = false;
  }

  // Spec-level solver mode, then the CLI override, then (in bind_coord)
  // any "solver_mode" axis — later binders win.
  EvalOptions base = eval_options(spec, config_.epsilon);
  if (!config_.solver_override.empty()) {
    base.flow.mode = config_.solver_override == "approx" ? SolverMode::kApprox
                                                         : SolverMode::kExact;
  }

  // Seed fan-out (the documented contract): point p draws
  // point_seed = derive_seed(master, p); run r of that point uses
  // topology seed derive_seed(point_seed, 2r) and traffic seed
  // derive_seed(point_seed, 2r + 1). In reuse mode the whole run-r
  // stream (topology, workload, failure draw) is point-independent —
  // both seeds derive from the master instead — so only the axis value
  // changes between points and link-failure sweeps degrade
  // prefix-nested failed sets of ONE fixed (topology, workload) pair
  // per run (curves monotone up to FPTAS slack; see core/failure.h).
  // Plans and keys are shard-agnostic, so every shard and the
  // coordinator address identical cells.
  std::vector<CellPlan> plans(static_cast<std::size_t>(num_cells));
  CellGrid grid(num_points, runs);
  parallel_for(num_cells, [&](int index) {
    const std::size_t i = static_cast<std::size_t>(index);
    const int point = index / runs;
    const std::uint64_t run_index = static_cast<std::uint64_t>(index % runs);
    CellPlan& plan = plans[i];
    plan.params = spec.topology.params;
    plan.options = base;
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      bind_coord(spec.axes[a].param,
                 points[static_cast<std::size_t>(point)][a], plan.params,
                 plan.options);
    }
    const std::uint64_t seed_base =
        reuse ? config_.master_seed
              : Rng::derive_seed(config_.master_seed,
                                 static_cast<std::uint64_t>(point));
    plan.topo_seed = Rng::derive_seed(seed_base, 2 * run_index);
    plan.traffic_seed = Rng::derive_seed(seed_base, 2 * run_index + 1);
    grid.keys[i] = cell_key(CellIdentity{spec.topology.family, plan.params,
                                         plan.options, plan.topo_seed,
                                         plan.traffic_seed, {}});
  });

  // With reuse, run r's topology is independent of the sweep point: the
  // first computed cell of run r builds it, and every other cell of the
  // run shares it — so a run whose cells are all cached or left to other
  // shards never builds. The targeted-failure ranking is a pure,
  // seed-independent function of that graph, memoized the same way.
  struct RunSlot {
    std::once_flag built;
    std::unique_ptr<const BuiltTopology> topology;  ///< null: build failed
    std::once_flag ranked;
    std::vector<EdgeId> ranking;
  };
  std::vector<RunSlot> slots(static_cast<std::size_t>(reuse ? runs : 0));
  const auto compute = [&](int index) -> ThroughputResult {
    const CellPlan& plan = plans[static_cast<std::size_t>(index)];
    try {
      if (!reuse) {
        return evaluate_throughput(family->build(plan.params, plan.topo_seed),
                                   plan.options, plan.traffic_seed);
      }
      RunSlot& slot = slots[static_cast<std::size_t>(index % runs)];
      std::call_once(slot.built, [&] {
        try {
          slot.topology = std::make_unique<const BuiltTopology>(
              family->build(plan.params, plan.topo_seed));
        } catch (const ConstructionFailure&) {
          // Left null: every cell of this run records an infeasible run.
        }
      });
      if (slot.topology == nullptr) return {};
      const std::vector<EdgeId>* ranking = nullptr;
      if (plan.options.failure.targeted.active()) {
        std::call_once(slot.ranked, [&] {
          slot.ranking = targeted_link_ranking(slot.topology->graph);
        });
        ranking = &slot.ranking;
      }
      return evaluate_throughput(*slot.topology, plan.options,
                                 plan.traffic_seed, ranking);
    } catch (const ConstructionFailure&) {
      // Infeasible zero run (extreme parameter corners). Cached too: the
      // outcome is as deterministic as any other cell's.
      return {};
    }
  };
  // A merge_only run owns no stripe at all: it reduces what the cache
  // holds and reports the rest as missing.
  const CellStripe stripe{config_.shard_index,
                          config_.merge_only ? 0 : config_.shard_count,
                          config_.stripe};
  const CellCounts counts = executor.run(grid, stripe, compute);

  SweepResult result;
  for (const SweepAxis& axis : spec.axes) {
    result.axis_names.push_back(axis.param);
  }
  result.cache_hits = counts.hits;
  result.cache_misses = config_.cache_dir.empty() ? 0 : counts.computed;
  result.shard_skipped = counts.unavailable;
  result.points.reserve(points.size());
  for (int p = 0; p < num_points; ++p) {
    // Partial-reduction skip: a sharded run reduces only the points whose
    // every cell it has (its stripe plus cache hits); the remaining
    // points belong to other shards until the coordinator's warm run
    // merges everything. Unsharded runs always reduce every point. A
    // merge_only run additionally names each absent cell, so a degraded
    // coordinator can emit an exact missing-cell manifest next to its
    // partial table.
    bool complete = true;
    for (int r = 0; r < runs; ++r) {
      const std::size_t i = static_cast<std::size_t>(p * runs + r);
      complete = complete && grid.available[i];
      if (config_.merge_only && !grid.available[i]) {
        result.missing.push_back(MissingCell{
            p, r, points[static_cast<std::size_t>(p)], grid.keys[i]});
      }
    }
    if (!complete) continue;
    const auto begin =
        grid.results.begin() + static_cast<std::ptrdiff_t>(p) * runs;
    SweepPointResult point;
    point.coords = points[static_cast<std::size_t>(p)];
    point.stats = summarize_runs(std::vector<ThroughputResult>(
        begin, begin + static_cast<std::ptrdiff_t>(runs)));
    result.points.push_back(std::move(point));
  }
  return result;
}

SweepResult run_point(const TopologySpec& topology, TrafficKind traffic,
                      double chunky_fraction, const SweepRunConfig& config) {
  require(config.shard_count == 1 && !config.merge_only,
          "a single data point runs unsharded");
  ScenarioSpec spec;
  spec.name = topology.family;
  spec.topology = topology;
  spec.traffic = traffic;
  spec.chunky_fraction = chunky_fraction;
  // With no axes, reuse seeds every run from the master seed itself.
  spec.reuse_topology = true;
  return SweepRunner(spec, config).run();
}

TablePrinter sweep_table(const SweepResult& result) {
  // Packet columns appear only when some point actually ran the packet
  // co-simulation, so every pre-existing sweep's table (and golden file)
  // stays byte-identical.
  bool packet = false;
  bool fct = false;
  for (const SweepPointResult& point : result.points) {
    packet = packet || point.stats.packet_sim_runs > 0;
    fct = fct || point.stats.fct_runs > 0;
  }
  std::vector<std::string> headers = result.axis_names;
  for (const char* metric :
       {"lambda_mean", "lambda_stdev", "lambda_min", "dual_bound_mean",
        "utilization_mean", "infeasible_runs"}) {
    headers.emplace_back(metric);
  }
  if (packet) {
    for (const char* metric : {"packet_mean", "packet_p05", "gap_percent"}) {
      headers.emplace_back(metric);
    }
  }
  if (fct) {
    for (const char* metric : {"fct_p50_ms", "fct_p99_ms", "fct_goodput",
                               "fct_slowdown_p50", "fct_slowdown_p99"}) {
      headers.emplace_back(metric);
    }
  }
  TablePrinter table(std::move(headers));
  for (const SweepPointResult& point : result.points) {
    std::vector<Cell> row;
    for (double coord : point.coords) row.emplace_back(coord);
    row.emplace_back(point.stats.lambda.mean);
    row.emplace_back(point.stats.lambda.stdev);
    row.emplace_back(point.stats.lambda.min);
    row.emplace_back(point.stats.dual_bound.mean);
    row.emplace_back(point.stats.utilization.mean);
    row.emplace_back(static_cast<long long>(point.stats.infeasible_runs));
    if (packet) {
      // Flow-vs-packet gap in percent, against the fluid optimum clamped
      // to line rate (lambda > 1 means spare capacity the packet side
      // cannot use; Fig. 13 clamps the same way).
      const double flow_level = std::min(1.0, point.stats.lambda.mean);
      row.emplace_back(point.stats.packet_mean.mean);
      row.emplace_back(point.stats.packet_p05.mean);
      row.emplace_back(100.0 * (flow_level - point.stats.packet_mean.mean) /
                       std::max(flow_level, 1e-9));
    }
    if (fct) {
      row.emplace_back(point.stats.fct_p50.mean / 1e6);  // ns -> ms
      row.emplace_back(point.stats.fct_p99.mean / 1e6);
      row.emplace_back(point.stats.fct_goodput.mean);
      row.emplace_back(point.stats.fct_slowdown_p50.mean);
      row.emplace_back(point.stats.fct_slowdown_p99.mean);
    }
    table.add_row(std::move(row));
  }
  return table;
}

SweepResult run_spec_scenario(const ScenarioSpec& spec, ScenarioRun& ctx,
                              bool merge_only) {
  SweepRunConfig config;
  config.runs = ctx.runs(spec.quick_runs, spec.full_runs);
  config.epsilon = ctx.options().epsilon;
  config.master_seed = ctx.options().seed;
  config.full = ctx.options().full;
  config.cache_dir = ctx.options().cache_dir;
  config.shard_index = ctx.options().shard_index;
  config.shard_count = ctx.options().shard_count;
  if (!ctx.options().stripe.empty()) {
    config.stripe = stripe_mode_from_name(ctx.options().stripe);
  }
  config.solver_override = ctx.options().solver;
  config.merge_only = merge_only;
  SweepResult result = SweepRunner(spec, config).run();
  ctx.banner(spec.description);
  ctx.table(sweep_table(result));
  if (!config.cache_dir.empty()) {
    // stderr, not the scenario stream: stdout/JSON stay byte-identical
    // between cold and warm runs. The spec hash is shard-agnostic
    // (spec_hash never reads the shard fields), so all shards and the
    // coordinator report the same sweep identity; unsharded runs keep the
    // historical line format exactly (CI greps it).
    std::cerr << "cache " << spec.name << " ["
              << hash_hex(spec_hash(spec, config)) << "]";
    if (config.shard_count > 1) {
      std::cerr << " shard " << config.shard_index << "/"
                << config.shard_count;
    }
    std::cerr << ": " << result.cache_hits << " hits, "
              << result.cache_misses << " misses";
    if (config.shard_count > 1) {
      std::cerr << ", " << result.shard_skipped << " left to other shards";
    }
    std::cerr << " (" << config.cache_dir << ")\n";
  }
  return result;
}

void register_spec_scenario(ScenarioSpec spec) {
  const std::string name = spec.name;
  const std::string description = spec.description;
  // Idempotent, like register_scenario — and if the name is already taken
  // by ANY scenario (spec-backed or not), leave both registries alone so
  // --dump-spec can never emit a spec that is not what `topobench NAME`
  // runs.
  for (const ScenarioInfo* existing : list_scenarios()) {
    if (existing->name == name) return;
  }
  auto shared_spec = std::make_shared<const ScenarioSpec>(std::move(spec));
  spec_registry().push_back(shared_spec);
  register_scenario(ScenarioInfo{name, description,
                                 [shared_spec](ScenarioRun& ctx) {
                                   run_spec_scenario(*shared_spec, ctx);
                                 }});
}

const ScenarioSpec* find_spec_scenario(const std::string& name) {
  for (const auto& spec : spec_registry()) {
    if (spec->name == name) return spec.get();
  }
  return nullptr;
}

std::vector<const ScenarioSpec*> list_spec_scenarios() {
  std::vector<const ScenarioSpec*> result;
  result.reserve(spec_registry().size());
  for (const auto& spec : spec_registry()) result.push_back(spec.get());
  std::sort(result.begin(), result.end(),
            [](const ScenarioSpec* a, const ScenarioSpec* b) {
              return a->name < b->name;
            });
  return result;
}

}  // namespace topo::scenario
