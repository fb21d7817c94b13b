// Declarative experiment specifications.
//
// A ScenarioSpec names a topology family (topo_registry.h), a workload, a
// failure model, and a set of sweep axes; the SweepRunner (sweep.h) turns
// it into a sharded grid of (sweep-point × run) evaluations. This is the
// "one-line scenario" layer: a new failure sweep or traffic mix is a spec
// literal, not a new binary.
#ifndef TOPODESIGN_SCENARIO_SPEC_H
#define TOPODESIGN_SCENARIO_SPEC_H

#include <map>
#include <string>
#include <vector>

#include "core/evaluate.h"

namespace topo::scenario {

/// Named numeric parameters for a topology family (missing keys fall back
/// to the family's defaults; see topo_registry.cc for each family's set).
using ParamMap = std::map<std::string, double>;

/// Which topology family to build, with its fixed (non-swept) parameters.
struct TopologySpec {
  std::string family;
  ParamMap params;
};

/// One sweep dimension. The parameter name either targets the topology
/// (any family parameter) or, for the reserved names below, the evaluation:
///   "link_failure_fraction", "switch_failure_fraction"
///       -> the uniform failure component,
///   "blast_switch_fraction", "blast_probability"
///       -> the correlated blast-radius component,
///   "class_failure_fraction:<class>" (e.g. "class_failure_fraction:tor")
///       -> that class's per-class failure rate,
///   "targeted_link_cuts" -> the adversarial top-k link cuts (integers),
///   "capacity_factor"    -> the surviving-link capacity derating,
///   "chunky_fraction"    -> the chunky traffic knob,
///   "hot_fraction", "hot_multiplier" -> the hotspot traffic knobs,
///   "stride"             -> the stride traffic step (integers),
///   "load"               -> the FCT workload's offered load fraction,
///   "fan_in"             -> the incast fan-in (integers; requires the
///                           workload's "pattern": "incast"),
///   "cdf"                -> the FCT workload's flow-size CDF, as an
///                           integer index into flow_size_cdfs(),
///   "epsilon"            -> the FPTAS accuracy,
///   "solver_mode"        -> the solver mode (0 = exact, 1 = approx).
struct SweepAxis {
  std::string param;
  std::vector<double> values;       ///< Smoke-mode sweep points.
  std::vector<double> full_values;  ///< Paper-fidelity points (empty: reuse values).
};

/// Optional topology-search block (src/search/driver.h): when enabled the
/// spec describes a design-space search over its topology family instead
/// of a sweep — a seeded random-restart hill climb (temperature 0) or
/// simulated anneal (temperature > 0) maximizing `objective` under the
/// cost weights below. Legacy specs leave it disabled and serialize
/// byte-identically to before the block existed.
struct SearchSpec {
  bool enabled = false;
  /// "throughput_per_cost" (mean lambda / total cost) or "throughput".
  std::string objective = "throughput_per_cost";
  int budget = 20;     ///< Mutation steps per restart.
  int restarts = 2;    ///< Independent seeded restarts.
  int population = 4;  ///< Neighbors evaluated per step.
  /// 0 = strict hill climbing; > 0 = simulated annealing with this
  /// initial temperature, cooled by 0.95 per step.
  double temperature = 0.0;
  /// Move names (search/search_space.h): "rewire", "server_shift".
  std::vector<std::string> moves = {"rewire"};
  /// Cost-model weights (search/cost_model.h).
  double port_cost = 1.0;
  double cable_cost = 0.1;
  double switch_cost = 0.0;
  std::map<std::string, double> class_cost;
  int floor_columns = 8;
};

/// A declarative scenario: topology family × sweep axes × traffic kind ×
/// failure model × run counts. Multiple axes form their cartesian product
/// (first axis slowest).
struct ScenarioSpec {
  std::string name;
  std::string description;
  TopologySpec topology;
  TrafficKind traffic = TrafficKind::kPermutation;
  double chunky_fraction = 1.0;
  /// Hotspot traffic knobs (TrafficKind::kHotspot only).
  double hot_fraction = 0.1;
  double hot_multiplier = 4.0;
  /// Stride traffic step (TrafficKind::kStride only).
  int stride = 1;
  /// Base failure spec (core/failure.h); axes with reserved names override
  /// its fields per sweep point.
  FailureSpec failure;
  /// Optional packet-level co-simulation (core/evaluate.h): when enabled,
  /// every cell also runs the MPTCP packet simulator over the same drawn
  /// permutation and the sweep table grows packet_mean / packet_p05 /
  /// gap_percent columns. Permutation or stride traffic only — unless the
  /// nested fct workload is enabled, in which case every cell instead runs
  /// the finite-flow Poisson workload and the table grows
  /// fct_p50_ms / fct_p99_ms / fct_goodput columns.
  PacketSimOptions packet_sim;
  /// Solver mode (flow/concurrent_flow.h): kExact (default) reproduces
  /// the historical numbers bit for bit; kApprox opts the spec into the
  /// warm-started batched-parallel solver (same epsilon guarantee,
  /// different — still certified — numbers). A "solver_mode" axis or the
  /// --solver CLI flag overrides this per point / per run.
  SolverMode solver = SolverMode::kExact;
  /// Optional topology-search block; incompatible with sweep axes.
  SearchSpec search;
  std::vector<SweepAxis> axes;
  int quick_runs = 3;
  int full_runs = 20;
  /// When true and every axis is evaluation-side (reserved names only),
  /// run r builds ONE topology shared by all sweep points and also keeps
  /// its workload/failure stream point-independent, instead of one
  /// topology per (point, run) cell. This is the "sweep failures on a
  /// fixed RRG" shape: it skips redundant construction work and, for
  /// link-failure axes, degrades prefix-nested failed sets of a fixed
  /// (topology, workload) pair per run — so curves are monotone up to
  /// FPTAS epsilon slack (see core/failure.h for the exact contract).
  bool reuse_topology = false;
};

/// Axis-name prefix selecting one class's per-class failure rate; the
/// remainder of the name is the class (BuiltTopology::class_names entry),
/// e.g. "class_failure_fraction:tor".
inline const std::string kClassAxisPrefix = "class_failure_fraction:";

/// True for axis names bound to evaluation options rather than topology
/// parameters.
[[nodiscard]] bool is_eval_axis(const std::string& param);

/// The evaluation options `spec` fixes, at FPTAS accuracy `epsilon`: the
/// base every sweep and search cell starts from before overrides and
/// axis binding.
[[nodiscard]] EvalOptions eval_options(const ScenarioSpec& spec,
                                       double epsilon);

}  // namespace topo::scenario

#endif  // TOPODESIGN_SCENARIO_SPEC_H
