// Fault-tolerant sweep orchestrator: supervised local shard workers.
//
// `topobench orchestrate --spec FILE --cache-dir DIR --workers N` turns
// the manual shard/coordinator recipe (README "Distributed sweeps") into
// one supervised command. The orchestrator spawns N worker processes —
// each running `--spec FILE --shard I/N --cache-dir DIR` — and watches
// two failure signals per worker:
//
//   * termination: a nonzero exit or a signal death means the stripe is
//     incomplete; it is requeued with exponential backoff, up to
//     --max-retries re-attempts;
//   * liveness: every worker owns a heartbeat file
//     (DIR/heartbeats/shard-I) that the cell executor touches per
//     computed cell (cell_executor.h kHeartbeatEnvVar); a heartbeat
//     older than --worker-timeout seconds means the worker is wedged — it
//     is SIGKILLed and its stripe requeued like a crash.
//
// Crash-only recovery falls out of the content-addressed cache: every
// published cell survives a worker's death, so a retried stripe
// re-executes only the cells its predecessor never stored. When every
// stripe completes, the in-process coordinator merge (an unsharded warm
// run of the same spec) emits output byte-identical to a single-process
// run with zero recomputation. When a stripe exhausts its retries the
// orchestrator degrades instead of dying: the merge runs in merge_only
// mode (sweep.h) emitting the complete points only, an explicit
// missing-cell manifest is written next to the cache, and the process
// exits kExitPartial (3).
#ifndef TOPODESIGN_SCENARIO_ORCHESTRATOR_H
#define TOPODESIGN_SCENARIO_ORCHESTRATOR_H

#include <string>
#include <utility>
#include <vector>

#include "scenario/scenario.h"
#include "scenario/spec.h"

namespace topo::scenario {

/// Resolved orchestration parameters.
struct OrchestratorConfig {
  /// Binary exec'd for shard workers (normally topobench itself).
  std::string worker_exe;
  /// Spec file path handed to every worker via --spec.
  std::string spec_path;
  /// Shared cell cache; also hosts heartbeats/, logs/, and the manifest.
  std::string cache_dir;
  /// Stripe count AND maximum concurrent workers (one worker per stripe).
  int workers = 2;
  /// Re-attempts allowed per stripe after its first try.
  int max_retries = 2;
  /// Seconds of heartbeat silence after which a running worker counts as
  /// wedged and is killed.
  double worker_timeout = 300.0;
  /// Base retry delay; attempt k waits backoff_ms * 2^(k-1), capped at
  /// 60s. 0 retries immediately.
  int backoff_ms = 500;
  /// Scenario flags forwarded verbatim to every worker (--runs, --eps,
  /// --seed, --full/--smoke) so workers and the coordinator merge
  /// resolve identical cell grids.
  std::vector<std::string> worker_flags;
  /// Extra environment for workers only. TOPOBENCH_FAULT rides here: the
  /// CLI moves it from its own environment into the workers', so chaos
  /// runs fault the supervised processes, never the supervisor.
  std::vector<std::pair<std::string, std::string>> worker_env;
  /// Supervision poll cadence (tests shrink it).
  int poll_interval_ms = 50;
};

/// What one orchestration did, beyond its table output.
struct OrchestrationReport {
  int exit_code = 0;             ///< kExitOk or kExitPartial (exit_codes.h).
  std::vector<int> failed_stripes;  ///< Stripes that exhausted retries.
  int total_retries = 0;         ///< Re-attempts across all stripes.
  int stall_kills = 0;           ///< Workers killed for heartbeat silence.
  int merge_cache_hits = 0;      ///< Coordinator merge accounting.
  int merge_cache_misses = 0;    ///< Cells the merge had to recompute.
  std::size_t missing_cells = 0; ///< Unrecoverable cells (degraded only).
  std::string manifest_path;     ///< Missing-cell manifest ("" unless degraded).
};

/// Supervises the shard workers for `spec`, then runs the coordinator
/// merge in-process against `merge_ctx` (tables land on its stream /
/// recorder exactly as a plain unsharded run's would). Progress and
/// supervision events go to stderr. Raises InvalidArgument for a bad
/// config. `spec` must be the parse of config.spec_path — the caller
/// already loaded it to fail fast before any worker spawns.
OrchestrationReport orchestrate(const OrchestratorConfig& config,
                                const ScenarioSpec& spec,
                                ScenarioRun& merge_ctx);

/// CLI entry for `topobench orchestrate ...` (argv[0] is skipped, as in
/// scenario_main). `self_exe` is the binary to exec for workers — the
/// CLI passes its own path. Returns a shell exit code (exit_codes.h).
int orchestrate_main(const std::string& self_exe, int argc,
                     const char* const* argv);

}  // namespace topo::scenario

#endif  // TOPODESIGN_SCENARIO_ORCHESTRATOR_H
