// Deterministic fault injection for robustness tests and CI chaos jobs.
//
// The `TOPOBENCH_FAULT` environment variable arms exactly one fault,
// honored at named points in the sweep/cache hot path. The hooks are
// compiled in unconditionally but reduce to one atomic load (kind ==
// kNone) when the variable is unset, so production runs pay nothing and
// tests exercise the SAME binary they ship.
//
// Supported values:
//   crash_after_cells:M   after the M-th cache-cell store completes,
//                         deliver SIGKILL to self — a crash-consistent
//                         death (no destructors, no atexit), exactly the
//                         worker failure the orchestrator must survive
//   stall_after_cells:M   after the M-th evaluated cell, every evaluation
//                         thread parks forever: the process stays alive
//                         but its progress heartbeat goes silent, which
//                         is the hang the --worker-timeout reaper detects
//   corrupt_store         every cache-cell store publishes a file whose
//                         checksum cannot verify (payload bytes mangled),
//                         driving the loader's quarantine path
//
// A malformed TOPOBENCH_FAULT value fails loudly (stderr + exit 2): a
// chaos test whose fault never armed would pass vacuously.
#ifndef TOPODESIGN_UTIL_FAULT_H
#define TOPODESIGN_UTIL_FAULT_H

#include <string>

namespace topo::fault {

/// Environment variable naming the armed fault.
inline constexpr const char* kFaultEnvVar = "TOPOBENCH_FAULT";

/// Named point: one cache-cell store has been fully published (cache.cc).
/// Under crash_after_cells:M the M-th call SIGKILLs the process.
void on_cell_stored();

/// Named point: one cell finished evaluating (scenario/cell_executor.cc).
/// Under stall_after_cells:M the M-th and every later call parks the
/// calling thread forever (heartbeats stop; the process never exits on
/// its own).
void on_cell_evaluated();

/// Named point: a cache store is about to write `payload` (cache.cc).
/// Under corrupt_store the returned payload is mangled so the published
/// file fails checksum verification; otherwise returns it unchanged.
[[nodiscard]] std::string maybe_corrupt_payload(std::string payload);

/// True when any fault is armed (tests use this to assert arming).
[[nodiscard]] bool fault_armed();

}  // namespace topo::fault

#endif  // TOPODESIGN_UTIL_FAULT_H
