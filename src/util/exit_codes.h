// Process exit-code taxonomy shared by the CLI and the orchestrator.
//
// One header so every surface — `topobench`, the bench binaries,
// and the orchestrator supervising shard workers — means the same thing
// by the same code, and scripts/CI can branch on outcomes instead of
// grepping stderr:
//   0  success
//   2  usage error / InvalidArgument (bad flags, malformed spec, unknown
//      scenario) — the request itself was wrong, retrying it verbatim
//      cannot help
//   3  partial results: the run finished degraded (a sweep stripe
//      exhausted its retry budget; output holds the complete points plus
//      a missing-cell manifest) — retrying MAY help
//   4  internal error (I/O failure writing requested output, unexpected
//      exception) — neither the user's fault nor a clean partial result
//   128+sig  terminated by signal `sig` (the shell convention; the
//      SIGINT/SIGTERM cleanup handler exits this way after removing
//      in-flight temp files)
#ifndef TOPODESIGN_UTIL_EXIT_CODES_H
#define TOPODESIGN_UTIL_EXIT_CODES_H

namespace topo {

inline constexpr int kExitOk = 0;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitPartial = 3;
inline constexpr int kExitInternal = 4;

/// Shell-convention exit code for death by signal `sig`.
[[nodiscard]] inline constexpr int exit_code_for_signal(int sig) {
  return 128 + sig;
}

}  // namespace topo

#endif  // TOPODESIGN_UTIL_EXIT_CODES_H
