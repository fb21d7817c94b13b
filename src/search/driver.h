// The topology-search driver: seeded random-restart hill climbing (or
// simulated annealing) over a SearchSpace, with every candidate evaluation
// routed through the scenario engine and the content-addressed result
// cache as a memo table.
//
// Determinism contract: the whole trajectory — candidates generated,
// objectives computed, accept/reject decisions, the final best design —
// is a pure function of (spec, runs, epsilon, master seed). Candidate
// evaluations fan out over the shared thread pool and reduce in a fixed
// order, traffic seeds are constant across candidates (so a rediscovered
// wiring lands on the same cache cells), and shard striping only changes
// WHO computes a cell, never its identity — so the search trace is
// byte-identical across thread counts, shard configurations, and warm vs
// cold caches.
//
// Seed fan-out (all via Rng::derive_seed from the master seed):
//   restart r's initial design   <- derive(master, kSearchTopoSalt + r)
//   evaluation run k's traffic   <- derive(master, kSearchTrafficSalt + k)
//   (restart r, step s) moves    <- derive(derive(master, kSearchMoveSalt),
//                                          r * 1000003 + s)
// Traffic seeds are deliberately candidate-independent: two candidates
// with the same canonical hash share cells no matter which restart, step,
// or process evaluated them first.
#ifndef TOPODESIGN_SEARCH_DRIVER_H
#define TOPODESIGN_SEARCH_DRIVER_H

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.h"
#include "scenario/sweep.h"
#include "search/search_space.h"
#include "topo/topology.h"

namespace topo::search {

/// Seed-derivation salts (see the fan-out contract above). Spread far
/// apart so restart indexes, run indexes, and step counters can never
/// collide across salt families.
inline constexpr std::uint64_t kSearchTopoSalt = 0x10000000ULL;
inline constexpr std::uint64_t kSearchTrafficSalt = 0x20000000ULL;
inline constexpr std::uint64_t kSearchMoveSalt = 0x30000000ULL;

/// One evaluated candidate in the search trajectory.
struct SearchStepRecord {
  int restart = 0;
  /// 0 = the restart's initial design; mutation steps count from 1.
  int step = 0;
  std::string candidate;   ///< 16-hex canonical-topology hash.
  double cost = 0.0;       ///< CostModel total.
  double lambda = 0.0;     ///< Mean certified throughput over the runs.
  double objective = 0.0;  ///< Per the spec's search.objective.
  /// True when this candidate became the step's new current design (the
  /// initial design of every restart is trivially accepted).
  bool accepted = false;
};

/// Resolved run configuration for a search (the CLI flag surface).
struct SearchDriverOptions {
  int runs = 3;                ///< Traffic seeds per candidate evaluation.
  double epsilon = 0.08;       ///< FPTAS certified-gap target.
  std::uint64_t master_seed = 1;
  /// Content-addressed evaluation cache (scenario/cache.h); "" keeps the
  /// memoization in-process only.
  std::string cache_dir;
  /// Distributed evaluation (--shard I/N): each evaluation batch's cells
  /// are striped across shards exactly like a sweep's grid, and a shard
  /// resolves its own stripe first. It then loads the out-of-stripe cells
  /// peers have already published and computes the rest, so every shard
  /// walks the identical trajectory; every cell a shard computes is
  /// stored. Requires cache_dir.
  int shard_index = 0;
  int shard_count = 1;
  /// Stripe shape for sharded batches; never enters any cell identity.
  scenario::StripeMode stripe = scenario::StripeMode::kRoundRobin;
};

/// A finished search.
struct SearchResult {
  /// Restart 0's initial design: the family's own seed design, i.e. the
  /// baseline every improvement claim is measured against.
  SearchStepRecord baseline;
  /// The best candidate over EVERY evaluation (trivially >= baseline on
  /// the objective, since the baseline is itself evaluated).
  SearchStepRecord best;
  BuiltTopology best_topology;
  /// Every evaluated candidate, in evaluation order: for each restart the
  /// initial design, then `population` records per step. Contains no
  /// cache accounting, so its JSON is byte-identical warm or cold,
  /// sharded or not.
  std::vector<SearchStepRecord> trace;
  /// Cache/memo accounting (accurate whether or not a cache_dir was
  /// configured; memo hits count as hits).
  int cache_hits = 0;
  int cache_misses = 0;
};

/// Runs the search a spec's "search" block describes. Requires
/// spec.search.enabled and no sweep axes (validate_spec enforces the
/// rest). Raises InvalidArgument on a sharded config without a cache dir.
[[nodiscard]] SearchResult run_search(const scenario::ScenarioSpec& spec,
                                      const SearchDriverOptions& options);

/// The search trace artifact: deterministic JSON (fixed key order,
/// shortest-round-trip numbers, trailing newline) with one record per
/// evaluated candidate plus the baseline and best summaries.
[[nodiscard]] std::string search_trace_json(const scenario::ScenarioSpec& spec,
                                            const SearchDriverOptions& options,
                                            const SearchResult& result);

/// CLI entry for `topobench search` (argv[0] is skipped):
///   search --spec FILE [--trace FILE] [--runs N] [--eps X] [--seed N]
///          [--threads N] [--cache-dir DIR] [--shard I/N] [--stripe MODE]
/// Prints the trajectory table and the baseline/best summary to stdout;
/// cache accounting goes to stderr (same format as sweeps). Returns a
/// shell exit code.
int search_main(int argc, const char* const* argv);

}  // namespace topo::search

#endif  // TOPODESIGN_SEARCH_DRIVER_H
