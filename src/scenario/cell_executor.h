// CellExecutor: the one pipeline every cached cell evaluation runs through.
//
// Sweeps (sweep.h) and topology search (search/driver.h) both evaluate
// flat grids of cells — (point × run) or (candidate × run), cell index =
// group * runs + run — whose results are pure functions of their content
// address (cache.h cell_key). The executor owns the per-cell rule:
//
//   1. every cell not yet available is looked up in the cache (in
//      parallel), and every lookup finishes before any computation
//      starts, so hit and computed counts are deterministic even when a
//      grid holds the same cell twice;
//   2. every remaining miss the stripe owns is computed on the shared
//      pool, stored, and reported to the fault harness (util/fault.h) and
//      the progress heartbeat (kHeartbeatEnvVar);
//   3. the other misses stay unavailable: the caller leaves them to other
//      shards, reports them missing, or resolves them in a second call
//      with a wider stripe.
//
// Striping never enters cell identity, so every shard addresses identical
// cells. In src/ this is the only caller of ResultCache::load and
// ResultCache::store.
#ifndef TOPODESIGN_SCENARIO_CELL_EXECUTOR_H
#define TOPODESIGN_SCENARIO_CELL_EXECUTOR_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluate.h"

namespace topo::scenario {

class ResultCache;

/// How the flat cell grid is partitioned across shards.
enum class StripeMode {
  /// Cell i belongs to shard i % shard_count — the historical default;
  /// balances heterogeneous cell costs across shards.
  kRoundRobin,
  /// Contiguous balanced blocks of the RUN-MAJOR cell ranking (all groups
  /// of run 0, then run 1, ...): each shard owns whole runs (up to the
  /// two boundary runs), so reuse-mode sweeps — which build ONE shared
  /// topology per run — build each topology on as few shards as possible
  /// instead of every shard building every run's.
  kRange,
};

/// Parses "round-robin" / "range"; raises InvalidArgument otherwise.
[[nodiscard]] StripeMode stripe_mode_from_name(const std::string& name);

/// True when flat cell `cell_index` belongs to stripe `shard_index` of
/// `shard_count` (round-robin by index). For any cell count the stripes
/// of a given shard_count partition the grid: every cell belongs to
/// exactly one shard.
[[nodiscard]] bool cell_in_shard(int cell_index, int shard_index,
                                 int shard_count);

/// True when rank `rank` of `num_cells` belongs to shard `shard_index`'s
/// contiguous balanced block [floor(i*C/N), floor((i+1)*C/N)) — the
/// StripeMode::kRange partition over some deterministic cell ranking.
/// For any rank order the blocks partition the grid exactly.
[[nodiscard]] bool range_in_shard(int rank, int num_cells, int shard_index,
                                  int shard_count);

/// The cells of a grid one executor call may compute: stripe
/// `shard_index` of `shard_count`. The default owns every cell;
/// shard_count == 0 owns none (a merge-only pass).
struct CellStripe {
  int shard_index = 0;
  int shard_count = 1;
  StripeMode mode = StripeMode::kRoundRobin;

  /// True when cell `index` of a `groups` × `runs` grid is this stripe's.
  [[nodiscard]] bool owns(int index, int groups, int runs) const;
};

/// A flat grid of cells, index = group * runs + run.
struct CellGrid {
  CellGrid(int groups, int runs);

  int groups;
  int runs;
  /// Content addresses; the caller fills them before a cached run.
  std::vector<std::uint64_t> keys;
  std::vector<ThroughputResult> results;
  /// 1 once results[index] holds the cell — from the cache, a
  /// computation, or the caller (e.g. an in-process memo).
  std::vector<char> available;
};

/// What one CellExecutor::run call did.
struct CellCounts {
  int hits = 0;         ///< Cells loaded from the cache.
  int computed = 0;     ///< Cells computed (and stored, with a cache).
  int unavailable = 0;  ///< Cells still unavailable afterwards.
};

/// Environment variable naming a worker's progress-heartbeat file. When
/// set, the executor touches (rewrites) the file once when it is created
/// and after every cell it computes; a supervisor watching the file's
/// mtime can tell a slow-but-alive worker from a wedged one. Unset: no
/// heartbeat I/O at all.
inline constexpr const char* kHeartbeatEnvVar = "TOPOBENCH_HEARTBEAT";

/// Resolves cell grids through an optional result cache.
class CellExecutor {
 public:
  /// Beats the heartbeat once — before the caller's plans and any
  /// topology builds, which can take a while — then opens the cache under
  /// `cache_dir` ("" computes every owned cell without one).
  explicit CellExecutor(const std::string& cache_dir);
  ~CellExecutor();

  /// Resolves every cell of `grid` not yet available, per the rule in the
  /// header comment. `compute(index)` runs on the pool and must be safe
  /// to call concurrently.
  CellCounts run(CellGrid& grid, const CellStripe& stripe,
                 const std::function<ThroughputResult(int index)>& compute);

 private:
  // Rewrites the heartbeat file with the number of cells computed so far.
  // The payload is diagnostic; supervision reads only the mtime, so
  // concurrent beats from pool threads interleave harmlessly.
  void beat() const;

  std::string heartbeat_path_;
  std::atomic<int> cells_done_{0};
  std::unique_ptr<const ResultCache> cache_;
};

}  // namespace topo::scenario

#endif  // TOPODESIGN_SCENARIO_CELL_EXECUTOR_H
