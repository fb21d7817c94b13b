#include "scenario/cell_executor.h"

#include <cstdlib>
#include <fstream>

#include "scenario/cache.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/parallel.h"

namespace topo::scenario {

StripeMode stripe_mode_from_name(const std::string& name) {
  if (name == "round-robin") return StripeMode::kRoundRobin;
  if (name == "range") return StripeMode::kRange;
  throw InvalidArgument("unknown stripe mode: " + name +
                        " (expected round-robin or range)");
}

bool cell_in_shard(int cell_index, int shard_index, int shard_count) {
  // Round-robin striping: cheap, independent of the grid shape, and an
  // exact partition for any (cells, shard_count) pair. Striding by cell
  // rather than by group also balances shards when a single group's runs
  // dominate the grid.
  return cell_index % shard_count == shard_index;
}

bool range_in_shard(int rank, int num_cells, int shard_index,
                    int shard_count) {
  // Balanced contiguous blocks over whatever ranking the caller chose:
  // shard i owns [floor(i*C/N), floor((i+1)*C/N)). Exact partition for
  // any (C, N), block sizes differing by at most one.
  const long long c = num_cells;
  const long long lo = c * shard_index / shard_count;
  const long long hi = c * (shard_index + 1) / shard_count;
  return rank >= lo && rank < hi;
}

bool CellStripe::owns(int index, int groups, int runs) const {
  if (shard_count == 0) return false;
  if (mode == StripeMode::kRange) {
    const int rank = (index % runs) * groups + index / runs;
    return range_in_shard(rank, groups * runs, shard_index, shard_count);
  }
  return cell_in_shard(index, shard_index, shard_count);
}

CellGrid::CellGrid(int groups, int runs)
    : groups(groups),
      runs(runs),
      keys(static_cast<std::size_t>(groups * runs)),
      results(keys.size()),
      available(keys.size(), 0) {}

CellExecutor::CellExecutor(const std::string& cache_dir) {
  if (const char* path = std::getenv(kHeartbeatEnvVar);
      path != nullptr && path[0] != '\0') {
    heartbeat_path_ = path;
  }
  beat();
  if (!cache_dir.empty()) {
    cache_ = std::make_unique<const ResultCache>(cache_dir);
  }
}

CellExecutor::~CellExecutor() = default;

void CellExecutor::beat() const {
  if (heartbeat_path_.empty()) return;
  std::ofstream out(heartbeat_path_, std::ios::trunc);
  out << cells_done_.load() << "\n";
}

CellCounts CellExecutor::run(
    CellGrid& grid, const CellStripe& stripe,
    const std::function<ThroughputResult(int index)>& compute) {
  const int num_cells = grid.groups * grid.runs;
  std::atomic<int> hits{0};
  std::atomic<int> computed{0};
  if (cache_ != nullptr) {
    // Independent file reads: on the pool, so a large warm grid is not
    // serialized on its lookups.
    parallel_for(num_cells, [&](int index) {
      const std::size_t i = static_cast<std::size_t>(index);
      if (grid.available[i]) return;
      if (cache_->load(grid.keys[i], &grid.results[i])) {
        grid.available[i] = 1;
        hits.fetch_add(1);
      }
    });
  }
  parallel_for(num_cells, [&](int index) {
    const std::size_t i = static_cast<std::size_t>(index);
    if (grid.available[i] || !stripe.owns(index, grid.groups, grid.runs)) {
      return;
    }
    grid.results[i] = compute(index);
    grid.available[i] = 1;
    computed.fetch_add(1);
    if (cache_ != nullptr) cache_->store(grid.keys[i], grid.results[i]);
    // Fault point (util/fault.h): under stall_after_cells:M the M-th
    // computed cell parks every evaluation thread, so the beat below
    // never lands and the heartbeat goes silent — the supervised-hang
    // scenario the orchestrator's --worker-timeout reaper must catch.
    fault::on_cell_evaluated();
    cells_done_.fetch_add(1);
    beat();
  });
  CellCounts counts;
  counts.hits = hits.load();
  counts.computed = computed.load();
  for (const char have : grid.available) counts.unavailable += have ? 0 : 1;
  return counts;
}

}  // namespace topo::scenario
