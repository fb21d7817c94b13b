// The benchmark's workloads and their untraced batch jobs.
//
// Each workload is a closed loop with one client: it submits one batch
// job (a sweep or a search over a spec from specs/), waits for the reduced
// table, checks it, and submits the next. Job j of a run seeded `seed`
// uses master seed derive_seed(seed, j), so a run's inputs are a pure
// function of its seed while successive jobs average over instances.
#ifndef TOPOBENCH_E2E_WORKLOADS_H
#define TOPOBENCH_E2E_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.h"
#include "scenario/sweep.h"
#include "search/driver.h"

namespace e2e {

/// FPTAS accuracy of every solve in the benchmark.
inline constexpr double kEpsilon = 0.08;

enum class JobKind {
  kSweep,   ///< SweepRunner::run into a fresh cache dir (every cell cold).
  kSearch,  ///< search::run_search into a fresh cache dir.
  kWarm,    ///< SweepRunner::run over the cache that set-up filled.
};

struct Workload {
  const char* name;
  JobKind kind;
  int runs;  ///< Runs per sweep point, or traffic seeds per search candidate.
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr when `name` is not a workload.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// Set-up's warm-up job is job kWarmupJob of seed kWarmupSeed in every run,
/// whatever --seed says: a master seed no timed job uses, and the same
/// set-up work on every run, so setup_s varies with the code and the host
/// only.
inline constexpr std::uint64_t kWarmupSeed = 0;
inline constexpr int kWarmupJob = -1;

/// Master seed of job `job` (warm_grid replays job 0 every time).
[[nodiscard]] std::uint64_t job_seed(const Workload& w, std::uint64_t seed,
                                     int job);

/// Cells one job evaluates (sweep grid size, or candidates x runs).
[[nodiscard]] int job_cells(const Workload& w,
                            const topo::scenario::ScenarioSpec& spec);

[[nodiscard]] topo::scenario::SweepRunConfig sweep_config(
    const Workload& w, std::uint64_t master_seed, const std::string& cache_dir);
[[nodiscard]] topo::search::SearchDriverOptions search_options(
    const Workload& w, std::uint64_t master_seed, const std::string& cache_dir);

/// fnv1a64 over the round-trip-precision summaries of reduced points.
[[nodiscard]] std::uint64_t points_digest(
    const std::vector<topo::scenario::SweepPointResult>& points);

/// Checks every reduced point: all values finite, mean lambda within
/// [0, mean dual bound]. Returns the number of cells in failing points and
/// appends one message per failing point to `errors`.
int check_points(const std::vector<topo::scenario::SweepPointResult>& points,
                 int runs, std::vector<std::string>* errors);

/// Checks a search result: one trace record per evaluated candidate
/// (restarts x (1 + budget x population)), finite values, best >= baseline.
/// Returns false and appends messages to `errors` on a violation.
bool check_search(const topo::scenario::ScenarioSpec& spec,
                  const topo::search::SearchResult& result,
                  std::vector<std::string>* errors);

/// One untraced batch job.
struct JobOutcome {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< user + sys of the whole process over the job.
  int cells = 0;
  int failed_cells = 0;
  std::uint64_t digest = 0;
  /// The search result, kept for the traced replay (search jobs only).
  topo::search::SearchResult search;
};

/// State set-up leaves for the timed region.
struct Prepared {
  topo::scenario::ScenarioSpec spec;
  std::string fill_dir;  ///< The cache set-up's job filled.
  std::uint64_t fill_digest = 0;
  int cells = 0;  ///< Cells set-up's job evaluated.
  int failed_cells = 0;
};

/// Set-up: loads the workload's spec and runs one job of it into the fresh
/// `cache_dir`, leaving the timed region nothing to initialize lazily. The
/// job is warm_grid's cold fill (job 0, which every warm pass repeats);
/// elsewhere the fixed warm-up job.
[[nodiscard]] Prepared prepare(const Workload& w, const std::string& spec_dir,
                               std::uint64_t seed, const std::string& cache_dir,
                               std::vector<std::string>* errors);

/// Runs job `job` (cache_dir: a fresh directory; ignored by warm jobs).
[[nodiscard]] JobOutcome run_job(const Workload& w, const Prepared& prepared,
                                 std::uint64_t seed, int job,
                                 const std::string& cache_dir,
                                 std::vector<std::string>* errors);

/// user + sys CPU seconds of this process so far.
[[nodiscard]] double process_cpu_s();

}  // namespace e2e

#endif  // TOPOBENCH_E2E_WORKLOADS_H
