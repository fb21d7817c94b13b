// The scenario engine: named, reusable experiment definitions.
//
// A scenario is a named unit of evaluation — one of the paper's figures, a
// declarative parameter sweep (spec.h), or anything else expressible as
// "print tables given run options". Scenarios register themselves in a
// process-wide registry; the `topobench` CLI and the golden-regression
// tests select and run them through the same entry points, so there is
// exactly one implementation of every experiment in the tree.
//
// Output model: a scenario writes human-readable output (banners, aligned
// tables, trailing notes) to a stream exactly as the historical bench
// binaries did — byte-identical on fixed seeds — while every emitted table
// is also recorded on the run context, giving machine-readable JSON
// (write_scenario_json) and the golden-regression layer for free.
#ifndef TOPODESIGN_SCENARIO_SCENARIO_H
#define TOPODESIGN_SCENARIO_SCENARIO_H

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "util/table.h"

namespace topo {
class Flags;
}  // namespace topo

namespace topo::scenario {

/// Options shared by every scenario run, resolved from CLI flags.
struct ScenarioOptions {
  /// Seeds per data point; 0 means "the scenario's default for the mode"
  /// (each figure keeps its historical quick/full run counts).
  int runs = 0;
  double epsilon = 0.08;       ///< FPTAS certified-gap target.
  std::uint64_t seed = 1;      ///< Master seed.
  bool csv = false;            ///< Emit CSV tables instead of aligned text.
  bool full = false;           ///< Paper-fidelity mode (more runs, finer sweeps).
  std::string out_path;        ///< Write result JSON here ("" = disabled).
  /// Content-addressed cell cache for sweep and figure scenarios
  /// (scenario/cache.h); "" disables caching. fig03, fig10 and fig13
  /// reject it (figures/figure_common.h).
  std::string cache_dir;
  /// Distributed sweep sharding (--shard I/N): this invocation evaluates
  /// only the cells of stripe `shard_index` out of `shard_count` stripes
  /// of the sweep's flat (point × run) cell grid, storing them into the
  /// shared cache_dir (required when shard_count > 1). Cell identity is
  /// shard-agnostic, so a coordinator run with the same spec and no
  /// sharding warm-merges every shard's cells into the full table with
  /// zero recomputation. The default (0, 1) is an unsharded run.
  /// Figure scenarios reject it: their tables need every cell.
  int shard_index = 0;
  int shard_count = 1;
  /// Stripe shape for sharded sweeps (--stripe): "" / "round-robin" is
  /// the historical per-cell interleave; "range" gives each shard a
  /// contiguous run-major block so reuse-mode topology builds stay
  /// shard-local (sweep.h StripeMode). Never enters cell identity.
  std::string stripe;
  /// Solver-mode override for sweep scenarios (--solver): "" keeps each
  /// spec's own solver field, "exact" / "approx" force that mode for
  /// every cell. Figures pass it to their solves; fig03 rejects it.
  std::string solver;
};

/// One table a scenario emitted, with its banner title.
struct RecordedTable {
  std::string title;
  TablePrinter table;
};

/// Run context handed to a scenario's run function: resolved options, the
/// output stream, and the recorder feeding JSON/golden output.
class ScenarioRun {
 public:
  ScenarioRun(ScenarioOptions options, std::ostream& stream)
      : options_(std::move(options)), stream_(&stream) {}

  [[nodiscard]] const ScenarioOptions& options() const { return options_; }

  /// Run count for this scenario: the explicit --runs override, else the
  /// scenario's own default for the active mode (mirrors the historical
  /// bench::parse_bench_config semantics).
  [[nodiscard]] int runs(int quick_default, int full_default) const {
    if (options_.runs > 0) return options_.runs;
    return options_.full ? full_default : quick_default;
  }

  /// Raw stream for banners-adjacent prose (e.g. "Expected: ..." lines).
  std::ostream& out() { return *stream_; }

  /// Prints a figure banner and makes `title` the title of the next
  /// recorded table.
  void banner(const std::string& title);

  /// Prints the table (aligned or CSV per options) and records it under
  /// the most recent banner title.
  void table(const TablePrinter& t);

  [[nodiscard]] const std::vector<RecordedTable>& tables() const {
    return tables_;
  }

 private:
  ScenarioOptions options_;
  std::ostream* stream_;
  std::string current_title_;
  std::vector<RecordedTable> tables_;
};

using ScenarioFn = std::function<void(ScenarioRun&)>;

/// A registered scenario.
struct ScenarioInfo {
  std::string name;         ///< Unique selector (e.g. "fig05_powerlaw_beta").
  std::string description;  ///< One-line summary shown by --list.
  ScenarioFn run;
};

/// Adds a scenario; re-registering an existing name is a no-op so
/// registration helpers are idempotent.
void register_scenario(ScenarioInfo info);

/// All registered scenarios, sorted by name.
[[nodiscard]] std::vector<const ScenarioInfo*> list_scenarios();

/// Finds by exact name, else by unique prefix; nullptr when unknown or
/// ambiguous.
[[nodiscard]] const ScenarioInfo* find_scenario(const std::string& name);

/// Registers every built-in scenario: the 13 paper figures plus the
/// declarative sweep scenarios (failure sweeps, traffic mixes). Idempotent.
void register_builtin_scenarios();

/// Serializes a finished run's recorded tables as JSON (the CLI's --out
/// format and the golden-regression format).
void write_scenario_json(std::ostream& os, const std::string& name,
                         const ScenarioOptions& options,
                         const std::vector<RecordedTable>& tables);

/// Parses the shared scenario flag set (--runs --eps --seed --csv --full
/// --smoke --out --threads --cache-dir --shard --solver --stripe) from argv
/// (argv[0] is skipped). --threads N sizes the shared thread pool (and exports
/// TOPOBENCH_THREADS=N for child processes); the pool is sized once, so
/// if a parallel region already ran, the flag cannot take effect and
/// parsing fails loudly instead of silently running at the old width.
/// --shard I/N selects stripe I (0-based) of N for distributed sweeps
/// and requires --cache-dir. Raises InvalidArgument on unknown flags,
/// malformed values, or conflicting modes.
[[nodiscard]] ScenarioOptions parse_scenario_options(int argc,
                                                     const char* const* argv);

/// Parses a --shard value "I/N" (0-based stripe I of N) into
/// `*shard_index` and `*shard_count`; raises InvalidArgument naming the
/// flag on any malformation. Shared by every CLI verb that shards.
void parse_shard_value(const std::string& value, int* shard_index,
                       int* shard_count);

/// Reads --eps (default 0.08), the solver's certified-gap target, and
/// raises InvalidArgument naming the flag unless it lies in (0, 1) (NaN
/// included), so a bad value fails before any output. Shared by every
/// CLI verb that takes --eps.
[[nodiscard]] double epsilon_flag(const Flags& flags);

/// Applies --threads N: sizes the shared thread pool and exports
/// TOPOBENCH_THREADS=N for child processes. N <= 0 (flag absent) does
/// nothing. Raises InvalidArgument when a parallel region already sized
/// the pool differently. Shared by every CLI verb that takes --threads.
void apply_threads_flag(int threads);

/// Runs a scenario by name against `stream`, writing options.out_path JSON
/// if requested. Returns 0 on success, 2 for an unknown/ambiguous name.
int run_scenario(const std::string& name, const ScenarioOptions& options,
                 std::ostream& stream);

/// Entry point of `topobench NAME`: registers the built-in
/// scenarios, parses flags, runs `name` against stdout. Returns a shell
/// exit code.
int scenario_main(const std::string& name, int argc, const char* const* argv);

}  // namespace topo::scenario

#endif  // TOPODESIGN_SCENARIO_SCENARIO_H
