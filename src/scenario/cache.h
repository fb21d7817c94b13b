// Content-addressed on-disk cache for sweep cell results.
//
// A sweep is a grid of (sweep-point × run) cells, and each cell's result
// is a pure function of what went into it: topology family + bound
// parameters, bound evaluation options, the derived topology/traffic
// seeds, and the solver version. Hashing exactly that identity makes
// cells content-addressable: re-running a sweep after editing one axis
// value recomputes only the new column, a --runs 3 warm run reuses the
// first three runs of an earlier --runs 5 sweep, and two specs that bind
// to the same cells share entries. Cached cells store every scalar the
// ordered reduction reads (at shortest-round-trip precision, so reloaded
// numbers are bit-exact) but drop the per-arc flow vector, which sweep
// summaries never read.
//
// Trust model: cache files are re-verified on load — wrong schema, a key
// mismatch, a checksum mismatch, or any parse failure counts as a miss
// and the cell is recomputed, never trusted. Failed files are also
// QUARANTINED (renamed to `<cell>.json.corrupt`, one warning per
// process) so the slot is cleanly re-stored instead of being re-parsed
// and re-missed on every warm run, and the bad bytes survive for
// diagnosis.
#ifndef TOPODESIGN_SCENARIO_CACHE_H
#define TOPODESIGN_SCENARIO_CACHE_H

#include <cstdint>
#include <string>

#include "core/evaluate.h"
#include "scenario/spec.h"
#include "scenario/sweep.h"

namespace topo::scenario {

/// Version tag mixed into every cache key and the spec hash. Bump it
/// whenever solver numerics change (it invalidates every cached cell);
/// the golden suite catching an unintended numeric change is the cue.
inline constexpr const char* kSolverVersionTag = "fptas-csr-v2";

/// Approximate-solver version tag, mixed into the key of approx-mode
/// cells only (SolverMode::kApprox) — the exact-mode population is never
/// perturbed by approx numerics changes, and bumping this tag on a
/// warm-tree/batching/bucketing change, or on a change to how the primal
/// is reported, invalidates exactly the approx cells. v2: the best
/// window of recent phases. v3: the dual bound from exact distances (the
/// batched kernel) instead of Dial buckets, whose settled nodes could
/// keep a label a rounding above the true distance.
inline constexpr const char* kSolverApproxVersionTag = "fptas-approx-v3";

/// Simulator version tag, mixed into the key of packet-sim cells only —
/// bumping it on a transport/queueing numerics change invalidates packet
/// cells without discarding the (much larger) flow-only population.
inline constexpr const char* kPacketSimVersionTag = "mptcp-sim-v1";

/// Finite-flow workload version tag, mixed into the key of FCT cells
/// only — bumping it on an arrival/CDF/FCT numerics change invalidates
/// workload cells without touching bulk packet or flow-only cells.
inline constexpr const char* kFctWorkloadVersionTag = "fct-v2";

/// Topology-search version tag, mixed into the key of search-candidate
/// cells only (CellIdentity::candidate non-empty) and into the spec hash
/// of specs carrying a search block — bumping it on a search-semantics
/// change invalidates exactly the candidate cells, never the sweep
/// population.
inline constexpr const char* kSearchVersionTag = "search-v1";

/// FNV-1a 64 over a byte string (optionally chained via `basis`).
[[nodiscard]] std::uint64_t fnv1a64(
    const std::string& bytes, std::uint64_t basis = 14695981039346656037ULL);

/// 16-digit lowercase hex of a 64-bit hash (cache file names).
[[nodiscard]] std::string hash_hex(std::uint64_t hash);

/// Hash of one whole sweep invocation: the canonical spec JSON (covering
/// every spec field, spec_io.h) + master seed + epsilon + runs + mode +
/// solver version tag. Any single-field mutation changes it.
[[nodiscard]] std::uint64_t spec_hash(const ScenarioSpec& spec,
                                      const SweepRunConfig& config);

/// Everything one (point, run) cell's result is a function of.
struct CellIdentity {
  std::string family;
  ParamMap params;     ///< Topology parameters after axis binding.
  EvalOptions options; ///< Evaluation options after axis binding.
  std::uint64_t topo_seed = 0;
  std::uint64_t traffic_seed = 0;
  /// Search-candidate identity (search/search_space.h): the 16-hex
  /// canonical-topology hash of a CONCRETE candidate design. Empty for
  /// sweep cells (the default — their identity is family + params +
  /// seeds); when set it joins the hashed material (together with
  /// kSearchVersionTag), so rediscovering the same wiring through a
  /// different mutation path lands on the same cell.
  std::string candidate;
};

/// Canonical serialization of a cell identity (the hashing material).
[[nodiscard]] std::string cell_identity_json(const CellIdentity& cell);

/// Content address of a cell: fnv1a64 over cell_identity_json.
[[nodiscard]] std::uint64_t cell_key(const CellIdentity& cell);

/// On-disk cell store: one JSON file per cell under `dir`, named by the
/// cell key. Loads verify schema, key, solver tag, and a checksum;
/// stores write-to-temp-then-rename so concurrent writers — pool threads
/// within one sweep, or shard processes sharing the dir (sweep.h
/// sharding) — never expose a torn file: racing stores of the same key
/// each publish a complete document and any of them verifies.
class ResultCache {
 public:
  /// Creates `dir` (and parents) if missing; raises InvalidArgument when
  /// that fails. Also sweeps stale temp files — `*.json.tmp.*` clearly
  /// predating this process (minus a clock-skew safety margin) — left
  /// behind by writers that crashed between write and rename, so shared
  /// dirs don't accumulate garbage across shard runs.
  explicit ResultCache(std::string dir);

  /// True when a verified entry for `key` exists; fills `*out` with the
  /// cached result (arc_flow left empty). Corrupt entries return false
  /// after being quarantined: the bad file is renamed to
  /// `<cell>.json.corrupt` (warning once per process) so the recomputed
  /// cell re-stores into a clean slot.
  [[nodiscard]] bool load(std::uint64_t key, ThroughputResult* out) const;

  /// Persists a cell result under `key`. Raises Error (never
  /// InvalidArgument) when the cell file cannot be written.
  void store(std::uint64_t key, const ThroughputResult& result) const;

  /// Path of the cell file for `key` (exposed for tests and tooling).
  [[nodiscard]] std::string cell_path(std::uint64_t key) const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

}  // namespace topo::scenario

#endif  // TOPODESIGN_SCENARIO_CACHE_H
