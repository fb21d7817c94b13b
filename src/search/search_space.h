// The design space a topology search walks: seeded mutation moves over a
// topology family, plus canonical candidate identity.
//
// A SearchSpace owns a family spec (scenario/topo_registry.h) and a move
// set. `initial` builds the family's own seed design — the baseline every
// search result is compared against — and `mutate` produces a neighbor:
//
//  * rewire — the paper's degree-preserving double-edge swap: two
//    equal-capacity edges (a,b), (c,d) with four distinct endpoints become
//    (a,c),(b,d) or (a,d),(b,c). Every switch keeps its exact port usage,
//    so the candidate prices identically on ports and stays inside the
//    equipment pool; only the wiring (and hence throughput and cable
//    length) changes.
//  * server_shift — moves one server between switches whose class already
//    hosts servers (the §5 placement dimension for two-type pools).
//
// Candidate identity is the canonical fingerprint of the BUILT topology
// (sorted edge list + server map + classes), not the mutation path that
// reached it: two restarts that rediscover the same wiring hash alike and
// share cache cells (scenario/cache.h).
#ifndef TOPODESIGN_SEARCH_SEARCH_SPACE_H
#define TOPODESIGN_SEARCH_SEARCH_SPACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace topo::search {

/// Mutation move families.
enum class MoveKind {
  kRewire,       ///< Degree-preserving double-edge swap.
  kServerShift,  ///< Move one server between server-hosting switches.
};

/// Spec/CLI name of a move ("rewire", "server_shift").
[[nodiscard]] const char* move_name(MoveKind kind);

/// Inverse of move_name; raises InvalidArgument for unknown names.
[[nodiscard]] MoveKind move_from_name(const std::string& name);

/// Canonical byte string of a built topology: node count, edges sorted by
/// (min endpoint, max endpoint, capacity), servers per switch, and node
/// classes. Equal topologies — regardless of edge insertion order or the
/// mutation path that produced them — serialize identically.
[[nodiscard]] std::string canonical_topology(const BuiltTopology& topology);

/// 16-hex-digit content address of a candidate: fnv1a64 over
/// canonical_topology. This is the `candidate` field of a search cell's
/// cache identity and the hash logged in search traces.
[[nodiscard]] std::string candidate_hash_hex(const BuiltTopology& topology);

/// A topology family plus the moves a search may apply to it.
class SearchSpace {
 public:
  /// Requires a known family and a non-empty move set.
  SearchSpace(scenario::TopologySpec topology, std::vector<MoveKind> moves);

  /// The family's own design for `seed` — the search baseline.
  [[nodiscard]] BuiltTopology initial(std::uint64_t seed) const;

  /// One mutation of `current`: picks a move uniformly from the move set
  /// and applies it. Moves that cannot find a legal application (e.g. no
  /// two swappable edges after ~100 attempts) return `current` unchanged —
  /// the search treats that as a rejected neighbor, never an error.
  [[nodiscard]] BuiltTopology mutate(const BuiltTopology& current,
                                     Rng& rng) const;

  [[nodiscard]] const scenario::TopologySpec& topology() const {
    return topology_;
  }
  [[nodiscard]] const std::vector<MoveKind>& moves() const { return moves_; }

 private:
  scenario::TopologySpec topology_;
  std::vector<MoveKind> moves_;
};

}  // namespace topo::search

#endif  // TOPODESIGN_SEARCH_SEARCH_SPACE_H
