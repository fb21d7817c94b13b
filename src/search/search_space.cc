#include "search/search_space.h"

#include <algorithm>
#include <set>
#include <utility>

#include "scenario/cache.h"
#include "scenario/topo_registry.h"
#include "util/error.h"
#include "util/json.h"

namespace topo::search {

const char* move_name(MoveKind kind) {
  switch (kind) {
    case MoveKind::kRewire: return "rewire";
    case MoveKind::kServerShift: return "server_shift";
  }
  return "rewire";
}

MoveKind move_from_name(const std::string& name) {
  if (name == "rewire") return MoveKind::kRewire;
  if (name == "server_shift") return MoveKind::kServerShift;
  throw InvalidArgument("unknown search move: " + name +
                        " (expected rewire or server_shift)");
}

std::string canonical_topology(const BuiltTopology& topology) {
  // Sort edges by (min endpoint, max endpoint, capacity) so insertion
  // order — which mutation paths permute freely — never reaches the hash.
  std::vector<Edge> edges = topology.graph.edges();
  for (Edge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.u != b.u) return a.u < b.u;
    if (a.v != b.v) return a.v < b.v;
    return a.capacity < b.capacity;
  });

  std::string out = "n=" + std::to_string(topology.graph.num_nodes());
  out += ";edges=";
  for (const Edge& e : edges) {
    out += std::to_string(e.u) + "-" + std::to_string(e.v) + "@" +
           json_number(e.capacity) + ",";
  }
  out += ";servers=";
  for (int s : topology.servers.per_switch) out += std::to_string(s) + ",";
  out += ";class=";
  for (int c : topology.node_class) out += std::to_string(c) + ",";
  out += ";names=";
  for (const std::string& name : topology.class_names) out += name + ",";
  return out;
}

std::string candidate_hash_hex(const BuiltTopology& topology) {
  return scenario::hash_hex(scenario::fnv1a64(canonical_topology(topology)));
}

SearchSpace::SearchSpace(scenario::TopologySpec topology,
                         std::vector<MoveKind> moves)
    : topology_(std::move(topology)), moves_(std::move(moves)) {
  require(scenario::find_family(topology_.family) != nullptr,
          "unknown topology family: " + topology_.family);
  require(!moves_.empty(), "search requires at least one move");
}

BuiltTopology SearchSpace::initial(std::uint64_t seed) const {
  return scenario::find_family(topology_.family)
      ->build(topology_.params, seed);
}

namespace {

constexpr int kMoveAttempts = 100;

// Degree-preserving double-edge swap; `current` unchanged on failure.
BuiltTopology rewire_move(const BuiltTopology& current, Rng& rng) {
  const Graph& graph = current.graph;
  const int num_edges = graph.num_edges();
  if (num_edges < 2) return current;

  std::vector<Edge> edges = graph.edges();
  for (int attempt = 0; attempt < kMoveAttempts; ++attempt) {
    const std::size_t i = rng.index(edges.size());
    const std::size_t j = rng.index(edges.size());
    if (i == j) continue;
    const Edge a = edges[i];
    const Edge b = edges[j];
    if (a.capacity != b.capacity) continue;
    if (a.u == b.u || a.u == b.v || a.v == b.u || a.v == b.v) continue;
    Edge na{a.u, b.u, a.capacity};
    Edge nb{a.v, b.v, a.capacity};
    if (rng.chance(0.5)) {
      na = Edge{a.u, b.v, a.capacity};
      nb = Edge{a.v, b.u, a.capacity};
    }
    // Keep the graph simple under this move: skip swaps that would
    // duplicate a link that already exists (the removed pair (a, b)
    // cannot be the duplicate — all four endpoints are distinct).
    if (graph.has_edge(na.u, na.v) || graph.has_edge(nb.u, nb.v)) continue;

    edges[i] = na;
    edges[j] = nb;
    BuiltTopology next = current;
    Graph rebuilt(graph.num_nodes());
    for (const Edge& e : edges) rebuilt.add_edge(e.u, e.v, e.capacity);
    next.graph = std::move(rebuilt);
    return next;
  }
  return current;
}

// Moves one server between switches whose class already hosts servers.
BuiltTopology server_shift_move(const BuiltTopology& current, Rng& rng) {
  const std::vector<int>& per_switch = current.servers.per_switch;
  std::set<int> hosting_classes;
  for (std::size_t sw = 0; sw < per_switch.size(); ++sw) {
    if (per_switch[sw] > 0) {
      hosting_classes.insert(current.class_of(static_cast<NodeId>(sw)));
    }
  }
  std::vector<int> donors;
  std::vector<int> receivers;
  for (std::size_t sw = 0; sw < per_switch.size(); ++sw) {
    const NodeId node = static_cast<NodeId>(sw);
    if (per_switch[sw] > 0) donors.push_back(node);
    if (hosting_classes.count(current.class_of(node)) > 0) {
      receivers.push_back(node);
    }
  }
  if (donors.empty() || receivers.size() < 2) return current;

  for (int attempt = 0; attempt < kMoveAttempts; ++attempt) {
    const int donor = rng.pick(donors);
    const int receiver = rng.pick(receivers);
    if (donor == receiver) continue;
    BuiltTopology next = current;
    --next.servers.per_switch[static_cast<std::size_t>(donor)];
    ++next.servers.per_switch[static_cast<std::size_t>(receiver)];
    return next;
  }
  return current;
}

}  // namespace

BuiltTopology SearchSpace::mutate(const BuiltTopology& current,
                                  Rng& rng) const {
  const MoveKind move =
      moves_.size() == 1 ? moves_.front() : rng.pick(moves_);
  switch (move) {
    case MoveKind::kRewire: return rewire_move(current, rng);
    case MoveKind::kServerShift: return server_shift_move(current, rng);
  }
  return current;
}

}  // namespace topo::search
