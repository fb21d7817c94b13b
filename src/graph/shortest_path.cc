#include "graph/shortest_path.h"

#include <bit>
#include <cstring>
#include <limits>

namespace topo {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Two lanes of BatchDistanceWorkspace labels: one SSE2 register on
// x86-64 (a GCC/Clang vector extension, so the lane loop compiles to
// packed adds, compares and mins with no target flag; other targets get
// their own 128-bit vectors).
using LanePair = double __attribute__((vector_size(16)));

LanePair load_lanes(const double* p) {
  LanePair x;
  std::memcpy(&x, p, sizeof x);
  return x;
}

void store_lanes(double* p, LanePair x) { std::memcpy(p, &x, sizeof x); }

}  // namespace

DijkstraWorkspace::HeapEntry DijkstraWorkspace::make_entry(double key,
                                                           NodeId node) {
  // Distances are finite and non-negative (the solver's lengths stay
  // positive and its overflow guard keeps sums finite), so the bit
  // pattern of `key` orders exactly like the double itself.
  return (static_cast<HeapEntry>(std::bit_cast<std::uint64_t>(key)) << 64) |
         static_cast<std::uint32_t>(node);
}

ArcGraph::ArcGraph(const Graph& g)
    : num_nodes(g.num_nodes()), num_arcs(2 * g.num_edges()) {
  capacity.resize(static_cast<std::size_t>(num_arcs));
  head.resize(static_cast<std::size_t>(num_arcs));
  first_out.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  out_arc.resize(static_cast<std::size_t>(num_arcs));
  slot_head.resize(static_cast<std::size_t>(num_arcs));
  slot_of_arc.resize(static_cast<std::size_t>(num_arcs));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    capacity[static_cast<std::size_t>(2 * e)] = edge.capacity;
    capacity[static_cast<std::size_t>(2 * e + 1)] = edge.capacity;
    head[static_cast<std::size_t>(2 * e)] = edge.v;
    head[static_cast<std::size_t>(2 * e + 1)] = edge.u;
    ++first_out[static_cast<std::size_t>(edge.u) + 1];
    ++first_out[static_cast<std::size_t>(edge.v) + 1];
  }
  for (int n = 0; n < num_nodes; ++n) {
    first_out[static_cast<std::size_t>(n) + 1] +=
        first_out[static_cast<std::size_t>(n)];
  }
  // Filling in edge order keeps each node's out-arcs in increasing arc id,
  // the same relaxation order as the old vector-of-vectors adjacency.
  std::vector<int> cursor(first_out.begin(), first_out.end() - 1);
  const auto place = [&](NodeId tail_node, int arc) {
    const int slot = cursor[static_cast<std::size_t>(tail_node)]++;
    out_arc[static_cast<std::size_t>(slot)] = arc;
    slot_head[static_cast<std::size_t>(slot)] =
        head[static_cast<std::size_t>(arc)];
    slot_of_arc[static_cast<std::size_t>(arc)] = slot;
  };
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    place(edge.u, 2 * e);
    place(edge.v, 2 * e + 1);
  }
}

void DijkstraWorkspace::begin_run(int num_nodes) {
  const auto n = static_cast<std::size_t>(num_nodes);
  if (dist_.size() < n) {
    dist_.resize(n, kInf);
    parent_.resize(n);
    target_stamp_.resize(n, 0);
    heap_.resize(n);
    heap_pos_.resize(n);
    touched_.reserve(n);
  }
  for (NodeId v : touched_) dist_[static_cast<std::size_t>(v)] = kInf;
  touched_.clear();
  if (generation_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(target_stamp_.begin(), target_stamp_.end(), 0);
    generation_ = 0;
  }
  ++generation_;
  heap_size_ = 0;
}

void fill_slot_lengths(const ArcGraph& arcs, const std::vector<double>& length,
                       std::vector<double>& slot_length) {
  slot_length.resize(static_cast<std::size_t>(arcs.num_arcs));
  for (int i = 0; i < arcs.num_arcs; ++i) {
    slot_length[static_cast<std::size_t>(i)] = length[static_cast<std::size_t>(
        arcs.out_arc[static_cast<std::size_t>(i)])];
  }
}

void DijkstraWorkspace::run(const ArcGraph& arcs,
                            const std::vector<double>& length, NodeId src,
                            const std::vector<int>* dag_hops,
                            const NodeId* targets, int num_targets) {
  fill_slot_lengths(arcs, length, scratch_slot_length_);
  run_slots(arcs, scratch_slot_length_.data(), src, dag_hops, targets,
            num_targets);
}

void DijkstraWorkspace::run_slots(const ArcGraph& arcs,
                                  const double* slot_length, NodeId src,
                                  const std::vector<int>* dag_hops,
                                  const NodeId* targets, int num_targets) {
  require(src >= 0 && src < arcs.num_nodes, "dijkstra source out of range");
  if (dag_hops != nullptr) {
    run_impl<true>(arcs, slot_length, src, dag_hops, targets, num_targets);
  } else {
    run_impl<false>(arcs, slot_length, src, nullptr, targets, num_targets);
  }
}

template <bool kUseDag>
void DijkstraWorkspace::run_impl(const ArcGraph& arcs,
                                 const double* slot_length, NodeId src,
                                 const std::vector<int>* dag_hops,
                                 const NodeId* targets, int num_targets) {
  begin_run(arcs.num_nodes);
  int pending_targets = 0;
  for (int t = 0; t < num_targets; ++t) {
    const auto v = static_cast<std::size_t>(targets[t]);
    if (target_stamp_[v] != generation_) {
      target_stamp_[v] = generation_;
      ++pending_targets;
    }
  }
  const bool bounded = pending_targets > 0;

  const int* const first_out = arcs.first_out.data();
  const NodeId* const slot_head = arcs.slot_head.data();
  const int* const out_arc = arcs.out_arc.data();
  double* const dist = dist_.data();
  int* const parent = parent_.data();

  dist[src] = 0.0;
  parent[src] = -1;
  touched_.push_back(src);
  heap_[0] = make_entry(0.0, src);
  heap_pos_[static_cast<std::size_t>(src)] = 0;
  heap_size_ = 1;
  // Tentative distances for one node's out-slots, computed in a separate
  // pass so the compiler vectorizes the adds over the sequential length
  // stream; the scalar pass then only compares and (rarely) improves.
  double nd_buf[kRelaxChunk];
  while (heap_size_ > 0) {
    const NodeId u = heap_pop_min();
    if (bounded && target_stamp_[static_cast<std::size_t>(u)] == generation_) {
      if (--pending_targets == 0) return;  // all targets finalized
    }
    const double du = dist[u];
    int i = first_out[u];
    const int end = first_out[u + 1];
    while (i < end) {
      const int chunk = std::min(end - i, kRelaxChunk);
      for (int j = 0; j < chunk; ++j) nd_buf[j] = du + slot_length[i + j];
      for (int j = 0; j < chunk; ++j) {
        const NodeId v = slot_head[i + j];
        if constexpr (kUseDag) {
          if ((*dag_hops)[static_cast<std::size_t>(v)] !=
              (*dag_hops)[static_cast<std::size_t>(u)] + 1) {
            continue;  // not on a hop-shortest path from the source
          }
        }
        const double nd = nd_buf[j];
        if (__builtin_expect(nd < dist[v], 0)) {
          parent[v] = out_arc[i + j];
          // First touch: +inf sentinel doubles as "not yet queued".
          if (dist[v] == kInf) {
            touched_.push_back(v);
            heap_pos_[static_cast<std::size_t>(v)] = -1;
          }
          heap_insert_or_decrease(v, nd);
        }
      }
      i += chunk;
    }
  }
}

int DijkstraWorkspace::parent_arc(NodeId v) const {
  return dist_[static_cast<std::size_t>(v)] == kInf
             ? -1
             : parent_[static_cast<std::size_t>(v)];
}

void DijkstraWorkspace::scale_distances(double factor) {
  for (NodeId v : touched_) dist_[static_cast<std::size_t>(v)] *= factor;
}

bool DijkstraWorkspace::extract_path(const ArcGraph& arcs, NodeId src,
                                     NodeId dst, std::vector<int>& path) const {
  path.clear();
  if (dist_[static_cast<std::size_t>(dst)] == kInf) return false;
  NodeId node = dst;
  while (node != src) {
    const int a = parent_arc(node);
    if (a < 0) return false;
    path.push_back(a);
    node = arcs.tail(a);
    if (static_cast<int>(path.size()) > arcs.num_nodes) return false;
  }
  return true;
}

void DijkstraWorkspace::heap_insert_or_decrease(NodeId v, double key) {
  dist_[static_cast<std::size_t>(v)] = key;
  int pos = heap_pos_[static_cast<std::size_t>(v)];
  if (pos < 0) {  // finalized nodes never re-enter: keys only decrease
    pos = heap_size_++;
  }
  sift_up(pos, make_entry(key, v));
}

NodeId DijkstraWorkspace::heap_pop_min() {
  const NodeId top = entry_node(heap_[0]);
  heap_pos_[static_cast<std::size_t>(top)] = -1;
  --heap_size_;
  if (heap_size_ > 0) {
    sift_down(0, heap_[static_cast<std::size_t>(heap_size_)]);
  }
  return top;
}

void DijkstraWorkspace::sift_up(int pos, HeapEntry entry) {
  while (pos > 0) {
    const int parent = (pos - 1) / 4;
    const HeapEntry other = heap_[static_cast<std::size_t>(parent)];
    if (entry >= other) break;
    heap_[static_cast<std::size_t>(pos)] = other;
    heap_pos_[static_cast<std::size_t>(entry_node(other))] = pos;
    pos = parent;
  }
  heap_[static_cast<std::size_t>(pos)] = entry;
  heap_pos_[static_cast<std::size_t>(entry_node(entry))] = pos;
}

void DijkstraWorkspace::sift_down(int pos, HeapEntry entry) {
  const HeapEntry* const heap = heap_.data();
  while (true) {
    const int first_child = 4 * pos + 1;
    if (first_child >= heap_size_) break;
    const int last_child = std::min(first_child + 4, heap_size_);
    // Branch-free argmin over the (at most four) children: wide-integer
    // compares plus conditional moves, no data-dependent branches.
    int best = first_child;
    HeapEntry best_entry = heap[first_child];
    for (int c = first_child + 1; c < last_child; ++c) {
      const HeapEntry candidate = heap[c];
      const bool lt = candidate < best_entry;
      best = lt ? c : best;
      best_entry = lt ? candidate : best_entry;
    }
    if (best_entry >= entry) break;
    heap_[static_cast<std::size_t>(pos)] = best_entry;
    heap_pos_[static_cast<std::size_t>(entry_node(best_entry))] = pos;
    pos = best;
  }
  heap_[static_cast<std::size_t>(pos)] = entry;
  heap_pos_[static_cast<std::size_t>(entry_node(entry))] = pos;
}

void BatchDistanceWorkspace::run(const ArcGraph& arcs,
                                 const double* slot_length,
                                 const NodeId* sources, int num_sources,
                                 const std::vector<int>* const* dag_hops) {
  require(num_sources >= 1 && num_sources <= kLanes,
          "distance batch needs 1 to 16 sources");
  const auto n = static_cast<std::size_t>(arcs.num_nodes);
  label_.assign(n * kLanes, kInf);
  dirty_.assign(n, 0);
  for (int k = 0; k < num_sources; ++k) {
    const NodeId src = sources[k];
    require(src >= 0 && src < arcs.num_nodes,
            "distance batch source out of range");
    const auto ss = static_cast<std::size_t>(src);
    label_[ss * kLanes + static_cast<std::size_t>(k)] = 0.0;
    dirty_[ss] = 1;
  }
  if (dag_hops == nullptr) {
    sweep<false>(arcs, slot_length);
    return;
  }
  // Unused lanes keep hop -1: their labels stay +inf whatever they admit.
  hop_.assign(n * kLanes, -1.0);
  for (int k = 0; k < num_sources; ++k) {
    const std::vector<int>& hops = *dag_hops[k];
    for (std::size_t v = 0; v < n; ++v) {
      hop_[v * kLanes + static_cast<std::size_t>(k)] = hops[v];
    }
  }
  sweep<true>(arcs, slot_length);
}

template <bool kUseDag>
void BatchDistanceWorkspace::sweep(const ArcGraph& arcs,
                                   const double* slot_length) {
  constexpr int kPairs = kLanes / 2;
  const int* const first_out = arcs.first_out.data();
  const NodeId* const slot_head = arcs.slot_head.data();
  double* const label = label_.data();
  const double* const hop = hop_.data();
  char* const dirty = dirty_.data();
  const LanePair inf = {kInf, kInf};
  const LanePair one = {1.0, 1.0};
  char changed = 1;
  while (changed) {
    changed = 0;
    for (NodeId u = 0; u < arcs.num_nodes; ++u) {
      const auto us = static_cast<std::size_t>(u);
      if (!dirty[us]) continue;
      dirty[us] = 0;
      // u's labels cannot improve during its own scan (an arc back into u
      // is never shorter than u's label), so they are read once.
      LanePair from[kPairs];
      LanePair next_hop[kPairs];
      for (int p = 0; p < kPairs; ++p) {
        from[p] = load_lanes(label + us * kLanes + 2 * p);
        if constexpr (kUseDag) {
          next_hop[p] = load_lanes(hop + us * kLanes + 2 * p) + one;
        }
      }
      for (int i = first_out[u]; i < first_out[u + 1]; ++i) {
        const auto vs = static_cast<std::size_t>(slot_head[i]);
        const LanePair len = {slot_length[i], slot_length[i]};
        double* const to = label + vs * kLanes;
        decltype(inf < inf) improved = {};
        for (int p = 0; p < kPairs; ++p) {
          LanePair cand = from[p] + len;
          if constexpr (kUseDag) {
            // Lane k follows only its own hop-shortest-path DAG.
            cand = load_lanes(hop + vs * kLanes + 2 * p) == next_hop[p]
                       ? cand
                       : inf;
          }
          const LanePair old = load_lanes(to + 2 * p);
          const auto lt = cand < old;
          improved |= lt;
          store_lanes(to + 2 * p, lt ? cand : old);
        }
        // Branch-free: whether an arc improves a lane is unpredictable,
        // and a mispredicted branch here cost more than the lanes.
        const char hit = (improved[0] | improved[1]) != 0;
        dirty[vs] |= hit;
        changed |= hit;
      }
    }
  }
}

void BfsWorkspace::begin_run(int num_nodes, NodeId src) {
  require(src >= 0 && src < num_nodes, "bfs source out of range");
  const auto n = static_cast<std::size_t>(num_nodes);
  last_num_nodes_ = n;
  if (dist_.size() < n) {
    dist_.resize(n);
    stamp_.resize(n, 0);
    queue_.resize(n);
  }
  if (generation_ == std::numeric_limits<std::uint32_t>::max()) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    generation_ = 0;
  }
  ++generation_;
  dist_[static_cast<std::size_t>(src)] = 0;
  stamp_[static_cast<std::size_t>(src)] = generation_;
  queue_[0] = src;
}

void BfsWorkspace::run(const Graph& g, NodeId src) {
  run_custom(g.num_nodes(), src, [&g](NodeId u, auto&& emit) {
    for (const Adjacency& a : g.neighbors(u)) emit(a.to);
  });
}

void BfsWorkspace::export_distances(std::vector<int>& out) const {
  out.assign(last_num_nodes_, -1);
  for (std::size_t v = 0; v < last_num_nodes_; ++v) {
    if (stamp_[v] == generation_) out[v] = dist_[v];
  }
}

}  // namespace topo
