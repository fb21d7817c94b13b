// Flat (CSR) directed-arc view of a graph plus reusable shortest-path
// workspaces.
//
// Every hot loop in the library bottoms out in either a shortest-path
// search over exponential arc lengths (the concurrent-flow solver) or a
// BFS over hops (reachability, ASPL, Dinic level graphs). Both were
// allocation-bound: a fresh distance vector, parent vector, and heap per
// call. This module gives them
//
//  * ArcGraph — a compressed-sparse-row arc graph built once per solve:
//    arc 2e is edge e's u->v direction, arc 2e+1 its reverse, so the
//    partner of arc a is always a^1. Out-arcs of a node are a contiguous
//    slice of one flat array instead of a vector-of-vectors, and the slot
//    order exposes head nodes (and caller-maintained lengths) as
//    sequential reads in the relaxation loop.
//  * DijkstraWorkspace — single-source shortest-path trees (the solver's
//    routing): an indexed 4-ary heap with decrease-key, a sentinel-
//    distance array reset via a touched list (no per-relaxation stamp
//    checks), and optional target bounding so a search stops once every
//    requested destination is finalized. Ties between equal distances are
//    broken toward the smaller node id, matching the pop order of the
//    classic lazy binary-heap formulation so results are reproducible
//    across implementations.
//  * BatchDistanceWorkspace — distances only, from up to 16 sources in
//    one pass (the solver's dual bound): node-major lane labels relaxed
//    with packed SIMD adds and mins by a Gauss–Seidel label-correcting
//    sweep, bit-identical to one Dijkstra per source.
//  * BfsWorkspace — generation-stamped hop distances with a reusable
//    frontier queue.
#ifndef TOPODESIGN_GRAPH_SHORTEST_PATH_H
#define TOPODESIGN_GRAPH_SHORTEST_PATH_H

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace topo {

/// CSR directed-arc view of an undirected capacitated graph.
///
/// Arcs are numbered so that arc 2e is edge e's u->v direction and arc
/// 2e+1 its v->u direction; `a ^ 1` is the reverse arc of `a`. The
/// out-arcs of node n occupy CSR slots [first_out[n], first_out[n+1]), in
/// increasing arc id (i.e. edge-insertion) order; slot i holds arc
/// out_arc[i] with head slot_head[i]. slot_of_arc inverts out_arc so
/// per-arc values (e.g. lengths) can be mirrored into slot order.
struct ArcGraph {
  explicit ArcGraph(const Graph& g);

  int num_nodes = 0;
  int num_arcs = 0;
  std::vector<double> capacity;  ///< Per arc (both directions of an edge share it).
  std::vector<NodeId> head;      ///< Head node of each arc.
  std::vector<int> first_out;    ///< CSR offsets, size num_nodes + 1.
  std::vector<int> out_arc;      ///< CSR slot -> arc id.
  std::vector<NodeId> slot_head; ///< CSR slot -> head node (= head[out_arc[i]]).
  std::vector<int> slot_of_arc;  ///< Arc id -> its CSR slot.

  /// Tail node of arc `a` (the head of its partner).
  [[nodiscard]] NodeId tail(int a) const {
    return head[static_cast<std::size_t>(a ^ 1)];
  }
};

/// Fills `slot_length` (resized to arcs.num_arcs) from per-arc lengths:
/// slot_length[i] = length[arcs.out_arc[i]]. The slot-ordered mirror is
/// what run_slots consumes; callers that update lengths incrementally
/// (the solver) keep the mirror in sync through arcs.slot_of_arc.
void fill_slot_lengths(const ArcGraph& arcs, const std::vector<double>& length,
                       std::vector<double>& slot_length);

/// Reusable single-source Dijkstra state. One workspace serves any number
/// of runs; buffers grow monotonically to the largest graph seen and are
/// cleaned up lazily via a touched list, so a run costs O(visited), not
/// O(nodes).
///
/// Not thread-safe; use one workspace per thread.
class DijkstraWorkspace {
 public:
  /// Runs Dijkstra from `src` over `arcs` with lengths addressed by CSR
  /// slot (typically maintained incrementally by the caller, or built via
  /// fill_slot_lengths): a flat double stream the relaxation loop reads
  /// sequentially — and, chunk by chunk, vectorizes over.
  ///
  /// When `dag_hops` is non-null, only arcs (u, v) with
  /// dag_hops[v] == dag_hops[u] + 1 are relaxed, restricting the tree to
  /// hop-shortest paths from the hop source (the §8 ECMP model).
  ///
  /// When `targets` is non-null, the search stops as soon as every listed
  /// node is finalized (duplicates allowed). Finalization order is a
  /// prefix of the full run's, so distances, parent arcs, and extracted
  /// paths for the targets — and for every node finalized before them —
  /// are identical to an unbounded run; only nodes farther than the last
  /// target are left unexplored. Callers must only query targets (or
  /// their tree ancestors) after a bounded run.
  void run_slots(const ArcGraph& arcs, const double* slot_length, NodeId src,
                 const std::vector<int>* dag_hops = nullptr,
                 const NodeId* targets = nullptr, int num_targets = 0);

  /// Convenience overload taking lengths addressed by arc id; mirrors
  /// them into a scratch slot array (O(num_arcs)) and calls run_slots.
  void run(const ArcGraph& arcs, const std::vector<double>& length, NodeId src,
           const std::vector<int>* dag_hops = nullptr,
           const NodeId* targets = nullptr, int num_targets = 0);

  /// Distance of `v` from the last run's source; +inf when unreached.
  [[nodiscard]] double dist(NodeId v) const {
    return dist_[static_cast<std::size_t>(v)];
  }

  /// Arc entering `v` in the tree of the last run; -1 at the source or
  /// when unreached.
  [[nodiscard]] int parent_arc(NodeId v) const;

  /// Multiplies every reached distance of the last run by `factor`.
  /// Keeps a cached tree consistent when all arc lengths are rescaled by
  /// the same factor (the solver's overflow guard).
  void scale_distances(double factor);

  /// Extracts the arc path source -> dst of the last run into `path`
  /// (arcs in dst -> source order). Returns false when dst is unreached.
  [[nodiscard]] bool extract_path(const ArcGraph& arcs, NodeId src, NodeId dst,
                                  std::vector<int>& path) const;

 private:
  /// Heap entries pack (distance, node) into one wide integer: the high
  /// 64 bits are the distance's IEEE-754 bit pattern (for non-negative
  /// doubles, integer order equals numeric order), the low 64 bits the
  /// node id. A single integer compare then realizes the (dist, node)
  /// lexicographic order — equal distances pop in increasing node id, the
  /// same effective order as a lazy binary heap over (dist, node) pairs —
  /// and the compiler keeps the 4-ary argmin branch-free (conditional
  /// moves), which is where a branchy heap loses most of its cycles.
  using HeapEntry = unsigned __int128;
  /// Out-slots are relaxed in chunks of this many arcs (two passes:
  /// vectorized tentative distances, then scalar compare/improve).
  static constexpr int kRelaxChunk = 64;
  static HeapEntry make_entry(double key, NodeId node);
  static NodeId entry_node(HeapEntry e) {
    return static_cast<NodeId>(static_cast<std::uint64_t>(e));
  }

  template <bool kUseDag>
  void run_impl(const ArcGraph& arcs, const double* slot_length, NodeId src,
                const std::vector<int>* dag_hops, const NodeId* targets,
                int num_targets);
  /// Resets the previous run's touched distances and grows buffers.
  void begin_run(int num_nodes);
  void heap_insert_or_decrease(NodeId v, double key);
  NodeId heap_pop_min();
  void sift_up(int pos, HeapEntry entry);
  void sift_down(int pos, HeapEntry entry);

  std::vector<double> dist_;     // +inf sentinel = unreached
  std::vector<int> parent_;
  std::vector<NodeId> touched_;  // nodes whose dist_ needs resetting
  std::vector<std::uint32_t> target_stamp_;
  std::vector<HeapEntry> heap_;  // heap slots -> packed (dist, node)
  std::vector<int> heap_pos_;    // node -> heap slot while queued
  std::vector<double> scratch_slot_length_;  // for the per-arc overload
  int heap_size_ = 0;
  std::uint32_t generation_ = 0;
};

/// Reusable state for distances from up to kLanes sources in one pass,
/// for callers that need distances but no trees (the solver's dual
/// bound). Labels are node-major — node v's kLanes lane distances are
/// contiguous — so relaxing one arc updates every lane with packed adds
/// and mins. Nodes are swept in id order, and a node is rescanned only
/// after one of its lanes improved (Gauss–Seidel label correcting); a
/// sweep that improves nothing ends the run.
///
/// Distances are bit-identical to DijkstraWorkspace::run_slots from each
/// source. Lengths are positive and round-to-nearest addition is
/// monotone, so every label-correcting order converges to the same fixed
/// point: the minimum over paths of the left-to-right rounded path sum,
/// which is exactly the value Dijkstra settles.
///
/// Not thread-safe; use one workspace per thread.
class BatchDistanceWorkspace {
 public:
  /// Sources per pass: 16 lanes are eight SSE2 registers of doubles, so
  /// a node's labels stay in registers while its arcs are relaxed.
  static constexpr int kLanes = 16;

  /// Distances from sources[0, num_sources), 1 <= num_sources <= kLanes,
  /// over `arcs` with lengths addressed by CSR slot (as run_slots). When
  /// `dag_hops` is non-null it holds one hop map per source, and lane k
  /// relaxes only arcs (u, v) with (*dag_hops[k])[v] ==
  /// (*dag_hops[k])[u] + 1, as run_slots does with that hop map.
  void run(const ArcGraph& arcs, const double* slot_length,
           const NodeId* sources, int num_sources,
           const std::vector<int>* const* dag_hops = nullptr);

  /// Distance of `v` from sources[lane] of the last run; +inf when
  /// unreached.
  [[nodiscard]] double dist(int lane, NodeId v) const {
    return label_[static_cast<std::size_t>(v) * kLanes +
                  static_cast<std::size_t>(lane)];
  }

 private:
  template <bool kUseDag>
  void sweep(const ArcGraph& arcs, const double* slot_length);

  std::vector<double> label_;  // node-major: label_[v * kLanes + lane]
  std::vector<double> hop_;    // node-major hop maps (hop-DAG runs only)
  std::vector<char> dirty_;    // node improved since its last scan
};

/// Reusable BFS state: generation-stamped hop distances and a frontier
/// queue. Not thread-safe; use one workspace per thread.
class BfsWorkspace {
 public:
  /// BFS hop distances from `src` over the undirected graph.
  void run(const Graph& g, NodeId src);

  /// BFS over an arbitrary arc structure: `for_each_neighbor(u, emit)`
  /// must invoke emit(v) for every eligible neighbor v of u. Lets other
  /// solvers (e.g. Dinic's level graph over residual arcs) reuse the
  /// stamped-distance machinery without materializing a Graph.
  template <typename NeighborFn>
  void run_custom(int num_nodes, NodeId src, NeighborFn&& for_each_neighbor) {
    begin_run(num_nodes, src);
    std::size_t head = 0;
    std::size_t tail = 1;
    while (head < tail) {
      const NodeId u = queue_[head++];
      const int du = dist_[static_cast<std::size_t>(u)];
      for_each_neighbor(u, [&](NodeId v) {
        if (stamp_[static_cast<std::size_t>(v)] != generation_) {
          stamp_[static_cast<std::size_t>(v)] = generation_;
          dist_[static_cast<std::size_t>(v)] = du + 1;
          queue_[tail++] = v;
        }
      });
    }
  }

  /// Hop distance of `v` from the last run's source; -1 when unreached.
  [[nodiscard]] int dist(NodeId v) const {
    return stamp_[static_cast<std::size_t>(v)] == generation_
               ? dist_[static_cast<std::size_t>(v)]
               : -1;
  }

  /// Copies the last run's distances into a dense vector (-1 unreached).
  void export_distances(std::vector<int>& out) const;

 private:
  /// Grows buffers, bumps the generation, and seeds the queue with `src`.
  void begin_run(int num_nodes, NodeId src);

  std::vector<int> dist_;
  std::vector<std::uint32_t> stamp_;
  std::vector<NodeId> queue_;
  std::size_t last_num_nodes_ = 0;  // workspace may outsize the last graph
  std::uint32_t generation_ = 0;
};

}  // namespace topo

#endif  // TOPODESIGN_GRAPH_SHORTEST_PATH_H
