// Tests for the CSR arc graph and the pooled Dijkstra, batched-distance
// and BFS workspaces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <queue>
#include <string>

#include "graph/algorithms.h"
#include "graph/shortest_path.h"
#include "topo/random_regular.h"
#include "topo/small_world.h"
#include "topo/structured.h"
#include "util/rng.h"

namespace topo {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ArcGraph, CsrMatchesAdjacency) {
  Graph g(4);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 5.0);
  const ArcGraph arcs(g);
  ASSERT_EQ(arcs.num_nodes, 4);
  ASSERT_EQ(arcs.num_arcs, 8);
  // Arc 2e is u->v, 2e+1 is v->u; partner arc is a^1.
  EXPECT_EQ(arcs.head[0], 1);
  EXPECT_EQ(arcs.head[1], 0);
  EXPECT_EQ(arcs.tail(0), 0);
  EXPECT_EQ(arcs.tail(1), 1);
  EXPECT_DOUBLE_EQ(arcs.capacity[6], 5.0);
  EXPECT_DOUBLE_EQ(arcs.capacity[7], 5.0);
  // CSR slices cover each node's out-arcs in increasing arc id.
  ASSERT_EQ(arcs.first_out.size(), 5u);
  EXPECT_EQ(arcs.first_out[4], 8);
  std::vector<std::vector<int>> expected(4);
  expected[0] = {0, 4};
  expected[1] = {1, 2};
  expected[2] = {3, 5, 6};
  expected[3] = {7};
  for (NodeId n = 0; n < 4; ++n) {
    std::vector<int> got(
        arcs.out_arc.begin() + arcs.first_out[static_cast<std::size_t>(n)],
        arcs.out_arc.begin() + arcs.first_out[static_cast<std::size_t>(n) + 1]);
    EXPECT_EQ(got, expected[static_cast<std::size_t>(n)]) << "node " << n;
  }
}

// Reference Dijkstra: the lazy binary-heap formulation the workspace
// replaced; ties pop in increasing node id via pair comparison.
std::vector<double> reference_dijkstra(const ArcGraph& arcs,
                                       const std::vector<double>& length,
                                       NodeId src,
                                       std::vector<int>* parent_out = nullptr) {
  std::vector<double> dist(static_cast<std::size_t>(arcs.num_nodes), kInf);
  std::vector<int> parent(static_cast<std::size_t>(arcs.num_nodes), -1);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[static_cast<std::size_t>(src)] = 0.0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (int i = arcs.first_out[static_cast<std::size_t>(u)];
         i < arcs.first_out[static_cast<std::size_t>(u) + 1]; ++i) {
      const int a = arcs.out_arc[static_cast<std::size_t>(i)];
      const NodeId v = arcs.head[static_cast<std::size_t>(a)];
      const double nd = d + length[static_cast<std::size_t>(a)];
      if (nd < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = nd;
        parent[static_cast<std::size_t>(v)] = a;
        heap.emplace(nd, v);
      }
    }
  }
  if (parent_out != nullptr) *parent_out = parent;
  return dist;
}

TEST(DijkstraWorkspace, MatchesReferenceIncludingParentTree) {
  const Graph g = random_regular_graph(60, 6, 11);
  const ArcGraph arcs(g);
  Rng rng(5);
  std::vector<double> length(static_cast<std::size_t>(arcs.num_arcs));
  // Mix of distinct and deliberately tied lengths to exercise tie-breaks.
  for (double& l : length) l = rng.chance(0.3) ? 1.0 : rng.uniform(0.5, 2.0);
  DijkstraWorkspace ws;
  for (NodeId src : {0, 7, 59}) {
    std::vector<int> ref_parent;
    const auto ref = reference_dijkstra(arcs, length, src, &ref_parent);
    ws.run(arcs, length, src);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_DOUBLE_EQ(ws.dist(v), ref[static_cast<std::size_t>(v)]);
      EXPECT_EQ(ws.parent_arc(v), ref_parent[static_cast<std::size_t>(v)])
          << "parent mismatch at " << v << " from " << src;
    }
  }
}

TEST(DijkstraWorkspace, ReuseAcrossGraphsOfDifferentSize) {
  DijkstraWorkspace ws;
  const Graph big = random_regular_graph(80, 4, 3);
  const ArcGraph big_arcs(big);
  std::vector<double> big_len(static_cast<std::size_t>(big_arcs.num_arcs), 1.0);
  ws.run(big_arcs, big_len, 0);
  EXPECT_EQ(ws.dist(0), 0.0);

  Graph small(3);
  small.add_edge(0, 1, 1.0);
  const ArcGraph small_arcs(small);
  std::vector<double> small_len(2, 4.0);
  ws.run(small_arcs, small_len, 0);
  EXPECT_DOUBLE_EQ(ws.dist(1), 4.0);
  EXPECT_EQ(ws.dist(2), kInf);  // stale big-graph state must not leak
  EXPECT_EQ(ws.parent_arc(2), -1);
}

TEST(DijkstraWorkspace, ExtractPathAndScaleDistances) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);  // arcs 0, 1
  g.add_edge(1, 2, 1.0);  // arcs 2, 3
  g.add_edge(2, 3, 1.0);  // arcs 4, 5
  const ArcGraph arcs(g);
  std::vector<double> length = {1.0, 1.0, 2.0, 2.0, 3.0, 3.0};
  DijkstraWorkspace ws;
  ws.run(arcs, length, 0);
  std::vector<int> path;
  ASSERT_TRUE(ws.extract_path(arcs, 0, 3, path));
  EXPECT_EQ(path, (std::vector<int>{4, 2, 0}));  // dst -> src order
  EXPECT_DOUBLE_EQ(ws.dist(3), 6.0);
  ws.scale_distances(0.5);
  EXPECT_DOUBLE_EQ(ws.dist(3), 3.0);
  EXPECT_DOUBLE_EQ(ws.dist(0), 0.0);
}

TEST(DijkstraWorkspace, DagRestrictionLimitsArcs) {
  // Square with a diagonal shortcut of high length: unrestricted Dijkstra
  // prefers 0-1-3; restricting to hop-shortest arcs from 0 still allows
  // it, but forbids the 3->... backward arcs.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(2, 3, 1.0);
  const ArcGraph arcs(g);
  std::vector<double> length(8, 1.0);
  const std::vector<int> hops = bfs_distances(g, 0);
  DijkstraWorkspace ws;
  ws.run(arcs, length, 0, &hops);
  EXPECT_DOUBLE_EQ(ws.dist(3), 2.0);
  // Restrict from node 1's perspective instead: node 0 is at hop 1 from 1,
  // so arcs into 0 from 2 (hop 1 -> hop 1) are not relaxed.
  const std::vector<int> hops1 = bfs_distances(g, 1);
  ws.run(arcs, length, 1, &hops1);
  EXPECT_DOUBLE_EQ(ws.dist(2), 2.0);  // via 0 or 3, both hop-increasing
}

// Batched distances must equal one Dijkstra per source bit for bit, not
// just to a tolerance: the solver's dual bound is summed from them.
// Returns the number of (lane, node) labels that differ.
int batch_mismatches(const Graph& g, const std::vector<double>& length,
                     int lanes, bool use_dag) {
  const ArcGraph arcs(g);
  std::vector<double> slot_length;
  fill_slot_lengths(arcs, length, slot_length);
  std::vector<NodeId> sources;
  std::vector<std::vector<int>> hops;
  for (int k = 0; k < lanes; ++k) {
    sources.push_back(static_cast<NodeId>(
        static_cast<long>(k) * arcs.num_nodes / lanes));
    hops.push_back(bfs_distances(g, sources.back()));
  }
  std::vector<const std::vector<int>*> dags;
  for (const auto& h : hops) dags.push_back(&h);
  BatchDistanceWorkspace batch;
  batch.run(arcs, slot_length.data(), sources.data(), lanes,
            use_dag ? dags.data() : nullptr);
  DijkstraWorkspace ws;
  int mismatches = 0;
  for (int k = 0; k < lanes; ++k) {
    ws.run_slots(arcs, slot_length.data(), sources[static_cast<std::size_t>(k)],
                 use_dag ? dags[static_cast<std::size_t>(k)] : nullptr);
    for (NodeId v = 0; v < arcs.num_nodes; ++v) {
      const double got = batch.dist(k, v);
      const double want = ws.dist(v);
      if (std::memcmp(&got, &want, sizeof got) != 0) {
        if (mismatches++ == 0) {
          ADD_FAILURE() << "lane " << k << " node " << v << ": batch " << got
                        << " vs dijkstra " << want;
        }
      }
    }
  }
  return mismatches;
}

// Lengths log-uniform over [1e-150, 1e200], the solver's whole range
// (its overflow guard rescales at 1e200), or all equal, so ties abound.
std::vector<double> test_lengths(int num_arcs, bool equal, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> length(static_cast<std::size_t>(num_arcs));
  for (double& l : length) {
    l = equal ? 0.1
              : std::exp(rng.uniform(std::log(1e-150), std::log(1e200)));
  }
  return length;
}

Graph parallel_arc_multigraph() {
  // A ring with every third edge doubled (different capacity, hence a
  // different arc id and length) plus a few doubled chords.
  Graph g(24);
  for (NodeId v = 0; v < 24; ++v) {
    g.add_edge(v, (v + 1) % 24, 1.0);
    if (v % 3 == 0) g.add_edge(v, (v + 1) % 24, 2.0);
  }
  for (NodeId v = 0; v < 24; v += 5) {
    g.add_edge(v, (v + 11) % 24, 1.0);
    g.add_edge(v, (v + 11) % 24, 1.0);
  }
  return g;
}

Graph two_components() {
  // An RRG on nodes 0..29 and a separate ring on 30..39: lanes starting
  // in one component never reach the other.
  const Graph rrg = random_regular_graph(30, 4, 17);
  Graph g(40);
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    g.add_edge(rrg.edge(e).u, rrg.edge(e).v, 1.0);
  }
  for (NodeId v = 30; v < 40; ++v) g.add_edge(v, v == 39 ? 30 : v + 1, 1.0);
  return g;
}

TEST(BatchDistanceWorkspace, BitEqualToDijkstraPerSource) {
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"rrg", random_regular_graph(64, 6, 11)},
      {"small_world", small_world_topology(48, 4, 1, 1, 3).graph},
      {"torus", torus2d_topology(7, 9, 1).graph},
      {"multigraph", parallel_arc_multigraph()},
      {"two_components", two_components()},
  };
  std::uint64_t seed = 100;
  for (const auto& [name, g] : graphs) {
    for (const bool equal : {false, true}) {
      for (const int lanes : {1, 5, 16}) {
        for (const bool use_dag : {false, true}) {
          SCOPED_TRACE(name + (equal ? " equal" : " log-uniform") +
                       " lanes " + std::to_string(lanes) +
                       (use_dag ? " dag" : ""));
          const auto length = test_lengths(2 * g.num_edges(), equal, ++seed);
          EXPECT_EQ(batch_mismatches(g, length, lanes, use_dag), 0);
        }
      }
    }
  }
}

TEST(BatchDistanceWorkspace, UnreachedNodesReadInfinity) {
  const Graph g = two_components();
  const ArcGraph arcs(g);
  std::vector<double> slot_length(static_cast<std::size_t>(arcs.num_arcs),
                                  1.0);
  const NodeId sources[] = {0, 35};
  BatchDistanceWorkspace batch;
  batch.run(arcs, slot_length.data(), sources, 2);
  EXPECT_EQ(batch.dist(0, 0), 0.0);
  EXPECT_EQ(batch.dist(0, 35), kInf);
  EXPECT_EQ(batch.dist(1, 0), kInf);
  EXPECT_EQ(batch.dist(1, 30), 5.0);
  // Reuse on a smaller graph: no label of the last run leaks.
  Graph small(3);
  small.add_edge(0, 1, 1.0);
  const ArcGraph small_arcs(small);
  const std::vector<double> small_len(2, 4.0);
  const NodeId src[] = {0};
  batch.run(small_arcs, small_len.data(), src, 1);
  EXPECT_EQ(batch.dist(0, 1), 4.0);
  EXPECT_EQ(batch.dist(0, 2), kInf);
}

TEST(BatchDistanceWorkspace, RejectsEmptyOrOversizedBatches) {
  const Graph g = random_regular_graph(20, 4, 1);
  const ArcGraph arcs(g);
  const std::vector<double> len(static_cast<std::size_t>(arcs.num_arcs), 1.0);
  const std::vector<NodeId> sources(BatchDistanceWorkspace::kLanes + 1, 0);
  BatchDistanceWorkspace batch;
  EXPECT_THROW(batch.run(arcs, len.data(), sources.data(), 0),
               InvalidArgument);
  EXPECT_THROW(batch.run(arcs, len.data(), sources.data(),
                         BatchDistanceWorkspace::kLanes + 1),
               InvalidArgument);
}

TEST(BfsWorkspace, MatchesBfsDistancesAndReuses) {
  const Graph g = random_regular_graph(50, 4, 23);
  BfsWorkspace ws;
  for (NodeId src : {0, 13, 49}) {
    const auto expected = bfs_distances(g, src);
    ws.run(g, src);
    std::vector<int> exported;
    ws.export_distances(exported);
    EXPECT_EQ(exported, expected);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(ws.dist(v), expected[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(BfsWorkspace, RunCustomFiltersArcs) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  BfsWorkspace ws;
  // Forbid entering node 2: nodes 2 and 3 must stay unreached.
  ws.run_custom(4, 0, [&](NodeId u, auto&& emit) {
    for (const Adjacency& a : g.neighbors(u)) {
      if (a.to != 2) emit(a.to);
    }
  });
  EXPECT_EQ(ws.dist(1), 1);
  EXPECT_EQ(ws.dist(2), -1);
  EXPECT_EQ(ws.dist(3), -1);
}

}  // namespace
}  // namespace topo
