#include "flow/concurrent_flow.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "graph/algorithms.h"
#include "graph/shortest_path.h"
#include "util/error.h"
#include "util/parallel.h"

namespace topo {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Commodities grouped by source, flattened into parallel arrays so the
// phase loop walks contiguous memory: group g's destinations/demands are
// the slice [groups[g].begin, groups[g].end) of dsts/demands.
struct GroupedCommodities {
  struct Group {
    NodeId src = 0;
    int begin = 0;
    int end = 0;
  };
  std::vector<Group> groups;
  std::vector<NodeId> dsts;
  std::vector<double> demands;
};

GroupedCommodities group_by_source(const std::vector<Commodity>& commodities) {
  // Stable sort by source: groups ordered by source id, commodities inside
  // a group in input order — the same iteration order as the std::map of
  // per-source vectors this replaces.
  std::vector<int> order(commodities.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return commodities[static_cast<std::size_t>(a)].src <
           commodities[static_cast<std::size_t>(b)].src;
  });
  GroupedCommodities grouped;
  grouped.dsts.reserve(commodities.size());
  grouped.demands.reserve(commodities.size());
  for (int idx : order) {
    const Commodity& c = commodities[static_cast<std::size_t>(idx)];
    if (grouped.groups.empty() || grouped.groups.back().src != c.src) {
      grouped.groups.push_back(
          {c.src, static_cast<int>(grouped.dsts.size()), 0});
    }
    grouped.dsts.push_back(c.dst);
    grouped.demands.push_back(c.demand);
    grouped.groups.back().end = static_cast<int>(grouped.dsts.size());
  }
  return grouped;
}

// Worst congestion max_a (flow_a - base_a) / cap_a of the flow routed
// since the snapshot `base` (nullptr: since the start).
double window_congestion(const ArcGraph& arcs, const std::vector<double>& flow,
                         const std::vector<double>* base) {
  double congestion = 0.0;
  for (int a = 0; a < arcs.num_arcs; ++a) {
    const auto as = static_cast<std::size_t>(a);
    const double routed = base ? flow[as] - (*base)[as] : flow[as];
    congestion = std::max(congestion, routed / arcs.capacity[as]);
  }
  return congestion;
}

// Shared congestion scan (the primal certificate and the final feasibility
// scaling both divide by the same worst congestion; sharing the scan keeps
// them from drifting). After `routings` full routings of the demand the
// feasible concurrent-flow value is routings / max_a flow_a / cap_a; when
// `scale_to_feasible` is set, arc_flow is rescaled in place so it carries
// lambda * demand exactly once.
double feasible_lambda(const ArcGraph& arcs, std::vector<double>& arc_flow,
                       int routings, bool scale_to_feasible) {
  const double congestion = window_congestion(arcs, arc_flow, nullptr);
  if (congestion <= 0.0) return 0.0;
  const double lambda = static_cast<double>(routings) / congestion;
  if (scale_to_feasible) {
    const double scale = lambda / static_cast<double>(std::max(routings, 1));
    for (double& f : arc_flow) f *= scale;
  }
  return lambda;
}

}  // namespace

ThroughputResult max_concurrent_flow(const Graph& graph,
                                     const std::vector<Commodity>& commodities,
                                     const FlowOptions& options) {
  require(!commodities.empty(), "max_concurrent_flow requires commodities");
  require(options.epsilon > 0.0 && options.epsilon < 1.0,
          "epsilon must lie in (0, 1)");
  require(options.max_phases >= 1, "max_phases must be >= 1");

  ThroughputResult result;
  result.arc_flow.assign(static_cast<std::size_t>(2 * graph.num_edges()), 0.0);

  double total_demand = 0.0;
  for (const Commodity& c : commodities) {
    require(c.src >= 0 && c.src < graph.num_nodes() && c.dst >= 0 &&
                c.dst < graph.num_nodes(),
            "commodity endpoint out of range");
    require(c.src != c.dst, "commodity endpoints must differ");
    require(c.demand > 0.0, "commodity demand must be positive");
    total_demand += c.demand;
  }
  result.total_demand = total_demand;

  if (graph.num_edges() == 0) return result;  // no network: infeasible
  const ArcGraph arcs(graph);
  const GroupedCommodities grouped = group_by_source(commodities);
  const int num_groups = static_cast<int>(grouped.groups.size());

  // Reachability pre-pass (hop-based), one BFS per source group, run in
  // parallel: any unreachable commodity means throughput zero. The hop
  // maps double as the shortest-path DAGs when routing is restricted to
  // shortest paths.
  std::vector<std::vector<int>> hops_per_group(
      static_cast<std::size_t>(num_groups));
  std::vector<char> group_reachable(static_cast<std::size_t>(num_groups), 1);
  {
    std::vector<BfsWorkspace> bfs_ws(
        static_cast<std::size_t>(parallel_slots()));
    parallel_for_slots(num_groups, [&](int slot, int gi) {
      const auto& group = grouped.groups[static_cast<std::size_t>(gi)];
      BfsWorkspace& ws = bfs_ws[static_cast<std::size_t>(slot)];
      ws.run(graph, group.src);
      for (int i = group.begin; i < group.end; ++i) {
        if (ws.dist(grouped.dsts[static_cast<std::size_t>(i)]) < 0) {
          group_reachable[static_cast<std::size_t>(gi)] = 0;
          return;
        }
      }
      if (options.restrict_to_shortest_paths) {
        ws.export_distances(hops_per_group[static_cast<std::size_t>(gi)]);
      }
    });
  }
  for (char reachable : group_reachable) {
    if (!reachable) return result;
  }
  const auto dag_for = [&](int gi) -> const std::vector<int>* {
    if (!options.restrict_to_shortest_paths) return nullptr;
    return &hops_per_group[static_cast<std::size_t>(gi)];
  };

  // Demand-weighted shortest-path length (hops) for the stretch metric.
  {
    std::vector<std::pair<NodeId, NodeId>> pairs;
    std::vector<double> weights;
    for (const Commodity& c : commodities) {
      pairs.emplace_back(c.src, c.dst);
      weights.push_back(c.demand);
    }
    result.demand_weighted_spl = mean_pair_distance(graph, pairs, &weights);
  }

  // Exponential arc lengths, initialized inversely to capacity. Lengths
  // only grow inside a phase, so a running maximum is enough to catch the
  // overflow guard without rescanning all arcs. slot_length mirrors
  // `length` in CSR-slot order so the Dijkstra relaxation loop reads one
  // sequential stream; every update below writes both.
  std::vector<double> length(static_cast<std::size_t>(arcs.num_arcs));
  double max_length = 0.0;
  for (int a = 0; a < arcs.num_arcs; ++a) {
    length[static_cast<std::size_t>(a)] =
        1.0 / arcs.capacity[static_cast<std::size_t>(a)];
    max_length = std::max(max_length, length[static_cast<std::size_t>(a)]);
  }
  std::vector<double> slot_length;
  fill_slot_lengths(arcs, length, slot_length);
  const double step = options.epsilon / 2.0;  // length-update granularity
  const double stale_factor = 1.5;            // tree reuse tolerance

  DijkstraWorkspace routing_ws;
  std::vector<BatchDistanceWorkspace> dual_ws(
      static_cast<std::size_t>(parallel_slots()));
  std::vector<double> dual_terms(commodities.size());

  double best_dual = kInf;
  double last_primal = 0.0;
  double best_gap = 1.0;
  int phases_since_improvement = 0;
  std::vector<int> path;

  // ---- Approx-mode state (SolverMode::kApprox only; empty otherwise) ----
  //
  // Phases route source groups in fixed-size rounds. Within a round every
  // group sees the same snapshot of the length function (the global
  // `length`/`slot_length` arrays, which are not mutated during a round)
  // plus its own pushes, staged in a per-slot overlay and recorded as
  // (arc, pushed) entries. After the round the overlays are reverted and
  // the entries applied serially in group order — so the merged lengths,
  // flows, and overflow rescales are identical for any thread count, the
  // same discipline as the dual pass below. Each group additionally keeps
  // its shortest-path tree across phases (warm start) and only re-runs
  // Dijkstra when the cached tree goes stale or misses a destination.
  const bool approx = options.mode == SolverMode::kApprox;
  const double approx_stale = options.approx_stale_factor > 0.0
                                  ? options.approx_stale_factor
                                  : 1.0 + options.epsilon / 2.0;
  if (approx) {
    require(approx_stale >= 1.0, "approx_stale_factor must be >= 1");
    require(options.approx_round_size >= 1, "approx_round_size must be >= 1");
  }
  const int num_slots = parallel_slots();
  // Warm per-group trees cost O(nodes) each; past this many total label
  // entries fall back to per-slot workspaces rebuilt on first use.
  const bool warm_trees =
      approx && static_cast<double>(num_groups) *
                        static_cast<double>(arcs.num_nodes) <=
                    5e7;
  std::vector<DijkstraWorkspace> group_ws(
      warm_trees ? static_cast<std::size_t>(num_groups) : 0);
  std::vector<DijkstraWorkspace> slot_routing_ws(
      approx && !warm_trees ? static_cast<std::size_t>(num_slots) : 0);
  std::vector<char> group_has_tree(
      warm_trees ? static_cast<std::size_t>(num_groups) : 0, 0);
  std::vector<int> group_epoch(
      warm_trees ? static_cast<std::size_t>(num_groups) : 0, 0);
  int rescale_epoch = 0;  // bumped by the overflow guard; trees sync lazily
  std::vector<std::vector<std::pair<int, double>>> group_entries(
      approx ? static_cast<std::size_t>(num_groups) : 0);
  std::vector<std::vector<double>> slot_local_len(
      approx ? static_cast<std::size_t>(num_slots) : 0);
  std::vector<std::vector<double>> slot_local_slot_len(
      approx ? static_cast<std::size_t>(num_slots) : 0);
  std::vector<std::vector<int>> slot_path(
      approx ? static_cast<std::size_t>(num_slots) : 0);
  std::vector<long> slot_round_stamp(
      approx ? static_cast<std::size_t>(num_slots) : 0, -1);
  long round_counter = 0;
  std::atomic<bool> routing_failed{false};
  // Windowed primal: the cumulative arc_flow is snapshotted whenever the
  // routing count reaches a power of two. The window (s, now] since the
  // snapshot at s routes every demand exactly now - s times, so it is a
  // primal of its own — and, unlike the all-phases average, one that
  // excludes the badly balanced early phases. The primal reported each
  // phase is the best window; `window` indexes the winning snapshot, or
  // is -1 when the all-phases average wins.
  std::vector<std::pair<int, std::vector<double>>> snapshots;
  int window = -1;

  const auto route_group_approx = [&](int slot, int gi) {
    const auto ss = static_cast<std::size_t>(slot);
    const auto gs = static_cast<std::size_t>(gi);
    const auto& group = grouped.groups[gs];
    std::vector<double>& local_len = slot_local_len[ss];
    std::vector<double>& local_slot_len = slot_local_slot_len[ss];
    auto& entries = group_entries[gs];
    std::vector<int>& gpath = slot_path[ss];
    DijkstraWorkspace& ws = warm_trees ? group_ws[gs] : slot_routing_ws[ss];
    bool has_tree = warm_trees && group_has_tree[gs] != 0;
    // A cached tree's distances are sums of pre-rescale lengths; bring
    // them into the current scale before comparing against fresh sums.
    if (has_tree && group_epoch[gs] != rescale_epoch) {
      double factor = 1.0;
      for (int e = group_epoch[gs]; e < rescale_epoch; ++e) factor *= 1e-150;
      ws.scale_distances(factor);
    }
    if (warm_trees) group_epoch[gs] = rescale_epoch;
    const auto refresh = [&](int from) {
      ws.run_slots(arcs, local_slot_len.data(), group.src, dag_for(gi),
                   grouped.dsts.data() + from, group.end - from);
      has_tree = true;
      if (warm_trees) group_has_tree[gs] = 1;
    };
    for (int i = group.begin; i < group.end; ++i) {
      const NodeId dst = grouped.dsts[static_cast<std::size_t>(i)];
      const double demand = grouped.demands[static_cast<std::size_t>(i)];
      double remaining = demand;
      const double tol = 1e-12 * demand;
      bool path_valid = false;
      double bottleneck = kInf;
      while (remaining > tol) {
        // A warm tree from an earlier bounded run may simply not have
        // finalized this destination; that means refresh, not infeasible.
        if (!has_tree || ws.dist(dst) == kInf) {
          refresh(i);
          path_valid = false;
        }
        if (!path_valid) {
          if (!ws.extract_path(arcs, group.src, dst, gpath)) {
            refresh(i);
            if (!ws.extract_path(arcs, group.src, dst, gpath)) {
              routing_failed.store(true, std::memory_order_relaxed);
              return;  // should not happen after the pre-check
            }
          }
          bottleneck = kInf;
          for (int a : gpath) {
            bottleneck =
                std::min(bottleneck, arcs.capacity[static_cast<std::size_t>(a)]);
          }
          path_valid = true;
        }
        // Staleness: the tree distance lower-bounds the current shortest
        // distance (lengths only grow), so this keeps routing
        // near-shortest even against a tree from an earlier phase.
        double current_len = 0.0;
        for (int a : gpath) {
          current_len += local_len[static_cast<std::size_t>(a)];
        }
        if (current_len > approx_stale * ws.dist(dst)) {
          refresh(i);
          path_valid = false;
          continue;
        }
        const double pushed = std::min(remaining, bottleneck);
        for (int a : gpath) {
          entries.emplace_back(a, pushed);
          double& len = local_len[static_cast<std::size_t>(a)];
          len *=
              1.0 + step * pushed / arcs.capacity[static_cast<std::size_t>(a)];
          local_slot_len[static_cast<std::size_t>(
              arcs.slot_of_arc[static_cast<std::size_t>(a)])] = len;
        }
        remaining -= pushed;
      }
    }
    // Revert the overlay to the round snapshot (the globals are immutable
    // during a round), leaving it clean for the slot's next group.
    for (const auto& entry : entries) {
      const auto a = static_cast<std::size_t>(entry.first);
      local_len[a] = length[a];
      local_slot_len[static_cast<std::size_t>(arcs.slot_of_arc[a])] =
          slot_length[static_cast<std::size_t>(arcs.slot_of_arc[a])];
    }
  };

  // Approx mode halves the dual-bound cadence: the bound is valid for any
  // lengths, so this trades only certificate tightness for time.
  const int dual_cadence =
      approx ? std::max(options.dual_every, 2) : options.dual_every;

  int phase = 0;
  for (; phase < options.max_phases; ++phase) {
    if (approx) {
      for (int round_begin = 0; round_begin < num_groups;
           round_begin += options.approx_round_size) {
        const int round_end =
            std::min(num_groups, round_begin + options.approx_round_size);
        const long round_id = round_counter++;
        parallel_for_slots(round_end - round_begin, [&](int slot, int idx) {
          const auto ss = static_cast<std::size_t>(slot);
          if (slot_round_stamp[ss] != round_id) {
            slot_local_len[ss] = length;  // this round's snapshot
            slot_local_slot_len[ss] = slot_length;
            slot_round_stamp[ss] = round_id;
          }
          route_group_approx(slot, round_begin + idx);
        });
        if (routing_failed.load(std::memory_order_relaxed)) return result;
        // Serial merge in group order: flows, multiplicative length
        // updates, and the overflow guard all replay deterministically.
        for (int gi = round_begin; gi < round_end; ++gi) {
          auto& entries = group_entries[static_cast<std::size_t>(gi)];
          for (const auto& [a, pushed] : entries) {
            const auto as = static_cast<std::size_t>(a);
            result.arc_flow[as] += pushed;
            double& len = length[as];
            len *= 1.0 + step * pushed / arcs.capacity[as];
            slot_length[static_cast<std::size_t>(arcs.slot_of_arc[as])] = len;
            max_length = std::max(max_length, len);
            if (max_length > 1e200) {
              for (double& l : length) l *= 1e-150;
              for (double& l : slot_length) l *= 1e-150;
              ++rescale_epoch;
              max_length *= 1e-150;
            }
          }
          entries.clear();
        }
      }
    } else {
      for (int gi = 0; gi < num_groups; ++gi) {
        const auto& group = grouped.groups[static_cast<std::size_t>(gi)];
        // Each Dijkstra is bounded by the destinations it still has to
        // serve: the initial tree by the whole group, a mid-group refresh
        // only by the remaining slice.
        routing_ws.run_slots(arcs, slot_length.data(), group.src, dag_for(gi),
                             grouped.dsts.data() + group.begin,
                             group.end - group.begin);
        for (int i = group.begin; i < group.end; ++i) {
          const NodeId dst = grouped.dsts[static_cast<std::size_t>(i)];
          const double demand = grouped.demands[static_cast<std::size_t>(i)];
          double remaining = demand;
          const double tol = 1e-12 * demand;
          // The tree only changes on refresh, so the path and its (static)
          // bottleneck capacity are cached across saturation steps; only
          // the path's current length must be re-summed after each push.
          bool path_valid = false;
          double bottleneck = kInf;
          while (remaining > tol) {
            if (!path_valid) {
              if (!routing_ws.extract_path(arcs, group.src, dst, path)) {
                return result;  // should not happen after the pre-check
              }
              bottleneck = kInf;
              for (int a : path) {
                bottleneck = std::min(
                    bottleneck, arcs.capacity[static_cast<std::size_t>(a)]);
              }
              path_valid = true;
            }
            // Refresh the tree when this path's current length has drifted
            // well above the tree's distance (lengths rose since computing
            // it), so routing stays near-shortest.
            double current_len = 0.0;
            for (int a : path) {
              current_len += length[static_cast<std::size_t>(a)];
            }
            if (current_len > stale_factor * routing_ws.dist(dst)) {
              routing_ws.run_slots(arcs, slot_length.data(), group.src,
                                   dag_for(gi), grouped.dsts.data() + i,
                                   group.end - i);
              path_valid = false;
              continue;
            }
            const double pushed = std::min(remaining, bottleneck);
            for (int a : path) {
              result.arc_flow[static_cast<std::size_t>(a)] += pushed;
              double& len = length[static_cast<std::size_t>(a)];
              len *= 1.0 +
                     step * pushed / arcs.capacity[static_cast<std::size_t>(a)];
              slot_length[static_cast<std::size_t>(
                  arcs.slot_of_arc[static_cast<std::size_t>(a)])] = len;
              max_length = std::max(max_length, len);
            }
            // Overflow guard, applied inside the routing loop so a long
            // source group cannot drive lengths to infinity mid-group. The
            // cached tree distances are sums of the same lengths, so they
            // rescale by the same factor and the staleness ratio above stays
            // meaningful.
            if (max_length > 1e200) {
              for (double& l : length) l *= 1e-150;
              for (double& l : slot_length) l *= 1e-150;
              routing_ws.scale_distances(1e-150);
              max_length *= 1e-150;
            }
            remaining -= pushed;
          }
        }
      }
    }

    // Primal value: every commodity has been routed (phase+1) times its
    // demand; scaling by the worst congestion yields feasibility.
    // Primal is not tracked as a running max: feasibility scaling below
    // pairs the final flows with the final phase count, so the reported
    // lambda must be the final primal value (monotone in practice).
    // Approx mode takes the best of that and every window since a
    // snapshot, and the scaling below then uses the winning window.
    const int routings = phase + 1;
    last_primal = feasible_lambda(arcs, result.arc_flow, routings,
                                  /*scale_to_feasible=*/false);
    if (approx) {
      window = -1;
      for (std::size_t w = 0; w < snapshots.size(); ++w) {
        const auto& [start, base] = snapshots[w];
        const double congestion =
            window_congestion(arcs, result.arc_flow, &base);
        if (congestion <= 0.0) continue;
        const double value = static_cast<double>(routings - start) / congestion;
        if (value > last_primal) {
          last_primal = value;
          window = static_cast<int>(w);
        }
      }
      if ((routings & (routings - 1)) == 0) {
        snapshots.emplace_back(routings, result.arc_flow);
      }
    }

    // Dual bound D(l)/alpha(l), valid for any lengths. The source groups'
    // distances come kLanes groups per batch, and the batches run on the
    // pool; each commodity's term lands in dual_terms and the sum is taken
    // serially in group order, keeping the result identical for any
    // thread count.
    if (phase % dual_cadence == 0 || phase + 1 == options.max_phases) {
      double d_l = 0.0;
      for (int a = 0; a < arcs.num_arcs; ++a) {
        d_l += length[static_cast<std::size_t>(a)] *
               arcs.capacity[static_cast<std::size_t>(a)];
      }
      constexpr int kLanes = BatchDistanceWorkspace::kLanes;
      const int num_batches = (num_groups + kLanes - 1) / kLanes;
      parallel_for_slots(num_batches, [&](int slot, int batch) {
        const int first = batch * kLanes;
        const int lanes = std::min(kLanes, num_groups - first);
        NodeId sources[kLanes] = {};
        const std::vector<int>* dags[kLanes] = {};
        for (int k = 0; k < lanes; ++k) {
          sources[k] = grouped.groups[static_cast<std::size_t>(first + k)].src;
          dags[k] = dag_for(first + k);
        }
        BatchDistanceWorkspace& ws = dual_ws[static_cast<std::size_t>(slot)];
        ws.run(arcs, slot_length.data(), sources, lanes,
               options.restrict_to_shortest_paths ? dags : nullptr);
        for (int k = 0; k < lanes; ++k) {
          const auto& group = grouped.groups[static_cast<std::size_t>(first + k)];
          for (int i = group.begin; i < group.end; ++i) {
            dual_terms[static_cast<std::size_t>(i)] =
                grouped.demands[static_cast<std::size_t>(i)] *
                ws.dist(k, grouped.dsts[static_cast<std::size_t>(i)]);
          }
        }
      });
      double alpha = 0.0;
      for (double term : dual_terms) alpha += term;
      if (alpha > 0.0) best_dual = std::min(best_dual, d_l / alpha);
    }

    const double gap = best_dual > 0.0 && best_dual < kInf
                           ? 1.0 - last_primal / best_dual
                           : 1.0;
    if (gap < best_gap - 1e-6) {
      best_gap = gap;
      phases_since_improvement = 0;
    } else {
      ++phases_since_improvement;
    }
    if (gap <= options.epsilon) {
      ++phase;
      break;
    }
    if (phases_since_improvement >= options.stagnation_phases) {
      ++phase;
      break;
    }
  }

  result.phases = phase;
  result.feasible = true;
  // Narrow the flow to the winning window (the subtraction is the one the
  // window was scored with; the clamp only drops rounding residue).
  int window_routings = result.phases;
  if (window >= 0) {
    const auto& [start, base] = snapshots[static_cast<std::size_t>(window)];
    window_routings -= start;
    for (std::size_t a = 0; a < result.arc_flow.size(); ++a) {
      result.arc_flow[a] = std::max(0.0, result.arc_flow[a] - base[a]);
    }
  }
  // Scale flows to the feasible solution and derive the decomposition
  // metrics (utilization, routed path length, stretch).
  result.lambda = feasible_lambda(arcs, result.arc_flow, window_routings,
                                  /*scale_to_feasible=*/true);
  result.dual_bound = best_dual == kInf ? result.lambda : best_dual;
  result.gap = result.dual_bound > 0.0
                   ? std::max(0.0, 1.0 - result.lambda / result.dual_bound)
                   : 0.0;
  if (result.lambda > 0.0) {
    double total_flow_hops = 0.0;
    for (int a = 0; a < arcs.num_arcs; ++a) {
      total_flow_hops += result.arc_flow[static_cast<std::size_t>(a)];
    }
    const double delivered = result.lambda * total_demand;
    result.utilization = total_flow_hops / graph.total_directed_capacity();
    result.mean_routed_path_length =
        delivered > 0.0 ? total_flow_hops / delivered : 0.0;
    result.stretch = result.demand_weighted_spl > 0.0
                         ? result.mean_routed_path_length /
                               result.demand_weighted_spl
                         : 1.0;
  }
  return result;
}

}  // namespace topo
