#include "replay.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <utility>

#include "core/evaluate.h"
#include "core/experiment.h"
#include "core/failure.h"
#include "flow/concurrent_flow.h"
#include "scenario/cache.h"
#include "scenario/topo_registry.h"
#include "search/cost_model.h"
#include "search/search_space.h"
#include "sim/network.h"
#include "traffic/traffic.h"
#include "traffic/workload.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"

namespace e2e {
namespace {

using topo::BuiltTopology;
using topo::EvalOptions;
using topo::Rng;
using topo::ThroughputResult;
using topo::scenario::ScenarioSpec;

// Copies of the private salts in src/core/evaluate.cc. The replay must
// draw the same streams as evaluate_throughput; a drift here shows as a
// digest mismatch, never as silently different numbers.
constexpr std::uint64_t kFailureSeedSalt = 0xFA17ED;
constexpr std::uint64_t kPacketSimSeedSalt = 0x9AC4E7;
constexpr std::uint64_t kFctArrivalSeedSalt = 0xFC7A11;

// Calls per micro-timed search function, and where their results go.
constexpr int kMicroCalls = 200;
volatile double g_sink = 0.0;

// The resolved inputs of one (point, run) cell, as SweepRunner plans it.
struct CellPlan {
  topo::scenario::ParamMap params;
  EvalOptions options;
  std::uint64_t topo_seed = 0;
  std::uint64_t traffic_seed = 0;
};

// Binds one sweep coordinate. Only the evaluation axes the benchmark's
// specs use are supported; anything else would be replayed wrongly.
void bind_axis(const std::string& name, double value, CellPlan& plan) {
  if (name == "link_failure_fraction") {
    plan.options.failure.uniform.link_fraction = value;
  } else if (name == "load") {
    plan.options.packet_sim.fct.load = value;
  } else if (topo::scenario::is_eval_axis(name)) {
    throw topo::InvalidArgument("the replay does not bind axis " + name);
  } else {
    plan.params[name] = value;
  }
}

EvalOptions spec_options(const ScenarioSpec& spec) {
  EvalOptions options;
  options.flow.epsilon = kEpsilon;
  options.flow.mode = spec.solver;
  options.traffic = spec.traffic;
  options.chunky_fraction = spec.chunky_fraction;
  options.hot_fraction = spec.hot_fraction;
  options.hot_multiplier = spec.hot_multiplier;
  options.stride = spec.stride;
  options.failure = spec.failure;
  options.packet_sim = spec.packet_sim;
  return options;
}

// Seed fan-out documented on SweepRunner::run.
CellPlan make_plan(const ScenarioSpec& spec, const std::vector<double>& point,
                   int point_index, int run, std::uint64_t master, bool reuse) {
  CellPlan plan;
  plan.params = spec.topology.params;
  plan.options = spec_options(spec);
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    bind_axis(spec.axes[a].param, point[a], plan);
  }
  const std::uint64_t base =
      reuse ? master
            : Rng::derive_seed(master, static_cast<std::uint64_t>(point_index));
  plan.topo_seed = Rng::derive_seed(base, 2 * static_cast<std::uint64_t>(run));
  plan.traffic_seed =
      Rng::derive_seed(base, 2 * static_cast<std::uint64_t>(run) + 1);
  return plan;
}

struct CellContext {
  SpanLog& log;
  int root;
  int cell;
  Counters& counters;
};

// Builds the simulated network and adds its workload (span "sim.setup"),
// then runs it (span "sim.run").
template <typename AddWorkload>
topo::sim::SimulationResult simulate(const BuiltTopology& topology,
                                     const topo::sim::SimParams& params,
                                     std::uint64_t traffic_seed,
                                     CellContext& ctx,
                                     AddWorkload&& add_workload) {
  std::unique_ptr<topo::sim::SimNetwork> net;
  {
    SpanScope span(ctx.log, "sim.setup", ctx.root, ctx.cell);
    net = std::make_unique<topo::sim::SimNetwork>(
        topology, params, Rng::derive_seed(traffic_seed, kPacketSimSeedSalt));
    add_workload(*net);
  }
  topo::sim::SimulationResult sim;
  {
    SpanScope span(ctx.log, "sim.run", ctx.root, ctx.cell);
    sim = net->run();
  }
  ctx.counters.sim_events += static_cast<double>(sim.events_processed);
  ctx.counters.sim_drops += static_cast<double>(sim.total_drops);
  ctx.counters.sim_routes += static_cast<double>(net->route_count());
  ctx.counters.sim_pool_max = std::max(
      ctx.counters.sim_pool_max, static_cast<double>(net->pool_allocated()));
  return sim;
}

// The bulk MPTCP co-simulation of evaluate.cc's run_packet_sim.
void simulate_bulk(const BuiltTopology& topology, const topo::sim::SimParams& params,
                   const topo::TrafficMatrix& tm, std::uint64_t traffic_seed,
                   ThroughputResult& result, CellContext& ctx) {
  result.packet_sim_run = true;
  if (tm.flows.empty()) return;
  const topo::sim::SimulationResult sim = simulate(
      topology, params, traffic_seed, ctx, [&](topo::sim::SimNetwork& net) {
        for (const topo::ServerFlow& f : tm.flows) {
          net.add_flow(f.src_server, f.dst_server);
        }
      });
  result.packet_mean_normalized = sim.mean_normalized;
  result.packet_min_normalized = sim.min_normalized;
  std::vector<double> goodputs;
  double retransmits = 0.0;
  for (const topo::sim::FlowStats& f : sim.flows) {
    goodputs.push_back(f.goodput_gbps / params.server_rate_gbps);
    retransmits += static_cast<double>(f.retransmits);
  }
  std::sort(goodputs.begin(), goodputs.end());
  result.packet_p05_normalized = topo::percentile_sorted(goodputs, 0.05);
  result.packet_retransmits = retransmits;
  result.packet_drops = static_cast<double>(sim.total_drops);
}

// The finite-flow workload of evaluate.cc's run_fct_workload, with the
// arrivals already drawn.
void simulate_fct(const BuiltTopology& topology,
                  const topo::sim::SimParams& params,
                  std::vector<topo::FiniteFlow> arrivals,
                  std::uint64_t traffic_seed, ThroughputResult& result,
                  CellContext& ctx) {
  result.fct_run = true;
  result.fct_flows = static_cast<double>(arrivals.size());
  if (arrivals.empty()) return;
  const topo::sim::SimulationResult sim = simulate(
      topology, params, traffic_seed, ctx, [&](topo::sim::SimNetwork& net) {
        net.queue_finite_workload(std::move(arrivals));
      });

  std::vector<double> fcts;
  std::vector<double> slowdowns;
  double delivered_bits = 0.0;
  for (const topo::sim::FlowStats& f : sim.flows) {
    if (f.completed) {
      fcts.push_back(static_cast<double>(f.fct_ns));
      const double ideal_ns =
          std::max(1.0, f.size_bytes * 8.0 / params.server_rate_gbps);
      slowdowns.push_back(static_cast<double>(f.fct_ns) / ideal_ns);
    }
    delivered_bits += static_cast<double>(f.delivered_packets) * 8.0 *
                      static_cast<double>(params.packet_bytes);
  }
  result.fct_completed = static_cast<double>(fcts.size());
  ctx.counters.fct_flows += result.fct_flows;
  ctx.counters.fct_completed += result.fct_completed;
  if (!fcts.empty()) {
    std::sort(fcts.begin(), fcts.end());
    result.fct_p50_ns = topo::percentile_sorted(fcts, 0.50);
    result.fct_p95_ns = topo::percentile_sorted(fcts, 0.95);
    result.fct_p99_ns = topo::percentile_sorted(fcts, 0.99);
    result.fct_mean_ns = topo::mean_of(fcts);
    std::sort(slowdowns.begin(), slowdowns.end());
    result.fct_slowdown_p50 = topo::percentile_sorted(slowdowns, 0.50);
    result.fct_slowdown_p99 = topo::percentile_sorted(slowdowns, 0.99);
  }
  const double total_capacity_bits =
      static_cast<double>(topology.servers.total()) * params.server_rate_gbps *
      static_cast<double>(params.duration_ns);
  result.fct_goodput = delivered_bits / total_capacity_bits;
}

// evaluate_throughput for permutation traffic, one span per layer call.
ThroughputResult evaluate_cell(const BuiltTopology& pristine,
                               const EvalOptions& options,
                               std::uint64_t traffic_seed, CellContext& ctx) {
  topo::require(options.traffic == topo::TrafficKind::kPermutation,
                "the replay supports permutation traffic only");
  const BuiltTopology* topology = &pristine;
  BuiltTopology degraded;
  if (options.failure.active()) {
    {
      SpanScope span(ctx.log, "failure.apply", ctx.root, ctx.cell);
      degraded = topo::apply_failures(
          pristine, options.failure,
          Rng::derive_seed(traffic_seed, kFailureSeedSalt));
    }
    if (degraded.servers.total() < 2) return ThroughputResult{};
    topology = &degraded;
  }

  const topo::PacketSimOptions& packet = options.packet_sim;
  const bool fct = packet.enabled && packet.fct.enabled;
  topo::sim::SimParams fct_params = packet.params;
  fct_params.subflows = 1;
  fct_params.warmup_ns = 0;
  fct_params.start_jitter_ns = 0;
  topo::TrafficMatrix tm;
  std::vector<topo::Commodity> commodities;
  std::vector<topo::FiniteFlow> arrivals;
  {
    SpanScope span(ctx.log, "traffic.draw", ctx.root, ctx.cell);
    Rng rng(traffic_seed);
    tm = topo::random_permutation_traffic(topology->servers, rng);
    commodities = topo::aggregate_to_commodities(tm, topology->servers);
    if (fct) {
      topo::require(packet.fct.custom_cdf.empty(),
                    "the replay supports registered flow-size CDFs only");
      const topo::FlowSizeCdf* cdf = topo::find_flow_size_cdf(packet.fct.cdf);
      topo::require(cdf != nullptr, "unknown flow-size CDF " + packet.fct.cdf);
      Rng arrivals_rng(Rng::derive_seed(traffic_seed, kFctArrivalSeedSalt));
      const auto horizon = static_cast<std::uint64_t>(fct_params.duration_ns);
      arrivals = packet.fct.pattern == "incast"
                     ? topo::incast_flow_arrivals(
                           topology->servers, *cdf, packet.fct.load,
                           fct_params.server_rate_gbps, packet.fct.fan_in,
                           horizon, arrivals_rng)
                     : topo::poisson_flow_arrivals(
                           topology->servers, *cdf, packet.fct.load,
                           fct_params.server_rate_gbps, horizon, arrivals_rng);
    }
  }
  ctx.counters.traffic_flows +=
      static_cast<double>(tm.flows.size() + arrivals.size());

  ThroughputResult result;
  if (commodities.empty()) {
    result.feasible = true;
    result.lambda = 1.0;
    result.dual_bound = 1.0;
    result.gap = 0.0;
  } else {
    {
      SpanScope span(ctx.log, "flow.solve", ctx.root, ctx.cell);
      result = topo::max_concurrent_flow(topology->graph, commodities,
                                         options.flow);
    }
    ctx.counters.phases += result.phases;
    if (result.feasible) {
      ++ctx.counters.solver_cells;
      ctx.counters.gap_max = std::max(ctx.counters.gap_max, result.gap);
      if (result.gap > options.flow.epsilon) ++ctx.counters.uncertified;
    }
  }
  if (packet.enabled) {
    if (fct) {
      simulate_fct(*topology, fct_params, std::move(arrivals), traffic_seed,
                   result, ctx);
    } else {
      simulate_bulk(*topology, packet.params, tm, traffic_seed, result, ctx);
    }
  }
  return result;
}

// λ finite and within [0, dual bound] for every replayed cell.
int check_cells(const std::vector<ThroughputResult>& cells,
                std::vector<std::string>* errors) {
  int failed = 0;
  for (const ThroughputResult& r : cells) {
    if (!std::isfinite(r.lambda) || !std::isfinite(r.dual_bound) ||
        r.lambda < 0.0 || r.lambda > r.dual_bound) {
      ++failed;
    }
  }
  if (failed > 0) {
    errors->push_back(std::to_string(failed) +
                      " replayed cells have lambda outside [0, dual bound]");
  }
  return failed;
}

double file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

}  // namespace

void Counters::add(const Counters& o) {
  phases += o.phases;
  gap_max = std::max(gap_max, o.gap_max);
  solver_cells += o.solver_cells;
  uncertified += o.uncertified;
  traffic_flows += o.traffic_flows;
  sim_events += o.sim_events;
  sim_drops += o.sim_drops;
  sim_routes += o.sim_routes;
  sim_pool_max = std::max(sim_pool_max, o.sim_pool_max);
  fct_flows += o.fct_flows;
  fct_completed += o.fct_completed;
  cache_loads += o.cache_loads;
  cache_hits += o.cache_hits;
  cache_stores += o.cache_stores;
  cache_bytes += o.cache_bytes;
  search_candidates += o.search_candidates;
  search_computed += o.search_computed;
  search_memo_hits += o.search_memo_hits;
  mutate_ns += o.mutate_ns;
  hash_ns += o.hash_ns;
  cost_ns += o.cost_ns;
  micro_calls += o.micro_calls;
}

ReplayOutcome replay_sweep(const Workload& w, const ScenarioSpec& spec,
                           std::uint64_t master_seed,
                           const std::string& cache_dir,
                           std::uint64_t want_digest,
                           std::vector<std::string>* errors) {
  using topo::scenario::SweepRunner;
  ReplayOutcome out;
  const topo::scenario::FamilyInfo* family =
      topo::scenario::find_family(spec.topology.family);
  topo::require(family != nullptr, "unknown family " + spec.topology.family);
  const auto points =
      SweepRunner(spec, sweep_config(w, master_seed, cache_dir))
          .enumerate_points();
  const int runs = w.runs;
  const int num_points = static_cast<int>(points.size());
  const int num_cells = num_points * runs;
  bool reuse = spec.reuse_topology;
  for (const auto& axis : spec.axes) {
    if (!topo::scenario::is_eval_axis(axis.param)) reuse = false;
  }
  const auto n = static_cast<std::size_t>(num_cells);
  std::vector<CellPlan> plans(n);
  std::vector<std::uint64_t> keys(n);
  std::vector<ThroughputResult> cells(n);
  std::vector<char> hit(n, 0);
  std::vector<SpanLog> logs(n);
  std::vector<Counters> counters(n);

  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  const topo::scenario::ResultCache cache(cache_dir);
  // Pass 1, as SweepRunner: plan, key and load every cell on the pool.
  topo::parallel_for(num_cells, [&](int index) {
    const auto i = static_cast<std::size_t>(index);
    const int point = index / runs;
    plans[i] = make_plan(spec, points[static_cast<std::size_t>(point)], point,
                         index % runs, master_seed, reuse);
    SpanScope root(logs[i], kCellSpan, -1, index);
    {
      SpanScope span(logs[i], "cache.key", root.id(), index);
      keys[i] = topo::scenario::cell_key(topo::scenario::CellIdentity{
          spec.topology.family, plans[i].params, plans[i].options,
          plans[i].topo_seed, plans[i].traffic_seed, {}});
    }
    SpanScope span(logs[i], "cache.load", root.id(), index);
    hit[i] = cache.load(keys[i], &cells[i]) ? 1 : 0;
  });

  // Pass 2: in reuse mode, one shared topology per run that has a miss.
  std::vector<std::shared_ptr<const BuiltTopology>> shared(
      static_cast<std::size_t>(reuse ? runs : 0));
  std::vector<SpanLog> build_logs(shared.size());
  if (reuse) {
    std::vector<char> needed(shared.size(), 0);
    for (int index = 0; index < num_cells; ++index) {
      if (!hit[static_cast<std::size_t>(index)]) {
        needed[static_cast<std::size_t>(index % runs)] = 1;
      }
    }
    topo::parallel_for(runs, [&](int r) {
      const auto s = static_cast<std::size_t>(r);
      if (!needed[s]) return;
      SpanScope span(build_logs[s], "topo.build", -1, -1);
      try {
        shared[s] = std::make_shared<const BuiltTopology>(family->build(
            spec.topology.params,
            Rng::derive_seed(master_seed, 2 * static_cast<std::uint64_t>(r))));
      } catch (const topo::ConstructionFailure&) {
        // Left null: the run's cells are infeasible, as in SweepRunner.
      }
    });
  }

  // Pass 3: evaluate and store every miss.
  topo::parallel_for(num_cells, [&](int index) {
    const auto i = static_cast<std::size_t>(index);
    if (hit[i]) return;
    SpanScope root(logs[i], kCellSpan, -1, index);
    CellContext ctx{logs[i], root.id(), index, counters[i]};
    try {
      if (reuse) {
        const auto& topology = shared[static_cast<std::size_t>(index % runs)];
        if (topology != nullptr) {
          cells[i] = evaluate_cell(*topology, plans[i].options,
                                   plans[i].traffic_seed, ctx);
        }
      } else {
        BuiltTopology topology;
        {
          SpanScope span(logs[i], "topo.build", root.id(), index);
          topology = family->build(plans[i].params, plans[i].topo_seed);
        }
        cells[i] = evaluate_cell(topology, plans[i].options,
                                 plans[i].traffic_seed, ctx);
      }
    } catch (const topo::ConstructionFailure&) {
      // Infeasible zero cell, as in SweepRunner.
    }
    SpanScope span(logs[i], "cache.store", root.id(), index);
    cache.store(keys[i], cells[i]);
  });
  out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  out.cpu_s = process_cpu_s() - cpu0;

  for (std::size_t i = 0; i < n; ++i) {
    counters[i].cache_loads = 1;
    counters[i].cache_hits = hit[i];
    if (!hit[i]) {
      counters[i].cache_stores = 1;
      counters[i].cache_bytes = file_bytes(cache.cell_path(keys[i]));
    }
    out.counters.add(counters[i]);
  }
  for (const SpanLog& log : build_logs) out.log.append(log);
  for (const SpanLog& log : logs) out.log.append(log);
  out.layer_cpu_s = summarize_spans(out.log.spans()).layer_cpu_ms / 1e3;

  std::vector<topo::scenario::SweepPointResult> reduced;
  for (int p = 0; p < num_points; ++p) {
    const auto begin = cells.begin() + static_cast<std::ptrdiff_t>(p) * runs;
    reduced.push_back({points[static_cast<std::size_t>(p)],
                       topo::summarize_runs(std::vector<ThroughputResult>(
                           begin, begin + runs))});
  }
  out.cells = num_cells;
  out.failed_cells = check_cells(cells, errors);
  if (points_digest(reduced) != want_digest) {
    errors->push_back("traced replay does not reproduce the untraced table");
    out.failed_cells = num_cells;
  }
  return out;
}

ReplayOutcome replay_search(const Workload& w, const ScenarioSpec& spec,
                            std::uint64_t master_seed,
                            const std::string& cache_dir,
                            const topo::search::SearchResult& untraced,
                            std::vector<std::string>* errors) {
  namespace search = topo::search;
  ReplayOutcome out;
  const search::SearchDriverOptions options =
      search_options(w, master_seed, cache_dir);
  search::SearchResult result;
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  {
    SpanScope job(out.log, kJobSpan, -1, -1);
    SpanScope span(out.log, "search.run", job.id(), -1);
    result = search::run_search(spec, options);
  }
  out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  out.cpu_s = process_cpu_s() - cpu0;
  out.layer_cpu_s = summarize_spans(out.log.spans()).layer_cpu_ms / 1e3;
  out.cells = static_cast<int>(result.trace.size()) * w.runs;
  if (search::search_trace_json(spec, options, result) !=
      search::search_trace_json(spec, options, untraced)) {
    errors->push_back("traced search does not reproduce the untraced trace");
    out.failed_cells = out.cells;
  }
  out.counters.search_candidates = static_cast<double>(result.trace.size());
  out.counters.search_computed = result.cache_misses;
  out.counters.search_memo_hits = result.cache_hits;

  // Replay the baseline and best designs cell by cell: the per-cell solve
  // time the search pays for every candidate.
  std::vector<search::MoveKind> moves;
  for (const std::string& name : spec.search.moves) {
    moves.push_back(search::move_from_name(name));
  }
  const search::SearchSpace space(spec.topology, std::move(moves));
  BuiltTopology baseline;
  {
    SpanScope span(out.log, "topo.build", -1, -1);
    baseline = space.initial(
        Rng::derive_seed(master_seed, search::kSearchTopoSalt));
  }
  const std::vector<const BuiltTopology*> designs = {&baseline,
                                                     &result.best_topology};
  const std::vector<const search::SearchStepRecord*> records = {
      &result.baseline, &result.best};
  const EvalOptions eval = spec_options(spec);
  const int runs = w.runs;
  const int num_cells = static_cast<int>(designs.size()) * runs;
  std::vector<ThroughputResult> cells(static_cast<std::size_t>(num_cells));
  std::vector<SpanLog> logs(cells.size());
  std::vector<Counters> counters(cells.size());
  topo::parallel_for(num_cells, [&](int index) {
    const auto i = static_cast<std::size_t>(index);
    SpanScope root(logs[i], kCellSpan, -1, index);
    CellContext ctx{logs[i], root.id(), index, counters[i]};
    cells[i] = evaluate_cell(
        *designs[static_cast<std::size_t>(index / runs)], eval,
        Rng::derive_seed(master_seed, search::kSearchTrafficSalt +
                                          static_cast<std::uint64_t>(index % runs)),
        ctx);
  });
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out.log.append(logs[i]);
    out.counters.add(counters[i]);
  }
  out.failed_cells = std::max(out.failed_cells, check_cells(cells, errors));
  for (std::size_t d = 0; d < designs.size(); ++d) {
    double sum = 0.0;
    for (int r = 0; r < runs; ++r) {
      sum += cells[d * static_cast<std::size_t>(runs) +
                   static_cast<std::size_t>(r)].lambda;
    }
    if (sum / runs != records[d]->lambda) {
      errors->push_back("replayed design " + records[d]->candidate +
                        " does not reproduce its search lambda");
      out.failed_cells = out.cells;
    }
  }

  // Micro-timed design-loop steps on the baseline design.
  const search::CostModel model(search::CostWeights{
      spec.search.port_cost, spec.search.cable_cost, spec.search.switch_cost,
      spec.search.class_cost, spec.search.floor_columns});
  Rng rng(master_seed);
  double sink = 0.0;
  std::int64_t t = now_ns();
  for (int i = 0; i < kMicroCalls; ++i) {
    sink += space.mutate(baseline, rng).graph.num_edges();
  }
  out.counters.mutate_ns = static_cast<double>(now_ns() - t);
  t = now_ns();
  for (int i = 0; i < kMicroCalls; ++i) {
    sink += static_cast<double>(search::candidate_hash_hex(baseline).size());
  }
  out.counters.hash_ns = static_cast<double>(now_ns() - t);
  t = now_ns();
  for (int i = 0; i < kMicroCalls; ++i) sink += model.cost(baseline);
  out.counters.cost_ns = static_cast<double>(now_ns() - t);
  out.counters.micro_calls = kMicroCalls;
  g_sink = sink;  // keeps the timed calls observable
  return out;
}

}  // namespace e2e
