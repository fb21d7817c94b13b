// Figure 13: packet-level MPTCP simulation vs flow-level optimum.
//
// Rewired-VL2 topologies deliberately oversubscribed (ToR count ~15% past
// nominal) so the flow optimum sits just below 1; MPTCP with 8 subflows
// over sampled shortest paths should land within several percent of it.
#include <algorithm>

#include "scenario/figures/figure_common.h"
#include "scenario/figures/figures.h"
#include "util/stats.h"

namespace topo::scenario {
namespace {

void run(ScenarioRun& ctx, const FigureConfig& config) {
  const std::vector<int> da_values =
      config.full ? std::vector<int>{6, 8, 10, 12, 14, 16, 18}
                  : std::vector<int>{6, 8, 10};
  const int di = config.full ? 12 : 8;
  const int servers_per_tor = 20;  // real VL2 loading: 20 x 1G per ToR

  ctx.banner(
      "Figure 13: packet-level (MPTCP, 8 subflows) vs flow-level "
      "throughput on oversubscribed rewired-VL2 (DI=" +
      std::to_string(di) + ")");
  TablePrinter table({"DA", "tors", "flow_level", "packet_mean",
                      "packet_p05", "gap_percent"});
  for (int da : da_values) {
    Vl2Params params;
    params.d_a = da;
    params.d_i = di;
    params.servers_per_tor = servers_per_tor;
    if ((da * di) % 4 != 0) continue;
    // Oversubscribe well past the rewired design's ~1.4x full-throughput
    // point so the fluid optimum sits just below 1 (as the paper did).
    const int tors = std::min(rewired_vl2_max_tors(params),
                              std::max(2, vl2_nominal_tors(params) * 160 / 100));

    std::vector<double> flow_values;
    std::vector<double> packet_means;
    std::vector<double> packet_p05s;
    for (int run = 0; run < config.runs; ++run) {
      const std::uint64_t seed =
          Rng::derive_seed(config.seed, 81000 + da * 97 + run);
      const BuiltTopology t = rewired_vl2_topology(params, tors, seed);

      EvalOptions options;
      options.flow.epsilon = std::min(config.epsilon, 0.05);
      options.flow.mode = config.solver;
      const ThroughputResult flow = evaluate_throughput(t, options, seed + 1);
      flow_values.push_back(std::min(1.0, flow.lambda));

      sim::SimParams sim_params;
      sim_params.subflows = 8;
      sim_params.queue_packets = 50;
      sim_params.duration_ns = config.full ? 40'000'000 : 24'000'000;
      sim_params.warmup_ns = sim_params.duration_ns / 2;
      sim::SimNetwork net(t, sim_params, seed + 2);
      net.add_permutation_workload();
      const sim::SimulationResult packet = net.run();
      packet_means.push_back(packet.mean_normalized);
      // 5th percentile of per-flow normalized goodput.
      std::vector<double> goodputs;
      for (const auto& f : packet.flows) {
        goodputs.push_back(f.goodput_gbps / sim_params.server_rate_gbps);
      }
      std::sort(goodputs.begin(), goodputs.end());
      packet_p05s.push_back(percentile_sorted(goodputs, 0.05));
    }
    const double flow_mean = mean_of(flow_values);
    const double packet_mean = mean_of(packet_means);
    table.add_row({static_cast<long long>(da), static_cast<long long>(tors),
                   flow_mean, packet_mean, mean_of(packet_p05s),
                   100.0 * (flow_mean - packet_mean) /
                       std::max(flow_mean, 1e-9)});
  }
  ctx.table(table);
  ctx.out() << "Expected: packet_mean within several percent of flow_level "
               "(paper: ~6% at the largest size).\n";
}

}  // namespace

void register_fig13() {
  register_figure("fig13_packet_vs_flow",
                  "Figure 13: packet-level MPTCP vs flow-level optimum",
                  /*quick_runs=*/1, /*full_runs=*/5, FigureSolver::kDirect,
                  run);
}

}  // namespace topo::scenario
