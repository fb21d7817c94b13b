// Figure 12 (a-c): improving VL2 by rewiring the same equipment.
//
// (a) Servers (ToRs) supported at full throughput by the rewired topology
//     (proportional ToR spreading + uniform random fabric) relative to
//     VL2's nominal DA*DI/4, swept over aggregation degree DA for several
//     aggregation-switch counts DI.
// (b) Throughput of the rewired topology (sized at its permutation
//     full-throughput point) under x% chunky traffic.
// (c) The ratio of (a) recomputed when full throughput is also required
//     under harder traffic: all-to-all and 100% chunky.
//
// Paper expectation: (a) ratios rise with scale, up to ~1.43 at the
// largest sizes; (b) chunky hurts only when most of the network is
// chunky; (c) gains shrink but stay positive under 100% chunky, and
// all-to-all is easier than permutation.
#include <map>
#include <tuple>

#include "scenario/figures/figure_common.h"
#include "scenario/figures/figures.h"
#include "util/error.h"

namespace topo::scenario {
namespace {

// The rewired pool of `params` at `tors` ToRs, as a figure data point.
ExperimentStats rewired_point(const FigureConfig& config,
                              const Vl2Params& params, int tors,
                              std::uint64_t point_seed, TrafficKind traffic,
                              double chunky_fraction) {
  return figure_point(config, "rewired_vl2",
                      {{"d_a", params.d_a}, {"d_i", params.d_i},
                       {"tors", tors}},
                      point_seed, traffic, chunky_fraction);
}

// Full throughput at a ToR count: every run's certified lambda reaches
// 0.95 (the FPTAS reports a lower bound, so one threshold compares two
// designs fairly). Every probe draws from the same point seed.
int rewired_max_tors_at_full_throughput(const FigureConfig& config,
                                        const Vl2Params& params,
                                        TrafficKind traffic,
                                        double chunky_fraction,
                                        std::uint64_t salt) {
  FigureConfig probe_config = config;
  probe_config.epsilon = std::min(config.epsilon, 0.05);
  const auto probe = [&](int tors) {
    try {
      const ExperimentStats stats =
          rewired_point(probe_config, params, tors,
                        Rng::derive_seed(config.seed, salt), traffic,
                        chunky_fraction);
      return stats.infeasible_runs == 0 && stats.lambda.min >= 0.95;
    } catch (const InvalidArgument&) {
      return false;  // ToR count beyond what the pool can host
    }
  };
  return max_tors_at_full_throughput(std::max(1, vl2_nominal_tors(params) / 2),
                                     rewired_vl2_max_tors(params), probe);
}

void run(ScenarioRun& ctx, const FigureConfig& config) {
  // Panel (b) sizes its topologies with the very bisections of (a)'s last
  // DI column; one memo per figure runs each bisection once.
  std::map<std::tuple<int, int, TrafficKind, double, std::uint64_t>, int>
      bisections;
  const auto max_tors = [&](const Vl2Params& params, TrafficKind traffic,
                            double chunky_fraction, std::uint64_t salt) {
    const auto key =
        std::make_tuple(params.d_a, params.d_i, traffic, chunky_fraction, salt);
    const auto it = bisections.find(key);
    if (it != bisections.end()) return it->second;
    return bisections[key] = rewired_max_tors_at_full_throughput(
               config, params, traffic, chunky_fraction, salt);
  };

  const std::vector<int> da_values =
      config.full ? std::vector<int>{6, 8, 10, 12, 14, 16, 18, 20}
                  : std::vector<int>{8, 12, 16};
  const std::vector<int> di_values =
      config.full ? std::vector<int>{16, 20, 24, 28} : std::vector<int>{16, 20};

  // (a) permutation-traffic ratio over VL2 for each (DA, DI).
  {
    ctx.banner(
        "Figure 12(a): servers at full throughput, rewired/VL2 "
        "ratio (permutation traffic)");
    std::vector<std::string> headers{"DA"};
    for (int di : di_values) headers.push_back("DI_" + std::to_string(di));
    TablePrinter table(std::move(headers));
    for (int da : da_values) {
      std::vector<Cell> row{static_cast<long long>(da)};
      for (int di : di_values) {
        Vl2Params params;
        params.d_a = da;
        params.d_i = di;
        if ((da * di) % 4 != 0) {
          row.push_back(std::string("-"));
          continue;
        }
        const int nominal = vl2_nominal_tors(params);
        const int rewired = max_tors(params, TrafficKind::kPermutation, 1.0,
                                     71000 + da * 131 + di);
        row.push_back(static_cast<double>(rewired) / nominal);
      }
      table.add_row(std::move(row));
    }
    ctx.table(table);
    ctx.out() << "Expected: ratios >= 1 and growing with DA/DI (paper: up "
                 "to 1.43 at DA=20, DI=28).\n";
  }

  // (b) chunky traffic on the rewired topology sized for permutation
  // full throughput.
  {
    ctx.banner(
        "Figure 12(b): rewired topology under x% chunky traffic "
        "(DI = " +
        std::to_string(di_values.back()) + ")");
    TablePrinter table({"DA", "chunky_20", "chunky_60", "chunky_100"});
    const int di = di_values.back();
    for (int da : da_values) {
      Vl2Params params;
      params.d_a = da;
      params.d_i = di;
      if ((da * di) % 4 != 0) continue;
      const int tors = max_tors(params, TrafficKind::kPermutation, 1.0,
                                71000 + da * 131 + di);
      std::vector<Cell> row{static_cast<long long>(da)};
      for (double fraction : {0.2, 0.6, 1.0}) {
        row.push_back(
            rewired_point(config, params, tors,
                          Rng::derive_seed(config.seed,
                                           72000 + da * 131 +
                                               static_cast<int>(fraction * 10)),
                          TrafficKind::kChunky, fraction)
                .lambda.mean);
      }
      table.add_row(std::move(row));
    }
    ctx.table(table);
    ctx.out() << "Expected: near-1 throughput except when most ToRs are "
                 "chunky (chunky_100 lowest).\n";
  }

  // (c) ratio over VL2 when full throughput is required under harder
  // traffic matrices.
  {
    ctx.banner(
        "Figure 12(c): rewired/VL2 ratio requiring full throughput "
        "under each traffic matrix (DI = " +
        std::to_string(di_values.back()) + ")");
    TablePrinter table({"DA", "all_to_all", "permutation", "chunky_100"});
    const int di = di_values.back();
    for (int da : da_values) {
      Vl2Params params;
      params.d_a = da;
      params.d_i = di;
      if ((da * di) % 4 != 0) continue;
      const int nominal = vl2_nominal_tors(params);
      std::vector<Cell> row{static_cast<long long>(da)};
      row.push_back(static_cast<double>(max_tors(params, TrafficKind::kAllToAll,
                                                 1.0, 73000 + da * 7)) /
                    nominal);
      row.push_back(static_cast<double>(max_tors(params,
                                                 TrafficKind::kPermutation,
                                                 1.0, 74000 + da * 7)) /
                    nominal);
      row.push_back(static_cast<double>(max_tors(params, TrafficKind::kChunky,
                                                 1.0, 75000 + da * 7)) /
                    nominal);
      table.add_row(std::move(row));
    }
    ctx.table(table);
    ctx.out() << "Expected: all_to_all >= permutation >= chunky_100, with "
                 "chunky gains smaller but positive at scale.\n";
  }
}

}  // namespace

void register_fig12() {
  register_figure("fig12_vl2",
                  "Figure 12: rewiring VL2's equipment for more servers",
                  /*quick_runs=*/2, /*full_runs=*/20, FigureSolver::kCells,
                  run);
}

}  // namespace topo::scenario
