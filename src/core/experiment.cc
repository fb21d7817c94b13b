#include "core/experiment.h"

#include <map>
#include <vector>

#include "util/error.h"

namespace topo {

ExperimentStats summarize_runs(const std::vector<ThroughputResult>& results) {
  std::vector<double> lambdas;
  std::vector<double> utils;
  std::vector<double> inv_spls;
  std::vector<double> inv_stretches;
  std::vector<double> duals;
  std::vector<double> packet_means;
  std::vector<double> packet_p05s;
  std::vector<double> fct_p50s;
  std::vector<double> fct_p95s;
  std::vector<double> fct_p99s;
  std::vector<double> fct_goodputs;
  std::vector<double> fct_sd_p50s;
  std::vector<double> fct_sd_p99s;
  int infeasible = 0;
  for (const ThroughputResult& result : results) {
    lambdas.push_back(result.lambda);
    duals.push_back(result.dual_bound);
    if (result.packet_sim_run) {
      packet_means.push_back(result.packet_mean_normalized);
      packet_p05s.push_back(result.packet_p05_normalized);
    }
    if (result.fct_run) {
      fct_p50s.push_back(result.fct_p50_ns);
      fct_p95s.push_back(result.fct_p95_ns);
      fct_p99s.push_back(result.fct_p99_ns);
      fct_goodputs.push_back(result.fct_goodput);
      fct_sd_p50s.push_back(result.fct_slowdown_p50);
      fct_sd_p99s.push_back(result.fct_slowdown_p99);
    }
    if (!result.feasible) {
      ++infeasible;
      utils.push_back(0.0);
      inv_spls.push_back(0.0);
      inv_stretches.push_back(0.0);
      continue;
    }
    utils.push_back(result.utilization);
    inv_spls.push_back(result.demand_weighted_spl > 0.0
                           ? 1.0 / result.demand_weighted_spl
                           : 0.0);
    inv_stretches.push_back(result.stretch > 0.0 ? 1.0 / result.stretch : 0.0);
  }

  ExperimentStats stats;
  stats.lambda = summarize(lambdas);
  stats.utilization = summarize(utils);
  stats.inverse_spl = summarize(inv_spls);
  stats.inverse_stretch = summarize(inv_stretches);
  stats.dual_bound = summarize(duals);
  stats.infeasible_runs = infeasible;
  stats.packet_mean = summarize(packet_means);
  stats.packet_p05 = summarize(packet_p05s);
  stats.packet_sim_runs = static_cast<int>(packet_means.size());
  stats.fct_p50 = summarize(fct_p50s);
  stats.fct_p95 = summarize(fct_p95s);
  stats.fct_p99 = summarize(fct_p99s);
  stats.fct_goodput = summarize(fct_goodputs);
  stats.fct_slowdown_p50 = summarize(fct_sd_p50s);
  stats.fct_slowdown_p99 = summarize(fct_sd_p99s);
  stats.fct_runs = static_cast<int>(fct_p50s.size());
  return stats;
}

int max_tors_at_full_throughput(int min_tors, int max_tors,
                                const std::function<bool(int tors)>& probe) {
  require(static_cast<bool>(probe), "search requires a probe");
  require(min_tors >= 1 && max_tors >= min_tors, "invalid search range");

  // Memoize per ToR count: the probing order below can revisit a count
  // (min_tors == max_tors probes it as both the floor and the ceiling).
  std::map<int, bool> memo;
  const auto accepts = [&](int tors) {
    const auto it = memo.find(tors);
    if (it != memo.end()) return it->second;
    return memo[tors] = probe(tors);
  };

  if (!accepts(min_tors)) return min_tors - 1;
  int lo = min_tors;  // known good
  int hi = max_tors;  // candidate upper end
  if (accepts(hi)) return hi;
  // Invariant: lo good, hi bad.
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (accepts(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace topo
