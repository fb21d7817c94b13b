#include "core/experiment.h"

#include <map>
#include <vector>

#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace topo {
namespace {

// One (topology, traffic) point of an experiment; exceptions from extreme
// parameter corners degrade to an infeasible (zero) result.
ThroughputResult run_one(const TopologyBuilder& builder,
                         const EvalOptions& options, std::uint64_t master_seed,
                         int run_index) {
  const std::uint64_t topo_seed =
      Rng::derive_seed(master_seed, 2 * static_cast<std::uint64_t>(run_index));
  const std::uint64_t traffic_seed = Rng::derive_seed(
      master_seed, 2 * static_cast<std::uint64_t>(run_index) + 1);
  try {
    const BuiltTopology topology = builder(topo_seed);
    return evaluate_throughput(topology, options, traffic_seed);
  } catch (const ConstructionFailure&) {
    return ThroughputResult{};  // counts as an infeasible (zero) run
  }
}

}  // namespace

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

ExperimentStats run_experiment(const TopologyBuilder& builder,
                               const EvalOptions& options, int runs,
                               std::uint64_t master_seed) {
  require(runs >= 1, "run_experiment requires runs >= 1");

  // Runs are seeded independently, so they execute in parallel; results
  // land in per-run slots and are summarized serially in run order, which
  // keeps the statistics identical for any thread count.
  std::vector<ThroughputResult> results(static_cast<std::size_t>(runs));
  parallel_for(runs, [&](int i) {
    results[static_cast<std::size_t>(i)] =
        run_one(builder, options, master_seed, i);
  });
  return summarize_runs(results);
}

namespace {

bool run_meets_threshold(const FullThroughputSearch& search, int tors,
                         std::uint64_t master_seed, int run_index) {
  const std::uint64_t topo_seed =
      Rng::derive_seed(master_seed, 2 * static_cast<std::uint64_t>(run_index));
  const std::uint64_t traffic_seed = Rng::derive_seed(
      master_seed, 2 * static_cast<std::uint64_t>(run_index) + 1);
  try {
    const BuiltTopology topology = search.builder(tors, topo_seed);
    const ThroughputResult result =
        evaluate_throughput(topology, search.options, traffic_seed);
    return result.feasible && result.lambda >= search.threshold;
  } catch (const ConstructionFailure&) {
    return false;
  } catch (const InvalidArgument&) {
    return false;  // ToR count beyond what the pool can host
  }
}

bool supports_full_throughput(const FullThroughputSearch& search, int tors,
                              std::uint64_t master_seed) {
  if (parallel_slots() == 1) {
    // Serial machines keep the early exit on the first failing run.
    for (int i = 0; i < search.runs; ++i) {
      if (!run_meets_threshold(search, tors, master_seed, i)) return false;
    }
    return true;
  }
  std::vector<char> ok(static_cast<std::size_t>(search.runs), 0);
  parallel_for(search.runs, [&](int i) {
    ok[static_cast<std::size_t>(i)] =
        run_meets_threshold(search, tors, master_seed, i) ? 1 : 0;
  });
  for (char good : ok) {
    if (!good) return false;
  }
  return true;
}

}  // namespace

int max_tors_at_full_throughput(const FullThroughputSearch& search,
                                std::uint64_t master_seed) {
  require(static_cast<bool>(search.builder), "search requires a builder");
  require(search.min_tors >= 1 && search.max_tors >= search.min_tors,
          "invalid search range");
  require(search.runs >= 1, "search requires runs >= 1");

  // Memoize per ToR count: the probing order below can revisit a count
  // (min_tors == max_tors probes it as both the floor and the ceiling).
  std::map<int, bool> memo;
  const auto probe = [&](int tors) {
    const auto it = memo.find(tors);
    if (it != memo.end()) return it->second;
    return memo[tors] = supports_full_throughput(search, tors, master_seed);
  };

  if (!probe(search.min_tors)) {
    return search.min_tors - 1;
  }
  int lo = search.min_tors;  // known good
  int hi = search.max_tors;  // candidate upper end
  if (probe(hi)) return hi;
  // Invariant: lo good, hi bad.
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace topo
