#include "search/driver.h"

#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <utility>

#include "scenario/cache.h"
#include "scenario/cell_executor.h"
#include "scenario/scenario.h"
#include "scenario/spec_io.h"
#include "search/cost_model.h"
#include "util/error.h"
#include "util/exit_codes.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/table.h"

namespace topo::search {
namespace {

// One candidate's reduced evaluation.
struct Evaluated {
  std::string hash;
  double cost = 0.0;
  double lambda = 0.0;
  double objective = 0.0;
};

// Evaluates candidate batches through the scenario engine with the result
// cache (and an in-process memo over it) as the memo table. All state that
// candidate results are a function of — evaluation options, traffic seeds,
// the solver mode — is fixed at construction, so a candidate's cells are
// identical wherever and whenever it is (re)evaluated.
class CandidateEvaluator {
 public:
  CandidateEvaluator(const scenario::ScenarioSpec& spec,
                     const SearchDriverOptions& opts)
      : family_(spec.topology.family),
        objective_(spec.search.objective),
        runs_(opts.runs),
        stripe_{opts.shard_index, opts.shard_count, opts.stripe},
        model_(CostWeights{spec.search.port_cost, spec.search.cable_cost,
                           spec.search.switch_cost, spec.search.class_cost,
                           spec.search.floor_columns}),
        options_(scenario::eval_options(spec, opts.epsilon)),
        executor_(opts.cache_dir) {
    traffic_seeds_.reserve(static_cast<std::size_t>(runs_));
    for (int r = 0; r < runs_; ++r) {
      traffic_seeds_.push_back(Rng::derive_seed(
          opts.master_seed, kSearchTrafficSalt + static_cast<std::uint64_t>(r)));
    }
  }

  // Evaluates every candidate in `batch` (in parallel over its
  // candidate × run cells) and reduces in batch order. Duplicate
  // candidates within one batch are legal (a failed move returns the
  // current design unchanged); they share cells across batches via the
  // memo even if one batch computes them twice.
  std::vector<Evaluated> evaluate(
      const std::vector<const BuiltTopology*>& batch) {
    const int n = static_cast<int>(batch.size());
    const int runs = runs_;
    const int num_cells = n * runs;

    std::vector<std::string> hashes(static_cast<std::size_t>(n));
    std::vector<double> costs(static_cast<std::size_t>(n));
    parallel_for(n, [&](int c) {
      const std::size_t i = static_cast<std::size_t>(c);
      hashes[i] = candidate_hash_hex(*batch[i]);
      costs[i] = model_.cost(*batch[i]);
    });

    scenario::CellGrid grid(n, runs);
    for (int i = 0; i < num_cells; ++i) {
      const std::size_t s = static_cast<std::size_t>(i);
      scenario::CellIdentity cell;
      cell.family = family_;
      cell.options = options_;
      cell.traffic_seed = traffic_seeds_[static_cast<std::size_t>(i % runs)];
      cell.candidate = hashes[static_cast<std::size_t>(i / runs)];
      grid.keys[s] = scenario::cell_key(cell);
      if (const auto it = memo_.find(grid.keys[s]); it != memo_.end()) {
        grid.results[s] = it->second;
        grid.available[s] = 1;
        ++hits_;
      }
    }

    const auto compute = [&](int i) {
      return evaluate_throughput(
          *batch[static_cast<std::size_t>(i / runs)], options_,
          traffic_seeds_[static_cast<std::size_t>(i % runs)]);
    };
    // This shard's stripe first, publishing its cells for peer shards and
    // warm re-runs; then every cell still unavailable — adopted if a peer
    // has published it by now, computed and published otherwise — so the
    // trajectory never waits on a peer and every shard walks the identical
    // sequence of candidates and decisions. Cells are content-addressed,
    // so a cell stored here is byte for byte what its owner would store.
    for (const scenario::CellStripe& stripe :
         {stripe_, scenario::CellStripe{}}) {
      const scenario::CellCounts counts = executor_.run(grid, stripe, compute);
      hits_ += counts.hits;
      misses_ += counts.computed;
    }
    for (int i = 0; i < num_cells; ++i) {
      const std::size_t s = static_cast<std::size_t>(i);
      memo_.emplace(grid.keys[s], grid.results[s]);
    }

    std::vector<Evaluated> out(static_cast<std::size_t>(n));
    for (int c = 0; c < n; ++c) {
      const std::size_t s = static_cast<std::size_t>(c);
      double sum = 0.0;
      for (int r = 0; r < runs; ++r) {
        sum += grid.results[static_cast<std::size_t>(c * runs + r)].lambda;
      }
      out[s].hash = hashes[s];
      out[s].cost = costs[s];
      out[s].lambda = sum / runs;
      if (objective_ == "throughput_per_cost") {
        require(out[s].cost > 0.0,
                "search objective throughput_per_cost needs a positive "
                "candidate cost (are all search.cost weights zero?)");
        out[s].objective = out[s].lambda / out[s].cost;
      } else {
        out[s].objective = out[s].lambda;
      }
    }
    return out;
  }

  [[nodiscard]] int hits() const { return hits_; }
  [[nodiscard]] int misses() const { return misses_; }

 private:
  std::string family_;
  std::string objective_;
  int runs_;
  scenario::CellStripe stripe_;
  CostModel model_;
  EvalOptions options_;
  std::vector<std::uint64_t> traffic_seeds_;
  scenario::CellExecutor executor_;
  std::map<std::uint64_t, ThroughputResult> memo_;
  int hits_ = 0;
  int misses_ = 0;
};

SearchStepRecord make_record(int restart, int step, const Evaluated& eval,
                             bool accepted) {
  SearchStepRecord record;
  record.restart = restart;
  record.step = step;
  record.candidate = eval.hash;
  record.cost = eval.cost;
  record.lambda = eval.lambda;
  record.objective = eval.objective;
  record.accepted = accepted;
  return record;
}

std::string record_json(const SearchStepRecord& record) {
  std::ostringstream out;
  out << "{\"restart\": " << record.restart << ", \"step\": " << record.step
      << ", \"candidate\": " << json_string(record.candidate)
      << ", \"cost\": " << json_number(record.cost)
      << ", \"lambda\": " << json_number(record.lambda)
      << ", \"objective\": " << json_number(record.objective)
      << ", \"accepted\": " << (record.accepted ? "true" : "false") << "}";
  return out.str();
}

}  // namespace

SearchResult run_search(const scenario::ScenarioSpec& spec,
                        const SearchDriverOptions& options) {
  require(spec.search.enabled,
          "run_search requires a spec with a \"search\" block");
  scenario::validate_spec(spec);
  require(options.runs >= 1, "search requires runs >= 1");
  require(options.shard_count >= 1, "shard_count must be >= 1");
  require(options.shard_index >= 0 &&
              options.shard_index < options.shard_count,
          "shard_index must be in [0, shard_count)");
  // As for sweeps: a shard's only channel to its peers is the shared
  // cache, so sharding without one would duplicate every evaluation.
  require(options.shard_count == 1 || !options.cache_dir.empty(),
          "sharded search requires a cache dir (shards share evaluations "
          "through it)");

  std::vector<MoveKind> moves;
  moves.reserve(spec.search.moves.size());
  for (const std::string& name : spec.search.moves) {
    moves.push_back(move_from_name(name));
  }
  const SearchSpace space(spec.topology, std::move(moves));
  CandidateEvaluator evaluator(spec, options);

  SearchResult result;
  bool have_best = false;
  // Strictly-greater comparisons everywhere: ties keep the EARLIEST
  // candidate, so the trajectory is deterministic and the baseline wins
  // unless something genuinely improves on it.
  const auto offer_best = [&](const SearchStepRecord& record,
                              const BuiltTopology& topology) {
    if (have_best && record.objective <= result.best.objective) return;
    have_best = true;
    result.best = record;
    result.best_topology = topology;
  };

  const std::uint64_t move_base =
      Rng::derive_seed(options.master_seed, kSearchMoveSalt);
  for (int restart = 0; restart < spec.search.restarts; ++restart) {
    BuiltTopology current = space.initial(Rng::derive_seed(
        options.master_seed,
        kSearchTopoSalt + static_cast<std::uint64_t>(restart)));
    Evaluated current_eval = evaluator.evaluate({&current})[0];
    const SearchStepRecord initial =
        make_record(restart, 0, current_eval, true);
    result.trace.push_back(initial);
    if (restart == 0) result.baseline = initial;
    offer_best(initial, current);

    for (int step = 1; step <= spec.search.budget; ++step) {
      // One deterministic stream per (restart, step) drives both the
      // serial population mutations and the annealing draw below.
      Rng move_rng(Rng::derive_seed(
          move_base, static_cast<std::uint64_t>(restart) * 1000003ULL +
                         static_cast<std::uint64_t>(step)));
      std::vector<BuiltTopology> neighbors;
      neighbors.reserve(static_cast<std::size_t>(spec.search.population));
      for (int p = 0; p < spec.search.population; ++p) {
        neighbors.push_back(space.mutate(current, move_rng));
      }
      std::vector<const BuiltTopology*> batch;
      batch.reserve(neighbors.size());
      for (const BuiltTopology& neighbor : neighbors) {
        batch.push_back(&neighbor);
      }
      const std::vector<Evaluated> outcomes = evaluator.evaluate(batch);

      std::size_t best_neighbor = 0;
      for (std::size_t p = 1; p < outcomes.size(); ++p) {
        if (outcomes[p].objective > outcomes[best_neighbor].objective) {
          best_neighbor = p;
        }
      }
      // Hill climbing accepts strict improvements; a positive temperature
      // additionally accepts worse neighbors with the Metropolis
      // probability under geometric cooling (0.95 per step).
      const double temperature =
          spec.search.temperature * std::pow(0.95, step - 1);
      bool accept =
          outcomes[best_neighbor].objective > current_eval.objective;
      if (!accept && temperature > 0.0) {
        const double delta =
            outcomes[best_neighbor].objective - current_eval.objective;
        accept = move_rng.uniform() < std::exp(delta / temperature);
      }
      for (std::size_t p = 0; p < outcomes.size(); ++p) {
        const SearchStepRecord record = make_record(
            restart, step, outcomes[p], accept && p == best_neighbor);
        result.trace.push_back(record);
        offer_best(record, neighbors[p]);
      }
      if (accept) {
        current = std::move(neighbors[best_neighbor]);
        current_eval = outcomes[best_neighbor];
      }
    }
  }
  result.cache_hits = evaluator.hits();
  result.cache_misses = evaluator.misses();
  return result;
}

std::string search_trace_json(const scenario::ScenarioSpec& spec,
                              const SearchDriverOptions& options,
                              const SearchResult& result) {
  // Deliberately free of cache accounting and shard/stripe configuration:
  // the trace documents the trajectory, which is identical across thread
  // counts, shard layouts, and warm/cold caches — so the FILE is too.
  std::ostringstream out;
  out << "{\n";
  out << "  \"spec\": " << json_string(spec.name) << ",\n";
  out << "  \"family\": " << json_string(spec.topology.family) << ",\n";
  out << "  \"objective\": " << json_string(spec.search.objective) << ",\n";
  out << "  \"seed\": " << options.master_seed << ",\n";
  out << "  \"runs\": " << options.runs << ",\n";
  out << "  \"epsilon\": " << json_number(options.epsilon) << ",\n";
  out << "  \"steps\": [";
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    out << (i > 0 ? "," : "") << "\n    " << record_json(result.trace[i]);
  }
  out << (result.trace.empty() ? "]" : "\n  ]") << ",\n";
  out << "  \"baseline\": " << record_json(result.baseline) << ",\n";
  out << "  \"best\": " << record_json(result.best) << "\n";
  out << "}\n";
  return out.str();
}

int search_main(int argc, const char* const* argv) {
  try {
    const Flags flags(argc, argv,
                      {"spec", "trace", "runs", "eps", "seed", "threads",
                       "cache-dir", "shard", "stripe"});
    const std::string spec_path = flags.get_string("spec", "");
    require(!spec_path.empty(), "search requires --spec FILE");
    const scenario::ScenarioSpec spec = scenario::load_spec_file(spec_path);
    require(spec.search.enabled,
            spec_path + ": spec has no \"search\" block (`topobench search` "
                        "runs search specs; use `topobench --spec` for "
                        "sweeps)");

    SearchDriverOptions options;
    options.runs = flags.get_int("runs", 3);
    options.epsilon = flags.get_double("eps", 0.08);
    options.master_seed = flags.get_uint64("seed", 1);
    options.cache_dir = flags.get_string("cache-dir", "");
    if (const std::string shard = flags.get_string("shard", "");
        !shard.empty()) {
      scenario::parse_shard_value(shard, &options.shard_index,
                                  &options.shard_count);
      require(options.shard_count == 1 || !options.cache_dir.empty(),
              "--shard requires --cache-dir: shards share candidate "
              "evaluations through the cache");
    }
    if (const std::string stripe = flags.get_string("stripe", "");
        !stripe.empty()) {
      options.stripe = scenario::stripe_mode_from_name(stripe);
    }
    scenario::apply_threads_flag(flags.get_int("threads", 0));

    const SearchResult result = run_search(spec, options);

    print_banner(std::cout, "Topology search: " + spec.name);
    TablePrinter table({"restart", "step", "candidate", "cost", "lambda",
                        "objective", "accepted"});
    table.set_precision(6);
    for (const SearchStepRecord& record : result.trace) {
      table.add_row({static_cast<long long>(record.restart),
                     static_cast<long long>(record.step), record.candidate,
                     record.cost, record.lambda, record.objective,
                     std::string(record.accepted ? "yes" : "no")});
    }
    table.print(std::cout);
    std::cout << "\nBaseline: candidate " << result.baseline.candidate
              << ", cost " << result.baseline.cost << ", lambda "
              << result.baseline.lambda << ", objective "
              << result.baseline.objective << "\n";
    std::cout << "Best:     candidate " << result.best.candidate
              << " (restart " << result.best.restart << ", step "
              << result.best.step << "), cost " << result.best.cost
              << ", lambda " << result.best.lambda << ", objective "
              << result.best.objective << "\n";
    if (result.baseline.objective > 0.0) {
      std::cout << "Improvement over the family's seed design: "
                << 100.0 * (result.best.objective /
                                result.baseline.objective -
                            1.0)
                << "% on " << spec.search.objective << ".\n";
    }

    if (const std::string trace_path = flags.get_string("trace", "");
        !trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) {
        std::cerr << "cannot write " << trace_path << "\n";
        return kExitInternal;
      }
      out << search_trace_json(spec, options, result);
    }
    if (!options.cache_dir.empty()) {
      // stderr, like sweeps, so stdout is byte-identical warm or cold.
      // The spec hash covers the search block (and the search version
      // tag), so a search and a sweep can never report the same identity.
      scenario::SweepRunConfig config;
      config.runs = options.runs;
      config.epsilon = options.epsilon;
      config.master_seed = options.master_seed;
      std::cerr << "cache " << spec.name << " ["
                << scenario::hash_hex(scenario::spec_hash(spec, config))
                << "]";
      if (options.shard_count > 1) {
        std::cerr << " shard " << options.shard_index << "/"
                  << options.shard_count;
      }
      std::cerr << ": " << result.cache_hits << " hits, "
                << result.cache_misses << " misses (" << options.cache_dir
                << ")\n";
    }
    return kExitOk;
  } catch (const InvalidArgument& e) {
    std::cerr << e.what() << "\n";
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return kExitInternal;
  }
}

}  // namespace topo::search
