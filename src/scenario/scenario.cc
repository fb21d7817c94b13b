#include "scenario/scenario.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "util/error.h"
#include "util/exit_codes.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/table.h"

namespace topo::scenario {
namespace {

std::vector<ScenarioInfo>& registry() {
  static std::vector<ScenarioInfo>* scenarios = new std::vector<ScenarioInfo>();
  return *scenarios;
}

std::string json_cell(const Cell& cell) {
  if (const auto* s = std::get_if<std::string>(&cell)) return json_string(*s);
  if (const auto* i = std::get_if<long long>(&cell)) {
    return std::to_string(*i);
  }
  return json_number(std::get<double>(cell));
}

}  // namespace

void ScenarioRun::banner(const std::string& title) {
  print_banner(*stream_, title);
  current_title_ = title;
}

void ScenarioRun::table(const TablePrinter& t) {
  t.emit(*stream_, options_.csv);
  tables_.push_back(RecordedTable{current_title_, t});
}

void register_scenario(ScenarioInfo info) {
  for (const ScenarioInfo& existing : registry()) {
    if (existing.name == info.name) return;
  }
  registry().push_back(std::move(info));
}

std::vector<const ScenarioInfo*> list_scenarios() {
  std::vector<const ScenarioInfo*> result;
  result.reserve(registry().size());
  for (const ScenarioInfo& s : registry()) result.push_back(&s);
  std::sort(result.begin(), result.end(),
            [](const ScenarioInfo* a, const ScenarioInfo* b) {
              return a->name < b->name;
            });
  return result;
}

const ScenarioInfo* find_scenario(const std::string& name) {
  const ScenarioInfo* prefix_match = nullptr;
  int prefix_matches = 0;
  for (const ScenarioInfo& s : registry()) {
    if (s.name == name) return &s;
    if (s.name.rfind(name, 0) == 0) {
      prefix_match = &s;
      ++prefix_matches;
    }
  }
  return prefix_matches == 1 ? prefix_match : nullptr;
}

void write_scenario_json(std::ostream& os, const std::string& name,
                         const ScenarioOptions& options,
                         const std::vector<RecordedTable>& tables) {
  os << "{\n";
  os << "  \"scenario\": " << json_string(name) << ",\n";
  os << "  \"options\": {\"runs\": " << options.runs
     << ", \"epsilon\": " << json_number(options.epsilon)
     << ", \"seed\": " << options.seed
     << ", \"mode\": " << json_string(options.full ? "full" : "smoke")
     << "},\n";
  os << "  \"tables\": [";
  for (std::size_t t = 0; t < tables.size(); ++t) {
    if (t > 0) os << ",";
    os << "\n    {\n      \"title\": " << json_string(tables[t].title)
       << ",\n      \"headers\": [";
    const TablePrinter& table = tables[t].table;
    for (std::size_t h = 0; h < table.headers().size(); ++h) {
      if (h > 0) os << ", ";
      os << json_string(table.headers()[h]);
    }
    os << "],\n      \"rows\": [";
    for (std::size_t r = 0; r < table.rows().size(); ++r) {
      if (r > 0) os << ",";
      os << "\n        [";
      const std::vector<Cell>& row = table.rows()[r];
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (c > 0) os << ", ";
        os << json_cell(row[c]);
      }
      os << "]";
    }
    os << (table.rows().empty() ? "]" : "\n      ]");
    os << "\n    }";
  }
  os << (tables.empty() ? "]" : "\n  ]");
  os << "\n}\n";
}

void parse_shard_value(const std::string& value, int* shard_index,
                       int* shard_count) {
  const std::size_t slash = value.find('/');
  bool ok = slash != std::string::npos && slash > 0 &&
            slash + 1 < value.size();
  int index = 0;
  int count = 0;
  if (ok) {
    try {
      std::size_t used = 0;
      index = std::stoi(value.substr(0, slash), &used);
      ok = used == slash;
      std::size_t used_count = 0;
      const std::string count_text = value.substr(slash + 1);
      count = std::stoi(count_text, &used_count);
      ok = ok && used_count == count_text.size();
    } catch (const std::exception&) {
      ok = false;
    }
  }
  require(ok, "--shard expects I/N (e.g. --shard 0/2), got: " + value);
  require(count >= 1, "--shard I/N requires N >= 1, got: " + value);
  require(index >= 0 && index < count,
          "--shard I/N requires 0 <= I < N, got: " + value);
  *shard_index = index;
  *shard_count = count;
}

double epsilon_flag(const Flags& flags) {
  const double epsilon = flags.get_double("eps", 0.08);
  require(epsilon > 0.0 && epsilon < 1.0,
          "--eps must lie in (0, 1), got: " + flags.get_string("eps", ""));
  return epsilon;
}

void apply_threads_flag(int threads) {
  if (threads <= 0) return;
  // Exported for child processes the run may spawn; the local pool is
  // sized explicitly below (the env var alone is read only at the pool's
  // first use, which may already have happened).
  ::setenv("TOPOBENCH_THREADS", std::to_string(threads).c_str(), 1);
  if (!set_parallel_slots(threads)) {
    // The pool serves one size per process: if a parallel region already
    // ran, honoring the flag is impossible — fail loudly instead of
    // silently computing at the old width.
    throw InvalidArgument(
        "--threads " + std::to_string(threads) +
        " cannot take effect: the thread pool already started with " +
        std::to_string(parallel_slots()) +
        " slots (pass --threads before the first parallel region)");
  }
}

ScenarioOptions parse_scenario_options(int argc, const char* const* argv) {
  const Flags flags(argc, argv, {"runs", "eps", "seed", "csv", "full", "smoke",
                                 "out", "threads", "cache-dir", "shard",
                                 "solver", "stripe"});
  require(!(flags.get_bool("full") && flags.get_bool("smoke")),
          "--full and --smoke are mutually exclusive");
  ScenarioOptions options;
  options.runs = flags.get_int("runs", 0);
  options.epsilon = epsilon_flag(flags);
  options.seed = flags.get_uint64("seed", 1);
  options.csv = flags.get_bool("csv");
  options.full = flags.get_bool("full");
  options.out_path = flags.get_string("out", "");
  options.cache_dir = flags.get_string("cache-dir", "");
  options.solver = flags.get_string("solver", "");
  require(options.solver.empty() || options.solver == "exact" ||
              options.solver == "approx",
          "--solver expects exact or approx, got: " + options.solver);
  options.stripe = flags.get_string("stripe", "");
  require(options.stripe.empty() || options.stripe == "round-robin" ||
              options.stripe == "range",
          "--stripe expects round-robin or range, got: " + options.stripe);
  if (const std::string shard = flags.get_string("shard", ""); !shard.empty()) {
    parse_shard_value(shard, &options.shard_index, &options.shard_count);
    require(options.shard_count == 1 || !options.cache_dir.empty(),
            "--shard requires --cache-dir: a shard's cells are published "
            "through the shared cache for the coordinator to merge");
  }
  apply_threads_flag(flags.get_int("threads", 0));
  return options;
}

int run_scenario(const std::string& name, const ScenarioOptions& options,
                 std::ostream& stream) {
  const ScenarioInfo* info = find_scenario(name);
  if (info == nullptr) {
    // Distinguish an ambiguous prefix from a genuinely unknown name.
    std::vector<const ScenarioInfo*> matches;
    for (const ScenarioInfo& s : registry()) {
      if (s.name.rfind(name, 0) == 0) matches.push_back(&s);
    }
    if (matches.size() > 1) {
      std::cerr << "ambiguous scenario prefix: " << name << " matches";
      for (const ScenarioInfo* s : matches) std::cerr << " " << s->name;
      std::cerr << "\n";
    } else {
      std::cerr << "unknown scenario: " << name
                << " (topobench --list shows all names)\n";
    }
    return kExitUsage;
  }
  ScenarioRun run(options, stream);
  info->run(run);
  if (!options.out_path.empty()) {
    std::ofstream out(options.out_path);
    if (!out) {
      std::cerr << "cannot write " << options.out_path << "\n";
      return kExitInternal;
    }
    write_scenario_json(out, info->name, options, run.tables());
  }
  return kExitOk;
}

int scenario_main(const std::string& name, int argc,
                  const char* const* argv) {
  register_builtin_scenarios();
  ScenarioOptions options;
  try {
    options = parse_scenario_options(argc, argv);
  } catch (const InvalidArgument& e) {
    std::cerr << e.what() << "\n";
    return kExitUsage;
  }
  try {
    return run_scenario(name, options, std::cout);
  } catch (const InvalidArgument& e) {
    // Flag values validated downstream (e.g. a flag a figure cannot
    // honour, or a spec field out of range) surface as a clean error, not
    // an abort.
    std::cerr << e.what() << "\n";
    return kExitUsage;
  } catch (const std::exception& e) {
    // Anything else is a bug or an environment failure, not a usage
    // error; keep the codes distinct so scripts can tell them apart.
    std::cerr << "internal error: " << e.what() << "\n";
    return kExitInternal;
  }
}

}  // namespace topo::scenario
