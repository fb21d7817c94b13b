// e2e_bench: the repository's end-to-end + per-layer benchmark.
//
//   e2e_bench --workload NAME --seconds S [--seed N] [--trace 0|1]
//             [--threads N] [--work DIR] [--git-rev REV]
//
// Sets the workload up three times (reporting the median as setup_s), then
// runs its batch jobs back to back for S seconds (BENCHMARK.json's
// run_seconds, which its caller passes). With --trace 0 it
// reports the end-to-end metrics of those jobs; with --trace 1 it follows
// every job with a traced replay and reports per-layer metrics instead.
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. A fuller record, with host context, goes to
// WORK/results/. See README.md for the workloads and every metric.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "replay.h"
#include "scenario/cache.h"
#include "trace.h"
#include "util/error.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/parallel.h"
#include "workloads.h"

namespace e2e {
namespace {

namespace fs = std::filesystem;

constexpr int kSetups = 3;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

volatile std::uint64_t g_calib_sink = 0;

// A fixed integer-LCG loop: its time tracks host speed, not this code.
double host_calib_ms() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < (std::uint64_t{1} << 27); ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  g_calib_sink = x;
  return static_cast<double>(now_ns() - t0) / 1e6;
}

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile of a sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

// The pinned seed-1 digests (expected.json) of job 0, by workload.
std::string expected_digest(const std::string& workload, std::uint64_t seed) {
  std::ifstream in(E2E_EXPECTED_FILE);
  std::stringstream text;
  text << in.rdbuf();
  const topo::JsonValue doc = topo::parse_json(text.str());
  if (static_cast<std::uint64_t>(doc.at("seed").number) != seed) return "";
  const topo::JsonValue* digest = doc.at("digests").find(workload);
  return digest != nullptr ? digest->text : "";
}

// Everything the traced replays of the timed jobs measured.
struct TraceTotals {
  int jobs = 0;
  std::map<std::string, std::vector<double>> layer_ms;
  std::vector<double> cell_ms;
  double root_ms = 0.0;
  double unattributed_ms = 0.0;
  Counters counters;
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
  double unattributed_cpu_s = 0.0;  ///< Replay CPU minus its layers' CPU.
  SpanLog first_job;  ///< Written to the trace file.

  void add(const ReplayOutcome& r) {
    const SpanSummary s = summarize_spans(r.log.spans());
    for (const auto& [name, calls] : s.layer_ms) {
      auto& all = layer_ms[name];
      all.insert(all.end(), calls.begin(), calls.end());
    }
    cell_ms.insert(cell_ms.end(), s.cell_ms.begin(), s.cell_ms.end());
    root_ms += s.root_ms;
    unattributed_ms += s.unattributed_ms;
    counters.add(r.counters);
    if (jobs == 0) first_job.append(r.log);
  }

  [[nodiscard]] std::vector<Metric> metrics() const {
    static const std::vector<double> kNoCalls;
    const auto durations = [&](const char* name) -> const std::vector<double>& {
      const auto it = layer_ms.find(name);
      return it == layer_ms.end() ? kNoCalls : it->second;
    };
    const auto total_ms = [&](const char* name) {
      const std::vector<double>& d = durations(name);
      return std::accumulate(d.begin(), d.end(), 0.0);
    };
    const auto calls = [&](const char* name) {
      return static_cast<double>(durations(name).size());
    };
    const double jobs_d = std::max(1, jobs);
    const auto per_job = [&](double v) { return v / jobs_d; };
    const auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    const auto mean_us = [&](const char* name) {
      return ratio(total_ms(name) * 1e3, calls(name));
    };
    const std::vector<double>& solves = durations("flow.solve");
    const Counters& c = counters;
    const double micro = c.micro_calls * 1e3;  // ns -> us per call
    const double samples = static_cast<double>(cell_ms.size());
    return {
        {"flow.solve_ms", per_job(total_ms("flow.solve")), "ms"},
        {"flow.solves", per_job(calls("flow.solve")), "count"},
        {"flow.phases", per_job(c.phases), "count"},
        {"flow.solve_p50_ms", median(solves), "ms"},
        {"flow.solve_max_ms", quantile(solves, 1.0), "ms"},
        {"flow.gap_max", c.gap_max, "ratio"},
        {"sim.setup_ms", per_job(total_ms("sim.setup")), "ms"},
        {"sim.run_ms", per_job(total_ms("sim.run")), "ms"},
        {"sim.events", per_job(c.sim_events), "count"},
        {"sim.events_per_s", ratio(c.sim_events, total_ms("sim.run") / 1e3),
         "1/s"},
        {"sim.drops", per_job(c.sim_drops), "count"},
        {"sim.routes", per_job(c.sim_routes), "count"},
        {"sim.pool_packets", c.sim_pool_max, "count"},
        {"sim.completed_ratio", ratio(c.fct_completed, c.fct_flows), "ratio"},
        {"cache.key_us", mean_us("cache.key"), "us"},
        {"cache.load_us", mean_us("cache.load"), "us"},
        {"cache.loads", per_job(c.cache_loads), "count"},
        {"cache.hit_ratio", ratio(c.cache_hits, c.cache_loads), "ratio"},
        {"cache.store_us", mean_us("cache.store"), "us"},
        {"cache.stores", per_job(c.cache_stores), "count"},
        {"cache.bytes", per_job(c.cache_bytes), "bytes"},
        {"topo.build_ms", per_job(total_ms("topo.build")), "ms"},
        {"topo.builds", per_job(calls("topo.build")), "count"},
        {"failure.apply_ms", per_job(total_ms("failure.apply")), "ms"},
        {"failure.applies", per_job(calls("failure.apply")), "count"},
        {"traffic.draw_ms", per_job(total_ms("traffic.draw")), "ms"},
        {"traffic.flows", per_job(c.traffic_flows), "count"},
        {"search.run_ms", per_job(total_ms("search.run")), "ms"},
        {"search.candidates", per_job(c.search_candidates), "count"},
        {"search.cells_computed", per_job(c.search_computed), "count"},
        {"search.memo_hit_ratio",
         ratio(c.search_memo_hits, c.search_memo_hits + c.search_computed),
         "ratio"},
        {"search.mutate_us", ratio(c.mutate_ns, micro), "us"},
        {"search.hash_us", ratio(c.hash_ns, micro), "us"},
        {"search.cost_us", ratio(c.cost_ns, micro), "us"},
        {"sweep.cell_p50_ms", median(cell_ms), "ms"},
        // p99 needs ten samples beyond it; below 1000 samples, the max.
        {"sweep.cell_p99_ms", quantile(cell_ms, samples >= 1000 ? 0.99 : 1.0),
         "ms"},
        {"sweep.cell_samples", samples, "count"},
        {"sweep.unattributed_cpu_s", per_job(unattributed_cpu_s), "s"},
        {"trace.overhead", ratio(traced_wall_s, untraced_wall_s) - 1.0,
         "ratio"},
        {"trace.coverage", 1.0 - ratio(unattributed_ms, root_ms), "ratio"},
    };
  }
};

// The per-layer metrics of work that warm_grid does only in set-up's cold
// fill: the store path and building a cell's inputs.
bool set_up_layer(const std::string& metric) {
  for (const char* prefix :
       {"cache.store", "cache.bytes", "topo.", "failure.", "traffic."}) {
    if (metric.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", " : "") + topo::json_string(metrics[i].name) +
           ": {\"value\": " + topo::json_number(metrics[i].value) +
           ", \"unit\": " + topo::json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string numbers_json(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + topo::json_number(values[i]);
  }
  return out + "]";
}

int run(int argc, char** argv) {
  const topo::Flags flags(argc, argv,
                          {"workload", "seed", "seconds", "trace", "threads",
                           "work", "git-rev"});
  const std::string name = flags.get_string("workload", "");
  const Workload* w = find_workload(name);
  if (w == nullptr) {
    std::cerr << "error: --workload must be one of:";
    for (const Workload& known : workloads()) std::cerr << ' ' << known.name;
    std::cerr << "\n";
    return 2;
  }
  const std::uint64_t seed = flags.get_uint64("seed", 1);
  topo::require(flags.has("seconds"), "--seconds is required");
  const double seconds = flags.get_double("seconds", 0.0);
  const int trace = flags.get_int("trace", 0);
  // One thread by default: on a shared host, multi-threaded job times
  // swing with the neighbours' load several times more than one thread's
  // do. --threads N records scaling.
  const int threads = flags.get_int("threads", 1);
  const fs::path work = flags.get_string("work", ".bench_build/e2e/work");
  const std::string git_rev = flags.get_string("git-rev", "unknown");
  topo::require(trace == 0 || trace == 1, "--trace must be 0 or 1");
  topo::require(seconds > 0.0, "--seconds must be positive");
  topo::require(threads >= 1 && topo::set_parallel_slots(threads),
                "--threads must be >= 1");

  const fs::path tmp = work / ("tmp-" + std::to_string(::getpid()));
  fs::create_directories(tmp);
  fs::create_directories(work / "results");
  fs::create_directories(work / "traces");
  const double calib_before = host_calib_ms();
  std::vector<std::string> errors;

  // Set-up, several times; the last one's state feeds the timed region.
  std::vector<double> setup_s;
  Prepared prepared;
  int attempted = 0;
  int failed = 0;
  for (int k = 0; k < kSetups; ++k) {
    const fs::path dir = tmp / ("setup-" + std::to_string(k));
    const std::int64_t t0 = now_ns();
    prepared = prepare(*w, E2E_SPEC_DIR, seed, dir.string(), &errors);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    attempted += prepared.cells;
    failed += prepared.failed_cells;
    if (k > 0) fs::remove_all(tmp / ("setup-" + std::to_string(k - 1)));
  }
  const std::string want_digest = expected_digest(w->name, seed);

  // warm_grid's set-up-side layers run only in the cold fill, so a traced
  // run replays the fill once, before the timed region, and takes those
  // layers' metrics from it; the warm passes give every other metric.
  const fs::path fill_dir = tmp / "replay-fill";
  TraceTotals fill;
  if (trace == 1 && w->kind == JobKind::kWarm) {
    const ReplayOutcome r =
        replay_sweep(*w, prepared.spec, job_seed(*w, seed, 0),
                     fill_dir.string(), prepared.fill_digest, &errors);
    fill.add(r);
    fill.jobs = 1;
    attempted += r.cells;
    failed += r.failed_cells;
  }

  // The timed region: one client submitting jobs back to back.
  std::vector<double> job_wall;
  std::vector<double> job_cpu;
  std::vector<std::string> digests;
  TraceTotals traced;
  const std::int64_t region_start = now_ns();
  for (int job = 0;
       job == 0 || static_cast<double>(now_ns() - region_start) / 1e9 < seconds;
       ++job) {
    const fs::path dir = tmp / ("job-" + std::to_string(job));
    const JobOutcome outcome =
        run_job(*w, prepared, seed, job, dir.string(), &errors);
    fs::remove_all(dir);
    job_wall.push_back(outcome.wall_s);
    job_cpu.push_back(outcome.cpu_s);
    digests.push_back(topo::scenario::hash_hex(outcome.digest));
    attempted += outcome.cells;
    failed += outcome.failed_cells;
    if (job == 0 && !want_digest.empty() && digests.back() != want_digest) {
      errors.push_back("job 0 digest " + digests.back() + " != pinned " +
                       want_digest);
      failed += outcome.cells - outcome.failed_cells;
    }
    if (trace == 0) continue;

    const std::uint64_t master = job_seed(*w, seed, job);
    const fs::path rdir = tmp / ("replay-" + std::to_string(job));
    const ReplayOutcome r =
        w->kind == JobKind::kSearch
            ? replay_search(*w, prepared.spec, master, rdir.string(),
                            outcome.search, &errors)
        : w->kind == JobKind::kWarm
            ? replay_sweep(*w, prepared.spec, master, fill_dir.string(),
                           prepared.fill_digest, &errors)
            : replay_sweep(*w, prepared.spec, master, rdir.string(),
                           outcome.digest, &errors);
    fs::remove_all(rdir);
    traced.add(r);
    attempted += r.cells;
    failed += r.failed_cells;
    traced.traced_wall_s += r.wall_s;
    traced.untraced_wall_s += outcome.wall_s;
    traced.unattributed_cpu_s += r.cpu_s - r.layer_cpu_s;
    ++traced.jobs;
  }
  fs::remove_all(tmp);
  const double calib_after = host_calib_ms();

  std::vector<Metric> metrics;
  if (trace == 0) {
    // Means, not medians: a job's time often flips between two host states
    // within one run, and the median then jumps between the two modes.
    const double wall = std::accumulate(job_wall.begin(), job_wall.end(), 0.0);
    const double cpu = std::accumulate(job_cpu.begin(), job_cpu.end(), 0.0);
    const double jobs = static_cast<double>(job_wall.size());
    metrics = {
        {"wall_s", wall / jobs, "s"},
        {"cells_per_s", job_cells(*w, prepared.spec) * jobs / wall, "cells/s"},
        {"cpu_s", cpu / jobs, "s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    metrics = traced.metrics();
    if (w->kind == JobKind::kWarm) {
      const std::vector<Metric> from_fill = fill.metrics();
      for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (set_up_layer(metrics[i].name)) metrics[i] = from_fill[i];
      }
    }
    const fs::path trace_file = work / "traces" / (name + ".trace.json");
    if (!write_trace_file(trace_file.string(), name,
                          traced.first_job.spans())) {
      errors.push_back("cannot write " + trace_file.string());
    }
  }

  const bool correct = errors.empty() && failed == 0;
  for (const std::string& e : errors) std::cerr << "check failed: " << e << "\n";

  std::ostringstream record;
  record << "{\n  \"workload\": " << topo::json_string(name)
         << ",\n  \"seed\": " << seed
         << ",\n  \"seconds\": " << topo::json_number(seconds)
         << ",\n  \"trace\": " << trace << ",\n  \"context\": {\"git_rev\": "
         << topo::json_string(git_rev)
         << ", \"compiler\": " << topo::json_string(__VERSION__)
         << ", \"build_type\": " << topo::json_string(E2E_BUILD_TYPE)
         << ", \"host_cores\": " << host_cores() << ", \"threads\": " << threads
         << ", \"host_calib_ms\": " << numbers_json({calib_before, calib_after})
         << "},\n  \"correct\": " << (correct ? "true" : "false")
         << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
         << ",\n  \"failed_frac\": "
         << topo::json_number(static_cast<double>(failed) / attempted);
  if (trace == 1) {
    const Counters& c = traced.counters;
    record << ",\n  \"uncertified_frac\": "
           << topo::json_number(
                  c.solver_cells > 0
                      ? static_cast<double>(c.uncertified) / c.solver_cells
                      : 0.0);
  }
  record << ",\n  \"setup_s\": " << numbers_json(setup_s)
         << ",\n  \"job_wall_s\": " << numbers_json(job_wall)
         << ",\n  \"job_cpu_s\": " << numbers_json(job_cpu)
         << ",\n  \"job_digests\": [";
  for (std::size_t j = 0; j < digests.size(); ++j) {
    record << (j > 0 ? ", " : "") << topo::json_string(digests[j]);
  }
  record << "],\n  \"metrics\": " << metrics_json(metrics) << "\n}\n";
  const fs::path result_file =
      work / "results" /
      (name + ".seed" + std::to_string(seed) + ".trace" +
       std::to_string(trace) + "." + std::to_string(::getpid()) + ".json");
  std::ofstream(result_file) << record.str();

  std::cout << "workload " << name << ", seed " << seed << ": "
            << job_wall.size() << " jobs, " << attempted << " cells, "
            << failed << " failed; host_calib_ms " << calib_before << " / "
            << calib_after << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << topo::json_number(m.value) << ' '
              << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
