#include "workloads.h"

#include <sys/resource.h>

#include <cmath>
#include <exception>
#include <sstream>

#include "scenario/cache.h"
#include "scenario/spec_io.h"
#include "trace.h"
#include "util/json.h"
#include "util/rng.h"

namespace e2e {

using topo::scenario::ScenarioSpec;
using topo::scenario::SweepPointResult;
using topo::scenario::SweepResult;
using topo::scenario::SweepRunConfig;
using topo::scenario::SweepRunner;

const std::vector<Workload>& workloads() {
  // Why each workload exists: README.md ("Workloads").
  static const std::vector<Workload> all = {
      {"flow_exact", JobKind::kSweep, 1},
      {"search_approx", JobKind::kSearch, 2},
      {"packet_bulk", JobKind::kSweep, 2},
      {"fct_incast", JobKind::kSweep, 2},
      {"warm_grid", JobKind::kWarm, 40},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t job_seed(const Workload& w, std::uint64_t seed, int job) {
  return topo::Rng::derive_seed(
      seed, w.kind == JobKind::kWarm ? 0 : static_cast<std::uint64_t>(job));
}

int job_cells(const Workload& w, const ScenarioSpec& spec) {
  if (w.kind == JobKind::kSearch) {
    return spec.search.restarts *
           (1 + spec.search.budget * spec.search.population) * w.runs;
  }
  int points = 1;
  for (const auto& axis : spec.axes) {
    points *= static_cast<int>(axis.values.size());
  }
  return points * w.runs;
}

SweepRunConfig sweep_config(const Workload& w, std::uint64_t master_seed,
                            const std::string& cache_dir) {
  SweepRunConfig config;
  config.runs = w.runs;
  config.epsilon = kEpsilon;
  config.master_seed = master_seed;
  config.cache_dir = cache_dir;
  return config;
}

topo::search::SearchDriverOptions search_options(const Workload& w,
                                                 std::uint64_t master_seed,
                                                 const std::string& cache_dir) {
  topo::search::SearchDriverOptions options;
  options.runs = w.runs;
  options.epsilon = kEpsilon;
  options.master_seed = master_seed;
  options.cache_dir = cache_dir;
  return options;
}

namespace {

// Every Summary the reduction produces, in a fixed order.
std::vector<const topo::Summary*> summaries(const topo::ExperimentStats& s) {
  return {&s.lambda,      &s.utilization,      &s.inverse_spl,
          &s.inverse_stretch, &s.dual_bound,   &s.packet_mean,
          &s.packet_p05,  &s.fct_p50,          &s.fct_p95,
          &s.fct_p99,     &s.fct_goodput,      &s.fct_slowdown_p50,
          &s.fct_slowdown_p99};
}

}  // namespace

std::uint64_t points_digest(const std::vector<SweepPointResult>& points) {
  std::ostringstream out;
  for (const SweepPointResult& point : points) {
    for (double c : point.coords) out << topo::json_number(c) << ',';
    for (const topo::Summary* s : summaries(point.stats)) {
      out << topo::json_number(s->mean) << ',' << topo::json_number(s->stdev)
          << ',' << topo::json_number(s->min) << ','
          << topo::json_number(s->max) << ',' << s->count << ';';
    }
    out << point.stats.infeasible_runs << ',' << point.stats.packet_sim_runs
        << ',' << point.stats.fct_runs << '\n';
  }
  return topo::scenario::fnv1a64(out.str());
}

int check_points(const std::vector<SweepPointResult>& points, int runs,
                 std::vector<std::string>* errors) {
  int failed = 0;
  for (const SweepPointResult& point : points) {
    bool ok = true;
    for (const topo::Summary* s : summaries(point.stats)) {
      ok = ok && std::isfinite(s->mean) && std::isfinite(s->stdev) &&
           std::isfinite(s->min) && std::isfinite(s->max);
    }
    const topo::ExperimentStats& st = point.stats;
    ok = ok && st.lambda.min >= 0.0 && st.lambda.mean <= st.dual_bound.mean;
    if (!ok) {
      failed += runs;
      std::ostringstream msg;
      msg << "point";
      for (double c : point.coords) msg << ' ' << c;
      msg << ": non-finite summary or lambda outside [0, dual bound] (lambda "
          << st.lambda.mean << ", dual " << st.dual_bound.mean << ")";
      errors->push_back(msg.str());
    }
  }
  return failed;
}

bool check_search(const ScenarioSpec& spec,
                  const topo::search::SearchResult& result,
                  std::vector<std::string>* errors) {
  const std::size_t expected = static_cast<std::size_t>(
      spec.search.restarts * (1 + spec.search.budget * spec.search.population));
  bool ok = true;
  if (result.trace.size() != expected) {
    errors->push_back("search trace has " +
                      std::to_string(result.trace.size()) + " records, want " +
                      std::to_string(expected));
    ok = false;
  }
  for (const auto& record : result.trace) {
    if (!std::isfinite(record.lambda) || !std::isfinite(record.objective) ||
        record.lambda < 0.0) {
      errors->push_back("search record " + record.candidate +
                        " has a non-finite or negative value");
      ok = false;
      break;
    }
  }
  if (!(result.best.objective >= result.baseline.objective)) {
    errors->push_back("search best objective is below the baseline's");
    ok = false;
  }
  return ok;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

Prepared prepare(const Workload& w, const std::string& spec_dir,
                 std::uint64_t seed, const std::string& cache_dir,
                 std::vector<std::string>* errors) {
  Prepared prepared;
  prepared.spec = topo::scenario::load_spec_file(spec_dir + "/" + w.name + ".json");
  // warm_grid's fill is a cold sweep job: every cell a miss.
  const bool warm = w.kind == JobKind::kWarm;
  const Workload cold{w.name, warm ? JobKind::kSweep : w.kind, w.runs};
  const JobOutcome job =
      warm ? run_job(cold, prepared, seed, 0, cache_dir, errors)
           : run_job(cold, prepared, kWarmupSeed, kWarmupJob, cache_dir, errors);
  prepared.fill_dir = cache_dir;
  prepared.fill_digest = job.digest;
  prepared.cells = job.cells;
  prepared.failed_cells = job.failed_cells;
  return prepared;
}

JobOutcome run_job(const Workload& w, const Prepared& prepared,
                   std::uint64_t seed, int job, const std::string& cache_dir,
                   std::vector<std::string>* errors) {
  JobOutcome out;
  out.cells = job_cells(w, prepared.spec);
  const std::uint64_t master = job_seed(w, seed, job);
  try {
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    if (w.kind == JobKind::kSearch) {
      const auto options = search_options(w, master, cache_dir);
      out.search = topo::search::run_search(prepared.spec, options);
      out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
      out.cpu_s = process_cpu_s() - cpu0;
      out.digest = topo::scenario::fnv1a64(
          topo::search::search_trace_json(prepared.spec, options, out.search));
      if (!check_search(prepared.spec, out.search, errors)) {
        out.failed_cells = out.cells;
      }
      return out;
    }
    const bool warm = w.kind == JobKind::kWarm;
    const SweepResult result =
        SweepRunner(prepared.spec,
                    sweep_config(w, master, warm ? prepared.fill_dir : cache_dir))
            .run();
    out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    out.cpu_s = process_cpu_s() - cpu0;
    out.digest = points_digest(result.points);
    out.failed_cells = check_points(result.points, w.runs, errors);
    const int want_hits = warm ? out.cells : 0;
    if (result.cache_hits != want_hits ||
        result.cache_misses != out.cells - want_hits) {
      errors->push_back("job " + std::to_string(job) + ": " +
                        std::to_string(result.cache_hits) + " hits, " +
                        std::to_string(result.cache_misses) + " misses, want " +
                        std::to_string(want_hits) + " hits");
      out.failed_cells = out.cells;
    }
    if (warm && out.digest != prepared.fill_digest) {
      errors->push_back("warm output differs from the cold fill");
      out.failed_cells = out.cells;
    }
  } catch (const std::exception& e) {
    errors->push_back("job " + std::to_string(job) + " raised: " + e.what());
    out.failed_cells = out.cells;
  }
  return out;
}

}  // namespace e2e
