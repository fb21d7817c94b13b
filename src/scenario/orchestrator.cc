#include "scenario/orchestrator.h"

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "scenario/cache.h"
#include "scenario/spec_io.h"
#include "scenario/sweep.h"
#include "util/error.h"
#include "util/exit_codes.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/subprocess.h"

namespace topo::scenario {
namespace {

using SteadyClock = std::chrono::steady_clock;

// One stripe's supervision state. A stripe is the unit of retry: its
// worker either finishes cleanly (kDone), or dies/stalls and is requeued
// until the attempt budget runs out (kFailed).
struct Stripe {
  enum class State { kQueued, kRunning, kDone, kFailed };

  int index = 0;
  State state = State::kQueued;
  int attempts = 0;  ///< Spawns so far (1 == first try).
  SteadyClock::time_point ready_at;  ///< Backoff gate for kQueued.
  std::optional<Subprocess> proc;
  std::string heartbeat_path;
  std::string log_path;  ///< Current attempt's combined stdout+stderr.
};

std::string shard_arg(int index, int count) {
  return std::to_string(index) + "/" + std::to_string(count);
}

// (Re)writes a stripe's heartbeat so supervision starts from spawn time,
// not from whenever the previous attempt last beat.
void touch_heartbeat(const std::string& path, int attempt) {
  std::ofstream out(path, std::ios::trunc);
  out << "spawned attempt " << attempt << "\n";
}

void write_manifest(const std::string& path, const OrchestratorConfig& config,
                    const ScenarioSpec& spec,
                    const std::vector<int>& failed_stripes,
                    const std::vector<MissingCell>& missing) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "orchestrate: cannot write manifest " << path << "\n";
    return;
  }
  out << "{\n  \"spec\": " << json_string(spec.name) << ",\n"
      << "  \"spec_path\": " << json_string(config.spec_path) << ",\n"
      << "  \"cache_dir\": " << json_string(config.cache_dir) << ",\n"
      << "  \"stripes\": " << config.workers << ",\n"
      << "  \"failed_stripes\": [";
  for (std::size_t i = 0; i < failed_stripes.size(); ++i) {
    if (i > 0) out << ", ";
    out << failed_stripes[i];
  }
  out << "],\n  \"missing_cells\": [";
  for (std::size_t i = 0; i < missing.size(); ++i) {
    const MissingCell& cell = missing[i];
    out << (i > 0 ? "," : "") << "\n    {\"point\": " << cell.point
        << ", \"run\": " << cell.run << ", \"coords\": [";
    for (std::size_t c = 0; c < cell.coords.size(); ++c) {
      if (c > 0) out << ", ";
      out << json_number(cell.coords[c]);
    }
    out << "], \"key\": " << json_string(hash_hex(cell.key)) << "}";
  }
  out << (missing.empty() ? "]" : "\n  ]") << "\n}\n";
}

}  // namespace

OrchestrationReport orchestrate(const OrchestratorConfig& config,
                                const ScenarioSpec& spec,
                                ScenarioRun& merge_ctx) {
  require(!config.worker_exe.empty(), "orchestrate: worker_exe is required");
  require(!config.spec_path.empty(), "orchestrate: spec_path is required");
  require(!config.cache_dir.empty(), "orchestrate: cache_dir is required");
  require(config.workers >= 1, "orchestrate: workers must be >= 1");
  require(config.max_retries >= 0, "orchestrate: max_retries must be >= 0");
  require(config.worker_timeout > 0,
          "orchestrate: worker_timeout must be positive");
  require(config.backoff_ms >= 0, "orchestrate: backoff must be >= 0");

  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(config.cache_dir + "/heartbeats", ec);
  fs::create_directories(config.cache_dir + "/logs", ec);
  require(!ec, "orchestrate: cannot create " + config.cache_dir +
                   " subdirectories");

  const int stripes = config.workers;
  const auto timeout = std::chrono::duration<double>(config.worker_timeout);

  std::vector<Stripe> table(static_cast<std::size_t>(stripes));
  for (int i = 0; i < stripes; ++i) {
    table[static_cast<std::size_t>(i)].index = i;
    table[static_cast<std::size_t>(i)].ready_at = SteadyClock::now();
    table[static_cast<std::size_t>(i)].heartbeat_path =
        config.cache_dir + "/heartbeats/shard-" + std::to_string(i);
  }

  OrchestrationReport report;

  const auto describe = [](const Subprocess::Status& status) {
    if (status.state == Subprocess::Status::State::kSignaled) {
      return "killed by signal " + std::to_string(status.term_signal);
    }
    return "exited " + std::to_string(status.exit_code);
  };

  // Failure path shared by crash and stall: requeue with exponential
  // backoff while budget remains, else mark the stripe dead. The cache
  // keeps every cell a dead attempt DID publish, so the next attempt
  // resumes where its predecessor stopped instead of starting over.
  const auto handle_failure = [&](Stripe& stripe, const std::string& why) {
    stripe.proc.reset();
    if (stripe.attempts > config.max_retries) {
      stripe.state = Stripe::State::kFailed;
      std::cerr << "orchestrate: shard " << shard_arg(stripe.index, stripes)
                << " " << why << " on attempt " << stripe.attempts
                << "; retries exhausted (" << config.max_retries
                << " allowed), stripe abandoned (last log: "
                << stripe.log_path << ")\n";
      return;
    }
    const int exponent = std::min(stripe.attempts - 1, 20);
    const long delay_ms = std::min(
        static_cast<long>(config.backoff_ms) * (1L << exponent), 60'000L);
    stripe.state = Stripe::State::kQueued;
    stripe.ready_at =
        SteadyClock::now() + std::chrono::milliseconds(delay_ms);
    ++report.total_retries;
    std::cerr << "orchestrate: shard " << shard_arg(stripe.index, stripes)
              << " " << why << " on attempt " << stripe.attempts
              << "; retrying in " << delay_ms << "ms\n";
  };

  const auto spawn = [&](Stripe& stripe) {
    ++stripe.attempts;
    touch_heartbeat(stripe.heartbeat_path, stripe.attempts);
    stripe.log_path = config.cache_dir + "/logs/shard-" +
                      std::to_string(stripe.index) + ".attempt-" +
                      std::to_string(stripe.attempts) + ".log";
    std::vector<std::string> argv = {
        config.worker_exe, "--spec",      config.spec_path,
        "--shard",         shard_arg(stripe.index, stripes),
        "--cache-dir",     config.cache_dir};
    argv.insert(argv.end(), config.worker_flags.begin(),
                config.worker_flags.end());
    SpawnOptions options;
    options.env = config.worker_env;
    options.env.emplace_back(kHeartbeatEnvVar, stripe.heartbeat_path);
    options.log_path = stripe.log_path;
    stripe.proc = Subprocess::spawn(argv, options);
    stripe.state = Stripe::State::kRunning;
    std::cerr << "orchestrate: spawned shard "
              << shard_arg(stripe.index, stripes) << " (attempt "
              << stripe.attempts << ", pid " << stripe.proc->pid()
              << ", log " << stripe.log_path << ")\n";
  };

  // Supervision loop: poll every worker, reap/requeue failures, kill
  // heartbeat-silent workers, start queued stripes whose backoff has
  // elapsed. One worker per stripe means `stripes` is also the
  // concurrency bound.
  while (true) {
    int settled = 0;
    int running = 0;
    for (Stripe& stripe : table) {
      if (stripe.state == Stripe::State::kDone ||
          stripe.state == Stripe::State::kFailed) {
        ++settled;
        continue;
      }
      if (stripe.state != Stripe::State::kRunning) continue;
      ++running;
      const Subprocess::Status status = stripe.proc->poll();
      if (status.ok()) {
        stripe.state = Stripe::State::kDone;
        stripe.proc.reset();
        --running;
        std::cerr << "orchestrate: shard " << shard_arg(stripe.index, stripes)
                  << " done (attempt " << stripe.attempts << ")\n";
        continue;
      }
      if (!status.running()) {
        --running;
        handle_failure(stripe, describe(status));
        continue;
      }
      // Liveness: mtime silence beyond the timeout means wedged, not
      // slow — the sweep beats per CELL, so any forward progress
      // refreshes it. Compare in the filesystem clock's own domain; a
      // missing heartbeat file (deleted externally) counts as stale.
      const auto written = fs::last_write_time(stripe.heartbeat_path, ec);
      const bool stale =
          ec || (fs::file_time_type::clock::now() - written >
                 std::chrono::duration_cast<fs::file_time_type::duration>(
                     timeout));
      if (stale) {
        ++report.stall_kills;
        --running;
        std::cerr << "orchestrate: shard " << shard_arg(stripe.index, stripes)
                  << " heartbeat silent past " << config.worker_timeout
                  << "s; killing pid " << stripe.proc->pid() << "\n";
        stripe.proc->send_signal(SIGKILL);
        stripe.proc->wait();
        handle_failure(stripe, "stalled (heartbeat timeout)");
      }
    }
    if (settled == stripes) break;
    for (Stripe& stripe : table) {
      if (running >= config.workers) break;
      if (stripe.state == Stripe::State::kQueued &&
          stripe.ready_at <= SteadyClock::now()) {
        spawn(stripe);
        ++running;
      }
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config.poll_interval_ms));
  }

  for (const Stripe& stripe : table) {
    if (stripe.state == Stripe::State::kFailed) {
      report.failed_stripes.push_back(stripe.index);
    }
  }

  // Coordinator merge, in-process. Healthy path: a plain unsharded warm
  // run — cache hits for everything the workers published, inline
  // recompute for any stragglers — so stdout/CSV/JSON are byte-identical
  // to a single-process run by construction. Degraded path: merge_only,
  // which reduces the complete points and NAMES the missing cells
  // instead of recomputing a dead stripe's workload inline.
  const bool degraded = !report.failed_stripes.empty();
  const SweepResult merged = run_spec_scenario(spec, merge_ctx, degraded);
  report.merge_cache_hits = merged.cache_hits;
  report.merge_cache_misses = merged.cache_misses;
  if (degraded) {
    report.missing_cells = merged.missing.size();
    report.manifest_path = config.cache_dir + "/missing-cells.json";
    write_manifest(report.manifest_path, config, spec, report.failed_stripes,
                   merged.missing);
    report.exit_code = kExitPartial;
    std::cerr << "orchestrate: PARTIAL RESULTS: "
              << report.failed_stripes.size() << " of " << stripes
              << " stripes exhausted retries; " << merged.missing.size()
              << " cells missing, " << merged.points.size()
              << " complete points emitted (manifest: "
              << report.manifest_path << ")\n";
  } else {
    std::cerr << "orchestrate: all " << stripes
              << " stripes complete (retries: " << report.total_retries
              << ", stall kills: " << report.stall_kills << "); merge "
              << merged.cache_hits << " hits, " << merged.cache_misses
              << " misses\n";
  }
  return report;
}

int orchestrate_main(const std::string& self_exe, int argc,
                     const char* const* argv) {
  register_builtin_scenarios();
  try {
    const Flags flags(argc, argv,
                      {"spec", "cache-dir", "workers", "max-retries",
                       "worker-timeout", "backoff", "runs", "eps", "seed",
                       "stripe", "csv", "full", "smoke", "out", "threads"});
    OrchestratorConfig config;
    config.worker_exe = self_exe;
    config.spec_path = flags.get_string("spec", "");
    require(!config.spec_path.empty(), "orchestrate requires --spec FILE");
    config.cache_dir = flags.get_string("cache-dir", "");
    require(!config.cache_dir.empty(),
            "orchestrate requires --cache-dir DIR (workers publish their "
            "stripes through it)");
    config.workers = flags.get_int("workers", 2);
    require(config.workers >= 1 && config.workers <= 512,
            "--workers wants 1..512");
    config.max_retries = flags.get_int("max-retries", 2);
    require(config.max_retries >= 0, "--max-retries must be >= 0");
    config.worker_timeout = flags.get_double("worker-timeout", 300.0);
    require(config.worker_timeout > 0, "--worker-timeout must be positive");
    config.backoff_ms = flags.get_int("backoff", 500);
    require(config.backoff_ms >= 0, "--backoff must be >= 0");
    // Forwarded verbatim below; checked here so every worker need not
    // fail on it.
    (void)epsilon_flag(flags);

    // Chaos plumbing: a TOPOBENCH_FAULT in our environment is meant for
    // the supervised workers, never the supervisor — an armed fault in
    // this process would crash or stall the coordinator merge itself.
    // Move it: forward to worker environments, scrub it from ours.
    if (const char* fault_env = std::getenv(fault::kFaultEnvVar);
        fault_env != nullptr && fault_env[0] != '\0') {
      config.worker_env.emplace_back(fault::kFaultEnvVar, fault_env);
      ::unsetenv(fault::kFaultEnvVar);
    }

    // Fail fast on a bad spec before any worker spawns (the workers
    // would each reject it identically, attempt by pointless attempt).
    const ScenarioSpec spec = load_spec_file(config.spec_path);

    // Grid-shape flags forward to workers verbatim; output-shape flags
    // (--csv/--out) stay with the in-process merge. Both views resolve
    // from ONE parse so workers and coordinator cannot disagree.
    // --stripe rides along too: it only changes which shard computes
    // which cells, so the unsharded merge is unaffected either way.
    for (const char* name : {"runs", "eps", "seed", "stripe"}) {
      if (flags.has(name)) {
        config.worker_flags.push_back(std::string("--") + name + "=" +
                                      flags.get_string(name, ""));
      }
    }
    for (const char* name : {"full", "smoke"}) {
      if (flags.get_bool(name)) {
        config.worker_flags.push_back(std::string("--") + name);
      }
    }
    std::vector<std::string> merge_args = {"orchestrate-merge"};
    merge_args.insert(merge_args.end(), config.worker_flags.begin(),
                      config.worker_flags.end());
    merge_args.push_back("--cache-dir=" + config.cache_dir);
    for (const char* name : {"out", "threads"}) {
      if (flags.has(name)) {
        merge_args.push_back(std::string("--") + name + "=" +
                             flags.get_string(name, ""));
      }
    }
    if (flags.get_bool("csv")) merge_args.push_back("--csv");
    std::vector<const char*> merge_argv;
    merge_argv.reserve(merge_args.size());
    for (const std::string& arg : merge_args) {
      merge_argv.push_back(arg.c_str());
    }
    // Parsed up front so a bad pass-through value (or an impossible
    // --threads) fails before any worker spawns; --threads also exports
    // TOPOBENCH_THREADS here, which the workers inherit.
    const ScenarioOptions options = parse_scenario_options(
        static_cast<int>(merge_argv.size()), merge_argv.data());

    ScenarioRun run(options, std::cout);
    const OrchestrationReport report = orchestrate(config, spec, run);
    if (!options.out_path.empty()) {
      std::ofstream out(options.out_path);
      if (!out) {
        std::cerr << "cannot write " << options.out_path << "\n";
        return kExitInternal;
      }
      write_scenario_json(out, spec.name, options, run.tables());
    }
    return report.exit_code;
  } catch (const InvalidArgument& e) {
    std::cerr << e.what() << "\n";
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "orchestrate: internal error: " << e.what() << "\n";
    return kExitInternal;
  }
}

}  // namespace topo::scenario
