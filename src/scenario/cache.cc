#include "scenario/cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string_view>
#include <thread>

#include "scenario/spec_io.h"
#include "util/cleanup.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/json.h"

namespace topo::scenario {
namespace {

// The scalar result fields a cached cell persists, in serialization
// order. summarize_runs reads lambda/dual_bound/feasible/utilization/
// demand_weighted_spl/stretch; the rest keep the cell a faithful record.
std::string result_json(const ThroughputResult& r) {
  std::ostringstream out;
  out << "{\"lambda\": " << json_number(r.lambda)
      << ", \"dual_bound\": " << json_number(r.dual_bound)
      << ", \"gap\": " << json_number(r.gap)
      << ", \"feasible\": " << (r.feasible ? "true" : "false")
      << ", \"phases\": " << r.phases
      << ", \"utilization\": " << json_number(r.utilization)
      << ", \"mean_routed_path_length\": "
      << json_number(r.mean_routed_path_length)
      << ", \"demand_weighted_spl\": " << json_number(r.demand_weighted_spl)
      << ", \"stretch\": " << json_number(r.stretch)
      << ", \"total_demand\": " << json_number(r.total_demand);
  // Packet co-simulation scalars ride along only when the cell ran one,
  // so flow-only cells keep their historical bytes (and checksums).
  if (r.packet_sim_run) {
    out << ", \"packet_mean\": " << json_number(r.packet_mean_normalized)
        << ", \"packet_p05\": " << json_number(r.packet_p05_normalized)
        << ", \"packet_min\": " << json_number(r.packet_min_normalized)
        << ", \"packet_retransmits\": " << json_number(r.packet_retransmits)
        << ", \"packet_drops\": " << json_number(r.packet_drops);
  }
  // Same pattern for the finite-flow workload block.
  if (r.fct_run) {
    out << ", \"fct_p50\": " << json_number(r.fct_p50_ns)
        << ", \"fct_p95\": " << json_number(r.fct_p95_ns)
        << ", \"fct_p99\": " << json_number(r.fct_p99_ns)
        << ", \"fct_mean\": " << json_number(r.fct_mean_ns)
        << ", \"fct_goodput\": " << json_number(r.fct_goodput)
        << ", \"fct_flows\": " << json_number(r.fct_flows)
        << ", \"fct_completed\": " << json_number(r.fct_completed)
        << ", \"fct_slowdown_p50\": " << json_number(r.fct_slowdown_p50)
        << ", \"fct_slowdown_p99\": " << json_number(r.fct_slowdown_p99);
  }
  out << "}";
  return out.str();
}

// Appends each piece to `out`: text as-is, integers in decimal (the bytes
// an ostream writes for them).
void append_piece(std::string& out, std::string_view text) { out += text; }

template <std::integral Integer>
void append_piece(std::string& out, Integer value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

template <typename... Pieces>
void append(std::string& out, const Pieces&... pieces) {
  (append_piece(out, pieces), ...);
}

// Strict inverse of result_json: every field present with the right
// type, exactly the known keys. Throws InvalidArgument on any mismatch
// (the loader converts that into a miss).
ThroughputResult result_from_json(const JsonValue& object) {
  require(object.is_object(), "cache cell: result must be an object");
  static constexpr std::string_view kKnown[] = {
      "lambda",      "dual_bound",  "gap",
      "feasible",    "phases",      "utilization",
      "mean_routed_path_length",    "demand_weighted_spl",
      "stretch",     "total_demand",
      "packet_mean", "packet_p05",  "packet_min",
      "packet_retransmits",         "packet_drops",
      "fct_p50",     "fct_p95",     "fct_p99",
      "fct_mean",    "fct_goodput", "fct_flows",
      "fct_completed",              "fct_slowdown_p50",
      "fct_slowdown_p99"};
  for (const auto& [key, value] : object.members) {
    (void)value;
    if (std::find(std::begin(kKnown), std::end(kKnown), key) ==
        std::end(kKnown)) {
      throw InvalidArgument("cache cell: unknown result key " + key);
    }
  }
  const auto number = [&](const char* key) {
    const JsonValue& value = object.at(key);
    if (!value.is_number()) {
      throw InvalidArgument(std::string("cache cell: ") + key);
    }
    return value.number;
  };
  ThroughputResult r;
  r.lambda = number("lambda");
  r.dual_bound = number("dual_bound");
  r.gap = number("gap");
  const JsonValue& feasible = object.at("feasible");
  require(feasible.is_bool(), "cache cell: feasible");
  r.feasible = feasible.boolean;
  // The file is untrusted and read before its checksum is checked: only
  // an integral count that fits an int may reach the cast.
  const double phases = number("phases");
  constexpr double kMaxPhases = std::numeric_limits<int>::max();
  require(phases >= 0.0 && phases <= kMaxPhases &&
              phases == std::floor(phases),
          "cache cell: phases must be an integer in [0, INT_MAX]");
  r.phases = static_cast<int>(phases);
  r.utilization = number("utilization");
  r.mean_routed_path_length = number("mean_routed_path_length");
  r.demand_weighted_spl = number("demand_weighted_spl");
  r.stretch = number("stretch");
  r.total_demand = number("total_demand");
  // The five packet keys travel as a block: presence of the first means
  // the cell ran a packet co-simulation, and the strict `number` lookups
  // then require the rest (a partial block fails the load into a miss).
  if (object.find("packet_mean") != nullptr) {
    r.packet_sim_run = true;
    r.packet_mean_normalized = number("packet_mean");
    r.packet_p05_normalized = number("packet_p05");
    r.packet_min_normalized = number("packet_min");
    r.packet_retransmits = number("packet_retransmits");
    r.packet_drops = number("packet_drops");
  }
  // The FCT keys travel as a block keyed on fct_p50 the same way.
  if (object.find("fct_p50") != nullptr) {
    r.fct_run = true;
    r.fct_p50_ns = number("fct_p50");
    r.fct_p95_ns = number("fct_p95");
    r.fct_p99_ns = number("fct_p99");
    r.fct_mean_ns = number("fct_mean");
    r.fct_goodput = number("fct_goodput");
    r.fct_flows = number("fct_flows");
    r.fct_completed = number("fct_completed");
    r.fct_slowdown_p50 = number("fct_slowdown_p50");
    r.fct_slowdown_p99 = number("fct_slowdown_p99");
  }
  return r;
}

}  // namespace

std::uint64_t fnv1a64(const std::string& bytes, std::uint64_t basis) {
  std::uint64_t hash = basis;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string hash_hex(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::uint64_t spec_hash(const ScenarioSpec& spec,
                        const SweepRunConfig& config) {
  std::string material = spec_to_json(spec);
  material += "|seed=" + std::to_string(config.master_seed);
  material += "|eps=" + json_number(config.epsilon);
  material += "|runs=" + std::to_string(config.runs);
  material += std::string("|mode=") + (config.full ? "full" : "smoke");
  material += std::string("|solver=") + kSolverVersionTag;
  // Solver-mode material joins only when something selects approx (the
  // override, or the spec's own solver field — already in the spec JSON
  // but the approx tag is not), so every historical exact-mode hash is
  // unchanged.
  if (!config.solver_override.empty()) {
    material += "|solver_mode=" + config.solver_override;
  }
  if (spec.solver == SolverMode::kApprox ||
      config.solver_override == "approx") {
    material += std::string("|approx=") + kSolverApproxVersionTag;
  }
  // Search material joins only when the spec carries a search block (the
  // block itself is already in the spec JSON; the version tag is not), so
  // every legacy spec hash is unchanged.
  if (spec.search.enabled) {
    material += std::string("|search=") + kSearchVersionTag;
  }
  return fnv1a64(material);
}

std::string cell_identity_json(const CellIdentity& cell) {
  std::string out;
  append(out, "{\"family\": ", json_string(cell.family), ", \"params\": {");
  bool first = true;
  for (const auto& [key, value] : cell.params) {  // std::map: sorted, canonical
    if (!first) out += ", ";
    first = false;
    append(out, json_string(key), ": ", json_number(value));
  }
  const EvalOptions& options = cell.options;
  append(out, "}, \"epsilon\": ", json_number(options.flow.epsilon),
         ", \"max_phases\": ", options.flow.max_phases,
         ", \"stagnation_phases\": ", options.flow.stagnation_phases,
         ", \"dual_every\": ", options.flow.dual_every,
         ", \"shortest_paths\": ",
         (options.flow.restrict_to_shortest_paths ? "true" : "false"));
  // The approximate-solver block joins the identity only in approx mode,
  // so every exact-mode cell — including every cell written before the
  // mode existed — keeps its address, while flipping to approx (or
  // turning any approx knob, or bumping the approx tag) perturbs the key.
  if (options.flow.mode == SolverMode::kApprox) {
    append(out, ", \"solver_mode\": \"approx\", \"approx_stale\": ",
           json_number(options.flow.approx_stale_factor),
           ", \"approx_round\": ", options.flow.approx_round_size,
           ", \"approx\": ", json_string(kSolverApproxVersionTag));
  }
  append(out, ", \"traffic\": ",
         json_string(traffic_kind_name(options.traffic)),
         ", \"chunky_fraction\": ", json_number(options.chunky_fraction));
  // Kind-specific traffic knobs join the identity only for their kind, so
  // every pre-existing (permutation/all_to_all/chunky) cell keeps its
  // address while any hotspot/stride knob perturbs the key.
  if (options.traffic == TrafficKind::kHotspot) {
    append(out, ", \"hot_fraction\": ", json_number(options.hot_fraction),
           ", \"hot_multiplier\": ", json_number(options.hot_multiplier));
  }
  if (options.traffic == TrafficKind::kStride) {
    append(out, ", \"stride\": ", options.stride);
  }
  append(out, ", \"failure\": {\"link\": ",
         json_number(options.failure.uniform.link_fraction), ", \"switch\": ",
         json_number(options.failure.uniform.switch_fraction),
         ", \"capacity\": ", json_number(options.failure.capacity_factor));
  // Newer failure components join the identity only when set, so cells
  // written before they existed (and uniform-only cells today) keep their
  // addresses, while any new failure parameter perturbs the key.
  const FailureSpec& failure = options.failure;
  if (failure.correlated.epicenter_fraction != 0.0 ||
      failure.correlated.peer_probability != 0.0) {
    append(out, ", \"blast\": ",
           json_number(failure.correlated.epicenter_fraction),
           ", \"blast_p\": ", json_number(failure.correlated.peer_probability));
  }
  if (!failure.per_class.switch_fraction.empty()) {
    out += ", \"per_class\": {";
    bool first_class = true;
    for (const auto& [klass, fraction] : failure.per_class.switch_fraction) {
      if (!first_class) out += ", ";
      first_class = false;
      append(out, json_string(klass), ": ", json_number(fraction));
    }
    out += "}";
  }
  if (failure.targeted.link_cuts != 0) {
    append(out, ", \"targeted\": ", failure.targeted.link_cuts);
  }
  out += "}";
  // Like the newer failure components: the packet-sim section joins the
  // identity only when enabled, so every flow-only cell (including all
  // cells written before packet co-simulation existed) keeps its
  // address, while any packet knob perturbs the key.
  if (options.packet_sim.enabled) {
    const sim::SimParams& p = options.packet_sim.params;
    append(out, ", \"packet_sim\": {\"subflows\": ", p.subflows,
           ", \"queue\": ", p.queue_packets, ", \"bytes\": ", p.packet_bytes,
           ", \"duration\": ", p.duration_ns, ", \"warmup\": ", p.warmup_ns,
           ", \"jitter\": ", p.start_jitter_ns, ", \"delay\": ",
           p.link_delay_ns, ", \"rate\": ", json_number(p.server_rate_gbps),
           ", \"ewtcp\": ", (p.ewtcp_coupling ? "true" : "false"),
           ", \"route_mode\": ", json_string(route_mode_name(p.route_mode)),
           ", \"sim\": ", json_string(kPacketSimVersionTag));
    // The workload sub-block joins only for FCT cells, so every bulk
    // packet-sim cell written before finite-flow workloads existed keeps
    // its address.
    if (options.packet_sim.fct.enabled) {
      append(out, ", \"workload\": {\"cdf\": ",
             json_string(options.packet_sim.fct.cdf), ", \"load\": ",
             json_number(options.packet_sim.fct.load));
      // The incast knobs join only for the incast pattern, so every
      // uniform-pattern workload cell written before incast existed
      // keeps its address.
      if (options.packet_sim.fct.pattern == "incast") {
        append(out, ", \"pattern\": \"incast\", \"fan_in\": ",
               options.packet_sim.fct.fan_in);
      }
      // User-supplied tables join the identity as the PARSED points —
      // never the file path — so two paths with identical contents share
      // cells and editing the file's contents invalidates them.
      if (!options.packet_sim.fct.custom_cdf.empty()) {
        out += ", \"cdf_table\": [";
        bool first_point = true;
        for (const CdfPoint& p : options.packet_sim.fct.custom_cdf) {
          if (!first_point) out += ", ";
          first_point = false;
          append(out, "[", json_number(p.bytes), ", ", json_number(p.cum_prob),
                 "]");
        }
        out += "]";
      }
      append(out, ", \"fct\": ", json_string(kFctWorkloadVersionTag), "}");
    }
    out += "}";
  }
  // Search-candidate material joins only when a candidate hash is set, so
  // every sweep cell — including all cells written before topology search
  // existed — keeps its address, while candidate cells key on the
  // canonical built topology (and the search version tag) instead of a
  // construction seed.
  if (!cell.candidate.empty()) {
    append(out, ", \"candidate\": ", json_string(cell.candidate),
           ", \"search\": ", json_string(kSearchVersionTag));
  }
  append(out, ", \"topo_seed\": ", cell.topo_seed, ", \"traffic_seed\": ",
         cell.traffic_seed, ", \"solver\": ", json_string(kSolverVersionTag),
         "}");
  return out;
}

std::uint64_t cell_key(const CellIdentity& cell) {
  return fnv1a64(cell_identity_json(cell));
}

namespace {

// Cutoff separating this process's in-flight temp files from a crashed
// writer's leftovers, captured at the first cache open. A live writer's
// temp exists only for the instant between write and rename, so a temp
// predating this process is garbage from a shard that died mid-store —
// minus a safety margin absorbing clock skew between machines sharing
// the dir (NFS mtimes come from the file server's clock, not ours) and
// coarse filesystem timestamp granularity.
std::filesystem::file_time_type stale_temp_cutoff() {
  static const auto epoch = std::filesystem::file_time_type::clock::now();
  return epoch - std::chrono::minutes(10);
}

}  // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  require(!dir_.empty(), "cache dir must be non-empty");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  require(!ec && std::filesystem::is_directory(dir_),
          "cannot create cache dir: " + dir_);
  // Crash hygiene for shared dirs: rename failure already cleans its own
  // temp, but a writer killed between write and rename leaves
  // `<cell>.json.tmp.<id>` behind forever. Sweep temps that clearly
  // predate this process on open, so crashed shards don't accumulate
  // garbage in a cache dir shared across many shard invocations. Cell
  // files are never touched, and removal failures are ignored (another
  // opener may have swept the same file first).
  const auto cutoff = stale_temp_cutoff();
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().filename().string().find(".json.tmp.") ==
        std::string::npos) {
      continue;
    }
    const auto written = std::filesystem::last_write_time(entry.path(), ec);
    if (ec || written >= cutoff) continue;
    std::filesystem::remove(entry.path(), ec);
  }
}

std::string ResultCache::cell_path(std::uint64_t key) const {
  return dir_ + "/" + hash_hex(key) + ".json";
}

namespace {

// One process-wide quarantine warning: a corrupted shared cache can hold
// thousands of bad cells, and one line per cell would bury the signal.
std::atomic<bool> g_quarantine_warned{false};

// Reads the whole file at `path` into `*bytes`; false when it cannot be
// opened. A read error ends the bytes early, and the parser then rejects
// them like any other damaged file.
bool read_file(const std::string& path, std::string* bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      bytes->append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fd);
  return true;
}

}  // namespace

bool ResultCache::load(std::uint64_t key, ThroughputResult* out) const {
  std::string bytes;
  if (!read_file(cell_path(key), &bytes)) return false;
  try {
    const JsonValue root = parse_json(bytes);
    require(root.is_object(), "cache cell: not an object");
    const JsonValue& version = root.at("version");
    require(version.is_string() && version.text == kSolverVersionTag,
            "cache cell: solver version mismatch");
    const JsonValue& stored_key = root.at("key");
    require(stored_key.is_string() && stored_key.text == hash_hex(key),
            "cache cell: key mismatch");
    const ThroughputResult result = result_from_json(root.at("result"));
    // The checksum covers the canonical re-serialization of the parsed
    // result; shortest-round-trip numbers make that reproduce the stored
    // bytes exactly, so any corrupted digit fails here.
    const JsonValue& checksum = root.at("checksum");
    require(checksum.is_string() &&
                checksum.text == hash_hex(fnv1a64(result_json(result))),
            "cache cell: checksum mismatch");
    *out = result;
    return true;
  } catch (const Error&) {
    // Corrupt / truncated / foreign file: a miss — but not a silent one.
    // Left in place the bad file would be re-parsed and re-missed on
    // every warm run forever (store() only runs for cells the loader
    // missed, and rename would replace the file anyway — but a reader
    // between recompute and re-store would trip over it again).
    // Quarantine it: rename to `<cell>.json.corrupt` so the slot is
    // cleanly re-stored and the evidence survives for diagnosis. Racing
    // loaders may quarantine the same file; the losers' renames fail
    // silently (ec swallowed), which is fine.
    std::error_code ec;
    std::filesystem::rename(cell_path(key), cell_path(key) + ".corrupt", ec);
    if (!ec && !g_quarantine_warned.exchange(true)) {
      std::cerr << "warning: quarantined corrupt cache cell "
                << cell_path(key) << " (renamed to .corrupt; further "
                << "quarantines this run are silent)\n";
    }
    return false;  // recompute; the fresh store fills the slot
  }
}

void ResultCache::store(std::uint64_t key, const ThroughputResult& result)
    const {
  const std::string payload = result_json(result);
  std::ostringstream out;
  // Fault point (util/fault.h): under TOPOBENCH_FAULT=corrupt_store the
  // written result bytes are mangled while the checksum still covers the
  // clean payload, so the published file fails verification — the
  // deterministic way to drive the loader's quarantine path.
  out << "{\n  \"version\": " << json_string(kSolverVersionTag) << ",\n"
      << "  \"key\": " << json_string(hash_hex(key)) << ",\n"
      << "  \"result\": " << fault::maybe_corrupt_payload(payload) << ",\n"
      << "  \"checksum\": " << json_string(hash_hex(fnv1a64(payload)))
      << "\n}\n";
  // Unique temp per (process, thread) writer, then rename: concurrent
  // stores of the same key — duplicate axis values within a sweep, or
  // shard processes racing on a shared dir — each publish a complete
  // file, and the rename winner is a valid document either way.
  const std::string temp =
      cell_path(key) + ".tmp." +
      hash_hex(fnv1a64(
          std::to_string(static_cast<long long>(::getpid())) + "." +
          std::to_string(static_cast<std::uint64_t>(
              std::hash<std::thread::id>{}(std::this_thread::get_id())))));
  // Registered for unlink-on-signal (cleanup.h) for exactly the window
  // where the temp exists: a ^C between write and rename removes it
  // immediately instead of leaking it until a later cache open's stale
  // sweep ages it out.
  const int cleanup_slot = register_cleanup_path(temp);
  {
    std::ofstream file(temp);
    if (!file) {
      unregister_cleanup_path(cleanup_slot);
      // An environment failure (disk, permissions, a vanished dir), not a
      // bad request: a plain Error, which the CLIs map to exit 4.
      throw Error("cannot write cache file: " + temp);
    }
    file << out.str();
  }
  std::error_code ec;
  std::filesystem::rename(temp, cell_path(key), ec);
  unregister_cleanup_path(cleanup_slot);
  if (ec) {
    // A shard's only output channel is the cache: a lost store is not an
    // error (the coordinator will recompute the cell) but it must not be
    // silent, or sharded runs would under-publish with no diagnostic.
    std::cerr << "warning: cache store failed for " << cell_path(key) << ": "
              << ec.message() << "\n";
    std::filesystem::remove(temp, ec);
  }
  // Fault point (util/fault.h): under crash_after_cells:M the M-th
  // completed store SIGKILLs the process right here, and the published
  // cell survives. At one thread nothing after it does; at more, stores
  // racing the M-th on other pool threads may land before the kill.
  fault::on_cell_stored();
}

}  // namespace topo::scenario
