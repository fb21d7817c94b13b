#include "scenario/spec_io.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "scenario/topo_registry.h"
#include "traffic/workload.h"
#include "util/error.h"
#include "util/exit_codes.h"
#include "util/json.h"

namespace topo::scenario {
namespace {

std::string number_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_number(values[i]);
  }
  out += "]";
  return out;
}

// ---- Strict extraction helpers. Every message names the offending key so
// ---- a typo'd spec file points at its own mistake.

[[noreturn]] void fail_key(const std::string& key, const std::string& why) {
  throw InvalidArgument("spec key \"" + key + "\": " + why);
}

void require_only_keys(const JsonValue& object, const std::string& where,
                       const std::vector<std::string>& allowed) {
  for (const auto& [key, value] : object.members) {
    (void)value;
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      std::string known;
      for (const std::string& name : allowed) {
        if (!known.empty()) known += ", ";
        known += name;
      }
      throw InvalidArgument("spec: unknown key \"" + where + key +
                            "\" (known keys: " + known + ")");
    }
  }
}

const JsonValue& member_of_kind(const JsonValue& object,
                                const std::string& key,
                                JsonValue::Kind kind, const char* kind_name) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) fail_key(key, "missing (required)");
  if (value->kind != kind) fail_key(key, std::string("must be ") + kind_name);
  return *value;
}

std::string get_string(const JsonValue& object, const std::string& key) {
  return member_of_kind(object, key, JsonValue::Kind::kString, "a string")
      .text;
}

// The parser checks types only; every numeric range is validate_spec's,
// so a spec built in code and one read from a file pass the same checks.
// `where` prefixes the key in errors ("packet_sim." for nested blocks).
double get_number(const JsonValue& object, const std::string& key,
                  double fallback, const std::string& where = "") {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_number()) fail_key(where + key, "must be a number");
  return value->number;
}

// An integer that fits T, so the cast below is defined.
template <typename T>
T get_integer(const JsonValue& object, const std::string& key, T fallback,
              const std::string& where = "") {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return fallback;
  const double number = get_number(object, key, 0.0, where);
  if (number != std::floor(number)) fail_key(where + key, "must be an integer");
  if (!(number >= static_cast<double>(std::numeric_limits<T>::min()) &&
        number < std::ldexp(1.0, std::numeric_limits<T>::digits))) {
    fail_key(where + key, "out of range (does not fit the field)");
  }
  return static_cast<T>(number);
}

// Raises "out of range (want <want>)" for `key` unless `ok`.
void check_range(bool ok, const std::string& key, const std::string& want) {
  if (!ok) fail_key(key, "out of range (want " + want + ")");
}

std::vector<double> get_number_list(const JsonValue& object,
                                    const std::string& key) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return {};
  if (value->kind != JsonValue::Kind::kArray) {
    fail_key(key, "must be an array of numbers");
  }
  std::vector<double> out;
  out.reserve(value->items.size());
  for (const JsonValue& item : value->items) {
    if (item.kind != JsonValue::Kind::kNumber) {
      fail_key(key, "must be an array of numbers");
    }
    out.push_back(item.number);
  }
  return out;
}

}  // namespace

const char* traffic_kind_name(TrafficKind kind) {
  switch (kind) {
    case TrafficKind::kPermutation: return "permutation";
    case TrafficKind::kAllToAll: return "all_to_all";
    case TrafficKind::kChunky: return "chunky";
    case TrafficKind::kHotspot: return "hotspot";
    case TrafficKind::kStride: return "stride";
  }
  throw InvalidArgument("unhandled TrafficKind");
}

TrafficKind traffic_kind_from_name(const std::string& name) {
  if (name == "permutation") return TrafficKind::kPermutation;
  if (name == "all_to_all") return TrafficKind::kAllToAll;
  if (name == "chunky") return TrafficKind::kChunky;
  if (name == "hotspot") return TrafficKind::kHotspot;
  if (name == "stride") return TrafficKind::kStride;
  throw InvalidArgument(
      "spec key \"traffic\": unknown traffic kind \"" + name +
      "\" (known: permutation, all_to_all, chunky, hotspot, stride)");
}

const char* route_mode_name(sim::RouteMode mode) {
  switch (mode) {
    case sim::RouteMode::kSampledPaths: return "sampled";
    case sim::RouteMode::kEcmpHash: return "ecmp_hash";
  }
  throw InvalidArgument("unhandled RouteMode");
}

sim::RouteMode route_mode_from_name(const std::string& name) {
  if (name == "sampled") return sim::RouteMode::kSampledPaths;
  if (name == "ecmp_hash") return sim::RouteMode::kEcmpHash;
  throw InvalidArgument("spec key \"packet_sim.route_mode\": unknown route "
                        "mode \"" + name + "\" (known: sampled, ecmp_hash)");
}

const char* solver_mode_name(SolverMode mode) {
  switch (mode) {
    case SolverMode::kExact: return "exact";
    case SolverMode::kApprox: return "approx";
  }
  throw InvalidArgument("unhandled SolverMode");
}

SolverMode solver_mode_from_name(const std::string& name) {
  if (name == "exact") return SolverMode::kExact;
  if (name == "approx") return SolverMode::kApprox;
  throw InvalidArgument("spec key \"solver\": unknown solver mode \"" + name +
                        "\" (known: exact, approx)");
}

std::string spec_to_json(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"name\": " << json_string(spec.name) << ",\n";
  out << "  \"description\": " << json_string(spec.description) << ",\n";
  out << "  \"topology\": {\n";
  out << "    \"family\": " << json_string(spec.topology.family) << ",\n";
  out << "    \"params\": {";
  bool first = true;
  for (const auto& [key, value] : spec.topology.params) {  // map: sorted
    if (!first) out << ", ";
    first = false;
    out << json_string(key) << ": " << json_number(value);
  }
  out << "}\n  },\n";
  out << "  \"traffic\": " << json_string(traffic_kind_name(spec.traffic))
      << ",\n";
  out << "  \"chunky_fraction\": " << json_number(spec.chunky_fraction)
      << ",\n";
  // Traffic-kind-specific knobs are emitted only for their kind (and
  // rejected by the parser otherwise), keeping legacy spec files
  // byte-identical and dump -> parse -> dump byte-stable.
  if (spec.traffic == TrafficKind::kHotspot) {
    out << "  \"hot_fraction\": " << json_number(spec.hot_fraction) << ",\n";
    out << "  \"hot_multiplier\": " << json_number(spec.hot_multiplier)
        << ",\n";
  }
  if (spec.traffic == TrafficKind::kStride) {
    out << "  \"stride\": " << spec.stride << ",\n";
  }
  // Emitted only in approx mode, so every exact-mode spec file — i.e.
  // every file written before solver modes existed — round-trips
  // byte-identically (and keeps its spec hash).
  if (spec.solver == SolverMode::kApprox) {
    out << "  \"solver\": " << json_string(solver_mode_name(spec.solver))
        << ",\n";
  }
  // The three legacy keys are always emitted (pre-component spec files
  // stay byte-identical); the newer component keys appear only when they
  // differ from their inactive defaults, so dump -> parse -> dump is
  // byte-stable in both directions.
  out << "  \"failure\": {\"link_failure_fraction\": "
      << json_number(spec.failure.uniform.link_fraction)
      << ", \"switch_failure_fraction\": "
      << json_number(spec.failure.uniform.switch_fraction)
      << ", \"capacity_factor\": " << json_number(spec.failure.capacity_factor);
  if (spec.failure.correlated.epicenter_fraction != 0.0) {
    out << ", \"blast_switch_fraction\": "
        << json_number(spec.failure.correlated.epicenter_fraction);
  }
  if (spec.failure.correlated.peer_probability != 0.0) {
    out << ", \"blast_probability\": "
        << json_number(spec.failure.correlated.peer_probability);
  }
  if (!spec.failure.per_class.switch_fraction.empty()) {
    out << ", \"class_failure_fraction\": {";
    bool first_class = true;
    for (const auto& [klass, fraction] :
         spec.failure.per_class.switch_fraction) {  // map: sorted
      if (!first_class) out << ", ";
      first_class = false;
      out << json_string(klass) << ": " << json_number(fraction);
    }
    out << "}";
  }
  if (spec.failure.targeted.link_cuts != 0) {
    out << ", \"targeted_link_cuts\": " << spec.failure.targeted.link_cuts;
  }
  out << "},\n";
  // Emitted only when enabled: pre-packet-sim spec files round-trip
  // byte-identically, and any packet knob perturbs the spec hash.
  if (spec.packet_sim.enabled) {
    const sim::SimParams& p = spec.packet_sim.params;
    out << "  \"packet_sim\": {\"subflows\": " << p.subflows
        << ", \"queue_packets\": " << p.queue_packets
        << ", \"packet_bytes\": " << p.packet_bytes
        << ", \"duration_ns\": " << p.duration_ns
        << ", \"warmup_ns\": " << p.warmup_ns
        << ", \"start_jitter_ns\": " << p.start_jitter_ns
        << ", \"link_delay_ns\": " << p.link_delay_ns
        << ", \"server_rate_gbps\": " << json_number(p.server_rate_gbps)
        << ", \"ewtcp_coupling\": " << (p.ewtcp_coupling ? "true" : "false")
        << ", \"route_mode\": " << json_string(route_mode_name(p.route_mode));
    // The finite-flow workload block appears only when enabled, so
    // pre-FCT packet specs stay byte-identical.
    if (spec.packet_sim.fct.enabled) {
      out << ", \"workload\": {";
      // A custom table serializes as the PARSED points ("cdf_table") and
      // drops both the registry name and any originating file path, so
      // dump -> parse -> dump is byte-stable and the canonical form —
      // which doubles as spec-hash material — depends on the table's
      // contents, never on where it came from.
      if (!spec.packet_sim.fct.custom_cdf.empty()) {
        out << "\"cdf_table\": [";
        bool first_point = true;
        for (const CdfPoint& p : spec.packet_sim.fct.custom_cdf) {
          if (!first_point) out << ", ";
          first_point = false;
          out << "[" << json_number(p.bytes) << ", "
              << json_number(p.cum_prob) << "]";
        }
        out << "]";
      } else {
        out << "\"cdf\": " << json_string(spec.packet_sim.fct.cdf);
      }
      out << ", \"load\": " << json_number(spec.packet_sim.fct.load);
      // The arrival pattern is emitted only when it differs from the
      // uniform default, so pre-incast workload specs stay byte-identical.
      if (spec.packet_sim.fct.pattern == "incast") {
        out << ", \"pattern\": " << json_string(spec.packet_sim.fct.pattern)
            << ", \"fan_in\": " << spec.packet_sim.fct.fan_in;
      }
      out << "}";
    }
    out << "},\n";
  }
  // Emitted only when enabled: pre-search spec files round-trip
  // byte-identically and keep their spec hash.
  if (spec.search.enabled) {
    out << "  \"search\": {\"objective\": "
        << json_string(spec.search.objective)
        << ", \"budget\": " << spec.search.budget
        << ", \"restarts\": " << spec.search.restarts
        << ", \"population\": " << spec.search.population
        << ", \"temperature\": " << json_number(spec.search.temperature)
        << ", \"moves\": [";
    for (std::size_t m = 0; m < spec.search.moves.size(); ++m) {
      if (m > 0) out << ", ";
      out << json_string(spec.search.moves[m]);
    }
    out << "], \"cost\": {\"port\": " << json_number(spec.search.port_cost)
        << ", \"cable\": " << json_number(spec.search.cable_cost)
        << ", \"switch\": " << json_number(spec.search.switch_cost);
    if (!spec.search.class_cost.empty()) {
      out << ", \"class\": {";
      bool first_class = true;
      for (const auto& [klass, value] : spec.search.class_cost) {  // map: sorted
        if (!first_class) out << ", ";
        first_class = false;
        out << json_string(klass) << ": " << json_number(value);
      }
      out << "}";
    }
    out << ", \"floor_columns\": " << spec.search.floor_columns << "}},\n";
  }
  out << "  \"axes\": [";
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    const SweepAxis& axis = spec.axes[a];
    if (a > 0) out << ",";
    out << "\n    {\"param\": " << json_string(axis.param)
        << ", \"values\": " << number_list(axis.values);
    if (!axis.full_values.empty()) {
      out << ", \"full_values\": " << number_list(axis.full_values);
    }
    out << "}";
  }
  out << (spec.axes.empty() ? "]" : "\n  ]") << ",\n";
  out << "  \"quick_runs\": " << spec.quick_runs << ",\n";
  out << "  \"full_runs\": " << spec.full_runs << ",\n";
  out << "  \"reuse_topology\": " << (spec.reuse_topology ? "true" : "false")
      << "\n";
  out << "}\n";
  return out.str();
}

ScenarioSpec spec_from_json(const std::string& text) {
  const JsonValue root = parse_json(text);
  require(root.is_object(), "spec: top level must be a JSON object");
  require_only_keys(root, "",
                    {"name", "description", "topology", "traffic",
                     "chunky_fraction", "hot_fraction", "hot_multiplier",
                     "stride", "solver", "failure", "packet_sim", "search",
                     "axes", "quick_runs", "full_runs", "reuse_topology"});

  ScenarioSpec spec;
  spec.name = get_string(root, "name");
  if (root.find("description") != nullptr) {
    spec.description = get_string(root, "description");
  }

  const JsonValue& topology =
      member_of_kind(root, "topology", JsonValue::Kind::kObject, "an object");
  require_only_keys(topology, "topology.", {"family", "params"});
  spec.topology.family = get_string(topology, "family");
  if (const JsonValue* params = topology.find("params"); params != nullptr) {
    if (!params->is_object()) fail_key("topology.params", "must be an object");
    for (const auto& [key, value] : params->members) {
      if (!value.is_number()) {
        fail_key("topology.params." + key, "must be a number");
      }
      spec.topology.params[key] = value.number;
    }
  }

  if (root.find("traffic") != nullptr) {
    spec.traffic = traffic_kind_from_name(get_string(root, "traffic"));
  }
  if (root.find("solver") != nullptr) {
    spec.solver = solver_mode_from_name(get_string(root, "solver"));
  }
  spec.chunky_fraction = get_number(root, "chunky_fraction", 1.0);

  // Kind-specific traffic knobs: strictly rejected when present for a
  // different kind, so a dump -> parse -> dump round trip is byte-stable
  // and a stray knob can't silently do nothing.
  if (root.find("hot_fraction") != nullptr ||
      root.find("hot_multiplier") != nullptr) {
    if (spec.traffic != TrafficKind::kHotspot) {
      fail_key(root.find("hot_fraction") != nullptr ? "hot_fraction"
                                                    : "hot_multiplier",
               "only valid with hotspot traffic");
    }
    spec.hot_fraction = get_number(root, "hot_fraction", spec.hot_fraction);
    spec.hot_multiplier =
        get_number(root, "hot_multiplier", spec.hot_multiplier);
  }
  if (root.find("stride") != nullptr &&
      spec.traffic != TrafficKind::kStride) {
    fail_key("stride", "only valid with stride traffic");
  }
  spec.stride = get_integer(root, "stride", spec.stride);

  if (const JsonValue* failure = root.find("failure"); failure != nullptr) {
    if (!failure->is_object()) fail_key("failure", "must be an object");
    require_only_keys(*failure, "failure.",
                      {"link_failure_fraction", "switch_failure_fraction",
                       "capacity_factor", "blast_switch_fraction",
                       "blast_probability", "class_failure_fraction",
                       "targeted_link_cuts"});
    const std::string where = "failure.";
    FailureSpec& f = spec.failure;
    f.uniform.link_fraction =
        get_number(*failure, "link_failure_fraction", 0.0, where);
    f.uniform.switch_fraction =
        get_number(*failure, "switch_failure_fraction", 0.0, where);
    f.correlated.epicenter_fraction =
        get_number(*failure, "blast_switch_fraction", 0.0, where);
    f.correlated.peer_probability =
        get_number(*failure, "blast_probability", 0.0, where);
    if (const JsonValue* per_class = failure->find("class_failure_fraction");
        per_class != nullptr) {
      if (!per_class->is_object()) {
        fail_key("failure.class_failure_fraction", "must be an object");
      }
      for (const auto& [klass, value] : per_class->members) {
        f.per_class.switch_fraction[klass] = get_number(
            *per_class, klass, 0.0, "failure.class_failure_fraction.");
      }
    }
    f.targeted.link_cuts =
        get_integer(*failure, "targeted_link_cuts", 0, where);
    f.capacity_factor =
        get_number(*failure, "capacity_factor", f.capacity_factor, where);
  }

  if (const JsonValue* packet = root.find("packet_sim"); packet != nullptr) {
    if (!packet->is_object()) fail_key("packet_sim", "must be an object");
    require_only_keys(*packet, "packet_sim.",
                      {"subflows", "queue_packets", "packet_bytes",
                       "duration_ns", "warmup_ns", "start_jitter_ns",
                       "link_delay_ns", "server_rate_gbps", "ewtcp_coupling",
                       "route_mode", "workload"});
    spec.packet_sim.enabled = true;
    sim::SimParams& p = spec.packet_sim.params;
    const std::string where = "packet_sim.";
    p.subflows = get_integer(*packet, "subflows", p.subflows, where);
    p.queue_packets =
        get_integer(*packet, "queue_packets", p.queue_packets, where);
    p.packet_bytes =
        get_integer(*packet, "packet_bytes", p.packet_bytes, where);
    p.duration_ns = get_integer(*packet, "duration_ns", p.duration_ns, where);
    p.warmup_ns = get_integer(*packet, "warmup_ns", p.warmup_ns, where);
    p.start_jitter_ns =
        get_integer(*packet, "start_jitter_ns", p.start_jitter_ns, where);
    p.link_delay_ns =
        get_integer(*packet, "link_delay_ns", p.link_delay_ns, where);
    p.server_rate_gbps =
        get_number(*packet, "server_rate_gbps", p.server_rate_gbps, where);
    if (const JsonValue* coupling = packet->find("ewtcp_coupling");
        coupling != nullptr) {
      if (!coupling->is_bool()) {
        fail_key("packet_sim.ewtcp_coupling", "must be a boolean");
      }
      p.ewtcp_coupling = coupling->boolean;
    }
    if (packet->find("route_mode") != nullptr) {
      p.route_mode = route_mode_from_name(get_string(*packet, "route_mode"));
    }
    if (const JsonValue* workload = packet->find("workload");
        workload != nullptr) {
      if (!workload->is_object()) {
        fail_key("packet_sim.workload", "must be an object");
      }
      require_only_keys(*workload, "packet_sim.workload.",
                        {"cdf", "cdf_file", "cdf_table", "load", "pattern",
                         "fan_in"});
      spec.packet_sim.fct.enabled = true;
      // Three ways to pick the flow-size distribution, mutually
      // exclusive: a registry name ("cdf"), a table file ("cdf_file"),
      // or an inline table ("cdf_table"). The file is read HERE, at
      // parse time — downstream (validation, hashing, evaluation) only
      // ever sees the parsed points, never the path.
      const JsonValue* cdf_file = workload->find("cdf_file");
      const JsonValue* cdf_table = workload->find("cdf_table");
      if (cdf_file != nullptr && cdf_table != nullptr) {
        fail_key("packet_sim.workload.cdf_file",
                 "mutually exclusive with cdf_table");
      }
      if ((cdf_file != nullptr || cdf_table != nullptr) &&
          workload->find("cdf") != nullptr) {
        fail_key("packet_sim.workload.cdf",
                 "mutually exclusive with cdf_file / cdf_table");
      }
      if (workload->find("cdf") != nullptr) {
        spec.packet_sim.fct.cdf = get_string(*workload, "cdf");
      }
      if (cdf_file != nullptr) {
        if (!cdf_file->is_string()) {
          fail_key("packet_sim.workload.cdf_file", "must be a string");
        }
        const FlowSizeCdf table = load_flow_size_cdf_file(cdf_file->text);
        spec.packet_sim.fct.cdf = table.name;  // "custom"
        spec.packet_sim.fct.custom_cdf = table.points;
      }
      if (cdf_table != nullptr) {
        if (!cdf_table->is_array()) {
          fail_key("packet_sim.workload.cdf_table",
                   "must be an array of [bytes, cum_prob] pairs");
        }
        for (const JsonValue& item : cdf_table->items) {
          if (!item.is_array() || item.items.size() != 2 ||
              !item.items[0].is_number() || !item.items[1].is_number()) {
            fail_key("packet_sim.workload.cdf_table",
                     "must be an array of [bytes, cum_prob] pairs");
          }
          spec.packet_sim.fct.custom_cdf.push_back(
              CdfPoint{item.items[0].number, item.items[1].number});
        }
        spec.packet_sim.fct.cdf = "custom";
      }
      spec.packet_sim.fct.load = get_number(
          *workload, "load", spec.packet_sim.fct.load, "packet_sim.workload.");
      // Pattern before fan_in: the fan-in knob is only meaningful for
      // incast arrivals, so its gating reads the parsed pattern.
      if (const JsonValue* pattern = workload->find("pattern");
          pattern != nullptr) {
        if (pattern->kind != JsonValue::Kind::kString) {
          fail_key("packet_sim.workload.pattern", "must be a string");
        }
        spec.packet_sim.fct.pattern = pattern->text;
      }
      if (workload->find("fan_in") != nullptr &&
          spec.packet_sim.fct.pattern != "incast") {
        fail_key("packet_sim.workload.fan_in",
                 "only valid with \"pattern\": \"incast\"");
      }
      spec.packet_sim.fct.fan_in =
          get_integer(*workload, "fan_in", spec.packet_sim.fct.fan_in,
                      "packet_sim.workload.");
    }
  }

  if (const JsonValue* search = root.find("search"); search != nullptr) {
    if (!search->is_object()) fail_key("search", "must be an object");
    require_only_keys(*search, "search.",
                      {"objective", "budget", "restarts", "population",
                       "temperature", "moves", "cost"});
    spec.search.enabled = true;
    if (search->find("objective") != nullptr) {
      spec.search.objective = get_string(*search, "objective");
    }
    const std::string where = "search.";
    SearchSpec& ss = spec.search;
    ss.budget = get_integer(*search, "budget", ss.budget, where);
    ss.restarts = get_integer(*search, "restarts", ss.restarts, where);
    ss.population = get_integer(*search, "population", ss.population, where);
    ss.temperature =
        get_number(*search, "temperature", ss.temperature, where);
    if (const JsonValue* moves = search->find("moves"); moves != nullptr) {
      if (!moves->is_array()) {
        fail_key("search.moves", "must be an array of move names");
      }
      spec.search.moves.clear();
      for (const JsonValue& item : moves->items) {
        if (item.kind != JsonValue::Kind::kString) {
          fail_key("search.moves", "must be an array of move names");
        }
        spec.search.moves.push_back(item.text);
      }
    }
    if (const JsonValue* cost = search->find("cost"); cost != nullptr) {
      if (!cost->is_object()) fail_key("search.cost", "must be an object");
      require_only_keys(*cost, "search.cost.",
                        {"port", "cable", "switch", "class", "floor_columns"});
      const std::string in_cost = "search.cost.";
      ss.port_cost = get_number(*cost, "port", ss.port_cost, in_cost);
      ss.cable_cost = get_number(*cost, "cable", ss.cable_cost, in_cost);
      ss.switch_cost = get_number(*cost, "switch", ss.switch_cost, in_cost);
      if (const JsonValue* classes = cost->find("class"); classes != nullptr) {
        if (!classes->is_object()) {
          fail_key("search.cost.class", "must be an object");
        }
        for (const auto& [klass, value] : classes->members) {
          ss.class_cost[klass] =
              get_number(*classes, klass, 0.0, "search.cost.class.");
        }
      }
      ss.floor_columns =
          get_integer(*cost, "floor_columns", ss.floor_columns, in_cost);
    }
  }

  if (const JsonValue* axes = root.find("axes"); axes != nullptr) {
    if (!axes->is_array()) fail_key("axes", "must be an array");
    for (std::size_t a = 0; a < axes->items.size(); ++a) {
      const JsonValue& entry = axes->items[a];
      const std::string where = "axes[" + std::to_string(a) + "].";
      if (!entry.is_object()) {
        fail_key("axes[" + std::to_string(a) + "]", "must be an object");
      }
      require_only_keys(entry, where, {"param", "values", "full_values"});
      SweepAxis axis;
      axis.param = get_string(entry, "param");
      axis.values = get_number_list(entry, "values");
      axis.full_values = get_number_list(entry, "full_values");
      spec.axes.push_back(std::move(axis));
    }
  }

  spec.quick_runs = get_integer(root, "quick_runs", spec.quick_runs);
  spec.full_runs = get_integer(root, "full_runs", spec.full_runs);
  if (const JsonValue* reuse = root.find("reuse_topology"); reuse != nullptr) {
    if (!reuse->is_bool()) fail_key("reuse_topology", "must be a boolean");
    spec.reuse_topology = reuse->boolean;
  }

  validate_spec(spec);
  return spec;
}

void validate_spec(const ScenarioSpec& spec) {
  require(!spec.name.empty(), "spec key \"name\": must be non-empty");
  const FamilyInfo* family = find_family(spec.topology.family);
  if (family == nullptr) {
    std::string known;
    for (const FamilyInfo& f : topology_families()) {
      if (!known.empty()) known += ", ";
      known += f.name;
    }
    fail_key("topology.family", "unknown family \"" + spec.topology.family +
                                    "\" (known: " + known + ")");
  }
  const auto known_param = [&](const std::string& name) {
    return std::find(family->params.begin(), family->params.end(), name) !=
           family->params.end();
  };
  for (const auto& [name, value] : spec.topology.params) {
    if (!known_param(name)) {
      fail_key("topology.params." + name,
               "unknown " + family->name + " parameter");
    }
    // JSON overflow (1e3000) parses to inf, which --dump-spec would write
    // as null and the topology family would reject with a misleading error.
    if (!std::isfinite(value)) {
      fail_key("topology.params." + name, "must be finite");
    }
  }
  // Every numeric range lives here, not in the JSON front end, so a spec
  // built in code fails exactly where its --dump-spec output would
  // (apply_failures and the simulator would reject some values too, but
  // only mid-sweep). Comparisons are written so NaN fails them.
  const auto fraction = [](double v) { return v >= 0.0 && v <= 1.0; };
  const FailureSpec& f = spec.failure;
  check_range(fraction(f.uniform.link_fraction),
              "failure.link_failure_fraction", "[0, 1]");
  check_range(fraction(f.uniform.switch_fraction),
              "failure.switch_failure_fraction", "[0, 1]");
  check_range(fraction(f.correlated.epicenter_fraction),
              "failure.blast_switch_fraction", "[0, 1]");
  check_range(fraction(f.correlated.peer_probability),
              "failure.blast_probability", "[0, 1]");
  for (const auto& [klass, value] : f.per_class.switch_fraction) {
    if (klass.empty()) {
      fail_key("failure.class_failure_fraction",
               "class name must be non-empty");
    }
    check_range(fraction(value), "failure.class_failure_fraction." + klass,
                "[0, 1]");
  }
  check_range(f.targeted.link_cuts >= 0 && f.targeted.link_cuts <= 1e9,
              "failure.targeted_link_cuts", "0..1e9");
  check_range(f.capacity_factor > 0.0 && f.capacity_factor <= 1.0,
              "failure.capacity_factor", "(0, 1]");
  if (spec.packet_sim.enabled) {
    const sim::SimParams& p = spec.packet_sim.params;
    if (spec.packet_sim.fct.enabled) {
      if (!spec.packet_sim.fct.custom_cdf.empty()) {
        validate_flow_size_cdf(spec.packet_sim.fct.custom_cdf,
                               "packet_sim.workload.cdf_table");
      } else if (find_flow_size_cdf(spec.packet_sim.fct.cdf) == nullptr) {
        fail_key("packet_sim.workload.cdf",
                 "unknown flow-size CDF \"" + spec.packet_sim.fct.cdf +
                     "\" (known: " + flow_size_cdf_names() + ")");
      }
      check_range(spec.packet_sim.fct.load > 0.0 &&
                      spec.packet_sim.fct.load <= 1.0,
                  "packet_sim.workload.load", "(0, 1]");
      if (spec.packet_sim.fct.pattern != "uniform" &&
          spec.packet_sim.fct.pattern != "incast") {
        fail_key("packet_sim.workload.pattern",
                 "unknown workload pattern \"" + spec.packet_sim.fct.pattern +
                     "\" (known: uniform, incast)");
      }
      if (spec.packet_sim.fct.pattern == "incast") {
        check_range(spec.packet_sim.fct.fan_in >= 2 &&
                        spec.packet_sim.fct.fan_in <= 1e6,
                    "packet_sim.workload.fan_in", "2..1e6");
      }
    } else if (spec.traffic != TrafficKind::kPermutation &&
               spec.traffic != TrafficKind::kStride) {
      fail_key("packet_sim",
               "requires permutation or stride traffic (the simulator models "
               "server-to-server unit-demand bulk flows) unless a workload "
               "block selects the finite-flow FCT mode");
    }
    check_range(p.subflows >= 1 && p.subflows <= 64, "packet_sim.subflows",
                "1..64");
    check_range(p.queue_packets >= 1 && p.queue_packets <= 1e6,
                "packet_sim.queue_packets", "1..1e6");
    check_range(p.packet_bytes >= 64 && p.packet_bytes <= 65535,
                "packet_sim.packet_bytes", "64..65535");
    check_range(p.duration_ns >= 1 && p.duration_ns <= 1e12,
                "packet_sim.duration_ns", "1..1e12");
    check_range(p.warmup_ns <= 1e12, "packet_sim.warmup_ns", "0..1e12");
    check_range(p.start_jitter_ns <= 1e12, "packet_sim.start_jitter_ns",
                "0..1e12");
    check_range(p.link_delay_ns >= 1 && p.link_delay_ns <= 4e9,
                "packet_sim.link_delay_ns", "1..4e9");
    if (p.warmup_ns >= p.duration_ns) {
      fail_key("packet_sim.warmup_ns", "must be below duration_ns");
    }
    check_range(p.server_rate_gbps > 0.0 && p.server_rate_gbps <= 1e6,
                "packet_sim.server_rate_gbps", "(0, 1e6]");
  }
  if (spec.search.enabled) {
    // A spec either sweeps or searches: axes bind sweep points, while the
    // search block explores a design space at fixed parameters — letting
    // both through would silently ignore one of them.
    if (!spec.axes.empty()) {
      fail_key("search", "incompatible with sweep axes (a spec either "
                         "sweeps or searches)");
    }
    if (spec.search.objective != "throughput_per_cost" &&
        spec.search.objective != "throughput") {
      fail_key("search.objective",
               "unknown objective \"" + spec.search.objective +
                   "\" (known: throughput_per_cost, throughput)");
    }
    const SearchSpec& ss = spec.search;
    check_range(ss.budget >= 0 && ss.budget <= 1e6, "search.budget",
                "0..1e6");
    check_range(ss.restarts >= 1 && ss.restarts <= 1e4, "search.restarts",
                "1..1e4");
    check_range(ss.population >= 1 && ss.population <= 1e4,
                "search.population", "1..1e4");
    check_range(ss.temperature >= 0.0 && ss.temperature <= 1e6,
                "search.temperature", "[0, 1e6]");
    if (spec.search.moves.empty()) {
      fail_key("search.moves", "must be non-empty");
    }
    for (const std::string& move : spec.search.moves) {
      if (move != "rewire" && move != "server_shift") {
        fail_key("search.moves", "unknown move \"" + move +
                                     "\" (known: rewire, server_shift)");
      }
    }
    const auto weight = [](double v) { return v >= 0.0 && v <= 1e9; };
    check_range(weight(ss.port_cost), "search.cost.port", "[0, 1e9]");
    check_range(weight(ss.cable_cost), "search.cost.cable", "[0, 1e9]");
    check_range(weight(ss.switch_cost), "search.cost.switch", "[0, 1e9]");
    for (const auto& [klass, value] : ss.class_cost) {
      if (klass.empty()) {
        fail_key("search.cost.class", "class name must be non-empty");
      }
      check_range(weight(value), "search.cost.class." + klass, "[0, 1e9]");
    }
    check_range(ss.floor_columns >= 1 && ss.floor_columns <= 1e6,
                "search.cost.floor_columns", "1..1e6");
  }
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    const SweepAxis& axis = spec.axes[a];
    const std::string where = "axes[" + std::to_string(a) + "].";
    if (axis.param.empty()) fail_key(where + "param", "must be non-empty");
    if (axis.param == kClassAxisPrefix) {
      fail_key(where + "param",
               "class axis needs a class name after \"" + kClassAxisPrefix +
                   "\" (e.g. " + kClassAxisPrefix + "tor)");
    }
    if (!is_eval_axis(axis.param) && !known_param(axis.param)) {
      fail_key(where + "param", "unknown sweep axis \"" + axis.param +
                                    "\" for family " + family->name);
    }
    // Axes that tune an inactive subsystem would sweep a no-op.
    if ((axis.param == "load" || axis.param == "cdf") &&
        !spec.packet_sim.fct.enabled) {
      fail_key(where + "param",
               "axis \"" + axis.param +
                   "\" requires a packet_sim.workload block");
    }
    // A "fan_in" axis tunes the incast burst width; without incast
    // arrivals it would sweep a no-op.
    if (axis.param == "fan_in" &&
        (!spec.packet_sim.fct.enabled ||
         spec.packet_sim.fct.pattern != "incast")) {
      fail_key(where + "param",
               "axis \"fan_in\" requires a packet_sim.workload block with "
               "\"pattern\": \"incast\"");
    }
    // A "cdf" axis indexes the registry; a custom table has no index
    // there, so the combination would silently sweep something else.
    if (axis.param == "cdf" && !spec.packet_sim.fct.custom_cdf.empty()) {
      fail_key(where + "param",
               "axis \"cdf\" cannot be combined with a custom "
               "cdf_file / cdf_table workload");
    }
    if ((axis.param == "hot_fraction" || axis.param == "hot_multiplier") &&
        spec.traffic != TrafficKind::kHotspot) {
      fail_key(where + "param",
               "axis \"" + axis.param + "\" requires hotspot traffic");
    }
    if (axis.param == "stride" && spec.traffic != TrafficKind::kStride) {
      fail_key(where + "param", "axis \"stride\" requires stride traffic");
    }
    // A repeated axis would silently run a different experiment: axes
    // bind in order, so the later one overwrites the earlier while the
    // output table still prints the earlier's values as a column.
    for (std::size_t b = 0; b < a; ++b) {
      if (spec.axes[b].param == axis.param) {
        fail_key(where + "param", "duplicate axis \"" + axis.param +
                                      "\" (also axes[" + std::to_string(b) +
                                      "])");
      }
    }
    if (axis.values.empty()) fail_key(where + "values", "must be non-empty");
    // Evaluation-side axis values get the same range checks as their
    // scalar spec counterparts, so a bad value names its key here
    // instead of erroring mid-sweep (after cache writes) downstream.
    const auto check_values = [&](const std::vector<double>& values,
                                  const char* list_key) {
      const bool unit_fraction =
          axis.param == "link_failure_fraction" ||
          axis.param == "switch_failure_fraction" ||
          axis.param == "blast_switch_fraction" ||
          axis.param == "blast_probability" ||
          axis.param.rfind(kClassAxisPrefix, 0) == 0 ||
          axis.param == "chunky_fraction" ||
          axis.param == "hot_fraction";
      for (const double v : values) {
        if (!is_eval_axis(axis.param) && !std::isfinite(v)) {
          fail_key(where + list_key, "non-finite value for topology "
                                     "parameter " + axis.param);
        }
        if (unit_fraction && (v < 0.0 || v > 1.0)) {
          fail_key(where + list_key, "value " + json_number(v) +
                                         " out of range for " + axis.param +
                                         " (want [0, 1])");
        }
        if (axis.param == "targeted_link_cuts" &&
            (v < 0.0 || v > 1e9 || v != std::floor(v))) {
          fail_key(where + list_key, "value " + json_number(v) +
                                         " invalid for targeted_link_cuts "
                                         "(want integers in 0..1e9)");
        }
        if (axis.param == "capacity_factor" && (v <= 0.0 || v > 1.0)) {
          fail_key(where + list_key, "value " + json_number(v) +
                                         " out of range for capacity_factor "
                                         "(want (0, 1])");
        }
        if (axis.param == "epsilon" && (v <= 0.0 || v >= 1.0)) {
          fail_key(where + list_key, "value " + json_number(v) +
                                         " out of range for epsilon "
                                         "(want (0, 1))");
        }
        if (axis.param == "load" && (v <= 0.0 || v > 1.0)) {
          fail_key(where + list_key, "value " + json_number(v) +
                                         " out of range for load "
                                         "(want (0, 1])");
        }
        if (axis.param == "fan_in" &&
            (v != std::floor(v) || v < 2.0 || v > 1e6)) {
          fail_key(where + list_key, "value " + json_number(v) +
                                         " invalid for fan_in "
                                         "(want integers in 2..1e6)");
        }
        if (axis.param == "cdf" &&
            (v != std::floor(v) || v < 0.0 ||
             v >= static_cast<double>(flow_size_cdfs().size()))) {
          fail_key(where + list_key,
                   "value " + json_number(v) +
                       " invalid for cdf (want integer indexes into the "
                       "registered CDFs: " + flow_size_cdf_names() + ")");
        }
        if (axis.param == "solver_mode" &&
            (v != std::floor(v) || (v != 0.0 && v != 1.0))) {
          fail_key(where + list_key, "value " + json_number(v) +
                                         " invalid for solver_mode "
                                         "(want 0 = exact or 1 = approx)");
        }
        if (axis.param == "hot_multiplier" && (v < 1.0 || v > 1e6)) {
          fail_key(where + list_key, "value " + json_number(v) +
                                         " out of range for hot_multiplier "
                                         "(want [1, 1e6])");
        }
        if (axis.param == "stride" &&
            (v != std::floor(v) || v == 0.0 || std::abs(v) > 1e9)) {
          fail_key(where + list_key,
                   "value " + json_number(v) +
                       " invalid for stride (want non-zero integers in "
                       "-1e9..1e9)");
        }
      }
    };
    check_values(axis.values, "values");
    check_values(axis.full_values, "full_values");
  }
  check_range(spec.quick_runs >= 1 && spec.quick_runs <= 1e6, "quick_runs",
              "1..1e6");
  check_range(spec.full_runs >= 1 && spec.full_runs <= 1e6, "full_runs",
              "1..1e6");
  check_range(fraction(spec.chunky_fraction), "chunky_fraction", "[0, 1]");
  check_range(fraction(spec.hot_fraction), "hot_fraction", "[0, 1]");
  check_range(spec.hot_multiplier >= 1.0 && spec.hot_multiplier <= 1e6,
              "hot_multiplier", "[1, 1e6]");
  check_range(spec.stride != 0 && spec.stride >= -1e9 && spec.stride <= 1e9,
              "stride", "non-zero integers in -1e9..1e9");
}

ScenarioSpec load_spec_file(const std::string& path) {
  std::ifstream in(path);
  require(static_cast<bool>(in), "cannot read spec file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  try {
    return spec_from_json(buffer.str());
  } catch (const InvalidArgument& e) {
    throw InvalidArgument(path + ": " + e.what());
  }
}

int spec_file_main(const std::string& path, int argc,
                   const char* const* argv) {
  register_builtin_scenarios();
  try {
    const ScenarioSpec spec = load_spec_file(path);
    const ScenarioOptions options = parse_scenario_options(argc, argv);
    ScenarioRun run(options, std::cout);
    run_spec_scenario(spec, run);
    if (!options.out_path.empty()) {
      std::ofstream out(options.out_path);
      if (!out) {
        std::cerr << "cannot write " << options.out_path << "\n";
        return kExitInternal;
      }
      write_scenario_json(out, spec.name, options, run.tables());
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

int dump_spec_main(const std::string& name, const std::string& out_path) {
  register_builtin_scenarios();
  const ScenarioInfo* info = find_scenario(name);
  if (info == nullptr) {
    std::cerr << "unknown scenario: " << name
              << " (topobench --list shows all names)\n";
    return kExitUsage;
  }
  const ScenarioSpec* spec = find_spec_scenario(info->name);
  if (spec == nullptr) {
    std::cerr << "scenario " << info->name
              << " is not spec-backed (figure scenarios cannot be dumped; "
                 "sweep_* scenarios can)\n";
    return kExitUsage;
  }
  const std::string json = spec_to_json(*spec);
  if (out_path.empty()) {
    std::cout << json;
    return kExitOk;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return kExitInternal;
  }
  out << json;
  return kExitOk;
}

}  // namespace topo::scenario
