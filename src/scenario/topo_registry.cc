#include "scenario/topo_registry.h"

#include <cmath>
#include <limits>

#include "topo/fat_tree.h"
#include "topo/het_random.h"
#include "topo/power_law.h"
#include "topo/random_regular.h"
#include "topo/small_world.h"
#include "topo/structured.h"
#include "topo/vl2.h"
#include "util/error.h"
#include "util/json.h"
#include "util/rng.h"

namespace topo::scenario {

double param(const ParamMap& params, const std::string& name,
             double fallback) {
  const auto it = params.find(name);
  return it == params.end() ? fallback : it->second;
}

int param_int(const ParamMap& params, const std::string& name, int fallback) {
  const auto it = params.find(name);
  if (it == params.end()) return fallback;
  // A cast of an out-of-range value would silently build a different
  // topology (or is undefined, for inf and NaN).
  const double rounded = std::round(it->second);
  if (!(rounded >= std::numeric_limits<int>::min() &&
        rounded <= std::numeric_limits<int>::max())) {
    throw InvalidArgument("topology parameter \"" + name + "\": value " +
                          json_number(it->second) + " outside the int range");
  }
  return static_cast<int>(rounded);
}

namespace {

BuiltTopology build_random_regular(const ParamMap& p, std::uint64_t seed) {
  // n (40): switches; ports (15): ports per switch; degree (10):
  // network-facing ports, so each switch hosts ports - degree servers.
  const int degree = param_int(p, "degree", 10);
  return random_regular_topology(param_int(p, "n", 40),
                                 param_int(p, "ports", degree + 5), degree,
                                 seed);
}

BuiltTopology build_two_type_family(const ParamMap& p, std::uint64_t seed) {
  // The §5/§6 heterogeneous pool: num_large (20) @ large_ports (30) +
  // num_small (40) @ small_ports (20); servers_per_large/small (0/0 =
  // derive a proportional split of total_servers (400)); cross_fraction
  // (1.0); hs_links_per_large (0) @ hs_speed (10).
  TwoTypeSpec spec;
  spec.num_large = param_int(p, "num_large", 20);
  spec.num_small = param_int(p, "num_small", 40);
  spec.large_ports = param_int(p, "large_ports", 30);
  spec.small_ports = param_int(p, "small_ports", 20);
  spec.servers_per_large = param_int(p, "servers_per_large", 0);
  spec.servers_per_small = param_int(p, "servers_per_small", 0);
  spec.cross_fraction = param(p, "cross_fraction", 1.0);
  spec.hs_links_per_large = param_int(p, "hs_links_per_large", 0);
  spec.hs_speed = param(p, "hs_speed", 10.0);
  if (spec.servers_per_large == 0 && spec.servers_per_small == 0) {
    spec = with_server_split(spec, param_int(p, "total_servers", 400),
                             param(p, "placement_ratio", 1.0));
  }
  return build_two_type(spec, seed);
}

BuiltTopology build_power_law_pool(const ParamMap& p, std::uint64_t seed) {
  // The Fig-5 pool: n (40) switches with power-law ports of mean
  // avg_ports (8); servers proportional to ports^beta (1.0); total
  // servers = server_fraction (0.45) of total ports.
  const int n = param_int(p, "n", 40);
  const double avg_ports = param(p, "avg_ports", 8.0);
  const int total_servers = static_cast<int>(
      param(p, "server_fraction", 0.45) * n * avg_ports);
  std::vector<int> ports =
      power_law_ports(n, avg_ports, Rng::derive_seed(seed, 0x506f7274));
  fix_parity_for_servers(ports, total_servers);
  const std::vector<int> servers =
      beta_proportional_servers(ports, param(p, "beta", 1.0), total_servers);
  return build_pool_topology(ports, servers, seed);
}

BuiltTopology build_fat_tree(const ParamMap& p, std::uint64_t /*seed*/) {
  // k (8): the fat-tree arity (deterministic topology, seed unused).
  return fat_tree_topology(param_int(p, "k", 8));
}

BuiltTopology build_vl2(const ParamMap& p, std::uint64_t /*seed*/) {
  // d_a (16), d_i (16), servers_per_tor (20): standard VL2 at its nominal
  // ToR count (deterministic, seed unused).
  Vl2Params params;
  params.d_a = param_int(p, "d_a", 16);
  params.d_i = param_int(p, "d_i", 16);
  params.servers_per_tor = param_int(p, "servers_per_tor", 20);
  return vl2_topology(params);
}

BuiltTopology build_rewired_vl2(const ParamMap& p, std::uint64_t seed) {
  // The §7 rewiring of the VL2 pool; tors (0 = the nominal DA*DI/4).
  Vl2Params params;
  params.d_a = param_int(p, "d_a", 16);
  params.d_i = param_int(p, "d_i", 16);
  params.servers_per_tor = param_int(p, "servers_per_tor", 20);
  int tors = param_int(p, "tors", 0);
  if (tors <= 0) tors = vl2_nominal_tors(params);
  return rewired_vl2_topology(params, tors, seed);
}

BuiltTopology build_hypercube(const ParamMap& p, std::uint64_t /*seed*/) {
  // dim (6): 2^dim switches; servers_per_switch (4).
  return hypercube_topology(param_int(p, "dim", 6),
                            param_int(p, "servers_per_switch", 4));
}

BuiltTopology build_torus2d(const ParamMap& p, std::uint64_t /*seed*/) {
  // rows (8) x cols (8) wraparound torus; servers_per_switch (4).
  return torus2d_topology(param_int(p, "rows", 8), param_int(p, "cols", 8),
                          param_int(p, "servers_per_switch", 4));
}

BuiltTopology build_generalized_hypercube(const ParamMap& p,
                                          std::uint64_t /*seed*/) {
  // dims (2) coordinates of radix (4) each; servers_per_switch (4).
  const std::vector<int> radices(
      static_cast<std::size_t>(param_int(p, "dims", 2)),
      param_int(p, "radix", 4));
  return generalized_hypercube_topology(radices,
                                        param_int(p, "servers_per_switch", 4));
}

BuiltTopology build_small_world(const ParamMap& p, std::uint64_t seed) {
  // n (32) switches on a ring with lattice_degree (4) neighbors plus
  // shortcut_degree (2) random shortcuts; servers_per_switch (4).
  return small_world_topology(param_int(p, "n", 32),
                              param_int(p, "lattice_degree", 4),
                              param_int(p, "shortcut_degree", 2),
                              param_int(p, "servers_per_switch", 4), seed);
}

}  // namespace

const std::vector<FamilyInfo>& topology_families() {
  static const std::vector<FamilyInfo>* families = new std::vector<FamilyInfo>{
      {"random_regular", "RRG(n, ports, degree), the paper's homogeneous design",
       {"n", "ports", "degree"}, build_random_regular},
      {"two_type", "two-cluster heterogeneous pool (§5/§6), optional HS overlay",
       {"num_large", "num_small", "large_ports", "small_ports",
        "servers_per_large", "servers_per_small", "cross_fraction",
        "hs_links_per_large", "hs_speed", "total_servers", "placement_ratio"},
       build_two_type_family},
      {"power_law_pool", "power-law port counts, servers ~ ports^beta (Fig 5)",
       {"n", "avg_ports", "beta", "server_fraction"}, build_power_law_pool},
      {"fat_tree", "k-ary folded-Clos fat-tree baseline", {"k"},
       build_fat_tree},
      {"vl2", "standard VL2 at its nominal ToR count",
       {"d_a", "d_i", "servers_per_tor"}, build_vl2},
      {"rewired_vl2", "the paper's §7 random rewiring of the VL2 pool",
       {"d_a", "d_i", "servers_per_tor", "tors"}, build_rewired_vl2},
      {"hypercube", "d-dimensional hypercube baseline",
       {"dim", "servers_per_switch"}, build_hypercube},
      {"torus2d", "2-D wraparound torus baseline",
       {"rows", "cols", "servers_per_switch"}, build_torus2d},
      {"generalized_hypercube", "mixed-radix Hamming-graph baseline",
       {"dims", "radix", "servers_per_switch"}, build_generalized_hypercube},
      {"small_world", "ring lattice + random shortcuts (SWDC)",
       {"n", "lattice_degree", "shortcut_degree", "servers_per_switch"},
       build_small_world},
  };
  return *families;
}

const FamilyInfo* find_family(const std::string& name) {
  for (const FamilyInfo& family : topology_families()) {
    if (family.name == name) return &family;
  }
  return nullptr;
}

}  // namespace topo::scenario
