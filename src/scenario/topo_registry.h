// Named builders for every topology generator in src/topo/.
//
// The scenario spec references topologies by family name + numeric
// parameter map, so sweeps can rebuild a topology at every sweep point
// with overridden parameters. Families and their parameters (defaults in
// parentheses) are listed in topo_registry.cc next to each builder.
#ifndef TOPODESIGN_SCENARIO_TOPO_REGISTRY_H
#define TOPODESIGN_SCENARIO_TOPO_REGISTRY_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "scenario/spec.h"
#include "topo/topology.h"

namespace topo::scenario {

/// Builds one instance of a family from named parameters and a seed.
using FamilyBuilder =
    std::function<BuiltTopology(const ParamMap& params, std::uint64_t seed)>;

struct FamilyInfo {
  std::string name;
  std::string description;
  /// Parameter names the builder understands. The sweep runner rejects
  /// axis/param names outside this set (plus the reserved eval-side axis
  /// names), so a typo fails loudly instead of silently sweeping a
  /// parameter every builder ignores — the same philosophy as the strict
  /// flag parser in util/flags.h.
  std::vector<std::string> params;
  FamilyBuilder build;
};

/// All registered families, in registration order.
[[nodiscard]] const std::vector<FamilyInfo>& topology_families();

/// Finds a family by exact name; nullptr when unknown.
[[nodiscard]] const FamilyInfo* find_family(const std::string& name);

/// Reads params[name], rounded to int, with a default. Raises
/// InvalidArgument naming the parameter when the rounded value is outside
/// the int range (or NaN). Exposed for tests.
[[nodiscard]] int param_int(const ParamMap& params, const std::string& name,
                            int fallback);

/// Reads params[name] with a default. Exposed for tests.
[[nodiscard]] double param(const ParamMap& params, const std::string& name,
                           double fallback);

}  // namespace topo::scenario

#endif  // TOPODESIGN_SCENARIO_TOPO_REGISTRY_H
