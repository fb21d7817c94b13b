// Seeded, deterministic mutation fuzzing shared by the JSON parser, spec
// front end and result cache suites. A mutant is a seed document with one
// to three mutations stacked: a byte flip, a truncation, an inserted byte,
// a dictionary splice, or a duplicated object key. The same seed yields
// the same mutants on every platform: the generator is splitmix64 and
// draws use plain modulo, not the implementation-defined std
// distributions.
#ifndef TOPOBENCH_TESTS_MUTATION_FUZZ_H
#define TOPOBENCH_TESTS_MUTATION_FUZZ_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace topo::fuzz {

/// A cell file exactly as ResultCache::store writes a cell carrying all 24
/// result keys (flow, packet and FCT blocks) under key 17. cache_test pins
/// store's bytes to it, and json_test and cache_test fuzz from it.
inline constexpr std::string_view kStoredCellFile = R"({
  "version": "fptas-csr-v2",
  "key": "0000000000000011",
  "result": {"lambda": 0.9346999999999999, "dual_bound": 1.0153, "gap": 0.07937, "feasible": true, "phases": 123, "utilization": 0.3333333333333333, "mean_routed_path_length": 2.5, "demand_weighted_spl": 2.25, "stretch": 1.1111111111111112, "total_demand": 48, "packet_mean": 0.8052859374999991, "packet_p05": 0.490125, "packet_min": 0.283875, "packet_retransmits": 362165, "packet_drops": 351375, "fct_p50": 141311, "fct_p95": 4079012, "fct_p99": 10067080, "fct_mean": 791553.4028436019, "fct_goodput": 0.115659375, "fct_flows": 211, "fct_completed": 204, "fct_slowdown_p50": 1.5, "fct_slowdown_p99": 37.25},
  "checksum": "989ab033054b237a"
}
)";

/// One step of splitmix64, the generator behind every seeded draw here.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : state_(seed) {}

  /// `text` with one to three mutations applied.
  [[nodiscard]] std::string mutate(std::string text) {
    const std::size_t rounds = 1 + below(3);
    for (std::size_t round = 0; round < rounds; ++round) {
      switch (below(5)) {
        case 0: flip_byte(text); break;
        case 1: text.resize(below(text.size())); break;
        case 2: insert_byte(text); break;
        case 3: splice(text); break;
        default: duplicate_key(text); break;
      }
    }
    return text;
  }

 private:
  /// Draw in [0, n) (modulo, slightly biased); 0 when n is 0.
  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(splitmix64(state_) % n);
  }

  void flip_byte(std::string& text) {
    if (text.empty()) return;
    text[below(text.size())] ^= static_cast<char>(1 + below(255));
  }

  // Half the inserted bytes come from JSON's own alphabet, so some
  // mutants stay well-formed (whitespace between tokens, a trailing
  // zero in a fraction) and reach the checks past the parser.
  void insert_byte(std::string& text) {
    static constexpr std::string_view kJsonBytes =
        " \t\n\r{}[],:\"0123456789.-eE";
    const char byte =
        below(2) == 0 ? kJsonBytes[below(kJsonBytes.size())]
                      : static_cast<char>(below(256));
    text.insert(below(text.size() + 1), 1, byte);
  }

  // A dictionary entry replaces a whole number token half the time, so it
  // lands where a value is expected, and goes anywhere otherwise.
  void splice(std::string& text) {
    static const std::array<std::string, 5> kDictionary = {
        std::string(100000, '['), "1e300", "-0", "1e-400", "\\ud800"};
    const std::string& entry = kDictionary[below(kDictionary.size())];
    std::vector<std::size_t> numbers;
    for (std::size_t i = 0; i < text.size(); ++i) {
      const bool starts_value = i == 0 || text[i - 1] == ' ' ||
                                text[i - 1] == '[' || text[i - 1] == ':';
      const bool numeric = text[i] == '-' || (text[i] >= '0' && text[i] <= '9');
      if (starts_value && numeric) numbers.push_back(i);
    }
    if (numbers.empty() || below(2) == 0) {
      text.insert(below(text.size() + 1), entry);
      return;
    }
    const std::size_t start = numbers[below(numbers.size())];
    std::size_t end = start;
    while (end < text.size() &&
           std::string_view("0123456789+-.eE").find(text[end]) !=
               std::string_view::npos) {
      ++end;
    }
    text.replace(start, end - start, entry);
  }

  // Repeats a random member's key in front of it: {"a": 1} becomes
  // {"a": 0, "a": 1}.
  void duplicate_key(std::string& text) {
    std::vector<std::size_t> key_ends;
    for (std::size_t at = text.find("\":"); at != std::string::npos;
         at = text.find("\":", at + 1)) {
      key_ends.push_back(at);
    }
    if (key_ends.empty()) return;
    const std::size_t close = key_ends[below(key_ends.size())];
    const std::size_t open = close == 0 ? std::string::npos
                                        : text.rfind('"', close - 1);
    if (open == std::string::npos) return;
    text.insert(open, text.substr(open, close + 1 - open) + ": 0, ");
  }

  std::uint64_t state_;
};

/// Feeds `count` mutants of `seed` (drawn by Mutator(mutator_seed)) to
/// `parse` and returns how many it accepted. A topo::Error counts as a
/// rejection; any other exception escapes and fails the calling test.
template <typename Parse>
int count_accepted(const std::string& seed, std::uint64_t mutator_seed,
                   int count, Parse parse) {
  Mutator mutator(mutator_seed);
  int accepted = 0;
  for (int i = 0; i < count; ++i) {
    try {
      parse(mutator.mutate(seed));
      ++accepted;
    } catch (const Error&) {
    }
  }
  return accepted;
}

}  // namespace topo::fuzz

#endif  // TOPOBENCH_TESTS_MUTATION_FUZZ_H
