#include "util/fault.h"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "util/exit_codes.h"

namespace topo::fault {
namespace {

enum class Kind { kNone, kCrashAfterCells, kStallAfterCells, kCorruptStore };

struct Config {
  Kind kind = Kind::kNone;
  int threshold = 0;
};

// Parses TOPOBENCH_FAULT once. Malformed values are a hard usage error:
// a chaos run whose fault silently failed to arm would assert nothing.
Config parse_fault_env() {
  const char* raw = std::getenv(kFaultEnvVar);
  if (raw == nullptr || raw[0] == '\0') return {};
  const std::string text = raw;
  const auto with_threshold = [&](const std::string& prefix, Kind kind) {
    Config config;
    if (text.rfind(prefix, 0) != 0) return config;
    const std::string count = text.substr(prefix.size());
    char* end = nullptr;
    const long value = std::strtol(count.c_str(), &end, 10);
    if (count.empty() || *end != '\0' || value < 1) return config;
    config.kind = kind;
    config.threshold = static_cast<int>(value);
    return config;
  };
  if (text == "corrupt_store") return {Kind::kCorruptStore, 0};
  Config config = with_threshold("crash_after_cells:", Kind::kCrashAfterCells);
  if (config.kind == Kind::kNone) {
    config = with_threshold("stall_after_cells:", Kind::kStallAfterCells);
  }
  if (config.kind == Kind::kNone) {
    std::fprintf(stderr,
                 "error: %s=%s is not a known fault (want "
                 "crash_after_cells:M, stall_after_cells:M, or "
                 "corrupt_store)\n",
                 kFaultEnvVar, raw);
    std::exit(kExitUsage);
  }
  return config;
}

const Config& config() {
  static const Config parsed = parse_fault_env();
  return parsed;
}

std::atomic<int>& stored_count() {
  static std::atomic<int> count{0};
  return count;
}

std::atomic<int>& evaluated_count() {
  static std::atomic<int> count{0};
  return count;
}

std::atomic<bool>& stalled() {
  static std::atomic<bool> flag{false};
  return flag;
}

[[noreturn]] void park_forever() {
  for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
}

}  // namespace

void on_cell_stored() {
  if (config().kind != Kind::kCrashAfterCells) return;
  if (stored_count().fetch_add(1) + 1 >= config().threshold) {
    // SIGKILL to self: unhandleable, no destructors, no atexit — the
    // truest crash available without pulling the power cord. The just-
    // published cell survives in the cache, and so may stores racing it
    // on other pool threads.
    ::kill(::getpid(), SIGKILL);
    park_forever();  // unreachable; keeps the compiler honest
  }
}

void on_cell_evaluated() {
  if (config().kind != Kind::kStallAfterCells) return;
  if (evaluated_count().fetch_add(1) + 1 >= config().threshold) {
    stalled().store(true);
  }
  // Every evaluation thread parks once the threshold is crossed (not
  // just the crossing thread): within one pool sweep at most a few
  // in-flight cells slip through, then all progress — and with it the
  // heartbeat — stops for good.
  if (stalled().load()) park_forever();
}

std::string maybe_corrupt_payload(std::string payload) {
  if (config().kind != Kind::kCorruptStore || payload.empty()) {
    return payload;
  }
  // Flip a digit inside the payload: the stored checksum (computed by
  // the caller over the ORIGINAL payload) can no longer verify, and the
  // file still parses as JSON often enough to also exercise the schema/
  // checksum paths rather than only the parser.
  for (char& c : payload) {
    if (c >= '0' && c <= '8') {
      ++c;
      return payload;
    }
  }
  payload[payload.size() / 2] = '#';
  return payload;
}

bool fault_armed() { return config().kind != Kind::kNone; }

}  // namespace topo::fault
