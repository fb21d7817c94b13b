// Minimal JSON support shared by the bench binaries, the scenario engine's
// machine-readable output, the spec-file front end, and the result cache.
//
// Emission: scalar formatting helpers; doubles use shortest-round-trip
// formatting (the shortest decimal string strtod maps back to the exact
// bits), so emit -> parse -> emit is byte-identical and cached numbers
// reload exactly. Numbers go through std::to_chars/std::from_chars, whose
// general format is defined as printf's %.*g: the bytes are the ones a
// snprintf/strtod loop produces, and they do not depend on the locale.
// Non-finite values become null because JSON has no inf/nan.
//
// Parsing: a strict recursive-descent parser (objects, arrays, strings,
// numbers, bools, null) that rejects trailing input, duplicate object
// keys, malformed escapes, and arrays/objects nested deeper than
// kJsonMaxDepth with a byte offset — shared by the golden regression
// layer, spec_io, and the cache loader so there is exactly one JSON reader
// in the tree. The depth cap bounds the parser's recursion, so a foreign
// or damaged file is rejected instead of overflowing the stack.
#ifndef TOPODESIGN_UTIL_JSON_H
#define TOPODESIGN_UTIL_JSON_H

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace topo {

/// Shortest JSON number that parses back to exactly `v`; null for inf/nan.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  char* end = buf;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof(buf), v,
                        std::chars_format::general, precision)
              .ptr;
    // NaN until parsed: an out-of-range read-back (DBL_MAX at precision
    // 15) leaves it untouched and so never compares equal.
    double back = std::numeric_limits<double>::quiet_NaN();
    std::from_chars(buf, end, back);
    if (back == v) break;
  }
  return std::string(buf, end);
}

/// JSON string literal with the mandatory escapes.
inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

/// One parsed JSON node. Object members keep source order (canonical
/// re-serialization and error messages want it); lookup is linear, which
/// is fine at the document sizes this library reads.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;                ///< Kind::kString payload.
  std::vector<JsonValue> items;    ///< Kind::kArray elements.
  std::vector<std::pair<std::string, JsonValue>> members;  ///< Kind::kObject.

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }

  /// Member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Member lookup; raises InvalidArgument naming `key` when absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
};

/// Deepest array/object nesting parse_json accepts (the outermost array
/// or object is level 1).
inline constexpr int kJsonMaxDepth = 256;

/// Parses a complete JSON document. Raises InvalidArgument with a byte
/// offset on malformed input, trailing characters, duplicate keys, or
/// nesting deeper than kJsonMaxDepth.
[[nodiscard]] JsonValue parse_json(const std::string& text);

}  // namespace topo

#endif  // TOPODESIGN_UTIL_JSON_H
