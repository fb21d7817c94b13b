#include "util/json.h"

#include <cctype>
#include <cstdlib>

#include "util/error.h"

namespace topo {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) {
    throw InvalidArgument("JSON object has no key \"" + std::string(key) +
                          "\"");
  }
  return *value;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& input) : input_(input) {}

  JsonValue parse() {
    JsonValue value = parse_value(0);
    skip_space();
    if (pos_ != input_.size()) fail("trailing characters");
    return value;
  }

 private:
  // Every check calls this only once it has failed, so a document that
  // parses never builds a message.
  [[noreturn]] void fail(const std::string& why) const {
    throw InvalidArgument("JSON parse error at byte " + std::to_string(pos_) +
                          ": " + why);
  }

  void skip_space() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= input_.size()) fail("unexpected end of input");
    return input_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  // Arrays and objects are the only recursive productions: opening one
  // inside `depth` others fails at its bracket once that passes the cap.
  void check_depth(int depth) const {
    if (depth >= kJsonMaxDepth) {
      fail("nesting deeper than " + std::to_string(kJsonMaxDepth) +
           " levels");
    }
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (input_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  // `depth` counts the arrays and objects enclosing this value.
  JsonValue parse_value(int depth) {
    skip_space();
    JsonValue value;
    switch (peek()) {
      case '{': {
        value.kind = JsonValue::Kind::kObject;
        check_depth(depth);
        expect('{');
        skip_space();
        if (peek() == '}') {
          ++pos_;
          return value;
        }
        while (true) {
          skip_space();
          std::string key = parse_string_raw();
          if (value.find(key) != nullptr) {
            fail("duplicate key \"" + key + "\"");
          }
          skip_space();
          expect(':');
          value.members.emplace_back(std::move(key), parse_value(depth + 1));
          skip_space();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect('}');
          return value;
        }
      }
      case '[': {
        value.kind = JsonValue::Kind::kArray;
        check_depth(depth);
        expect('[');
        skip_space();
        if (peek() == ']') {
          ++pos_;
          return value;
        }
        while (true) {
          value.items.push_back(parse_value(depth + 1));
          skip_space();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect(']');
          return value;
        }
      }
      case '"':
        value.kind = JsonValue::Kind::kString;
        value.text = parse_string_raw();
        return value;
      default:
        if (consume_literal("null")) return value;
        if (consume_literal("true")) {
          value.kind = JsonValue::Kind::kBool;
          value.boolean = true;
          return value;
        }
        if (consume_literal("false")) {
          value.kind = JsonValue::Kind::kBool;
          return value;
        }
        return parse_number();
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > input_.size()) fail("bad \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = input_[pos_ + static_cast<std::size_t>(i)];
      const int digit = h >= '0' && h <= '9'   ? h - '0'
                        : h >= 'a' && h <= 'f' ? h - 'a' + 10
                        : h >= 'A' && h <= 'F' ? h - 'A' + 10
                                               : -1;
      if (digit < 0) fail("bad \\u escape");
      code = code * 16 + static_cast<unsigned>(digit);
    }
    pos_ += 4;
    return code;
  }

  static void append_utf8(std::string& out, unsigned code_point) {
    if (code_point < 0x80) {
      out += static_cast<char>(code_point);
    } else if (code_point < 0x800) {
      out += static_cast<char>(0xC0 | (code_point >> 6));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else if (code_point < 0x10000) {
      out += static_cast<char>(0xE0 | (code_point >> 12));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code_point >> 18));
      out += static_cast<char>(0x80 | ((code_point >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code_point >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code_point & 0x3F));
    }
  }

  std::string parse_string_raw() {
    expect('"');
    std::string out;
    while (true) {
      // Copy the run of plain characters up to the next quote or escape
      // in one append.
      const std::size_t stop = input_.find_first_of("\"\\", pos_);
      if (stop == std::string::npos) {
        pos_ = input_.size();
        fail("unterminated string");
      }
      out.append(input_, pos_, stop - pos_);
      pos_ = stop + 1;
      if (input_[stop] == '"') return out;
      if (pos_ >= input_.size()) fail("bad escape");
      const char e = input_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          const unsigned code = parse_hex4();
          unsigned code_point = code;
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (pos_ + 2 > input_.size() || input_[pos_] != '\\' ||
                input_[pos_ + 1] != 'u') {
              fail("unpaired surrogate");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
            code_point = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, code_point);
          break;
        }
        default:
          fail("unsupported escape");
      }
    }
  }

  // The JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  // Strtod alone would also accept +2, .5, 5., 01, hex, inf — forms other
  // JSON tools reject, so a spec we accepted would not round-trip through
  // a user's pipeline.
  static bool valid_json_number(const std::string& t) {
    std::size_t i = 0;
    const auto digit = [&](std::size_t at) {
      return at < t.size() &&
             std::isdigit(static_cast<unsigned char>(t[at])) != 0;
    };
    if (i < t.size() && t[i] == '-') ++i;
    if (!digit(i)) return false;
    if (t[i] == '0') {
      ++i;
    } else {
      while (digit(i)) ++i;
    }
    if (i < t.size() && t[i] == '.') {
      ++i;
      if (!digit(i)) return false;
      while (digit(i)) ++i;
    }
    if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
      ++i;
      if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
      if (!digit(i)) return false;
      while (digit(i)) ++i;
    }
    return i == t.size();
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < input_.size() &&
           (std::isdigit(static_cast<unsigned char>(input_[pos_])) ||
            input_[pos_] == '-' || input_[pos_] == '+' ||
            input_[pos_] == '.' || input_[pos_] == 'e' ||
            input_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token = input_.substr(start, pos_ - start);
    if (!valid_json_number(token)) {
      fail("malformed number \"" + token + "\"");
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = std::strtod(token.c_str(), nullptr);
    return value;
  }

  const std::string& input_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

}  // namespace topo
