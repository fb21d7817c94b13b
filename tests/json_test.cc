// util/json unit tests: shortest-round-trip number emission (every double
// must parse back to the exact same bits — required for cache checksum
// stability and for 1e-9 golden stability of spec-driven runs — and its
// bytes must match the printf/strtod formatter it replaced, which every
// spec hash and cell key was computed with) and the strict parser shared
// by spec_io, the cache, and the golden layer: its exact error messages,
// its nesting cap, and a seeded mutation fuzz loop.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "mutation_fuzz.h"
#include "util/error.h"
#include "util/json.h"

#ifndef TOPOBENCH_EXAMPLE_SPEC_DIR
#error "build must define TOPOBENCH_EXAMPLE_SPEC_DIR"
#endif

namespace topo {
namespace {

// The formatter json_number replaced, kept as the reference its bytes must
// match: every spec hash, cell key and cell file was written with it.
std::string printf_json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

TEST(JsonNumber, RoundTripsExactly) {
  const std::vector<double> values = {
      0.0,
      1.0,
      -1.0,
      0.1,
      -0.1,
      1.0 / 3.0,
      2.0 / 3.0,
      1.0 / 7.0,
      0.9346999999999999,  // a 17-digit survivor
      1e-9,
      1e300,
      -1e300,
      5e-324,                                   // smallest denormal
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::epsilon(),
      123456789.123456789,
      3.141592653589793,
  };
  for (const double v : values) {
    const std::string text = json_number(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

TEST(JsonNumber, PrefersShortRepresentations) {
  // 17-significant-digit formatting would print 0.1 as
  // 0.10000000000000001; shortest-round-trip must not.
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(1.0), "1");
  EXPECT_EQ(json_number(0.05), "0.05");
  EXPECT_EQ(json_number(-2.5), "-2.5");
  EXPECT_EQ(json_number(32.0), "32");
}

TEST(JsonNumber, MatchesThePrintfFormatterOnAMillionDoubles) {
  std::vector<double> sample;
  std::uint64_t state = 20140402;
  const auto uniform = [&state] {  // [0, 1) on a 2^-53 grid
    return static_cast<double>(fuzz::splitmix64(state) >> 11) * 0x1p-53;
  };
  // Random bit patterns: every exponent, subnormals, inf and nan.
  for (int i = 0; i < 400000; ++i) {
    sample.push_back(from_bits(fuzz::splitmix64(state)));
  }
  // Uniform [0, 1): the fractions sweeps and solvers print most.
  for (int i = 0; i < 300000; ++i) {
    sample.push_back(uniform());
  }
  // Integers of every magnitude, both signs.
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t bits = fuzz::splitmix64(state);
    sample.push_back(static_cast<double>(static_cast<std::int64_t>(bits) >>
                                         (bits % 64)));
  }
  // Around %g's switch between fixed and exponent notation: below 1e-4,
  // and at 1e15, 1e16 and 1e17 for precisions 15, 16 and 17; then spread
  // over [1e15, 1e17).
  for (const double edge : {1e-5, 1e-4, 1e15, 1e16, 1e17}) {
    for (const double sign : {1.0, -1.0}) {
      double up = sign * edge;
      double down = sign * edge;
      for (int step = 0; step < 2000; ++step) {
        sample.push_back(up);
        sample.push_back(down);
        up = std::nextafter(up, std::numeric_limits<double>::infinity());
        down = std::nextafter(down, -std::numeric_limits<double>::infinity());
      }
    }
  }
  for (int i = 0; i < 60000; ++i) {
    sample.push_back(1e15 + uniform() * 99e15);
  }
  for (const double special :
       {0.0, -0.0, 5e-324, -5e-324, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX,
        std::nextafter(DBL_MIN, 0.0), DBL_EPSILON}) {
    sample.push_back(special);
  }
  ASSERT_GE(sample.size(), 1000000u);
  std::size_t mismatches = 0;
  for (const double v : sample) {
    const std::string expected = printf_json_number(v);
    const std::string actual = json_number(v);
    if (actual != expected && ++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << v << ": json_number gave " << actual
                    << ", the printf formatter " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << sample.size();
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::nan("")), "null");
}

TEST(JsonParse, ScalarsAndNesting) {
  const JsonValue root = parse_json(
      R"({"a": 1.5, "b": "text", "c": [1, 2, 3], "d": {"e": true, "f": null},
          "g": false, "h": -2e-3})");
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.at("a").number, 1.5);
  EXPECT_EQ(root.at("b").text, "text");
  ASSERT_EQ(root.at("c").items.size(), 3u);
  EXPECT_EQ(root.at("c").items[1].number, 2.0);
  EXPECT_TRUE(root.at("d").at("e").boolean);
  EXPECT_EQ(root.at("d").at("f").kind, JsonValue::Kind::kNull);
  EXPECT_FALSE(root.at("g").boolean);
  EXPECT_EQ(root.at("h").number, -2e-3);
  // Member order is source order.
  EXPECT_EQ(root.members.front().first, "a");
  EXPECT_EQ(root.members.back().first, "h");
}

TEST(JsonParse, StringEscapes) {
  const JsonValue value = parse_json(R"(["a\"b", "c\\d", "e\nf", "	"])");
  ASSERT_EQ(value.items.size(), 4u);
  EXPECT_EQ(value.items[0].text, "a\"b");
  EXPECT_EQ(value.items[1].text, "c\\d");
  EXPECT_EQ(value.items[2].text, "e\nf");
  EXPECT_EQ(value.items[3].text, "\t");
}

TEST(JsonParse, EmittedStringsRoundTrip) {
  const std::string original = "quote\" backslash\\ control\x01 plain";
  const JsonValue parsed = parse_json(json_string(original));
  EXPECT_EQ(parsed.text, original);
}

TEST(JsonParse, RejectsMalformedInput) {
  // Exact messages, byte offsets included: they are what a user sees for
  // a broken spec file.
  struct Case {
    const char* input;
    const char* message;
  };
  const Case cases[] = {
      {"", "JSON parse error at byte 0: unexpected end of input"},
      {"{", "JSON parse error at byte 1: unexpected end of input"},
      {"[1, 2", "JSON parse error at byte 5: unexpected end of input"},
      {"{\"a\" 1}", "JSON parse error at byte 5: expected ':'"},
      {"[1 2]", "JSON parse error at byte 3: expected ']'"},
      {"{\"a\": 1 \"b\": 2}", "JSON parse error at byte 8: expected '}'"},
      {"{\"a\": 1,}", "JSON parse error at byte 8: expected '\"'"},
      {"{\"a\": 1, \"a\": 2}",
       "JSON parse error at byte 12: duplicate key \"a\""},
      {"\"unterminated", "JSON parse error at byte 13: unterminated string"},
      {"\"\\", "JSON parse error at byte 2: bad escape"},
      {"\"\\u12\"", "JSON parse error at byte 3: bad \\u escape"},
      {"\"\\u12G4\"", "JSON parse error at byte 3: bad \\u escape"},
      {"\"bad \\x escape\"",
       "JSON parse error at byte 7: unsupported escape"},
      {"\"\\ud83d\"", "JSON parse error at byte 7: unpaired surrogate"},
      {"\"\\ud83dA\"", "JSON parse error at byte 7: unpaired surrogate"},
      {"\"\\ude00\"", "JSON parse error at byte 7: unpaired surrogate"},
      {"\"\\ud83d\\u0041\"",
       "JSON parse error at byte 13: invalid low surrogate"},
      {"nul", "JSON parse error at byte 0: expected a value"},
      {"1.2.3", "JSON parse error at byte 5: malformed number \"1.2.3\""},
      {"[01]", "JSON parse error at byte 3: malformed number \"01\""},
      {"1 2", "JSON parse error at byte 2: trailing characters"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.input);
    try {
      (void)parse_json(c.input);
      ADD_FAILURE() << "expected InvalidArgument";
    } catch (const InvalidArgument& e) {
      EXPECT_STREQ(e.what(), c.message);
    }
  }
}

TEST(JsonParse, UnicodeEscapesDecodeToUtf8) {
  // Standard serializers ASCII-escape non-ASCII text (ensure_ascii);
  // those documents must parse, decoding to UTF-8 bytes.
  EXPECT_EQ(parse_json(R"("caf\u00e9")").text, "caf\xc3\xa9");
  EXPECT_EQ(parse_json(R"("\u2192")").text, "\xe2\x86\x92");  // arrow
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parse_json(R"("\ud83d\ude00")").text, "\xf0\x9f\x98\x80");
  // Raw UTF-8 bytes pass through untouched too.
  EXPECT_EQ(parse_json("\"caf\xc3\xa9\"").text, "caf\xc3\xa9");
  // Unpaired or inverted surrogates are malformed.
  EXPECT_THROW((void)parse_json(R"("\ud83d")"), InvalidArgument);
  EXPECT_THROW((void)parse_json(R"("\ud83dA")"), InvalidArgument);
  EXPECT_THROW((void)parse_json(R"("\ude00")"), InvalidArgument);
}

TEST(JsonParse, RejectsNonJsonNumberForms) {
  // strtod would take all of these; the JSON grammar does not, and a
  // spec we accepted must stay readable by every other JSON tool.
  EXPECT_THROW((void)parse_json("+2"), InvalidArgument);
  EXPECT_THROW((void)parse_json(".5"), InvalidArgument);
  EXPECT_THROW((void)parse_json("5."), InvalidArgument);
  EXPECT_THROW((void)parse_json("01"), InvalidArgument);
  EXPECT_THROW((void)parse_json("1e"), InvalidArgument);
  EXPECT_THROW((void)parse_json("1e+"), InvalidArgument);
  EXPECT_THROW((void)parse_json("-"), InvalidArgument);
  EXPECT_THROW((void)parse_json("0x10"), InvalidArgument);
  // ...while every legal shape still parses.
  EXPECT_EQ(parse_json("0").number, 0.0);
  EXPECT_EQ(parse_json("-0.5").number, -0.5);
  EXPECT_EQ(parse_json("1e+3").number, 1000.0);
  EXPECT_EQ(parse_json("2E-2").number, 0.02);
}

TEST(JsonParse, RejectsDuplicateKeys) {
  EXPECT_THROW((void)parse_json(R"({"a": 1, "a": 2})"), InvalidArgument);
}

TEST(JsonParse, AtNamesTheMissingKey) {
  const JsonValue root = parse_json(R"({"present": 1})");
  EXPECT_EQ(root.find("absent"), nullptr);
  try {
    (void)root.at("absent");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "JSON object has no key \"absent\"");
  }
}

TEST(JsonParse, NestingIsCappedNotAStackOverflow) {
  // A damaged or foreign file must fail cleanly, however deep it nests.
  EXPECT_THROW((void)parse_json(std::string(100000, '[')), InvalidArgument);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\": ";
  EXPECT_THROW((void)parse_json(objects), InvalidArgument);

  // kJsonMaxDepth levels parse; one more fails at its opening bracket.
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  JsonValue value = parse_json(nested(kJsonMaxDepth));
  for (int level = 1; level < kJsonMaxDepth; ++level) {
    ASSERT_EQ(value.items.size(), 1u);
    value = JsonValue(value.items[0]);
  }
  EXPECT_TRUE(value.is_array());
  EXPECT_TRUE(value.items.empty());
  try {
    (void)parse_json(nested(kJsonMaxDepth + 1));
    ADD_FAILURE() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(),
                 "JSON parse error at byte 256: nesting deeper than 256 "
                 "levels");
  }
  // Depth counts open containers, not containers seen: long flat and
  // sibling structures are unaffected.
  std::string siblings = "[";
  for (int i = 0; i < 1000; ++i) siblings += "[[{\"a\": []}]],";
  siblings += "0]";
  EXPECT_EQ(parse_json(siblings).items.size(), 1001u);
}

TEST(JsonFuzz, MutantsParseOrFailWithACleanError) {
  std::ifstream spec_file(std::string(TOPOBENCH_EXAMPLE_SPEC_DIR) +
                          "/fct_load_sweep.json");
  ASSERT_TRUE(spec_file) << "missing example spec";
  const std::string spec((std::istreambuf_iterator<char>(spec_file)),
                         std::istreambuf_iterator<char>());
  for (const std::string& seed :
       {std::string(fuzz::kStoredCellFile), spec}) {
    ASSERT_NO_THROW((void)parse_json(seed));
    const int accepted = fuzz::count_accepted(
        seed, 7, 3000,
        [](const std::string& mutant) { (void)parse_json(mutant); });
    // Both outcomes occur, so the loop exercises the parser past its
    // first error check.
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, 3000);
  }
}

TEST(JsonParse, NumbersParseWithStrtodExactness) {
  // The parser must preserve exact bits for everything json_number emits
  // (cache reload correctness depends on it).
  for (const double v : {0.9346999999999999, 1.0 / 3.0, 5e-324, 1e300}) {
    const JsonValue parsed = parse_json(json_number(v));
    ASSERT_TRUE(parsed.is_number());
    EXPECT_EQ(parsed.number, v);
  }
}

}  // namespace
}  // namespace topo
