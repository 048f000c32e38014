#include "simrank/common/json_writer.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "testing/legacy_json.h"

namespace simrank {
namespace {

TEST(JsonWriterTest, EmptyContainers) {
  JsonWriter object;
  object.BeginObject().EndObject();
  EXPECT_EQ(object.str(), "{}");

  JsonWriter array;
  array.BeginArray().EndArray();
  EXPECT_EQ(array.str(), "[]");
}

TEST(JsonWriterTest, ObjectMembersAndNesting) {
  JsonWriter json;
  json.BeginObject()
      .Key("name")
      .String("walk-index")
      .Key("vertices")
      .Uint(10000)
      .Key("offset")
      .Int(-3)
      .Key("ok")
      .Bool(true)
      .Key("missing")
      .Null()
      .Key("nested")
      .BeginObject()
      .Key("list")
      .BeginArray()
      .Uint(1)
      .Uint(2)
      .EndArray()
      .EndObject()
      .EndObject();
  EXPECT_EQ(json.str(),
            "{\"name\":\"walk-index\",\"vertices\":10000,\"offset\":-3,"
            "\"ok\":true,\"missing\":null,\"nested\":{\"list\":[1,2]}}");
}

TEST(JsonWriterTest, ArrayCommaPlacement) {
  JsonWriter json;
  json.BeginArray().Double(0.5).Double(0.25).Double(0.125).EndArray();
  EXPECT_EQ(json.str(), "[0.5,0.25,0.125]");
}

TEST(JsonWriterTest, StringEscaping) {
  JsonWriter json;
  json.String("quote\" backslash\\ newline\n tab\t bell\x01");
  EXPECT_EQ(json.str(),
            "\"quote\\\" backslash\\\\ newline\\n tab\\t bell\\u0001\"");
}

TEST(JsonWriterTest, ControlCharactersEscapeAsHex) {
  std::string all_controls;
  std::string expected;
  for (int c = 0; c < 0x20; ++c) {
    all_controls.push_back(static_cast<char>(c));
    switch (c) {
      case '\b': expected += "\\b"; break;
      case '\t': expected += "\\t"; break;
      case '\n': expected += "\\n"; break;
      case '\f': expected += "\\f"; break;
      case '\r': expected += "\\r"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
        expected += buf;
      }
    }
  }
  all_controls += "\x7f";  // DEL is not a control character in JSON
  expected += "\x7f";
  std::string escaped;
  JsonEscape(all_controls, &escaped);
  EXPECT_EQ(escaped, expected);
}

TEST(JsonWriterTest, RootScalar) {
  JsonWriter json;
  json.Uint(42);
  EXPECT_EQ(json.str(), "42");
}

TEST(JsonWriterTest, IntegerExtremes) {
  JsonWriter json;
  json.BeginArray()
      .Int(std::numeric_limits<int64_t>::min())
      .Int(std::numeric_limits<int64_t>::max())
      .Int(-1)
      .Int(0)
      .Uint(std::numeric_limits<uint64_t>::max())
      .Uint(0)
      .EndArray();
  EXPECT_EQ(json.str(),
            "[-9223372036854775808,9223372036854775807,-1,0,"
            "18446744073709551615,0]");
}

TEST(JsonWriterTest, TakeMovesTheFinishedDocument) {
  JsonWriter json;
  json.Reserve(64).BeginArray().Double(0.5).Uint(7).EndArray();
  EXPECT_EQ(std::move(json).Take(), "[0.5,7]");
}

TEST(JsonWriterDeathTest, TakeRequiresClosedContainers) {
  EXPECT_DEATH(
      {
        JsonWriter json;
        json.BeginObject();
        (void)std::move(json).Take();
      },
      "unclosed");
}

TEST(JsonDoubleTest, RoundTripsBitwise) {
  const double values[] = {0.0,
                           0.6,
                           1.0 / 3.0,
                           0.008774999999999998,
                           -1.5e-17,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max()};
  for (const double value : values) {
    const std::string text = JsonDouble(value);
    const double parsed = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(parsed, value) << "through " << text;
  }
  // Human-scale values stay human-readable.
  EXPECT_EQ(JsonDouble(0.6), "0.6");
  EXPECT_EQ(JsonDouble(0.0), "0");
}

TEST(JsonDoubleTest, NonFiniteRendersNull) {
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::quiet_NaN()), "null");
  JsonWriter json;
  json.BeginArray()
      .Double(std::numeric_limits<double>::infinity())
      .EndArray();
  EXPECT_EQ(json.str(), "[null]");
}

// ---------------------------------------------------------------------------
// Byte identity with the legacy snprintf/strtod formatter. Every sweep
// checks each value and its negation.

/// Values of `values` (and their negations) whose JsonDouble text differs
/// from the legacy formatter's; the first few are reported.
size_t CountLegacyMismatches(const std::vector<double>& values) {
  size_t mismatches = 0;
  for (const double magnitude : values) {
    for (const double value : {magnitude, -magnitude}) {
      const std::string got = JsonDouble(value);
      const std::string want = testing::LegacyJsonDouble(value);
      EXPECT_LE(got.size(), 24u) << got;  // JsonDoubleArrayBound's premise
      if (got == want) continue;
      if (++mismatches <= 5) {
        ADD_FAILURE() << "bits 0x" << std::hex
                      << std::bit_cast<uint64_t>(value) << std::dec
                      << ": got " << got << ", legacy " << want;
      }
    }
  }
  return mismatches;
}

TEST(JsonDoubleLegacyTest, RandomBitPatterns) {
  std::mt19937_64 rng(20240601);
  std::vector<double> values(1u << 20);
  for (double& value : values) value = std::bit_cast<double>(rng());
  EXPECT_EQ(CountLegacyMismatches(values), 0u);
}

TEST(JsonDoubleLegacyTest, UniformAndSimRankShapedScores) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> values(1u << 18);
  for (double& value : values) value = unit(rng);
  // Walk-index estimates: k meetings out of 128 fingerprints, decayed by
  // C^l for a first meeting at step l.
  for (int k = 0; k <= 128; ++k) {
    double decay = 1.0;
    for (int l = 0; l <= 40; ++l) {
      values.push_back(k / 128.0 * decay);
      decay *= 0.6;
    }
  }
  EXPECT_EQ(CountLegacyMismatches(values), 0u);
}

TEST(JsonDoubleLegacyTest, PowersOfTwoAndNeighbours) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values;
  for (int k = -1074; k <= 1023; ++k) {
    const double power = std::ldexp(1.0, k);
    values.push_back(power);
    values.push_back(std::nextafter(power, 0.0));
    values.push_back(std::nextafter(power, kInf));
  }
  EXPECT_EQ(CountLegacyMismatches(values), 0u);
  // The case where shortest and legacy disagree: a 17-digit legacy text.
  EXPECT_EQ(JsonDouble(std::ldexp(1.0, -1017)), "7.1202363472230444e-307");
}

TEST(JsonDoubleLegacyTest, SubnormalsZerosAndExtremes) {
  using Limits = std::numeric_limits<double>;
  std::mt19937_64 rng(11);
  std::vector<double> values;
  for (int i = 0; i < (1 << 16); ++i) {
    values.push_back(std::bit_cast<double>(rng() & ((uint64_t{1} << 52) - 1)));
  }
  for (uint64_t bits = 1; bits <= 64; ++bits) {
    values.push_back(std::bit_cast<double>(bits));
  }
  values.insert(values.end(),
                {0.0, Limits::denorm_min(), Limits::min(),
                 std::nextafter(Limits::min(), 0.0), Limits::max(),
                 Limits::epsilon()});
  EXPECT_EQ(CountLegacyMismatches(values), 0u);
  EXPECT_EQ(JsonDouble(0.0), "0");
  EXPECT_EQ(JsonDouble(-0.0), "-0");
  EXPECT_EQ(JsonDouble(std::bit_cast<double>(uint64_t{0x800018fe88ef243d})),
            "-1.35776641240448e-310");
}

TEST(JsonDoubleLegacyTest, LayoutBoundaries) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values;
  // Every decade, and around the %g fixed/scientific switches (X = -5/-4
  // and X = 14/15/16/17 at P = 15..17).
  for (int decade = -320; decade <= 308; ++decade) {
    double value = std::pow(10.0, decade);
    for (int step = 0; step < 4; ++step) {
      values.push_back(value);
      values.push_back(std::nextafter(value, kInf));
      value = std::nextafter(value, 0.0);
    }
  }
  for (const double edge : {1e-5, 1e-4, 1e14, 1e15, 1e16, 1e17}) {
    for (const double scale : {0.5, 0.99999, 0.999999999999999, 1.0,
                               1.000000000000001, 1.5, 9.87654321}) {
      values.push_back(edge * scale);
    }
  }
  values.insert(values.end(),
                {123456789012345.0, 1234567890123456.0, 12345678901234567.0,
                 999999999999999.0, 9999999999999998.0, 0.00012345678901234,
                 0.000099999999999999991});
  EXPECT_EQ(CountLegacyMismatches(values), 0u);
  EXPECT_EQ(JsonDouble(1e-4), "0.0001");
  EXPECT_EQ(JsonDouble(1e-5), "1e-05");
  EXPECT_EQ(JsonDouble(1e15), "1e+15");
  EXPECT_EQ(JsonDouble(123456789012345.0), "123456789012345");
  EXPECT_EQ(JsonDouble(-2.5e-300), "-2.5e-300");
}

TEST(JsonDoubleLegacyTest, WriterEmitsLegacyBytes) {
  std::mt19937_64 rng(3);
  std::vector<double> row(4096);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (double& value : row) value = rng() % 4 == 0 ? unit(rng) : 0.0;
  row.push_back(std::numeric_limits<double>::quiet_NaN());
  row.push_back(-std::numeric_limits<double>::infinity());
  JsonWriter json;
  json.Reserve(JsonDoubleArrayBound(row)).BeginArray();
  std::string expected = "[";
  for (const double value : row) {
    json.Double(value);
    if (expected.size() > 1) expected += ',';
    expected += testing::LegacyJsonDouble(value);
  }
  json.EndArray();
  expected += ']';
  EXPECT_EQ(json.str(), expected);
  EXPECT_LE(expected.size(), JsonDoubleArrayBound(row));
}

TEST(JsonWriterTest, SparseDoubleArrayMatchesDenseEmission) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  // Empty, all-zero, single-entry and dense rows, then random densities
  // (zero runs shorter and longer than the bulk-copy chunk, nonzeros at
  // both ends).
  std::vector<std::vector<double>> rows = {
      {}, {0.0}, {0.5}, std::vector<double>(200, 0.0),
      std::vector<double>(70, 0.25)};
  for (const uint32_t n : {1u, 63u, 64u, 65u, 129u, 1000u}) {
    for (const int one_in : {1, 3, 40, 500}) {
      std::vector<double> row(n, 0.0);
      for (double& value : row) {
        if (rng() % one_in == 0) value = unit(rng) + 1e-9;
      }
      if (n > 1 && rng() % 2 == 0) row.front() = 0.75;
      if (n > 1 && rng() % 2 == 0) row.back() = 0.125;
      rows.push_back(std::move(row));
    }
  }
  for (const std::vector<double>& row : rows) {
    std::vector<uint32_t> ids;
    std::vector<double> values;
    for (uint32_t i = 0; i < row.size(); ++i) {
      if (row[i] != 0.0) {
        ids.push_back(i);
        values.push_back(row[i]);
      }
    }
    JsonWriter dense;
    dense.BeginObject().Key("scores").BeginArray();
    for (const double value : row) dense.Double(value);
    dense.EndArray().Key("after").Uint(1).EndObject();
    JsonWriter sparse;
    sparse.BeginObject()
        .Key("scores")
        .SparseDoubleArray(static_cast<uint32_t>(row.size()), ids, values)
        .Key("after")
        .Uint(1)
        .EndObject();
    EXPECT_EQ(sparse.str(), dense.str()) << "n=" << row.size();
    const size_t envelope = std::string("{\"scores\":,\"after\":1}").size();
    EXPECT_LE(sparse.str().size() - envelope,
              JsonSparseDoubleArrayBound(static_cast<uint32_t>(row.size()),
                                         values));
  }
}

}  // namespace
}  // namespace simrank
