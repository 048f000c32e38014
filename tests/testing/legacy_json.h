// The snprintf/strtod double formatter JsonWriter used before it moved to
// <charconv>, kept only as the oracle that the served bytes have not
// changed: "%.*g" at the smallest precision in 15..17 whose text parses
// back to the same double. Follows the process locale (the tests run in
// the default "C" locale).
#ifndef OIPSIM_TESTS_TESTING_LEGACY_JSON_H_
#define OIPSIM_TESTS_TESTING_LEGACY_JSON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace simrank::testing {

inline std::string LegacyJsonDouble(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

}  // namespace simrank::testing

#endif  // OIPSIM_TESTS_TESTING_LEGACY_JSON_H_
