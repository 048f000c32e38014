#include "simrank/common/json_writer.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <limits>
#include <system_error>
#include <utility>

#include "simrank/common/macros.h"

namespace simrank {
namespace {

/// Longest text JsonDouble produces ("-2.2250738585072014e-308").
constexpr size_t kMaxJsonDoubleChars = 24;

/// Grows `out` by `max_chars`, lets `format(first, last)` write into the
/// new tail and return its end, then trims `out` to what was written.
template <typename Format>
void AppendInPlace(std::string* out, size_t max_chars, Format format) {
  const size_t size = out->size();
  out->resize(size + max_chars);
  char* const first = out->data() + size;
  char* const end = format(first, first + max_chars);
  out->resize(static_cast<size_t>(end - out->data()));
}

template <typename Integer>
void AppendInteger(Integer value, std::string* out) {
  AppendInPlace(out, std::numeric_limits<Integer>::digits10 + 2,
                [value](char* first, char* last) {
                  return std::to_chars(first, last, value).ptr;
                });
}

/// Significant digits in to_chars's shortest text [first, end) of a
/// nonzero value, exponent excluded. May overcount the trailing zeros of an
/// integer ("100" counts 3), which the caller tolerates.
int SignificantDigits(const char* first, const char* end) {
  first = std::find_if(first, end, [](char c) { return c > '0' && c <= '9'; });
  return static_cast<int>(end - first) - (std::find(first, end, '.') != end);
}

/// Writes a finite, nonzero `value` at [first, last) (at least
/// kMaxJsonDoubleChars long) as printf("%.*g", P) at the smallest P in
/// 15..17 that round-trips; returns the end of the text.
char* FormatDouble(double value, char* first, char* last) {
  const double magnitude = std::fabs(value);
  const bool normal = magnitude >= std::numeric_limits<double>::min();
  int precision = 15;  // where the search starts
  if (normal) {
    // A normal double is within 2^-53 (relative) of its shortest decimal,
    // under half a unit in the 15th digit. So when that decimal has at
    // most 15 digits, %.15g prints exactly those digits and round-trips.
    // %g at P = 15 lays them out in fixed notation iff their decimal
    // exponent is in [-4, 15), i.e. iff 1e-4 <= |value| < 1e15 (rounding
    // is monotonic and both bounds are their own shortest decimals), and
    // drops trailing zeros — as shortest to_chars does in either notation.
    const bool fixed = magnitude >= 1e-4 && magnitude < 1e15;
    char* const end =
        std::to_chars(first, last, value,
                      fixed ? std::chars_format::fixed
                            : std::chars_format::scientific)
            .ptr;
    precision = SignificantDigits(first, std::find(first, end, 'e'));
    if (precision <= 15) return end;
  }
  // The shortest decimal needs 16+ digits, or the value is subnormal
  // (where the bound above fails): run the precision search itself. It
  // can start at the shortest length, as no shorter %g text round-trips.
  // At powers of two and for subnormals its answer can differ from
  // shortest. to_chars(general, P) is specified to match printf("%.*g", P).
  for (;; ++precision) {
    char* const end =
        std::to_chars(first, last, value, std::chars_format::general,
                      precision)
            .ptr;
    if (precision == 17) return end;  // 17 digits always round-trip
    double parsed = 0.0;
    const std::from_chars_result back = std::from_chars(first, end, parsed);
    if (back.ec == std::errc() && parsed == value) return end;
  }
}

/// Appends JsonDouble(value) to `out` without a temporary string.
void AppendJsonDouble(double value, std::string* out) {
  if (value == 0.0) {  // most of a sparse score row
    if (std::signbit(value)) out->push_back('-');
    out->push_back('0');
  } else if (!std::isfinite(value)) {
    out->append("null");
  } else {
    AppendInPlace(out, kMaxJsonDoubleChars, [value](char* first, char* last) {
      return FormatDouble(value, first, last);
    });
  }
}

}  // namespace

void JsonEscape(std::string_view value, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : value) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          const char escaped[] = {'\\', 'u', '0', '0', kHex[byte >> 4],
                                  kHex[byte & 0xf]};
          out->append(escaped, sizeof(escaped));
        } else {
          out->push_back(c);
        }
      }
    }
  }
}

std::string JsonDouble(double value) {
  std::string text;
  AppendJsonDouble(value, &text);
  return text;
}

size_t JsonDoubleArrayBound(std::span<const double> values) {
  size_t bytes = 2 + values.size();  // brackets and (at most) the commas
  for (const double value : values) {
    bytes += std::bit_cast<uint64_t>(value) == 0 ? 1 : kMaxJsonDoubleChars;
  }
  return bytes;
}

size_t JsonSparseDoubleArrayBound(uint32_t n,
                                  std::span<const double> values) {
  // Brackets, (at most) the commas, one character per zero.
  return 2 + 2 * static_cast<size_t>(n) +
         values.size() * kMaxJsonDoubleChars;
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  stack_.push_back({Frame::Kind::kObject});
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  OIPSIM_CHECK_MSG(
      !stack_.empty() && stack_.back().kind == Frame::Kind::kObject,
      "JsonWriter::EndObject outside an object");
  OIPSIM_CHECK_MSG(!pending_key_,
                   "JsonWriter::EndObject after a Key with no value");
  out_.push_back('}');
  stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  stack_.push_back({Frame::Kind::kArray});
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  OIPSIM_CHECK_MSG(!stack_.empty() && stack_.back().kind == Frame::Kind::kArray,
                   "JsonWriter::EndArray outside an array");
  out_.push_back(']');
  stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  OIPSIM_CHECK_MSG(
      !stack_.empty() && stack_.back().kind == Frame::Kind::kObject,
      "JsonWriter::Key outside an object");
  OIPSIM_CHECK_MSG(!pending_key_, "JsonWriter::Key after an unconsumed Key");
  if (stack_.back().has_members) out_.push_back(',');
  stack_.back().has_members = true;
  out_.push_back('"');
  JsonEscape(key, &out_);
  out_.append("\":");
  pending_key_ = true;
  return *this;
}

void JsonWriter::BeforeValue() {
  if (stack_.empty()) {
    OIPSIM_CHECK_MSG(!root_emitted_,
                     "JsonWriter: a document has exactly one root value");
    root_emitted_ = true;
    return;
  }
  if (stack_.back().kind == Frame::Kind::kObject) {
    OIPSIM_CHECK_MSG(pending_key_,
                     "JsonWriter: object values must follow a Key");
    pending_key_ = false;
    return;
  }
  if (stack_.back().has_members) out_.push_back(',');
  stack_.back().has_members = true;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_.push_back('"');
  JsonEscape(value, &out_);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  AppendInteger(value, &out_);
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  BeforeValue();
  AppendInteger(value, &out_);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  AppendJsonDouble(value, &out_);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_.append(value ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_.append("null");
  return *this;
}

JsonWriter& JsonWriter::SparseDoubleArray(uint32_t n,
                                          std::span<const uint32_t> ids,
                                          std::span<const double> values) {
  OIPSIM_CHECK(ids.size() == values.size());
  static constexpr size_t kChunk = 64;
  static const std::string kZeroRun = [] {
    std::string run;
    for (size_t i = 0; i < kChunk; ++i) run.append("0,");
    return run;
  }();
  // `count` zero entries, each with its trailing comma.
  auto zeros = [this](uint32_t count) {
    while (count > 0) {
      const uint32_t chunk = std::min<uint32_t>(count, kChunk);
      out_.append(kZeroRun.data(), 2 * static_cast<size_t>(chunk));
      count -= chunk;
    }
  };
  BeginArray();
  uint32_t next = 0;  // first index not yet written
  for (size_t i = 0; i < ids.size(); ++i) {
    OIPSIM_CHECK_MSG(ids[i] >= next && ids[i] < n,
                     "SparseDoubleArray: id %u out of order or >= n=%u",
                     ids[i], n);
    zeros(ids[i] - next);
    AppendJsonDouble(values[i], &out_);
    out_.push_back(',');
    next = ids[i] + 1;
  }
  zeros(n - next);
  if (n > 0) {
    out_.pop_back();  // the last entry's comma
    stack_.back().has_members = true;
  }
  return EndArray();
}

JsonWriter& JsonWriter::Reserve(size_t bytes) {
  out_.reserve(bytes);
  return *this;
}

const std::string& JsonWriter::str() const {
  OIPSIM_CHECK_MSG(stack_.empty(),
                   "JsonWriter::str with %zu unclosed containers",
                   stack_.size());
  return out_;
}

std::string JsonWriter::Take() && {
  OIPSIM_CHECK_MSG(stack_.empty(),
                   "JsonWriter::Take with %zu unclosed containers",
                   stack_.size());
  return std::move(out_);
}

}  // namespace simrank
