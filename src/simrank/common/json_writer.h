// Minimal streaming JSON writer for the serving layer.
//
// The server's responses (scores, stats) are built incrementally into one
// compact JSON document; no DOM, no allocation beyond the output string.
// The writer enforces well-formedness structurally — values in objects
// must follow a Key(), containers must be closed in order, exactly one
// root value — via OIPSIM_CHECK, so a malformed emission sequence is a
// programming error caught in tests, never invalid JSON on the wire.
// Doubles render as printf("%.*g") at the smallest precision in 15..17
// that parses back to the exact bit pattern, which is what lets clients
// (and the serving tests) compare served scores bitwise against direct
// QueryEngine results. All numbers are formatted with <charconv> straight
// into the output buffer, so the text never depends on the C locale.
#ifndef OIPSIM_SIMRANK_COMMON_JSON_WRITER_H_
#define OIPSIM_SIMRANK_COMMON_JSON_WRITER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace simrank {

/// Appends one JSON document to an internal buffer. Not thread-safe.
class JsonWriter {
 public:
  JsonWriter() = default;

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits the key of the next object member. Must be directly inside an
  /// object, and must be followed by exactly one value or container.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Uint(uint64_t value);
  /// Formatted as JsonDouble; non-finite values (no JSON spelling) render
  /// as null.
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  /// A whole array of `n` doubles given sparsely: values[i] at index
  /// ids[i] (strictly ascending, < n), +0.0 everywhere else. Byte-identical
  /// to BeginArray(), n Double() calls and EndArray(), but each run of
  /// zeros is copied in bulk rather than formatted entry by entry.
  JsonWriter& SparseDoubleArray(uint32_t n, std::span<const uint32_t> ids,
                                std::span<const double> values);

  /// Pre-sizes the output buffer for a document of about `bytes` bytes.
  JsonWriter& Reserve(size_t bytes);

  /// The finished document. All containers must be closed.
  const std::string& str() const;
  /// The finished document, moved out of the writer (same check as str()).
  std::string Take() &&;

 private:
  /// Comma/colon bookkeeping before a value is appended.
  void BeforeValue();

  /// One open container.
  struct Frame {
    enum class Kind : uint8_t { kObject, kArray } kind;
    /// Members already emitted in it.
    bool has_members = false;
  };

  std::string out_;
  std::vector<Frame> stack_;
  bool pending_key_ = false;
  bool root_emitted_ = false;
};

/// Appends `value` to `out` with JSON string escaping (quotes, backslash,
/// control characters), without the surrounding quotes.
void JsonEscape(std::string_view value, std::string* out);

/// Formats `value` as printf("%.*g", P) would in the "C" locale, for the
/// smallest P in 15..17 whose text parses back to the same double ("0.6",
/// not "0.59999999999999998"). That is the shortest round-trip text for
/// most values, but not all: at powers of two and for subnormals it can be
/// longer. ±0 gives "0"/"-0"; non-finite values yield "null". At most 24
/// characters ("-2.2250738585072014e-308").
std::string JsonDouble(double value);

/// Upper bound on the bytes a JSON array of `values` takes, brackets and
/// commas included (+0 prints as one character, anything else as at most
/// 24).
size_t JsonDoubleArrayBound(std::span<const double> values);

/// The same bound for SparseDoubleArray(n, ids, values).
size_t JsonSparseDoubleArrayBound(uint32_t n,
                                  std::span<const double> values);

}  // namespace simrank

#endif  // OIPSIM_SIMRANK_COMMON_JSON_WRITER_H_
