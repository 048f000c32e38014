#include "harness/trace_fold.h"

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

/// Just enough JSON for trace documents.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  double number = 0;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  const JsonValue* Get(std::string_view key) const {
    for (const auto& [name, value] : members) {
      if (name == key) return &value;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool ParseDocument(JsonValue* out) {
    if (!Parse(out, 0)) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_++];
        if (e == 'u') {
          if (pos_ + 4 > text_.size()) return false;
          pos_ += 4;
          out->push_back('?');
        } else {
          out->push_back(e == 'n' ? '\n' : e == 't' ? '\t' : e);
        }
      } else {
        out->push_back(c);
      }
    }
    return false;
  }

  bool Parse(JsonValue* out, int depth) {
    if (depth > 32) return false;
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = JsonValue::Type::kObject;
      if (Consume('}')) return true;
      do {
        std::string key;
        JsonValue value;
        if (!ParseString(&key) || !Consume(':') || !Parse(&value, depth + 1)) {
          return false;
        }
        out->members.emplace_back(std::move(key), std::move(value));
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      ++pos_;
      out->type = JsonValue::Type::kArray;
      if (Consume(']')) return true;
      do {
        JsonValue value;
        if (!Parse(&value, depth + 1)) return false;
        out->items.push_back(std::move(value));
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->text);
    }
    for (std::string_view word : {"true", "false", "null"}) {
      if (text_.substr(pos_, word.size()) == word) {
        pos_ += word.size();
        out->type = word == "null" ? JsonValue::Type::kNull
                                   : JsonValue::Type::kBool;
        out->number = word == "true" ? 1 : 0;
        return true;
      }
    }
    const std::string rest(text_.substr(pos_, 32));
    char* end = nullptr;
    out->number = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) return false;
    out->type = JsonValue::Type::kNumber;
    pos_ += static_cast<size_t>(end - rest.c_str());
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

double Field(const JsonValue& object, std::string_view key) {
  const JsonValue* value = object.Get(key);
  return value != nullptr ? value->number : 0;
}

/// Adds `trace`'s stage self times and counters (and its children's) to
/// `out`; returns the trace's root duration in microseconds.
double Accumulate(const JsonValue& trace, FoldedTrace* out) {
  const JsonValue* spans = trace.Get("spans");
  double root_us = 0;
  if (spans != nullptr) {
    const size_t n = spans->items.size();
    std::vector<double> child_ns(n, 0);
    for (const JsonValue& span : spans->items) {
      const double parent = Field(span, "parent");
      if (parent >= 0 && parent < n) {
        child_ns[static_cast<size_t>(parent)] += Field(span, "duration_ns");
      }
    }
    for (size_t i = 0; i < n; ++i) {
      const JsonValue& span = spans->items[i];
      const JsonValue* stage = span.Get("stage");
      if (stage == nullptr) continue;
      const double duration_ns = Field(span, "duration_ns");
      const double self_us =
          std::max(0.0, duration_ns - child_ns[i]) / 1000.0;
      out->stage_self_us[stage->text] += self_us;
      if (Field(span, "parent") < 0) root_us = duration_ns / 1000.0;
    }
  }
  if (const JsonValue* counters = trace.Get("counters")) {
    for (const auto& [name, value] : counters->members) {
      out->counters[name] += value.number;
    }
  }
  return root_us;
}

}  // namespace

bool FoldTrace(std::string_view json, FoldedTrace* out) {
  JsonValue trace;
  if (!Parser(json).ParseDocument(&trace) ||
      trace.type != JsonValue::Type::kObject) {
    return false;
  }
  *out = FoldedTrace();
  out->root_us = Accumulate(trace, out);
  if (const JsonValue* spans = trace.Get("spans")) {
    for (const JsonValue& span : spans->items) {
      const JsonValue* stage = span.Get("stage");
      if (stage == nullptr) continue;
      const double us = Field(span, "duration_ns") / 1000.0;
      if (stage->text == "shard_exchange") {
        out->shard_exchange_max_us = std::max(out->shard_exchange_max_us, us);
        out->shard_exchange_sum_us += us;
      } else if (stage->text == "row_fetch") {
        out->row_fetch_us += us;
      } else if (stage->text == "merge") {
        out->merge_us += us;
      }
    }
  }
  if (const JsonValue* children = trace.Get("children")) {
    double child_root_total = 0;
    for (const JsonValue& child : children->items) {
      child_root_total += Accumulate(child, out);
      ++out->children;
    }
    if (out->children > 0) {
      out->child_root_mean_us = child_root_total / out->children;
    }
  }
  return true;
}

}  // namespace perfbench
