// Minimal ordered JSON value tree + emitter: the one JSON writer of the
// repository. The metrics exporter (obs/export.h), the edge node's admin
// endpoints and every fig_*/tbl_* harness's BENCH_<name>.json build on it.
// Keys keep insertion order so emitted files are deterministic and
// diffable.
#ifndef SPEEDKIT_OBS_JSON_WRITER_H_
#define SPEEDKIT_OBS_JSON_WRITER_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace speedkit::obs {

class JsonValue {
 public:
  JsonValue() : rep_(nullptr) {}
  JsonValue(std::nullptr_t) : rep_(nullptr) {}          // NOLINT
  JsonValue(bool b) : rep_(b) {}                        // NOLINT
  JsonValue(int v) : rep_(static_cast<int64_t>(v)) {}   // NOLINT
  JsonValue(unsigned v) : rep_(static_cast<int64_t>(v)) {}  // NOLINT
  JsonValue(int64_t v) : rep_(v) {}                     // NOLINT
  JsonValue(uint64_t v) : rep_(static_cast<int64_t>(v)) {}  // NOLINT
  JsonValue(long long v) : rep_(static_cast<int64_t>(v)) {}  // NOLINT
  JsonValue(unsigned long long v) : rep_(static_cast<int64_t>(v)) {}  // NOLINT
  JsonValue(double v) : rep_(v) {}                      // NOLINT
  JsonValue(const char* s) : rep_(std::string(s)) {}    // NOLINT
  JsonValue(std::string s) : rep_(std::move(s)) {}      // NOLINT

  static JsonValue Object() {
    JsonValue v;
    v.rep_ = ObjectRep{};
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.rep_ = ArrayRep{};
    return v;
  }

  // Object field set — inserts or overwrites; keeps first-insertion order.
  JsonValue& Set(const std::string& key, JsonValue value) {
    auto& fields = std::get<ObjectRep>(rep_).fields;
    for (auto& [k, v] : fields) {
      if (k == key) {
        v = std::move(value);
        return *this;
      }
    }
    fields.emplace_back(key, std::move(value));
    return *this;
  }

  // Array append; returns a reference to the appended element.
  JsonValue& Push(JsonValue value) {
    auto& items = std::get<ArrayRep>(rep_).items;
    items.push_back(std::move(value));
    return items.back();
  }

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(rep_); }

  // Object field lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const {
    if (auto* o = std::get_if<ObjectRep>(&rep_)) {
      for (const auto& [k, v] : o->fields) {
        if (k == key) return &v;
      }
    }
    return nullptr;
  }

  // An object's fields in insertion order.
  const std::vector<std::pair<std::string, JsonValue>>& fields() const {
    return std::get<ObjectRep>(rep_).fields;
  }

  // A scalar as table text: integers and strings as they are, a double
  // times `scale` with `precision` digits after the point.
  std::string Text(int precision, double scale = 1.0) const {
    if (auto* d = std::get_if<double>(&rep_)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.*f", precision, *d * scale);
      return buf;
    }
    if (auto* s = std::get_if<std::string>(&rep_)) return *s;
    return Dump(0);
  }

  size_t size() const {
    if (auto* a = std::get_if<ArrayRep>(&rep_)) return a->items.size();
    if (auto* o = std::get_if<ObjectRep>(&rep_)) return o->fields.size();
    return 0;
  }

  std::string Dump(int indent = 2) const {
    std::string out;
    DumpTo(&out, indent, 0);
    return out;
  }

 private:
  struct ArrayRep {
    std::vector<JsonValue> items;
  };
  struct ObjectRep {
    std::vector<std::pair<std::string, JsonValue>> fields;
  };

  static void AppendEscaped(std::string* out, const std::string& s) {
    out->push_back('"');
    for (char c : s) {
      switch (c) {
        case '"': *out += "\\\""; break;
        case '\\': *out += "\\\\"; break;
        case '\n': *out += "\\n"; break;
        case '\r': *out += "\\r"; break;
        case '\t': *out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            *out += buf;
          } else {
            out->push_back(c);
          }
      }
    }
    out->push_back('"');
  }

  static void AppendNumber(std::string* out, double v) {
    if (!std::isfinite(v)) {
      *out += "null";  // JSON has no NaN/Inf
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    *out += buf;
  }

  void DumpTo(std::string* out, int indent, int depth) const {
    const std::string pad((depth + 1) * indent, ' ');
    const std::string closing_pad(depth * indent, ' ');
    if (std::holds_alternative<std::nullptr_t>(rep_)) {
      *out += "null";
    } else if (auto* b = std::get_if<bool>(&rep_)) {
      *out += *b ? "true" : "false";
    } else if (auto* i = std::get_if<int64_t>(&rep_)) {
      *out += std::to_string(*i);
    } else if (auto* d = std::get_if<double>(&rep_)) {
      AppendNumber(out, *d);
    } else if (auto* s = std::get_if<std::string>(&rep_)) {
      AppendEscaped(out, *s);
    } else if (auto* a = std::get_if<ArrayRep>(&rep_)) {
      if (a->items.empty()) {
        *out += "[]";
        return;
      }
      *out += "[\n";
      for (size_t i = 0; i < a->items.size(); ++i) {
        *out += pad;
        a->items[i].DumpTo(out, indent, depth + 1);
        if (i + 1 < a->items.size()) *out += ",";
        *out += "\n";
      }
      *out += closing_pad + "]";
    } else if (auto* o = std::get_if<ObjectRep>(&rep_)) {
      if (o->fields.empty()) {
        *out += "{}";
        return;
      }
      *out += "{\n";
      for (size_t i = 0; i < o->fields.size(); ++i) {
        *out += pad;
        AppendEscaped(out, o->fields[i].first);
        *out += ": ";
        o->fields[i].second.DumpTo(out, indent, depth + 1);
        if (i + 1 < o->fields.size()) *out += ",";
        *out += "\n";
      }
      *out += closing_pad + "}";
    }
  }

  std::variant<std::nullptr_t, bool, int64_t, double, std::string, ArrayRep,
               ObjectRep>
      rep_;
};

// Builds an object from key/value pairs in one expression:
//   JsonRow({{"system", name}, {"p50_ms", p50}, {"hit_rate", 0.92}})
inline JsonValue JsonRow(
    std::initializer_list<std::pair<const char*, JsonValue>> fields) {
  JsonValue row = JsonValue::Object();
  for (const auto& [k, v] : fields) row.Set(k, v);
  return row;
}

// Writes `root` to `path` (trailing newline included). Returns false and
// prints a warning when the file cannot be written.
inline bool WriteJsonFile(const std::string& path, const JsonValue& root) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  out << root.Dump() << "\n";
  return out.good();
}

}  // namespace speedkit::obs

#endif  // SPEEDKIT_OBS_JSON_WRITER_H_
