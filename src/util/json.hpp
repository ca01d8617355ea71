#pragma once
// Shared JSON support: a deterministic writer and a small strict parser.
//
// The writer replaces the hand-rolled `out += "\"key\": ..."` emission
// that telemetry and every bench driver used to duplicate. Output is
// deterministic (fixed key order = call order, %.17g doubles) so reports
// from identical runs compare byte-for-byte, the property the telemetry
// golden tests rely on. Objects print one entry per line at two-space
// indent; arrays of scalars stay on one line, arrays of containers break
// per element — the layout the existing BENCH_*.json artifacts use.
//
// The parser is a strict recursive-descent JSON reader used by the serve
// campaign specs. It keeps object keys in file order, tracks whether a
// number was written as an integer, and reports parse errors with byte
// offsets. It exists so job specs can be validated with real error
// messages instead of sscanf guesswork; it is not a streaming parser and
// is sized for specs and reports, not gigabyte dumps.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace lqcd::json {

/// Append `s` to `out` with JSON string escaping.
void escape(std::string& out, std::string_view s);

/// Append shortest round-trip formatting of `v` ("%.17g"): deterministic
/// for identical bit patterns, human-readable in reports.
void format_double(std::string& out, double v);

/// Deterministic pretty-printing JSON builder.
///
///   json::Writer w;
///   w.begin_object()
///    .field("schema", "lqcd.bench.foo/1")
///    .field("iterations", 42)
///    .key("sweep").begin_array().value(1).value(2).end_array()
///    .end_object();
///   std::string doc = w.str();
class Writer {
 public:
  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();

  /// Object-entry key; must be followed by exactly one value/container.
  Writer& key(std::string_view k);

  Writer& value(std::string_view v);
  Writer& value(const char* v) { return value(std::string_view(v)); }
  Writer& value(double v);
  Writer& value(std::int64_t v);
  Writer& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Writer& value(bool v);
  Writer& value_null();

  /// Splice a pre-serialized JSON fragment (e.g. a telemetry report) as
  /// one value. The fragment is re-indented to the current depth.
  Writer& raw(std::string_view json_fragment);

  /// key() + value() in one call.
  template <typename V>
  Writer& field(std::string_view k, V&& v) {
    key(k);
    return value(std::forward<V>(v));
  }

  /// The finished document. Throws if containers are still open.
  [[nodiscard]] const std::string& str() const;

 private:
  struct Frame {
    bool object = false;
    bool multiline = false;  ///< array that broke onto multiple lines
    int count = 0;
  };
  void begin_entry(bool container);
  void indent();

  std::string out_;
  std::vector<Frame> stack_;
  bool after_key_ = false;
};

/// Parsed JSON value. Object keys keep file order.
class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  /// Parse a complete document; throws lqcd::Error with a byte offset on
  /// malformed input or trailing garbage.
  static Value parse(std::string_view text);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool is_integer() const {
    return kind_ == Kind::Number && integer_;
  }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }

  /// Typed accessors; throw lqcd::Error on kind mismatch. as_int also
  /// throws, naming the value, unless the number is integral and fits
  /// int64 (2.9, 1e300 and integer tokens past int64 all throw).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Array access.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const Value& operator[](std::size_t i) const;

  /// Object access: find() returns nullptr when absent; at() throws with
  /// the key name; get_or for optional scalars with defaults.
  [[nodiscard]] const Value* find(std::string_view key) const;
  [[nodiscard]] const Value& at(std::string_view key) const;
  [[nodiscard]] double get_or(std::string_view key, double fallback) const;
  [[nodiscard]] std::int64_t get_or(std::string_view key,
                                    std::int64_t fallback) const;
  /// as_int narrowed to int: a value outside int's range throws.
  [[nodiscard]] int get_or(std::string_view key, int fallback) const;
  [[nodiscard]] std::string get_or(std::string_view key,
                                   const std::string& fallback) const;
  [[nodiscard]] bool get_or(std::string_view key, bool fallback) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& items()
      const;

 private:
  friend class Parser;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  bool integer_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  std::string str_;
  std::vector<Value> arr_;
  std::vector<std::pair<std::string, Value>> obj_;
};

}  // namespace lqcd::json
