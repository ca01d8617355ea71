#include "util/json.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace lqcd::json {

void escape(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void format_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

// ---- Writer ----------------------------------------------------------

void Writer::indent() {
  out_.append(2 * stack_.size(), ' ');
}

// Emit separators/newlines owed before the next entry. `container` marks
// values that themselves open a scope (objects/arrays force arrays into
// one-entry-per-line mode).
void Writer::begin_entry(bool container) {
  if (after_key_) {
    after_key_ = false;
    return;  // the key() already produced "...":
  }
  if (stack_.empty()) return;  // document root
  Frame& f = stack_.back();
  if (f.object)
    throw Error("json::Writer: object entries need a key()");
  if (container && !f.multiline && f.count == 0) f.multiline = true;
  if (f.multiline) {
    if (f.count > 0) out_ += ",";
    out_ += "\n";
    indent();
  } else if (f.count > 0) {
    out_ += ", ";
  }
  ++f.count;
}

Writer& Writer::key(std::string_view k) {
  if (stack_.empty() || !stack_.back().object)
    throw Error("json::Writer: key() outside an object");
  if (after_key_) throw Error("json::Writer: key() after key()");
  Frame& f = stack_.back();
  if (f.count > 0) out_ += ",";
  out_ += "\n";
  indent();
  ++f.count;
  out_ += "\"";
  escape(out_, k);
  out_ += "\": ";
  after_key_ = true;
  return *this;
}

Writer& Writer::begin_object() {
  begin_entry(true);
  out_ += "{";
  stack_.push_back(Frame{.object = true});
  return *this;
}

Writer& Writer::end_object() {
  if (stack_.empty() || !stack_.back().object || after_key_)
    throw Error("json::Writer: unbalanced end_object()");
  const bool empty = stack_.back().count == 0;
  stack_.pop_back();
  if (!empty) {
    out_ += "\n";
    indent();
  }
  out_ += "}";
  return *this;
}

Writer& Writer::begin_array() {
  begin_entry(true);
  out_ += "[";
  stack_.push_back(Frame{.object = false});
  return *this;
}

Writer& Writer::end_array() {
  if (stack_.empty() || stack_.back().object || after_key_)
    throw Error("json::Writer: unbalanced end_array()");
  const bool needs_break = stack_.back().multiline && stack_.back().count > 0;
  stack_.pop_back();
  if (needs_break) {
    out_ += "\n";
    indent();
  }
  out_ += "]";
  return *this;
}

Writer& Writer::value(std::string_view v) {
  begin_entry(false);
  out_ += "\"";
  escape(out_, v);
  out_ += "\"";
  return *this;
}

Writer& Writer::value(double v) {
  begin_entry(false);
  format_double(out_, v);
  return *this;
}

Writer& Writer::value(std::int64_t v) {
  begin_entry(false);
  out_ += std::to_string(v);
  return *this;
}

Writer& Writer::value(bool v) {
  begin_entry(false);
  out_ += v ? "true" : "false";
  return *this;
}

Writer& Writer::value_null() {
  begin_entry(false);
  out_ += "null";
  return *this;
}

Writer& Writer::raw(std::string_view json_fragment) {
  begin_entry(true);
  // Re-indent the fragment: its own lines shift to the current depth.
  const std::string pad(2 * stack_.size(), ' ');
  for (std::size_t i = 0; i < json_fragment.size(); ++i) {
    const char c = json_fragment[i];
    out_ += c;
    if (c == '\n' && i + 1 < json_fragment.size()) out_ += pad;
  }
  return *this;
}

const std::string& Writer::str() const {
  if (!stack_.empty() || after_key_)
    throw Error("json::Writer: document still open");
  return out_;
}

// ---- Parser ----------------------------------------------------------

// Not in an anonymous namespace: Value's friend declaration names
// lqcd::json::Parser.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json parse error at byte " + std::to_string(pos_) + ": " +
                what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    Value v;
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"':
        v.kind_ = Value::Kind::String;
        v.str_ = parse_string();
        return v;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.kind_ = Value::Kind::Bool;
        v.bool_ = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.kind_ = Value::Kind::Bool;
        v.bool_ = false;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        v.kind_ = Value::Kind::Null;
        return v;
      default: return parse_number();
    }
  }

  Value parse_object(int depth) {
    expect('{');
    Value v;
    v.kind_ = Value::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.obj_.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array(int depth) {
    expect('[');
    Value v;
    v.kind_ = Value::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr_.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail("unknown escape");
      }
    }
  }

  void append_unicode_escape(std::string& out) {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      cp <<= 4;
      if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    // UTF-8 encode the BMP codepoint (surrogate pairs are rejected: the
    // writer never emits them and specs are ASCII in practice).
    if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogate \\u escape unsupported");
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    bool integer = true;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integer = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (text_[start] == '-' && pos_ == start + 1))
      fail("malformed number");
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    Value v;
    v.kind_ = Value::Kind::Number;
    v.num_ = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) {
      pos_ = start;
      fail("malformed number");
    }
    v.integer_ = integer;
    if (integer) {
      errno = 0;
      v.int_ = std::strtoll(tok.c_str(), nullptr, 10);
      // Past int64: strtoll saturates, so keep only the double, which
      // as_int rejects.
      if (errno == ERANGE) v.integer_ = false;
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Value Value::parse(std::string_view text) { return Parser(text).run(); }

bool Value::as_bool() const {
  if (kind_ != Kind::Bool) throw Error("json: value is not a bool");
  return bool_;
}

double Value::as_double() const {
  if (kind_ != Kind::Number) throw Error("json: value is not a number");
  return num_;
}

std::int64_t Value::as_int() const {
  if (kind_ != Kind::Number) throw Error("json: value is not a number");
  if (integer_) return int_;
  // -2^63 and 2^63 are exact doubles; NaN fails every comparison.
  if (std::trunc(num_) == num_ && num_ >= -0x1p63 && num_ < 0x1p63)
    return static_cast<std::int64_t>(num_);
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), num_);
  throw Error("json: number " + std::string(buf, r.ptr) +
              " is not an integer in int64 range");
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::String) throw Error("json: value is not a string");
  return str_;
}

std::size_t Value::size() const {
  if (kind_ == Kind::Array) return arr_.size();
  if (kind_ == Kind::Object) return obj_.size();
  throw Error("json: size() on a scalar");
}

const Value& Value::operator[](std::size_t i) const {
  if (kind_ != Kind::Array) throw Error("json: indexing a non-array");
  if (i >= arr_.size()) throw Error("json: array index out of range");
  return arr_[i];
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  if (kind_ != Kind::Object) throw Error("json: at() on a non-object");
  const Value* v = find(key);
  if (!v) throw Error("json: missing key '" + std::string(key) + "'");
  return *v;
}

double Value::get_or(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return v ? v->as_double() : fallback;
}

std::int64_t Value::get_or(std::string_view key,
                           std::int64_t fallback) const {
  const Value* v = find(key);
  return v ? v->as_int() : fallback;
}

int Value::get_or(std::string_view key, int fallback) const {
  const std::int64_t v = get_or(key, static_cast<std::int64_t>(fallback));
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max())
    throw Error("json: '" + std::string(key) + "' = " + std::to_string(v) +
                " does not fit an int");
  return static_cast<int>(v);
}

std::string Value::get_or(std::string_view key,
                          const std::string& fallback) const {
  const Value* v = find(key);
  return v ? v->as_string() : fallback;
}

bool Value::get_or(std::string_view key, bool fallback) const {
  const Value* v = find(key);
  return v ? v->as_bool() : fallback;
}

const std::vector<std::pair<std::string, Value>>& Value::items() const {
  if (kind_ != Kind::Object) throw Error("json: items() on a non-object");
  return obj_;
}

}  // namespace lqcd::json
