// Minimal JSON value type + parser/serializer.
//
// The simulated REST transport between the PMWare Mobile Service and the
// Cloud Instance (src/net, src/cloud) exchanges JSON bodies exactly like the
// paper's Django deployment did; this is the wire format implementation.
// Supports the full JSON data model minus \u escapes beyond BMP pass-through.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pmware {

class Json;

/// Error thrown by the parser on malformed input and by typed accessors on
/// type mismatches.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

/// Immutable-ish JSON value with value semantics.
class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : type_(Type::Null) {}
  Json(std::nullptr_t) : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(double d) : type_(Type::Number), num_(d) {}
  Json(int i) : type_(Type::Number), num_(i) {}
  Json(std::int64_t i) : type_(Type::Number), num_(static_cast<double>(i)) {}
  Json(std::uint64_t i) : type_(Type::Number), num_(static_cast<double>(i)) {}
  Json(const char* s) : type_(Type::String), str_(s) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
  Json(Array a) : type_(Type::Array), arr_(std::move(a)) {}
  Json(Object o) : type_(Type::Object), obj_(std::move(o)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  /// Typed accessors; throw JsonError on type mismatch. as_int rounds to
  /// the nearest integer and throws for a number outside the int64 range
  /// (including inf and NaN).
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object field access. `at` throws on missing key; `get` returns a default.
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  std::string get_string(const std::string& key, const std::string& fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Mutating helpers: coerce this value into an object/array if null.
  Json& set(const std::string& key, Json value);
  Json& push_back(Json value);

  /// Array element access; throws on out-of-range or non-array.
  const Json& operator[](std::size_t i) const;
  std::size_t size() const;

  /// Compact serialization (no whitespace).
  std::string dump() const;
  /// Pretty serialization with 2-space indentation.
  std::string pretty() const;

  /// Deepest array/object nesting parse() accepts. The parser recurses
  /// once per level, so an unbounded `[[[[...` would overflow the stack.
  static constexpr int kMaxParseDepth = 256;

  /// Parses a complete JSON document; trailing garbage and nesting deeper
  /// than kMaxParseDepth are errors (JsonError).
  static Json parse(std::string_view text);

  bool operator==(const Json& other) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace pmware
