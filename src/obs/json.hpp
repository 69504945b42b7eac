// Minimal JSON support for the observability exports: a deterministic
// escape helper for writers and a small recursive-descent parser so
// tests (scale smoke, probe schema, bench-merge) can assert that the
// files we emit actually parse and carry the mandatory fields — no
// external JSON dependency, which the container does not ship.
//
// The parser accepts the JSON subset our writers produce (objects,
// arrays, strings with the writer's escapes, numbers, true/false/null)
// and throws std::runtime_error with a byte offset on anything
// malformed — schema drift fails loudly in CI instead of producing a
// silently unreadable artifact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace zendoo::obs::json {

class Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

class Value {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Value() = default;
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double n) : type_(Type::kNumber), num_(n) {}
  explicit Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}
  explicit Value(Array a)
      : type_(Type::kArray), arr_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : type_(Type::kObject), obj_(std::make_shared<Object>(std::move(o))) {}

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }

  /// Array length / object member count (0 for scalars).
  [[nodiscard]] std::size_t size() const {
    if (is_array()) return arr_->size();
    if (is_object()) return obj_->size();
    return 0;
  }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return num_; }
  [[nodiscard]] std::uint64_t as_u64() const {
    return static_cast<std::uint64_t>(num_);
  }
  [[nodiscard]] const std::string& as_string() const { return str_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const {
    if (!is_object()) return nullptr;
    auto it = obj_->find(key);
    return it == obj_->end() ? nullptr : &it->second;
  }
  /// Object member that must exist (throws otherwise) — the spelling
  /// for schema assertions.
  [[nodiscard]] const Value& at(const std::string& key) const {
    const Value* v = find(key);
    if (v == nullptr) {
      throw std::runtime_error("json: missing key '" + key + "'");
    }
    return *v;
  }
  /// Array element that must exist (throws otherwise).
  [[nodiscard]] const Value& at(std::size_t i) const {
    if (!is_array() || i >= arr_->size()) {
      throw std::runtime_error("json: array index out of range");
    }
    return (*arr_)[i];
  }

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::shared_ptr<Array> arr_;
  std::shared_ptr<Object> obj_;
};

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Throws std::runtime_error on malformed input.
[[nodiscard]] Value parse(std::string_view text);

/// Escapes a string for embedding in a JSON string literal.
[[nodiscard]] std::string escape(std::string_view s);

}  // namespace zendoo::obs::json
