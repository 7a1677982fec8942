#pragma once
/// \file json.hpp
/// The one JSON encoder of the project: a writer that appends compact JSON
/// to a caller-owned std::string. It tracks commas itself, so callers emit
/// keys and values in order and never patch separators by hand. Every JSON
/// surface — the JSONL telemetry sink, the quality StatusReport and the
/// FleetStatus rollup — writes through it, which pins one byte format:
///
///   * strings escape `"`, `\`, `\n`, `\r`, `\t` by name and every other
///     byte below 0x20 as `\u00xx` (lower-case hex); bytes >= 0x20 (UTF-8
///     included) pass through unchanged;
///   * unsigned integers print as `%llu`, doubles as `%.17g` (lossless
///     round trip), bools as `true` / `false`.
///
/// The writer checks no grammar: callers pair begin/end and put a key
/// before each value inside an object.

#include <cstdint>
#include <string>
#include <string_view>

namespace kertbn::obs {

class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object key; the next value (or begin_*) is its value.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  /// Without this overload a string literal would bind to value(bool).
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(double v);
  JsonWriter& value(bool v);

  /// key(k) followed by value(v).
  template <typename T>
  JsonWriter& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

 private:
  /// Writes the ',' owed to the previous element, if any.
  void separate();

  std::string& out_;
  bool need_comma_ = false;
};

}  // namespace kertbn::obs
