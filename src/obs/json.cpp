#include "obs/json.hpp"

#include <cstdio>

namespace kertbn::obs {

void JsonWriter::separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  value(k);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separate();
  out_ += '"';
  for (const char c : v) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separate();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out_ += buf;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separate();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separate();
  out_ += v ? "true" : "false";
  need_comma_ = true;
  return *this;
}

}  // namespace kertbn::obs
