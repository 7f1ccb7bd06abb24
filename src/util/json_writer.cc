#include "src/util/json_writer.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/util/check.h"

namespace dprof {

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  DPROF_CHECK(!stack_.empty() && stack_.back() == Frame::kObject);
  DPROF_CHECK(!pending_key_);
  out_ += '}';
  stack_.pop_back();
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  DPROF_CHECK(!stack_.empty() && stack_.back() == Frame::kArray);
  out_ += ']';
  stack_.pop_back();
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  DPROF_CHECK(!stack_.empty() && stack_.back() == Frame::kObject);
  DPROF_CHECK(!pending_key_);
  if (needs_comma_.back()) out_ += ',';
  needs_comma_.back() = true;
  out_ += '"';
  out_ += Escape(key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ += '"';
  out_ += Escape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    // JSON has no Inf/NaN; null is the conventional stand-in.
    out_ += "null";
    return *this;
  }
  // Shortest representation that round-trips: machine-readable output must
  // not truncate (bench baselines get diffed across PRs).
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  DPROF_CHECK(!json.empty());
  BeforeValue();
  out_ += json;
  return *this;
}

const std::string& JsonWriter::str() const {
  DPROF_CHECK(stack_.empty());
  return out_;
}

std::string JsonWriter::Escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
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
  return out;
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!stack_.empty()) {
    DPROF_CHECK(stack_.back() == Frame::kArray);
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  } else {
    DPROF_CHECK(out_.empty());
  }
}

}  // namespace dprof
