// A minimal streaming JSON writer for the dprof CLI's machine-readable
// output (profile summaries, bench results). Commas and quoting are managed
// automatically; the caller is responsible for well-formed nesting, which
// CHECK-fails loudly rather than emitting broken documents.

#ifndef DPROF_SRC_UTIL_JSON_WRITER_H_
#define DPROF_SRC_UTIL_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dprof {

class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Must be called inside an object, immediately before the value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Number(double value);
  JsonWriter& Int(int64_t value);
  JsonWriter& UInt(uint64_t value);
  JsonWriter& Bool(bool value);

  // Splices a pre-rendered JSON document in as one value (e.g. a view's
  // ToJson() output embedded in a larger report). The caller vouches for its
  // validity.
  JsonWriter& Raw(std::string_view json);

  // The finished document. CHECK-fails if containers are still open.
  const std::string& str() const;

  static std::string Escape(std::string_view raw);

 private:
  enum class Frame { kObject, kArray };

  void BeforeValue();

  std::string out_;
  std::vector<Frame> stack_;
  // True when the next value in the current container needs a ',' first.
  std::vector<bool> needs_comma_;
  bool pending_key_ = false;
};

}  // namespace dprof

#endif  // DPROF_SRC_UTIL_JSON_WRITER_H_
