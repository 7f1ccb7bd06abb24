#include "src/alloc/type_transform.h"

#include <algorithm>

namespace dprof {

const char* TypeTransformKindName(TypeTransformKind kind) {
  switch (kind) {
    case TypeTransformKind::kIdentity:
      return "identity";
    case TypeTransformKind::kPadToLine:
      return "pad_to_line";
    case TypeTransformKind::kAlign:
      return "align";
    case TypeTransformKind::kRecolor:
      return "recolor";
    case TypeTransformKind::kReplicate:
      return "replicate";
    case TypeTransformKind::kPinHome:
      return "pin_home";
  }
  return "unknown";
}

bool ParseTypeTransformKind(std::string_view name, TypeTransformKind* out) {
  for (const TypeTransformKind kind :
       {TypeTransformKind::kIdentity, TypeTransformKind::kPadToLine, TypeTransformKind::kAlign,
        TypeTransformKind::kRecolor, TypeTransformKind::kReplicate,
        TypeTransformKind::kPinHome}) {
    if (name == TypeTransformKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

bool ParseTypeTransformSpec(std::string_view spec, TypeTransformKind* out, int* param) {
  *param = -1;
  const size_t at = spec.find('@');
  if (at == std::string_view::npos) {
    return ParseTypeTransformKind(spec, out);
  }
  if (!ParseTypeTransformKind(spec.substr(0, at), out)) {
    return false;
  }
  const std::string_view digits = spec.substr(at + 1);
  if (digits.empty() || digits.size() > 4) {
    return false;
  }
  int value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + (c - '0');
  }
  *param = value;
  return true;
}

std::string TypeTransformSpecName(TypeTransformKind kind, int param) {
  std::string name = TypeTransformKindName(kind);
  if (param >= 0) {
    name += '@';
    name += std::to_string(param);
  }
  return name;
}

const std::vector<TypeTransformKind>& AllTypeTransformKinds() {
  static const std::vector<TypeTransformKind>* kinds = new std::vector<TypeTransformKind>{
      TypeTransformKind::kPadToLine, TypeTransformKind::kAlign, TypeTransformKind::kRecolor,
      TypeTransformKind::kReplicate, TypeTransformKind::kPinHome};
  return *kinds;
}

void TransformSet::Add(const std::string& type, TypeTransformKind kind, int param) {
  if (Has(type, kind)) {
    return;
  }
  entries_.push_back(TypeTransform{type, kind, param});
}

bool TransformSet::Has(std::string_view type, TypeTransformKind kind) const {
  return std::any_of(entries_.begin(), entries_.end(), [&](const TypeTransform& t) {
    return t.kind == kind && t.type == type;
  });
}

int TransformSet::ParamFor(std::string_view type, TypeTransformKind kind) const {
  for (const TypeTransform& t : entries_) {
    if (t.kind == kind && t.type == type) {
      return t.param;
    }
  }
  return -1;
}

std::string TransformSet::ToString() const {
  std::string out;
  for (const TypeTransform& t : entries_) {
    if (!out.empty()) {
      out += ',';
    }
    out += t.type;
    out += ':';
    out += TypeTransformSpecName(t.kind, t.param);
  }
  return out;
}

}  // namespace dprof
