// Mechanical data-layout transforms applied per allocated type.
//
// A TypeTransform names one of the fixes the paper's case studies apply by
// hand (§6.1, §6.2, §8) in a form the allocator can interpret mechanically
// at cache-creation time: pad objects to whole cache lines, line-align
// object runs, stagger placements across associativity sets (slab
// coloring), replicate shared singletons per core, or return remote frees
// straight to the allocating core's arena. A TransformSet is the value
// object `dprof whatif` builds its counterfactual runs from: the same
// scenario re-run with one TransformSet entry changed is an exact causal
// experiment on that fix.
//
// Transforms are keyed by type *name*, not TypeId: a TransformSet is
// assembled before the workload registers its types, and the allocator
// resolves names lazily when each kmem_cache or static registration is
// created.

#ifndef DPROF_SRC_ALLOC_TYPE_TRANSFORM_H_
#define DPROF_SRC_ALLOC_TYPE_TRANSFORM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dprof {

enum class TypeTransformKind : uint8_t {
  // No layout change. The control arm: a run with only identity transforms
  // is byte-identical to a run with none.
  kIdentity,
  // Round the object stride up to a whole number of cache lines, so no two
  // objects share a line (kills false sharing between neighbours) and
  // statically carved arrays pack densely line by line instead of at their
  // hand-chosen stride (kills stride aliasing).
  kPadToLine,
  // Line-align the start of each object run without changing the stride.
  kAlign,
  // Slab coloring: stagger successive slabs (or array elements) by one line
  // per color so hot objects spread over associativity sets instead of
  // piling onto one (the paper's conflict-miss fix, §4.3).
  kRecolor,
  // Give a shared singleton (static registration) one private line per
  // core. Workloads that index their per-core slice stop bouncing the
  // shared line (the paper's per-CPU-counter fix for net_device stats).
  kReplicate,
  // Return remote frees directly to the allocating core's arena, skipping
  // the alien array and the batched drain's remote writes to the home
  // core's array_cache and slab headers (§6.1's allocator traffic).
  kPinHome,
};

// Stable lower-case name used by the CLI, JSON documents, and tests.
const char* TypeTransformKindName(TypeTransformKind kind);

// Parses a CLI spelling ("pad_to_line", "pin_home", ...). Returns false on
// unknown names.
bool ParseTypeTransformKind(std::string_view name, TypeTransformKind* out);

// Parses a transform spec with an optional "@N" parameter suffix
// ("pin_home@2" = pin to home socket 2). Plain spellings set *param to -1.
bool ParseTypeTransformSpec(std::string_view spec, TypeTransformKind* out, int* param);

// "kind" or "kind@param" — the inverse of ParseTypeTransformSpec.
std::string TypeTransformSpecName(TypeTransformKind kind, int param);

// The candidate catalog `whatif --auto` searches (every kind but identity).
const std::vector<TypeTransformKind>& AllTypeTransformKinds();

struct TypeTransform {
  std::string type;  // registered type name, e.g. "size-1024"
  TypeTransformKind kind = TypeTransformKind::kIdentity;
  // Kind-specific parameter; -1 = unparameterized. For kPinHome on a
  // multi-socket topology this names the home socket the type's slabs are
  // placed on (-1 = each slab stays on its allocating core's socket).
  int param = -1;
};

// An ordered set of transforms, carried by value through RunSpec into the
// SlabAllocator. Multiple transforms may target one type (e.g. pad + recolor);
// duplicates are ignored.
class TransformSet {
 public:
  void Add(const std::string& type, TypeTransformKind kind, int param = -1);

  bool Has(std::string_view type, TypeTransformKind kind) const;
  // The parameter of the (type, kind) entry, or -1 when absent or
  // unparameterized.
  int ParamFor(std::string_view type, TypeTransformKind kind) const;
  bool empty() const { return entries_.empty(); }
  const std::vector<TypeTransform>& entries() const { return entries_; }

  // Canonical "type:kind,type:kind" rendering (insertion order), for labels
  // and diagnostics.
  std::string ToString() const;

 private:
  std::vector<TypeTransform> entries_;
};

}  // namespace dprof

#endif  // DPROF_SRC_ALLOC_TYPE_TRANSFORM_H_
