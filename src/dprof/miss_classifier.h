// The miss classification view (paper §3, §4.3): per data type, how its
// cache misses split between invalidations (true/false sharing), conflict
// misses, and capacity misses. Compulsory misses are assumed absent, as in
// the paper.
//
// Classification logic:
//  - Invalidation share: the fraction of the type's misses explained by a
//    foreign-cache fetch, corroborated by path traces showing a write from a
//    different CPU to the same cache line earlier in the object's life.
//  - Conflict share: the fraction of the type's lines living in
//    oversubscribed associativity sets (working-set view, factor-2 rule) —
//    but only when conflicts concentrate in a few sets.
//  - Capacity share: the remainder when total demand exceeds capacity and
//    pressure is roughly uniform across sets.

#ifndef DPROF_SRC_DPROF_MISS_CLASSIFIER_H_
#define DPROF_SRC_DPROF_MISS_CLASSIFIER_H_

#include <string>
#include <vector>

#include "src/dprof/access_sample.h"
#include "src/dprof/path_trace.h"
#include "src/dprof/working_set.h"

namespace dprof {

enum class MissKind { kNone, kInvalidation, kConflict, kCapacity };

const char* MissKindName(MissKind kind);

struct MissClassRow {
  TypeId type = kInvalidType;
  std::string name;
  double invalidation_pct = 0.0;
  double conflict_pct = 0.0;
  double capacity_pct = 0.0;
  MissKind dominant = MissKind::kNone;
  uint64_t miss_samples = 0;
  bool path_invalidation_evidence = false;  // corroborated by path traces
};

class MissClassifier {
 public:
  // `traces_per_type` may be empty for types without collected histories;
  // classification then relies on sample-level evidence alone.
  static std::vector<MissClassRow> Build(
      const TypeRegistry& registry, const AccessSampleTable& samples,
      const WorkingSetView& working_set,
      const std::vector<std::vector<PathTrace>>& traces_per_type);

  static std::string ToTable(const std::vector<MissClassRow>& rows);

  // Machine-readable form: an array of row objects.
  static std::string ToJson(const std::vector<MissClassRow>& rows);
};

}  // namespace dprof

#endif  // DPROF_SRC_DPROF_MISS_CLASSIFIER_H_
