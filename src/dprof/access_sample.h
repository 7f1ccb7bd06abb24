// Access samples (paper §5.1, Table 5.1).
//
// Each IBS interrupt yields one access sample: {type, offset, ip, cpu,
// cache-level + latency stats}. DProf aggregates samples by (type, offset,
// ip) — the key its path-trace augmentation step joins on (§5.4) — instead
// of keeping the raw 88-byte records in RAM.

#ifndef DPROF_SRC_DPROF_ACCESS_SAMPLE_H_
#define DPROF_SRC_DPROF_ACCESS_SAMPLE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/alloc/slab_allocator.h"
#include "src/pmu/ibs_unit.h"
#include "src/util/types.h"

namespace dprof {

struct SampleKey {
  TypeId type = kInvalidType;
  uint32_t offset = 0;
  FunctionId ip = kInvalidFunction;

  bool operator==(const SampleKey& other) const {
    return type == other.type && offset == other.offset && ip == other.ip;
  }
};

struct SampleKeyHash {
  size_t operator()(const SampleKey& k) const {
    uint64_t h = k.type;
    h = h * 0x9e3779b97f4a7c15ull + k.offset;
    h = h * 0x9e3779b97f4a7c15ull + k.ip;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

// Aggregated statistics for one (type, offset, ip) cell.
struct SampleStats {
  uint64_t count = 0;
  uint64_t level_counts[5] = {0, 0, 0, 0, 0};  // indexed by ServedBy
  uint64_t latency_sum = 0;
  uint64_t writes = 0;
  uint64_t cpu_mask = 0;  // bit c: core c sampled this cell (up to 64 cores)
};

// Aggregate over a (type, ip, offset-range) used to augment path steps.
struct RangeStats {
  uint64_t count = 0;
  double level_prob[5] = {0, 0, 0, 0, 0};
  double avg_latency = 0.0;
};

// Per-type aggregate used by the data profile view.
struct TypeSampleAgg {
  uint64_t samples = 0;
  uint64_t l1_misses = 0;
  uint64_t foreign = 0;
  uint64_t dram = 0;
  uint64_t latency_sum = 0;
  uint64_t cpu_mask = 0;

  double ForeignFraction() const {
    return samples == 0 ? 0.0 : static_cast<double>(foreign) / static_cast<double>(samples);
  }
};

class AccessSampleTable {
 public:
  // Records one IBS sample, resolving its data address through the typed
  // allocator. Unresolvable addresses (stack, unknown regions) are counted
  // but not attributed.
  void Record(const IbsSample& sample, const ResolveResult& resolved);

  uint64_t total_samples() const { return total_samples_; }
  uint64_t unresolved_samples() const { return unresolved_; }
  uint64_t l1_miss_samples() const { return l1_misses_; }

  const std::unordered_map<SampleKey, SampleStats, SampleKeyHash>& cells() const {
    return cells_;
  }

  std::unordered_map<TypeId, TypeSampleAgg> AggregateByType() const;

  // Aggregates all cells with this type/ip whose offset falls in
  // [offset_lo, offset_hi].
  RangeStats Aggregate(TypeId type, FunctionId ip, uint32_t offset_lo,
                       uint32_t offset_hi) const;

  // Offsets of this type with the most samples — DProf uses these to decide
  // which object members are worth pairwise profiling (paper §6.4).
  std::vector<uint32_t> HotOffsets(TypeId type, size_t max_offsets) const;

  void Clear();

 private:
  std::unordered_map<SampleKey, SampleStats, SampleKeyHash> cells_;
  // Secondary index: (type, ip) -> keys, for range aggregation.
  std::unordered_map<uint64_t, std::vector<SampleKey>> by_type_ip_;
  uint64_t total_samples_ = 0;
  uint64_t unresolved_ = 0;
  uint64_t l1_misses_ = 0;

  static uint64_t TypeIpKey(TypeId type, FunctionId ip) {
    return (static_cast<uint64_t>(type) << 32) | ip;
  }
};

}  // namespace dprof

#endif  // DPROF_SRC_DPROF_ACCESS_SAMPLE_H_
