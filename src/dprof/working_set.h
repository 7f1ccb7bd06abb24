// The working set view (paper §3, §4.2): which types occupy the cache, how
// many objects of each are active, and how data distributes over cache
// associativity sets.
//
// DProf estimates cache contents with a simple simulation over the address
// set: for each type, it places the estimated number of concurrently-live
// objects (sampled addresses modulo the cache size) and marks the lines its
// path traces / access samples touch. The per-associativity-set histogram
// of distinct lines identifies oversubscribed sets (conflict candidates);
// total demand vs. cache capacity identifies capacity pressure.

#ifndef DPROF_SRC_DPROF_WORKING_SET_H_
#define DPROF_SRC_DPROF_WORKING_SET_H_

#include <map>
#include <string>
#include <vector>

#include "src/alloc/type_registry.h"
#include "src/dprof/access_sample.h"
#include "src/dprof/address_set.h"
#include "src/sim/cache.h"
#include "src/util/rng.h"

namespace dprof {

struct WorkingSetRow {
  TypeId type = kInvalidType;
  std::string name;
  double avg_live_objects = 0.0;
  double avg_live_bytes = 0.0;
  double cache_lines_touched = 0.0;  // estimated distinct lines in the cache
};

struct AssocSetPressure {
  uint64_t set = 0;
  uint64_t distinct_lines = 0;
  std::map<TypeId, uint64_t> lines_per_type;
};

class WorkingSetView {
 public:
  // Models a cache of geometry `geom`; DProfSession passes the machine's
  // private L2.
  static WorkingSetView Build(const TypeRegistry& registry, const AddressSet& addresses,
                              const AccessSampleTable& samples, uint64_t now,
                              const CacheGeometry& geom);

  const std::vector<WorkingSetRow>& rows() const { return rows_; }
  const WorkingSetRow* Find(TypeId type) const;

  // Associativity sets flagged as conflict-suffering, most pressured first.
  const std::vector<AssocSetPressure>& conflicted_sets() const { return conflicted_; }

  // Distinct-line histogram over all associativity sets.
  const std::vector<uint64_t>& set_histogram() const { return set_histogram_; }
  double mean_lines_per_set() const { return mean_lines_per_set_; }

  // Total estimated distinct lines vs. cache capacity in lines.
  double demand_lines() const { return demand_lines_; }
  double capacity_lines() const { return capacity_lines_; }
  bool OverCapacity() const { return demand_lines_ > capacity_lines_; }

  // Fraction of `type`'s lines that land in conflicted sets.
  double ConflictedFraction(TypeId type) const;

  // Machine-readable form: rows plus demand/capacity and the conflicted
  // associativity sets.
  std::string ToJson() const;

 private:
  std::vector<WorkingSetRow> rows_;
  std::vector<AssocSetPressure> conflicted_;
  std::vector<uint64_t> set_histogram_;
  std::map<TypeId, uint64_t> conflicted_lines_per_type_;
  std::map<TypeId, uint64_t> total_lines_per_type_;
  double mean_lines_per_set_ = 0.0;
  double demand_lines_ = 0.0;
  double capacity_lines_ = 0.0;
};

}  // namespace dprof

#endif  // DPROF_SRC_DPROF_WORKING_SET_H_
