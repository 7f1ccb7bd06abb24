// The data profile view (paper §3, Tables 6.1 / 6.4 / 6.5): data types
// ranked by their share of all L1 misses, with working-set size and a
// CPU-bounce flag.

#ifndef DPROF_SRC_DPROF_DATA_PROFILE_H_
#define DPROF_SRC_DPROF_DATA_PROFILE_H_

#include <string>
#include <vector>

#include "src/alloc/type_registry.h"
#include "src/dprof/access_sample.h"
#include "src/dprof/address_set.h"

namespace dprof {

struct DataProfileRow {
  TypeId type = kInvalidType;
  std::string name;
  double working_set_bytes = 0.0;  // average concurrently-live bytes
  double miss_pct = 0.0;           // share of all L1-miss samples
  bool bounce = false;             // objects move between CPUs
  uint64_t samples = 0;
  double avg_miss_latency = 0.0;
};

class DataProfile {
 public:
  static DataProfile Build(const TypeRegistry& registry, const AccessSampleTable& samples,
                           const AddressSet& addresses, uint64_t now);

  const std::vector<DataProfileRow>& rows() const { return rows_; }

  // Row for `type`, or nullptr.
  const DataProfileRow* Find(TypeId type) const;

  // Types ordered by miss share (the "top data types" DProf would suggest
  // profiling further).
  std::vector<TypeId> TopTypes(size_t count) const;

  // Renders the Table 6.1-style view.
  std::string ToTable(size_t top_n) const;

 private:
  std::vector<DataProfileRow> rows_;
};

}  // namespace dprof

#endif  // DPROF_SRC_DPROF_DATA_PROFILE_H_
