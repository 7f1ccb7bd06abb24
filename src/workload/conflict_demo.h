// A small workload that deliberately provokes associativity-conflict misses
// (paper §4.3): hot objects are placed at page-aligned strides so they all
// map to the same handful of cache associativity sets and evict each other,
// while total footprint stays far below cache capacity.
//
// Used by the miss-classification examples and tests: DProf should classify
// this workload's misses as conflict misses, not capacity misses, because a
// few associativity sets are heavily oversubscribed while most sit idle.

#ifndef DPROF_SRC_WORKLOAD_CONFLICT_DEMO_H_
#define DPROF_SRC_WORKLOAD_CONFLICT_DEMO_H_

#include <memory>
#include <vector>

#include "src/workload/kernel.h"

namespace dprof {

class ConflictDemoWorkload final : public Workload {
 public:
  explicit ConflictDemoWorkload(KernelEnv* env);
  ~ConflictDemoWorkload() override;

  void Install(Machine& machine) override;
  uint64_t CompletedRequests() const override;
  void ResetStats() override;

  TypeId hot_type() const { return hot_type_; }

 private:
  class CoreDriver;

  KernelEnv* env_;
  TypeId hot_type_ = kInvalidType;
  std::vector<std::unique_ptr<CoreDriver>> drivers_;
};

}  // namespace dprof

#endif  // DPROF_SRC_WORKLOAD_CONFLICT_DEMO_H_
