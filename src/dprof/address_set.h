// The address set (paper §4, §5): the address and type of every object
// allocated during execution, plus live-count accounting.
//
// DProf uses the address set to (a) estimate per-type working-set sizes and
// (b) map objects onto cache associativity sets. Per the paper, storing
// addresses modulo the maximum cache size is sufficient; we additionally
// reservoir-sample per type to bound memory.

#ifndef DPROF_SRC_DPROF_ADDRESS_SET_H_
#define DPROF_SRC_DPROF_ADDRESS_SET_H_

#include <cstdint>
#include <vector>

#include "src/alloc/slab_allocator.h"
#include "src/util/rng.h"

namespace dprof {

class AddressSet final : public AllocationObserver {
 public:
  AddressSet();

  // AllocationObserver:
  void OnAlloc(TypeId type, Addr base, uint32_t size, int core, uint64_t now) override;
  void OnFree(TypeId type, Addr base, uint32_t size, int core, uint64_t now) override;

  uint64_t AllocCount(TypeId type) const;
  uint64_t LiveCount(TypeId type) const;
  uint32_t ObjectSize(TypeId type) const;

  // Average concurrently-live bytes of `type` over [0, now].
  double AverageLiveBytes(TypeId type, uint64_t now) const;

  // Sampled object base addresses (modulo 16 MiB, at most 4,096 per type).
  const std::vector<Addr>& AddressSamples(TypeId type) const;

  std::vector<TypeId> KnownTypes() const;

 private:
  struct PerType {
    uint64_t allocs = 0;
    uint64_t frees = 0;
    uint64_t live = 0;
    uint32_t obj_size = 0;
    double live_integral = 0.0;
    uint64_t last_event = 0;
    std::vector<Addr> samples;
  };

  PerType& Entry(TypeId type);
  // The entry for `type`, or nullptr past the highest TypeId seen. Entries
  // below it that no event named read as all zeros.
  const PerType* Find(TypeId type) const;

  Rng rng_;
  std::vector<PerType> per_type_;  // indexed by TypeId (registry ids are dense)
  std::vector<Addr> empty_;
};

}  // namespace dprof

#endif  // DPROF_SRC_DPROF_ADDRESS_SET_H_
