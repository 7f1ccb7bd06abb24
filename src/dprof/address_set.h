// The address set (paper §4, §5): the address and type of every object
// allocated during execution, plus live-count accounting.
//
// DProf uses the address set to (a) estimate per-type working-set sizes and
// lifetimes and (b) map objects onto cache associativity sets. Per the
// paper, storing addresses modulo the maximum cache size is sufficient; we
// additionally reservoir-sample per type to bound memory.

#ifndef DPROF_SRC_DPROF_ADDRESS_SET_H_
#define DPROF_SRC_DPROF_ADDRESS_SET_H_

#include <cstdint>
#include <vector>

#include "src/alloc/slab_allocator.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace dprof {

struct AddressSetOptions {
  uint64_t modulo = 16 * 1024 * 1024;  // max cache size of interest
  size_t reservoir_per_type = 4096;
  uint64_t seed = 0x5eed;
};

class AddressSet final : public AllocationObserver {
 public:
  explicit AddressSet(const AddressSetOptions& options = {});

  // AllocationObserver:
  void OnAlloc(TypeId type, Addr base, uint32_t size, int core, uint64_t now) override;
  void OnFree(TypeId type, Addr base, uint32_t size, int core, uint64_t now) override;

  uint64_t AllocCount(TypeId type) const;
  uint64_t LiveCount(TypeId type) const;
  uint32_t ObjectSize(TypeId type) const;

  // Average concurrently-live bytes of `type` over [0, now].
  double AverageLiveBytes(TypeId type, uint64_t now) const;

  // Mean allocate-to-free lifetime in cycles (completed objects only).
  double AverageLifetime(TypeId type) const;

  // Sampled object base addresses (modulo `options.modulo`).
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
    RunningStat lifetime;
    std::vector<Addr> samples;
  };

  // One slot of the live-object table; `base == kEmptySlot` marks it free.
  struct LiveSlot {
    Addr base;
    uint64_t alloc_time;
  };
  static constexpr Addr kEmptySlot = ~Addr{0};

  PerType& Entry(TypeId type);
  // The entry for `type`, or nullptr past the highest TypeId seen. Entries
  // below it that no event named read as all zeros.
  const PerType* Find(TypeId type) const;

  // Alloc time of every live object, keyed by base address: open addressing
  // with linear probing over a power-of-two table that doubles at half load,
  // and backward-shift deletion, so no tombstones build up under churn.
  size_t HomeSlot(Addr base) const;
  void InsertLive(Addr base, uint64_t now);
  // Removes `base` and stores its alloc time; false if it was not live.
  bool EraseLive(Addr base, uint64_t* alloc_time);
  void GrowLive();

  AddressSetOptions options_;
  Rng rng_;
  std::vector<PerType> per_type_;  // indexed by TypeId (registry ids are dense)
  std::vector<LiveSlot> live_slots_;
  size_t live_count_ = 0;
  int live_shift_ = 0;  // 64 - log2(live_slots_.size())
  std::vector<Addr> empty_;
};

}  // namespace dprof

#endif  // DPROF_SRC_DPROF_ADDRESS_SET_H_
