#include "src/dprof/address_set.h"

#include "src/util/check.h"

namespace dprof {
namespace {

constexpr uint64_t kSeed = 0x5eed;  // seeds the reservoir draws
// Sampled addresses are kept modulo the largest cache of interest.
constexpr uint64_t kModulo = 16 * 1024 * 1024;
constexpr size_t kReservoirPerType = 4096;

}  // namespace

AddressSet::AddressSet() : rng_(kSeed) {}

AddressSet::PerType& AddressSet::Entry(TypeId type) {
  DPROF_CHECK(type != kInvalidType);
  if (type >= per_type_.size()) {
    per_type_.resize(static_cast<size_t>(type) + 1);
  }
  return per_type_[type];
}

const AddressSet::PerType* AddressSet::Find(TypeId type) const {
  return type < per_type_.size() ? &per_type_[type] : nullptr;
}

void AddressSet::OnAlloc(TypeId type, Addr base, uint32_t size, int core, uint64_t now) {
  (void)core;
  PerType& entry = Entry(type);
  // Per-core clocks are only loosely synchronized; never integrate backwards.
  if (now > entry.last_event) {
    entry.live_integral +=
        static_cast<double>(entry.live) * static_cast<double>(now - entry.last_event);
    entry.last_event = now;
  }
  ++entry.allocs;
  ++entry.live;
  entry.obj_size = size;

  const Addr sample = base % kModulo;
  if (entry.samples.size() < kReservoirPerType) {
    entry.samples.push_back(sample);
  } else {
    // Reservoir sampling keeps a uniform sample of all allocations.
    const uint64_t slot = rng_.Below(entry.allocs);
    if (slot < entry.samples.size()) {
      entry.samples[slot] = sample;
    }
  }
}

void AddressSet::OnFree(TypeId type, Addr base, uint32_t size, int core, uint64_t now) {
  (void)base;
  (void)size;
  (void)core;
  PerType& entry = Entry(type);
  if (now > entry.last_event) {
    entry.live_integral +=
        static_cast<double>(entry.live) * static_cast<double>(now - entry.last_event);
    entry.last_event = now;
  }
  ++entry.frees;
  if (entry.live > 0) {
    --entry.live;
  }
}

uint64_t AddressSet::AllocCount(TypeId type) const {
  const PerType* entry = Find(type);
  return entry == nullptr ? 0 : entry->allocs;
}

uint64_t AddressSet::LiveCount(TypeId type) const {
  const PerType* entry = Find(type);
  return entry == nullptr ? 0 : entry->live;
}

uint32_t AddressSet::ObjectSize(TypeId type) const {
  const PerType* entry = Find(type);
  return entry == nullptr ? 0 : entry->obj_size;
}

double AddressSet::AverageLiveBytes(TypeId type, uint64_t now) const {
  const PerType* entry = Find(type);
  if (entry == nullptr || now == 0) {
    return 0.0;
  }
  double integral = entry->live_integral;
  if (now > entry->last_event) {
    integral += static_cast<double>(entry->live) * static_cast<double>(now - entry->last_event);
  }
  return integral / static_cast<double>(now) * entry->obj_size;
}

const std::vector<Addr>& AddressSet::AddressSamples(TypeId type) const {
  const PerType* entry = Find(type);
  return entry == nullptr ? empty_ : entry->samples;
}

std::vector<TypeId> AddressSet::KnownTypes() const {
  std::vector<TypeId> out;
  for (TypeId type = 0; type < per_type_.size(); ++type) {
    // Every event counts an alloc or a free.
    if (per_type_[type].allocs + per_type_[type].frees > 0) {
      out.push_back(type);
    }
  }
  return out;
}

}  // namespace dprof
