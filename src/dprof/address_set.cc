#include "src/dprof/address_set.h"

#include <utility>

#include "src/util/check.h"

namespace dprof {
namespace {

// Initial live-object table size (slots); it doubles whenever it would pass
// half full.
constexpr int kInitialLiveLog2 = 12;

}  // namespace

AddressSet::AddressSet(const AddressSetOptions& options)
    : options_(options),
      rng_(options.seed),
      live_slots_(size_t{1} << kInitialLiveLog2, LiveSlot{kEmptySlot, 0}),
      live_shift_(64 - kInitialLiveLog2) {}

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

size_t AddressSet::HomeSlot(Addr base) const {
  // Fibonacci hashing: object bases share their low bits, the product's top
  // bits do not.
  return static_cast<size_t>((base * 0x9e3779b97f4a7c15ull) >> live_shift_);
}

void AddressSet::InsertLive(Addr base, uint64_t now) {
  DPROF_CHECK(base != kEmptySlot);
  if ((live_count_ + 1) * 2 > live_slots_.size()) {
    GrowLive();
  }
  const size_t mask = live_slots_.size() - 1;
  for (size_t i = HomeSlot(base);; i = (i + 1) & mask) {
    LiveSlot& slot = live_slots_[i];
    if (slot.base == base) {
      slot.alloc_time = now;  // re-alloc of a live base restarts its lifetime
      return;
    }
    if (slot.base == kEmptySlot) {
      slot = LiveSlot{base, now};
      ++live_count_;
      return;
    }
  }
}

bool AddressSet::EraseLive(Addr base, uint64_t* alloc_time) {
  if (base == kEmptySlot) {
    return false;  // never inserted (InsertLive rejects it)
  }
  const size_t mask = live_slots_.size() - 1;
  size_t hole = HomeSlot(base);
  while (live_slots_[hole].base != base) {
    if (live_slots_[hole].base == kEmptySlot) {
      return false;
    }
    hole = (hole + 1) & mask;
  }
  *alloc_time = live_slots_[hole].alloc_time;
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home slot lies cyclically after the hole.
  for (size_t j = (hole + 1) & mask; live_slots_[j].base != kEmptySlot; j = (j + 1) & mask) {
    const size_t home = HomeSlot(live_slots_[j].base);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      live_slots_[hole] = live_slots_[j];
      hole = j;
    }
  }
  live_slots_[hole].base = kEmptySlot;
  --live_count_;
  return true;
}

void AddressSet::GrowLive() {
  const std::vector<LiveSlot> old = std::move(live_slots_);
  live_slots_.assign(old.size() * 2, LiveSlot{kEmptySlot, 0});
  --live_shift_;
  const size_t mask = live_slots_.size() - 1;
  for (const LiveSlot& slot : old) {
    if (slot.base == kEmptySlot) {
      continue;
    }
    size_t i = HomeSlot(slot.base);
    while (live_slots_[i].base != kEmptySlot) {
      i = (i + 1) & mask;
    }
    live_slots_[i] = slot;
  }
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
  InsertLive(base, now);

  const Addr sample = base % options_.modulo;
  if (entry.samples.size() < options_.reservoir_per_type) {
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
  uint64_t alloc_time = 0;
  if (EraseLive(base, &alloc_time) && now > alloc_time) {
    entry.lifetime.Add(static_cast<double>(now - alloc_time));
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

double AddressSet::AverageLifetime(TypeId type) const {
  const PerType* entry = Find(type);
  return entry == nullptr ? 0.0 : entry->lifetime.mean();
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
