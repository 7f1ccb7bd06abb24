#include "src/dprof/access_sample.h"

#include <algorithm>

namespace dprof {

void AccessSampleTable::Record(const IbsSample& sample, const ResolveResult& resolved) {
  ++total_samples_;
  if (sample.level != ServedBy::kL1) {
    ++l1_misses_;
  }
  if (!resolved.valid) {
    ++unresolved_;
    return;
  }
  const SampleKey key{resolved.type, resolved.offset, sample.ip};
  auto [it, inserted] = cells_.try_emplace(key);
  SampleStats& stats = it->second;
  if (inserted) {
    by_type_ip_[TypeIpKey(key.type, key.ip)].push_back(key);
  }
  ++stats.count;
  ++stats.level_counts[static_cast<int>(sample.level)];
  stats.latency_sum += sample.latency;
  if (sample.is_write) {
    ++stats.writes;
  }
  stats.cpu_mask |= uint64_t{1} << sample.core;
}

std::unordered_map<TypeId, TypeSampleAgg> AccessSampleTable::AggregateByType() const {
  std::unordered_map<TypeId, TypeSampleAgg> out;
  for (const auto& [key, stats] : cells_) {
    TypeSampleAgg& agg = out[key.type];
    agg.samples += stats.count;
    agg.latency_sum += stats.latency_sum;
    agg.cpu_mask |= stats.cpu_mask;
    for (int level = 1; level < 5; ++level) {
      agg.l1_misses += stats.level_counts[level];
    }
    agg.foreign += stats.level_counts[static_cast<int>(ServedBy::kForeignCache)];
    agg.dram += stats.level_counts[static_cast<int>(ServedBy::kDram)];
  }
  return out;
}

RangeStats AccessSampleTable::Aggregate(TypeId type, FunctionId ip, uint32_t offset_lo,
                                        uint32_t offset_hi) const {
  RangeStats out;
  auto it = by_type_ip_.find(TypeIpKey(type, ip));
  if (it == by_type_ip_.end()) {
    return out;
  }
  uint64_t level_counts[5] = {0, 0, 0, 0, 0};
  uint64_t latency_sum = 0;
  for (const SampleKey& key : it->second) {
    if (key.offset < offset_lo || key.offset > offset_hi) {
      continue;
    }
    const SampleStats& stats = cells_.at(key);
    out.count += stats.count;
    latency_sum += stats.latency_sum;
    for (int level = 0; level < 5; ++level) {
      level_counts[level] += stats.level_counts[level];
    }
  }
  if (out.count > 0) {
    for (int level = 0; level < 5; ++level) {
      out.level_prob[level] =
          static_cast<double>(level_counts[level]) / static_cast<double>(out.count);
    }
    out.avg_latency = static_cast<double>(latency_sum) / static_cast<double>(out.count);
  }
  return out;
}

std::vector<uint32_t> AccessSampleTable::HotOffsets(TypeId type, size_t max_offsets) const {
  std::unordered_map<uint32_t, uint64_t> counts;
  for (const auto& [key, stats] : cells_) {
    if (key.type == type) {
      counts[key.offset & ~3u] += stats.count;  // 4-byte windows
    }
  }
  std::vector<std::pair<uint32_t, uint64_t>> sorted(counts.begin(), counts.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second > b.second || (a.second == b.second && a.first < b.first);
  });
  std::vector<uint32_t> out;
  for (size_t i = 0; i < sorted.size() && i < max_offsets; ++i) {
    out.push_back(sorted[i].first);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void AccessSampleTable::Clear() {
  cells_.clear();
  by_type_ip_.clear();
  total_samples_ = 0;
  unresolved_ = 0;
  l1_misses_ = 0;
}

}  // namespace dprof
