#include "src/dprof/working_set.h"

#include <algorithm>
#include <unordered_set>

#include "src/util/check.h"
#include "src/util/json_writer.h"

namespace dprof {

namespace {

// A set is conflicted if it holds more than kConflictFactor times the
// average and more lines than it has ways (paper §4.3's factor-2 rule).
constexpr double kConflictFactor = 2.0;
constexpr uint64_t kSeed = 0xca11;  // seeds the address-sample draws

// Offsets of `type` that the profiled software actually touches, from the
// access samples; used to mark which lines of each live object are cached.
std::vector<uint32_t> TouchedLineOffsets(const AccessSampleTable& samples, TypeId type,
                                         uint32_t obj_size, uint32_t line_size) {
  std::unordered_set<uint32_t> lines;
  for (const auto& [key, stats] : samples.cells()) {
    if (key.type == type) {
      lines.insert(key.offset / line_size * line_size);
    }
  }
  std::vector<uint32_t> out(lines.begin(), lines.end());
  if (out.empty()) {
    // No samples: assume the whole object is touched.
    for (uint32_t off = 0; off < std::max(obj_size, line_size); off += line_size) {
      out.push_back(off);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

WorkingSetView WorkingSetView::Build(const TypeRegistry& registry, const AddressSet& addresses,
                                     const AccessSampleTable& samples, uint64_t now,
                                     const CacheGeometry& geom) {
  WorkingSetView view;
  // LineOf/SetOf are shift/mask math and silently wrong otherwise.
  DPROF_CHECK(geom.IsPowerOfTwoShaped());
  const uint64_t num_sets = geom.NumSets();
  view.set_histogram_.assign(num_sets, 0);
  view.capacity_lines_ = static_cast<double>(num_sets) * geom.ways;

  Rng rng(kSeed);
  std::vector<std::map<TypeId, uint64_t>> per_set_types(num_sets);

  for (const TypeId type : addresses.KnownTypes()) {
    const uint32_t obj_size = addresses.ObjectSize(type);
    if (obj_size == 0) {
      continue;
    }
    const double avg_live_bytes = addresses.AverageLiveBytes(type, now);
    const double avg_live_objects = avg_live_bytes / obj_size;
    const std::vector<Addr>& addr_samples = addresses.AddressSamples(type);
    if (addr_samples.empty()) {
      continue;
    }

    WorkingSetRow row;
    row.type = type;
    row.name = registry.Name(type);
    row.avg_live_objects = avg_live_objects;
    row.avg_live_bytes = avg_live_bytes;

    const std::vector<uint32_t> touched =
        TouchedLineOffsets(samples, type, obj_size, geom.line_size);

    // Place round(avg_live_objects) objects, drawing addresses from the
    // sampled address set, and mark each touched line.
    const uint64_t objects =
        std::min<uint64_t>(static_cast<uint64_t>(avg_live_objects + 0.5), 1u << 20);
    std::unordered_set<uint64_t> lines_seen;
    for (uint64_t i = 0; i < objects; ++i) {
      const Addr base = addr_samples[i < addr_samples.size()
                                         ? i
                                         : rng.Below(addr_samples.size())];
      for (const uint32_t off : touched) {
        const uint64_t line = geom.LineOf(base + off);
        if (!lines_seen.insert(line).second) {
          continue;
        }
        const uint64_t set = geom.SetOf(line);
        ++view.set_histogram_[set];
        ++per_set_types[set][type];
        ++view.total_lines_per_type_[type];
      }
    }
    row.cache_lines_touched = static_cast<double>(lines_seen.size());
    view.demand_lines_ += row.cache_lines_touched;
    view.rows_.push_back(std::move(row));
  }

  std::sort(view.rows_.begin(), view.rows_.end(),
            [](const WorkingSetRow& a, const WorkingSetRow& b) {
              return a.avg_live_bytes > b.avg_live_bytes;
            });

  // Conflict detection: sets holding > kConflictFactor * mean and more lines
  // than they have ways.
  uint64_t total = 0;
  for (const uint64_t count : view.set_histogram_) {
    total += count;
  }
  view.mean_lines_per_set_ =
      num_sets == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(num_sets);
  for (uint64_t set = 0; set < num_sets; ++set) {
    const uint64_t count = view.set_histogram_[set];
    if (count > geom.ways &&
        static_cast<double>(count) > kConflictFactor * view.mean_lines_per_set_) {
      AssocSetPressure pressure;
      pressure.set = set;
      pressure.distinct_lines = count;
      pressure.lines_per_type = per_set_types[set];
      for (const auto& [type, lines] : per_set_types[set]) {
        view.conflicted_lines_per_type_[type] += lines;
      }
      view.conflicted_.push_back(std::move(pressure));
    }
  }
  std::sort(view.conflicted_.begin(), view.conflicted_.end(),
            [](const AssocSetPressure& a, const AssocSetPressure& b) {
              return a.distinct_lines > b.distinct_lines;
            });
  return view;
}

const WorkingSetRow* WorkingSetView::Find(TypeId type) const {
  for (const WorkingSetRow& row : rows_) {
    if (row.type == type) {
      return &row;
    }
  }
  return nullptr;
}

double WorkingSetView::ConflictedFraction(TypeId type) const {
  auto total_it = total_lines_per_type_.find(type);
  if (total_it == total_lines_per_type_.end() || total_it->second == 0) {
    return 0.0;
  }
  auto conf_it = conflicted_lines_per_type_.find(type);
  const uint64_t conflicted = conf_it == conflicted_lines_per_type_.end() ? 0 : conf_it->second;
  return static_cast<double>(conflicted) / static_cast<double>(total_it->second);
}

std::string WorkingSetView::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("demand_lines").Number(demand_lines_);
  json.Key("capacity_lines").Number(capacity_lines_);
  json.Key("over_capacity").Bool(OverCapacity());
  json.Key("mean_lines_per_set").Number(mean_lines_per_set_);
  json.Key("rows").BeginArray();
  for (const WorkingSetRow& row : rows_) {
    json.BeginObject();
    json.Key("type").String(row.name);
    json.Key("avg_live_objects").Number(row.avg_live_objects);
    json.Key("avg_live_bytes").Number(row.avg_live_bytes);
    json.Key("cache_lines_touched").Number(row.cache_lines_touched);
    json.Key("conflicted_fraction").Number(ConflictedFraction(row.type));
    json.EndObject();
  }
  json.EndArray();
  json.Key("conflicted_sets").BeginArray();
  for (const AssocSetPressure& pressure : conflicted_) {
    json.BeginObject();
    json.Key("set").UInt(pressure.set);
    json.Key("distinct_lines").UInt(pressure.distinct_lines);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

}  // namespace dprof
