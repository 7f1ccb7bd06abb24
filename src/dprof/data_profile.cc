#include "src/dprof/data_profile.h"

#include <algorithm>

#include "src/util/stats.h"
#include "src/util/table.h"

namespace dprof {

namespace {

// A type bounces if at least this fraction of its samples were served from
// another core's cache.
constexpr double kBounceForeignThreshold = 0.005;

}  // namespace

DataProfile DataProfile::Build(const TypeRegistry& registry, const AccessSampleTable& samples,
                               const AddressSet& addresses, uint64_t now) {
  DataProfile profile;
  const auto by_type = samples.AggregateByType();
  const double total_misses = static_cast<double>(samples.l1_miss_samples());
  for (const auto& [type, agg] : by_type) {
    DataProfileRow row;
    row.type = type;
    row.name = registry.Name(type);
    row.samples = agg.samples;
    row.miss_pct = Pct(static_cast<double>(agg.l1_misses), total_misses);
    row.bounce = agg.ForeignFraction() >= kBounceForeignThreshold;
    row.working_set_bytes = addresses.AverageLiveBytes(type, now);
    if (row.working_set_bytes == 0.0) {
      // Statically allocated types never appear in the address set; fall
      // back to the type size (one instance assumed).
      row.working_set_bytes = registry.Size(type);
    }
    if (agg.l1_misses > 0) {
      row.avg_miss_latency =
          static_cast<double>(agg.latency_sum) / static_cast<double>(agg.samples);
    }
    profile.rows_.push_back(std::move(row));
  }
  std::sort(profile.rows_.begin(), profile.rows_.end(),
            [](const DataProfileRow& a, const DataProfileRow& b) {
              return a.miss_pct > b.miss_pct;
            });
  return profile;
}

const DataProfileRow* DataProfile::Find(TypeId type) const {
  for (const DataProfileRow& row : rows_) {
    if (row.type == type) {
      return &row;
    }
  }
  return nullptr;
}

std::vector<TypeId> DataProfile::TopTypes(size_t count) const {
  std::vector<TypeId> out;
  for (const DataProfileRow& row : rows_) {
    if (out.size() >= count) {
      break;
    }
    out.push_back(row.type);
  }
  return out;
}

std::string DataProfile::ToTable(size_t top_n) const {
  TablePrinter table({"Type name", "Working Set Size", "% of all L1 misses", "Bounce"});
  double total_pct = 0.0;
  double total_bytes = 0.0;
  size_t shown = 0;
  for (const DataProfileRow& row : rows_) {
    if (shown >= top_n) {
      break;
    }
    table.AddRow({row.name, TablePrinter::Bytes(static_cast<uint64_t>(row.working_set_bytes)),
                  TablePrinter::Percent(row.miss_pct), row.bounce ? "yes" : "no"});
    total_pct += row.miss_pct;
    total_bytes += row.working_set_bytes;
    ++shown;
  }
  table.AddRow({"Total", TablePrinter::Bytes(static_cast<uint64_t>(total_bytes)),
                TablePrinter::Percent(total_pct), "-"});
  return table.ToString();
}

}  // namespace dprof
