#include "src/dprof/miss_classifier.h"

#include <algorithm>

#include "src/util/stats.h"
#include "src/util/json_writer.h"
#include "src/util/table.h"

namespace dprof {
namespace {

// Conflicts are "concentrated" (vs. uniform capacity pressure) when the
// conflicted sets hold at most this fraction of all sets.
constexpr double kConcentratedSetsFraction = 0.10;

}  // namespace

const char* MissKindName(MissKind kind) {
  switch (kind) {
    case MissKind::kNone:
      return "none";
    case MissKind::kInvalidation:
      return "invalidation";
    case MissKind::kConflict:
      return "conflict";
    case MissKind::kCapacity:
      return "capacity";
  }
  return "?";
}

std::vector<MissClassRow> MissClassifier::Build(
    const TypeRegistry& registry, const AccessSampleTable& samples,
    const WorkingSetView& working_set,
    const std::vector<std::vector<PathTrace>>& traces_per_type) {
  const auto by_type = samples.AggregateByType();

  // Are conflicts concentrated in a few sets (conflict regime) or spread
  // uniformly (capacity regime)? Paper §4.3's distinction.
  const size_t num_sets = working_set.set_histogram().size();
  const bool conflicts_concentrated =
      !working_set.conflicted_sets().empty() &&
      static_cast<double>(working_set.conflicted_sets().size()) <=
          kConcentratedSetsFraction * static_cast<double>(num_sets);
  const bool over_capacity = working_set.OverCapacity();

  std::vector<MissClassRow> rows;
  for (const auto& [type, agg] : by_type) {
    if (agg.l1_misses == 0) {
      continue;
    }
    MissClassRow row;
    row.type = type;
    row.name = registry.Name(type);
    row.miss_samples = agg.l1_misses;

    // Invalidation evidence: foreign-cache fetches among this type's misses.
    double invalidation =
        static_cast<double>(agg.foreign) / static_cast<double>(agg.l1_misses);
    for (const auto& traces : traces_per_type) {
      for (const PathTrace& trace : traces) {
        if (trace.type == type && trace.HasInvalidationPattern()) {
          row.path_invalidation_evidence = true;
        }
      }
    }

    // Conflict evidence: this type's lines sit in oversubscribed sets.
    double conflict = 0.0;
    if (conflicts_concentrated) {
      conflict = working_set.ConflictedFraction(type);
    }

    // Capacity: non-invalidation misses when demand exceeds capacity and
    // pressure is uniform.
    double capacity = 0.0;
    if (over_capacity && !conflicts_concentrated) {
      capacity = 1.0 - invalidation;
    } else if (over_capacity) {
      capacity = std::max(0.0, 1.0 - invalidation - conflict);
    }

    // Normalize to percentages (shares are estimates and may overlap).
    double total = invalidation + conflict + capacity;
    if (total <= 0.0) {
      // No structural evidence: attribute to capacity-ish background.
      capacity = 1.0;
      total = 1.0;
    }
    row.invalidation_pct = 100.0 * invalidation / total;
    row.conflict_pct = 100.0 * conflict / total;
    row.capacity_pct = 100.0 * capacity / total;

    row.dominant = MissKind::kInvalidation;
    double best = row.invalidation_pct;
    if (row.conflict_pct > best) {
      row.dominant = MissKind::kConflict;
      best = row.conflict_pct;
    }
    if (row.capacity_pct > best) {
      row.dominant = MissKind::kCapacity;
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const MissClassRow& a, const MissClassRow& b) {
    return a.miss_samples > b.miss_samples;
  });
  return rows;
}

std::string MissClassifier::ToTable(const std::vector<MissClassRow>& rows) {
  TablePrinter table(
      {"Type name", "Invalidation", "Conflict", "Capacity", "Dominant", "Miss samples"});
  table.SetAlign(4, TablePrinter::Align::kLeft);
  for (const MissClassRow& row : rows) {
    table.AddRow({row.name, TablePrinter::Percent(row.invalidation_pct, 1),
                  TablePrinter::Percent(row.conflict_pct, 1),
                  TablePrinter::Percent(row.capacity_pct, 1), MissKindName(row.dominant),
                  TablePrinter::Count(row.miss_samples)});
  }
  return table.ToString();
}


std::string MissClassifier::ToJson(const std::vector<MissClassRow>& rows) {
  JsonWriter json;
  json.BeginArray();
  for (const MissClassRow& row : rows) {
    json.BeginObject();
    json.Key("type").String(row.name);
    json.Key("invalidation_pct").Number(row.invalidation_pct);
    json.Key("conflict_pct").Number(row.conflict_pct);
    json.Key("capacity_pct").Number(row.capacity_pct);
    json.Key("dominant").String(MissKindName(row.dominant));
    json.Key("miss_samples").UInt(row.miss_samples);
    json.Key("path_invalidation_evidence").Bool(row.path_invalidation_evidence);
    json.EndObject();
  }
  json.EndArray();
  return json.str();
}

}  // namespace dprof
