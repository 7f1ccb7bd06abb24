#include "src/sim/audit.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace dprof {

namespace {

struct Reporter {
  AuditResult* result;

  void operator()(const char* fmt, ...) {
    ++result->total_violations;
    if (result->violations.size() >= InvariantAuditor::kMaxMessages) {
      return;
    }
    char buf[256];
    va_list args;
    va_start(args, fmt);
    vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    result->violations.emplace_back(buf);
  }
};

}  // namespace

AuditResult InvariantAuditor::Audit() const {
  // Private names of the audited class, usable here by friendship.
  using Level = CacheHierarchy::Level;
  using WayMeta = CacheHierarchy::WayMeta;
  constexpr uint64_t kNoLine = CacheHierarchy::kNoLine;
  constexpr uint64_t kTagMask = CacheHierarchy::kTagMask;
  constexpr uint64_t kDirOnlyBit = CacheHierarchy::kDirOnlyBit;
  constexpr uint64_t kPrivTagMask = CacheHierarchy::kPrivTagMask;
  constexpr uint64_t kPrivExclBit = CacheHierarchy::kPrivExclBit;

  const CacheHierarchy& h = *hierarchy_;
  AuditResult result;
  Reporter violate{&result};
  const int num_cores = h.config_.num_cores;
  const uint64_t core_mask =
      num_cores >= 64 ? ~0ull : ((1ull << num_cores) - 1ull);

  // The audit trusts nothing derived: lattice lookups rescan every data way
  // and every extension slot instead of going through FindL3Slot, whose
  // early exits lean on the per-set tag count the audit is itself verifying.
  // Data tags are read decoded (kNoLine for an empty way), way by way
  // through the plane layout.
  const auto data_tag = [&](uint64_t set, uint32_t w) -> uint64_t {
    return CacheHierarchy::DecodeTag(h.l3_tags_[h.L3Slot(set, w)]);
  };
  const auto find_slot = [&](uint64_t set, uint64_t line) -> int {
    for (uint32_t w = 0; w < h.l3_ways_; ++w) {
      const uint64_t tag = data_tag(set, w);
      if (tag != kNoLine && (tag & kTagMask) == line) {
        return static_cast<int>(w);
      }
    }
    const auto& ext = h.l3_ext_[set];
    for (uint32_t i = 0; i < ext.size(); ++i) {
      if (ext[i].tag == line) {
        return static_cast<int>(h.l3_ways_ + i);
      }
    }
    return -1;
  };
  const auto meta_of = [&](uint64_t set, int slot) -> const WayMeta& {
    return static_cast<uint32_t>(slot) < h.l3_ways_
               ? h.l3_meta_[h.L3Slot(set, static_cast<uint32_t>(slot))]
               : h.l3_ext_[set][static_cast<uint32_t>(slot) - h.l3_ways_].meta;
  };

  // --- Private levels: inclusion, sharer membership, exclusive grants.
  const Level* levels[2] = {&h.l1_, &h.l2_};
  const char* level_names[2] = {"L1", "L2"};
  for (int li = 0; li < 2; ++li) {
    const Level& level = *levels[li];
    for (int core = 0; core < num_cores; ++core) {
      for (uint64_t set = 0; set < level.sets; ++set) {
        const size_t row = (static_cast<uint64_t>(core) * level.sets + set) * level.ways;
        for (uint32_t w = 0; w < level.ways; ++w) {
          const uint64_t tag = CacheHierarchy::DecodeTag(level.tags[row + w]);
          if (tag == kNoLine) {
            continue;
          }
          ++result.tags_checked;
          if (tag >= kDirOnlyBit) {
            violate("%s core %d set %" PRIu64 " way %u: malformed tag %#" PRIx64,
                    level_names[li], core, set, w, tag);
            continue;
          }
          const uint64_t line = tag & kPrivTagMask;
          for (uint32_t w2 = w + 1; w2 < level.ways; ++w2) {
            const uint64_t other = CacheHierarchy::DecodeTag(level.tags[row + w2]);
            if (other != kNoLine && (other & kPrivTagMask) == line) {
              violate("%s core %d set %" PRIu64 ": line %#" PRIx64
                      " tagged in two ways",
                      level_names[li], core, set, line);
            }
          }
          // Inclusion is a per-slice obligation: the tag must live in the
          // line's home slice (L3SetOf routes through the home socket).
          const uint64_t l3set = h.L3SetOf(line);
          const int slot = find_slot(l3set, line);
          if (slot < 0) {
            violate("inclusion: %s core %d holds line %#" PRIx64
                    " with no lattice tag in home slice %d",
                    level_names[li], core, line, h.HomeSocketOf(line << h.line_shift_));
            continue;
          }
          const WayMeta& meta = meta_of(l3set, slot);
          if (((meta.sharers >> core) & 1u) == 0) {
            violate("directory: %s core %d holds line %#" PRIx64
                    " but its sharer bit is clear",
                    level_names[li], core, line);
          }
          if ((tag & kPrivExclBit) != 0) {
            if (meta.owner() != core) {
              violate("exclusive: %s core %d carries kPrivExclBit on line %#" PRIx64
                      " but directory owner is %d",
                      level_names[li], core, line, meta.owner());
            } else if ((meta.excl_levels & (1u << li)) == 0) {
              violate("exclusive: %s core %d carries kPrivExclBit on line %#" PRIx64
                      " outside the excl_levels grant %u",
                      level_names[li], core, line, meta.excl_levels);
            }
          }
        }
      }
    }
  }

  // --- L3 lattice: tag-count bookkeeping, extension-bank cap and live tags,
  // per-set uniqueness, directory field sanity. The global set array
  // concatenates the per-socket slices, so this walk covers every slice's
  // own directory domain and extension bank; each tagged line must also sit
  // in its home slice (set / l3_sets_ names the slice being walked).
  for (uint64_t set = 0; set < h.l3_total_sets_; ++set) {
    const uint64_t slice = set / h.l3_sets_;
    const auto& ext = h.l3_ext_[set];
    const uint32_t ext_count = static_cast<uint32_t>(ext.size());
    if (ext_count > h.l3_ext_ways_) {
      violate("ext bank set %" PRIu64 ": %u live tags exceed the %u-way cap", set, ext_count,
              h.l3_ext_ways_);
      continue;
    }

    uint32_t tagged_data = 0;
    for (uint32_t w = 0; w < h.l3_ways_; ++w) {
      if (data_tag(set, w) != kNoLine) {
        ++tagged_data;
        ++result.tags_checked;
      }
    }
    if (tagged_data != h.l3_tag_count_[set]) {
      violate("lattice set %" PRIu64 ": tag count records %u but %u ways are tagged",
              set, h.l3_tag_count_[set], tagged_data);
    }
    for (uint32_t i = 0; i < ext_count; ++i) {
      const uint64_t tag = ext[i].tag;
      ++result.tags_checked;
      if (tag == kNoLine || tag >= kDirOnlyBit) {
        violate("ext bank set %" PRIu64 " slot %u: malformed live tag %#" PRIx64, set, i, tag);
      }
    }

    // Per-set uniqueness over data tags (masked of their dir-only bit) and
    // live extension tags, plus directory field sanity per tagged slot.
    const uint32_t total_slots = h.l3_ways_ + ext_count;
    const auto tag_at = [&](uint32_t s) -> uint64_t {
      return s < h.l3_ways_ ? data_tag(set, s) : ext[s - h.l3_ways_].tag;
    };
    for (uint32_t a = 0; a < total_slots; ++a) {
      const uint64_t tag_a = tag_at(a);
      if (tag_a == kNoLine) {
        continue;
      }
      const uint64_t line_a = tag_a & kTagMask;
      for (uint32_t b = a + 1; b < total_slots; ++b) {
        const uint64_t tag_b = tag_at(b);
        if (tag_b != kNoLine && (tag_b & kTagMask) == line_a) {
          violate("lattice set %" PRIu64 ": line %#" PRIx64 " tagged twice", set,
                  line_a);
        }
      }
      if (h.socket_mask_ != 0 &&
          ((line_a >> h.home_shift_) & h.socket_mask_) != slice) {
        violate("home: slice %" PRIu64 " set %" PRIu64 " holds line %#" PRIx64
                " whose home slice is %" PRIu64,
                slice, set, line_a, (line_a >> h.home_shift_) & h.socket_mask_);
      }
      const WayMeta& meta = meta_of(set, static_cast<int>(a));
      if ((meta.sharers & ~core_mask) != 0 ||
          (meta.invalidated_from & ~core_mask) != 0) {
        violate("directory set %" PRIu64 " slot %u: masks name nonexistent cores "
                "(sharers %#" PRIx64 ", invalidated %#" PRIx64 ")",
                set, a, meta.sharers, meta.invalidated_from);
      }
      const int owner = meta.owner();
      if (owner >= 0) {
        if (owner >= num_cores) {
          violate("directory set %" PRIu64 " slot %u: owner %d out of range", set, a, owner);
        } else if (((meta.sharers >> owner) & 1u) == 0) {
          violate("directory set %" PRIu64 " slot %u: owner %d outside sharer set %#" PRIx64,
                  set, a, owner, meta.sharers);
        }
      }
    }
  }

  return result;
}

}  // namespace dprof
