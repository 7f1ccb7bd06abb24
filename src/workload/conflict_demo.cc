#include "src/workload/conflict_demo.h"

namespace dprof {
namespace {

// Number of hot objects per core; with stride aliasing, any count above the
// L1 way count causes steady conflict misses.
constexpr int kHotObjects = 24;
constexpr uint32_t kObjectBytes = 64;

}  // namespace

class ConflictDemoWorkload::CoreDriver final : public dprof::CoreDriver {
 public:
  // Setup happens eagerly at install time: RegisterStatic touches the
  // allocator's shared metadata arena, which must not run from a driver
  // stepping in the engine's simulate phase.
  CoreDriver(KernelEnv* env, TypeId hot_type, int core)
      : env_(env), hot_type_(hot_type), core_(core) {
    fn_ = env_->machine().symbols().Intern("conflict_scan");
    SetUp();
  }

  bool Step(CoreContext& ctx) override {
    // Cycle through the aliased objects; with more objects than cache ways
    // mapping to one set, every pass evicts the next victim.
    for (const Addr obj : objects_) {
      ctx.Read(fn_, obj, kObjectBytes);
    }
    ctx.Compute(fn_, 100);
    ++requests;
    return true;
  }

  uint64_t requests = 0;

 private:
  void SetUp() {
    // Alias in the L2 (covers L1 as well, since L1 sets divide L2 sets):
    // objects one L2 way apart all map to the same set.
    const CacheGeometry& l2 = env_->machine().hierarchy().config().l2;
    const uint32_t stride = static_cast<uint32_t>(l2.NumSets() * l2.line_size);
    // Reserve one private region per core and carve aliased objects out of
    // it. RegisterStaticArray keeps the resolver aware of the type and lets
    // the hot type's layout transforms (pad_to_line repacks the run densely,
    // recolor staggers elements across sets) undo the aliasing — the paper's
    // conflict-miss fixes, expressed mechanically.
    env_->allocator().RegisterStaticArray(hot_type_, kObjectBytes,
                                          static_cast<uint32_t>(kHotObjects), stride, &objects_);
  }

  KernelEnv* env_;
  TypeId hot_type_;
  int core_;
  FunctionId fn_ = kInvalidFunction;
  std::vector<Addr> objects_;
};

ConflictDemoWorkload::ConflictDemoWorkload(KernelEnv* env) : env_(env) {
  hot_type_ = env_->allocator().registry().Register("pkt_stat", kObjectBytes);
}

ConflictDemoWorkload::~ConflictDemoWorkload() = default;

void ConflictDemoWorkload::Install(Machine& machine) {
  drivers_.clear();
  for (int c = 0; c < machine.num_cores(); ++c) {
    drivers_.push_back(std::make_unique<CoreDriver>(env_, hot_type_, c));
    machine.SetDriver(c, drivers_.back().get());
  }
}

uint64_t ConflictDemoWorkload::CompletedRequests() const {
  uint64_t total = 0;
  for (const auto& d : drivers_) {
    total += d->requests;
  }
  return total;
}

void ConflictDemoWorkload::ResetStats() {
  for (auto& d : drivers_) {
    d->requests = 0;
  }
}

}  // namespace dprof
