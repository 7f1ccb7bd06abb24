// The Apache case-study workload (paper §6.2).
//
// Sixteen Apache instances, one per core, each serving one memory-cached 1 KB
// static file over short-lived TCP connections. The kernel accepts
// connections in softirq context (allocating and initializing the tcp_sock)
// and parks them on a per-instance accept queue; Apache later accepts and
// serves them.
//
// The mis-configuration the paper diagnoses: the accept backlog is deep and
// the load generators eagerly keep it full. At the performance drop-off the
// time from SYN to accept() grows so much that tcp_sock cache lines are
// evicted before Apache touches them — the tcp_sock working set grows ~10x
// and its share of all L1 misses roughly doubles (Tables 6.4 vs 6.5), while
// the average tcp_sock miss latency grows from ~50 to ~150 cycles.
//
// ApacheConfig::admission_control limits in-flight connections (the paper's
// fix), recovering ~16% throughput at the same offered load.

#ifndef DPROF_SRC_WORKLOAD_APACHE_H_
#define DPROF_SRC_WORKLOAD_APACHE_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/workload/kernel.h"

namespace dprof {

struct ApacheConfig {
  // Accept-queue depth the kernel will buffer per instance.
  static constexpr int kBacklog = 512;
  // Offered load as a fraction of the nominal per-core service rate. > 1.0
  // means the generators always have connections pending (drop-off regime).
  double offered_load = 1.5;
  // The paper's fix: cap in-flight connections regardless of kBacklog.
  // The limit keeps queued sockets L2-resident without starving workers.
  bool admission_control = false;
  int admission_limit = 384;

  // Paper operating points.
  static ApacheConfig Peak() {
    ApacheConfig c;
    c.offered_load = 0.85;
    return c;
  }
  static ApacheConfig DropOff() {
    ApacheConfig c;
    c.offered_load = 1.5;
    return c;
  }
  static ApacheConfig Fixed() {
    ApacheConfig c = DropOff();
    c.admission_control = true;
    return c;
  }

  int EffectiveBacklog() const { return admission_control ? admission_limit : kBacklog; }
};

class ApacheWorkload final : public Workload {
 public:
  // Worker threads per Apache instance; their task_structs are touched on
  // every request (futex wait/wake + scheduling). The ring exceeds L1 so
  // scheduling writes are steady L1 misses (paper Table 6.4's task_struct).
  static constexpr int kWorkerThreads = 36;

  ApacheWorkload(KernelEnv* env, const ApacheConfig& config);
  ~ApacheWorkload() override;

  void Install(Machine& machine) override;
  uint64_t CompletedRequests() const override;
  void ResetStats() override;

  const ApacheConfig& config() const { return config_; }

  // Diagnostics for tests and benches.
  double AverageAcceptQueueDepth() const;
  double AverageSockMissLatency() const;  // avg per-line latency at accept
  uint64_t DroppedSyns() const;

 private:
  class CoreDriver;

  KernelEnv* env_;
  ApacheConfig config_;
  std::vector<std::unique_ptr<CoreDriver>> drivers_;
};

}  // namespace dprof

#endif  // DPROF_SRC_WORKLOAD_APACHE_H_
