// The memcached case-study workload (paper §6.1).
//
// Sixteen memcached instances, one per core, each serving UDP GETs for a
// non-existent key from a dedicated load generator whose packets are steered
// to that core's NIC receive queue. The intent of the configuration is that
// each request is handled entirely on one core — but the stock kernel's
// skb_tx_hash() picks the *transmit* queue by hashing the packet, so the
// transmit half of nearly every request runs on a remote core: payloads,
// skbuffs, array_caches, the net_device, and sockets all bounce between
// cores, and the Qdisc/SLAB locks get contended.
//
// Setting MemcachedConfig::local_queue_fix installs the driver queue
// selection function the paper's fix adds, which restores core-local
// transmit and yields the ~57% throughput improvement.

#ifndef DPROF_SRC_WORKLOAD_MEMCACHED_H_
#define DPROF_SRC_WORKLOAD_MEMCACHED_H_

#include <memory>
#include <vector>

#include "src/workload/kernel.h"

namespace dprof {

struct MemcachedConfig {
  bool local_queue_fix = false;
  // Pre-posted NIC receive buffers per core. Received packets come from the
  // front of this ring and a fresh buffer is posted at the back, so rx
  // buffers are cold by the time the NIC writes into them and the live
  // skbuff/size-1024 population matches a real driver's.
  int rx_ring_entries = 256;
};

class MemcachedWorkload final : public Workload {
 public:
  MemcachedWorkload(KernelEnv* env, const MemcachedConfig& config);
  ~MemcachedWorkload() override;

  void Install(Machine& machine) override;
  uint64_t CompletedRequests() const override;
  void ResetStats() override;

  const MemcachedConfig& config() const { return config_; }
  uint64_t TxRemote() const;  // packets transmitted on a non-local queue
  uint64_t TxLocal() const;

 private:
  class CoreDriver;

  KernelEnv* env_;
  MemcachedConfig config_;
  std::vector<Addr> socks_;
  std::vector<std::unique_ptr<CoreDriver>> drivers_;
};

}  // namespace dprof

#endif  // DPROF_SRC_WORKLOAD_MEMCACHED_H_
