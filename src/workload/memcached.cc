#include "src/workload/memcached.h"

namespace dprof {
namespace {

// Max packets drained from this core's hardware queue per step.
constexpr int kTxDrainBatch = 8;
// Userspace lookup cost (cycles) per request.
constexpr uint64_t kLookupCycles = 2600;
// Path-variability knobs; rare paths exist so that Figure 6-3's
// paths-vs-history-sets experiment has a realistic tail.
constexpr double kPItrUpdate = 0.10;   // driver interrupt-throttle update path
constexpr double kPTimestamp = 0.25;   // timestamping path
constexpr double kPDrop = 0.02;        // malformed packet dropped in ip_rcv
constexpr double kPStatsRead = 0.05;   // periodic stats read touching udp_sock
// Fraction of transmit completions that actually wake the socket owner
// through epoll (wakeups coalesce when the poll flag is already set).
constexpr double kPTxWakeup = 0.6;

}  // namespace

// One core's slice of the workload: its memcached instance, its NIC receive
// queue (the load generator always has a request pending), and its share of
// transmit-queue draining.
//
// Step() executes one *phase*, not one whole request: fine-grained steps
// keep cross-core clock skew small, which matters for realistic lock-wait
// accounting (the machine steps the minimum-clock core).
class MemcachedWorkload::CoreDriver final : public dprof::CoreDriver {
 public:
  CoreDriver(KernelEnv* env, const MemcachedConfig* config, const std::vector<Addr>* socks,
             int core)
      : env_(env), config_(config), socks_(socks), core_(core) {}

  bool Step(CoreContext& ctx) override {
    switch (phase_) {
      case Phase::kDrain:
        if (drained_ < kTxDrainBatch && !env_->tx_queue(core_).empty()) {
          DrainOnePacket(ctx);
        } else {
          drained_ = 0;
          phase_ = Phase::kReceive;
        }
        return true;
      case Phase::kReceive:
        ReceiveAndProcess(ctx);
        return true;
      case Phase::kTransmit:
        TransmitReply(ctx);
        phase_ = Phase::kDrain;
        return true;
    }
    return true;
  }

  uint64_t requests = 0;
  uint64_t tx_remote = 0;
  uint64_t tx_local = 0;

 private:
  enum class Phase { kDrain, kReceive, kTransmit };

  // --- transmit side: this core owns hardware queue `core_` ------------

  void DrainOnePacket(CoreContext& ctx) {
    const KernelFns& f = env_->fns();
    TxQueue& q = env_->tx_queue(core_);

    // Short critical section: only the queue-head manipulation is locked.
    ctx.LockAcquire(q.lock(), f.qdisc_run);
    ctx.Read(f.pfifo_fast_dequeue, q.base() + 16, 16);
    Packet pkt = q.PopLocked();
    ctx.LockRelease(q.lock(), f.qdisc_run);
    // Unlink the skb from the queue (outside the lock, as pfifo_fast does
    // for the skb itself).
    ctx.Write(f.pfifo_fast_dequeue, pkt.skb, 16);

    TransmitPacket(ctx, pkt);
    ++drained_;
  }

  void TransmitPacket(CoreContext& ctx, const Packet& pkt) {
    const KernelFns& f = env_->fns();

    ctx.Read(f.dev_hard_start_xmit, pkt.skb + 24, 40);
    ctx.Compute(f.dev_hard_start_xmit, 60);
    ctx.Read(f.skb_dma_map, pkt.skb + 64, 32);
    ctx.Compute(f.phys_addr, 30);

    // Descriptor setup: the CPU touches the headers for checksum offload;
    // the NIC DMA engine fetches the payload body without polluting CPU
    // caches.
    ctx.Read(f.ixgbe_xmit_frame, pkt.payload, 256);
    ctx.Write(f.ixgbe_xmit_frame, pkt.skb + 96, 16);
    // Per-transmit statistics on the shared net_device: the true-sharing
    // hot line every core reads and writes.
    ctx.Read(f.ixgbe_xmit_frame, env_->netdev().stats_addr(ctx.core()), 16);
    ctx.Write(f.ixgbe_xmit_frame, env_->netdev().stats_addr(ctx.core()), 16);
    ctx.Compute(f.ixgbe_xmit_frame, 150);
    ctx.Compute(f.local_bh_enable, 40);

    if (ctx.rng().Chance(kPItrUpdate)) {
      ctx.Write(f.ixgbe_set_itr_msix, env_->netdev().config_addr() + 32, 8);
      ctx.Compute(f.ixgbe_set_itr_msix, 80);
    }

    // Transmit completion: update the sending socket. The wakeup through
    // epoll is coalesced — most completions find the poll flag already set.
    ctx.Compute(f.ixgbe_clean_tx_irq, 90);
    const int owner = pkt.rx_core;
    const Addr sock = sock_addr(owner);
    ctx.Write(f.sock_def_write_space, sock + 192, 16);
    if (ctx.rng().Chance(kPTxWakeup)) {
      // sock wakeup: the socket's wait queue lock is taken first, then the
      // epoll callback takes the epoll instance's lock (Linux nesting).
      EpollInstance& ep = env_->epoll(owner);
      ctx.LockAcquire(*ep.waitqueue_lock, f.wake_up_sync_key);
      ctx.Write(f.wake_up_sync_key, ep.epitem_addr + 64 + 16, 8);
      ctx.LockAcquire(*ep.epoll_lock, f.ep_poll_callback);
      ctx.Write(f.ep_poll_callback, ep.epitem_addr + 16, 16);
      ctx.Compute(f.ep_poll_callback, 80);
      ctx.LockRelease(*ep.epoll_lock, f.ep_poll_callback);
      ctx.LockRelease(*ep.waitqueue_lock, f.wake_up_sync_key);
    }

    // Free the transmitted packet. On a remote queue this is an alien free:
    // the slab allocator writes the home core's array_cache under the SLAB
    // cache lock.
    ctx.Compute(f.dev_kfree_skb_irq, 30);
    ctx.Read(f.kfree_skb, pkt.skb, 16);
    ctx.Free(pkt.payload, f.kfree);
    ctx.Free(pkt.skb, f.kfree_skb);
  }

  // --- receive + application side --------------------------------------

  // Posts a fresh receive buffer to the NIC ring (ixgbe_alloc_rx_buffers).
  void PostRxBuffer(CoreContext& ctx) {
    const KernelFns& f = env_->fns();
    const KernelTypes& t = env_->types();
    Packet fresh;
    fresh.skb = ctx.Alloc(t.skbuff, f.alloc_skb);
    fresh.payload = ctx.Alloc(t.size1024, f.alloc_skb);
    fresh.rx_core = ctx.core();
    ctx.Write(f.alloc_skb, fresh.skb, 32);  // descriptor setup
    rx_ring_.push_back(fresh);
  }

  void ReceiveAndProcess(CoreContext& ctx) {
    const KernelFns& f = env_->fns();
    Rng& rng = ctx.rng();

    // Keep the NIC receive ring full; the packet we process now was posted
    // rx_ring_entries requests ago, so its buffer is cache-cold.
    while (static_cast<int>(rx_ring_.size()) <= config_->rx_ring_entries) {
      PostRxBuffer(ctx);
    }
    rx_ = rx_ring_.front();
    rx_ring_.pop_front();

    // NIC receive: the device DMA'd the frame into the posted buffer.
    ctx.Compute(f.ixgbe_clean_rx_irq, 120);
    ctx.Write(f.ixgbe_clean_rx_irq, rx_.skb, 128);
    ctx.Write(f.ixgbe_clean_rx_irq, rx_.payload, 128);  // GET request is small
    // Per-receive device statistics: the shared net_device hot line.
    ctx.Read(f.ixgbe_clean_rx_irq, env_->netdev().stats_addr(ctx.core()) + 16, 8);
    ctx.Write(f.ixgbe_clean_rx_irq, env_->netdev().stats_addr(ctx.core()) + 16, 8);
    ctx.Write(f.skb_put, rx_.skb + 8, 16);

    ctx.Read(f.eth_type_trans, rx_.payload, 16);
    ctx.Write(f.eth_type_trans, rx_.skb + 32, 8);
    ctx.Compute(f.eth_type_trans, 30);

    ctx.Read(f.ip_rcv, rx_.payload + 16, 24);
    ctx.Write(f.ip_rcv, rx_.skb + 40, 16);
    ctx.Compute(f.ip_rcv, 80);
    if (rng.Chance(kPDrop)) {
      // Malformed packet path: drop without replying.
      ctx.Free(rx_.payload, f.kfree);
      ctx.Free(rx_.skb, f.kfree_skb);
      phase_ = Phase::kDrain;
      return;
    }

    // UDP delivery into the per-core memcached socket.
    const Addr sock = sock_addr(core_);
    ctx.Write(f.lock_sock_nested, sock, 8);
    ctx.Read(f.udp_recvmsg, sock + 64, 64);
    ctx.Write(f.udp_recvmsg, sock + 128, 32);
    ctx.Compute(f.udp_recvmsg, 150);
    ctx.Read(f.skb_copy_datagram_iovec, rx_.payload + 40, 88);
    ctx.Write(f.copy_user_generic_string, env_->user_buffer(core_), 128);
    ctx.Compute(f.copy_user_generic_string, 60);
    if (rng.Chance(kPStatsRead)) {
      ctx.Read(f.udp_recvmsg, sock + 256, 64);
    }

    // epoll wakeup delivery to userspace.
    EpollInstance& ep = env_->epoll(core_);
    ctx.LockAcquire(*ep.epoll_lock, f.sys_epoll_wait);
    ctx.Read(f.ep_scan_ready_list, ep.epitem_addr + 16, 32);
    ctx.LockRelease(*ep.epoll_lock, f.sys_epoll_wait);
    ctx.Compute(f.event_handler, 100);

    // memcached userspace: hash the key, miss, build the reply.
    ctx.Read(f.mc_process, env_->user_buffer(core_), 64);
    const Addr table = env_->hashtable(core_);
    for (int probe = 0; probe < 2; ++probe) {
      const Addr line = table + (rng.Next() % (env_->hashtable_size() / 64)) * 64;
      ctx.Read(f.mc_process, line, 16);
    }
    ctx.Compute(f.mc_process, kLookupCycles);
    phase_ = Phase::kTransmit;
  }

  void TransmitReply(CoreContext& ctx) {
    const KernelFns& f = env_->fns();
    const KernelTypes& t = env_->types();
    Rng& rng = ctx.rng();

    // Build the reply.
    const Addr tx_skb = ctx.Alloc(t.skbuff, f.alloc_skb);
    const Addr tx_payload = ctx.Alloc(t.size1024, f.udp_sendmsg);
    ctx.Write(f.udp_sendmsg, tx_skb, 128);
    ctx.Write(f.copy_user_generic_string, tx_payload, 1024);
    ctx.Write(f.skb_put, tx_skb + 8, 16);
    const Addr sock = sock_addr(core_);
    ctx.Read(f.udp_sendmsg, sock + 64, 64);
    ctx.Compute(f.udp_sendmsg, 180);
    if (rng.Chance(kPTimestamp)) {
      ctx.Compute(f.getnstimeofday, 40);
      ctx.Write(f.udp_sendmsg, tx_skb + 48, 8);
    }

    // Queue selection: the bug. skb_tx_hash spreads packets over all
    // hardware queues; the fix picks the core-local queue.
    ctx.Read(f.dev_queue_xmit, tx_skb + 24, 24);
    ctx.Compute(f.dev_queue_xmit, 70);
    int queue = core_;
    if (!config_->local_queue_fix) {
      ctx.Read(f.skb_tx_hash, tx_skb + 32, 16);
      ctx.Compute(f.skb_tx_hash, 50);
      queue = static_cast<int>(rng.Next() % env_->num_tx_queues());
    }
    if (queue == core_) {
      ++tx_local;
    } else {
      ++tx_remote;
    }

    // Link the skb (outside the lock), then the short locked enqueue.
    ctx.Write(f.pfifo_fast_enqueue, tx_skb, 16);
    TxQueue& q = env_->tx_queue(queue);
    Packet pkt;
    pkt.skb = tx_skb;
    pkt.payload = tx_payload;
    pkt.skb_type = t.skbuff;
    pkt.rx_core = core_;
    pkt.enqueue_time = ctx.now();
    ctx.LockAcquire(q.lock(), f.dev_queue_xmit);
    ctx.Write(f.pfifo_fast_enqueue, q.base() + 16, 16);
    q.Push(ctx, pkt);
    ctx.LockRelease(q.lock(), f.dev_queue_xmit);

    // Done with the request packet.
    ctx.Free(rx_.payload, f.kfree);
    ctx.Free(rx_.skb, f.kfree_skb);
    ++requests;
  }

  Addr sock_addr(int core) const { return (*socks_)[core]; }

  KernelEnv* env_;
  const MemcachedConfig* config_;
  const std::vector<Addr>* socks_;  // one udp_sock per core, owned by the workload
  int core_;
  Phase phase_ = Phase::kDrain;
  int drained_ = 0;
  Packet rx_;
  std::deque<Packet> rx_ring_;
};

MemcachedWorkload::MemcachedWorkload(KernelEnv* env, const MemcachedConfig& config)
    : env_(env), config_(config) {}

MemcachedWorkload::~MemcachedWorkload() = default;

void MemcachedWorkload::Install(Machine& machine) {
  drivers_.clear();
  if (socks_.empty()) {
    // One long-lived udp_sock per memcached instance, allocated by its
    // owning core so the slab home is right.
    for (int c = 0; c < machine.num_cores(); ++c) {
      CoreContext ctx = machine.Context(c);
      socks_.push_back(ctx.Alloc(env_->types().udp_sock, env_->fns().udp_recvmsg));
    }
  }
  for (int c = 0; c < machine.num_cores(); ++c) {
    drivers_.push_back(std::make_unique<CoreDriver>(env_, &config_, &socks_, c));
    machine.SetDriver(c, drivers_.back().get());
  }
}

uint64_t MemcachedWorkload::CompletedRequests() const {
  uint64_t total = 0;
  for (const auto& d : drivers_) {
    total += d->requests;
  }
  return total;
}

void MemcachedWorkload::ResetStats() {
  for (auto& d : drivers_) {
    d->requests = 0;
    d->tx_remote = 0;
    d->tx_local = 0;
  }
}

uint64_t MemcachedWorkload::TxRemote() const {
  uint64_t total = 0;
  for (const auto& d : drivers_) {
    total += d->tx_remote;
  }
  return total;
}

uint64_t MemcachedWorkload::TxLocal() const {
  uint64_t total = 0;
  for (const auto& d : drivers_) {
    total += d->tx_local;
  }
  return total;
}

}  // namespace dprof
