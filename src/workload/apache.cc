#include "src/workload/apache.h"

#include <algorithm>

#include "src/util/stats.h"

namespace dprof {

namespace {

// Calibrated per-request service cost used to convert offered_load into an
// inter-arrival time in cycles.
constexpr uint64_t kNominalServiceCycles = 12800;
// Served connections linger this many requests before teardown (keep-alive
// drain / FIN). Sized so the recycling tcp_sock footprint fits in L1 at
// peak — which is what makes the drop-off contrast stark.
constexpr int kLingerDepth = 12;
// Userspace request handling cost (cycles).
constexpr uint64_t kHandlerCycles = 4500;

// A connection parked on the accept queue.
struct PendingConn {
  Addr sock = kNullAddr;
  Addr req_skb = kNullAddr;
  Addr req_payload = kNullAddr;
  uint64_t syn_time = 0;
};

}  // namespace

class ApacheWorkload::CoreDriver final : public dprof::CoreDriver {
 public:
  CoreDriver(KernelEnv* env, const ApacheConfig* config, int core)
      : env_(env), config_(config), core_(core) {}

  bool Step(CoreContext& ctx) override {
    AcceptArrivals(ctx);
    depth_stat_.Add(static_cast<double>(queue_.size()));
    if (queue_.empty()) {
      return false;  // core idles (the paper's "peak with some cores idle")
    }
    ServeOneConnection(ctx);
    return true;
  }

  uint64_t requests = 0;
  uint64_t dropped_syns = 0;
  RunningStat depth_stat_;
  RunningStat sock_latency_stat_;

 private:
  // Softirq half: take pending SYNs from the load generator, build sockets,
  // park them on the accept queue. Arrivals beyond the backlog are dropped
  // after the kernel has already done the receive work — pure overhead.
  void AcceptArrivals(CoreContext& ctx) {
    const KernelFns& f = env_->fns();
    const KernelTypes& t = env_->types();
    Rng& rng = ctx.rng();

    // Time-based open-loop load: one connection every
    // kNominalServiceCycles / offered_load cycles, independent of whether
    // this core is keeping up.
    const uint64_t inter_arrival = static_cast<uint64_t>(
        static_cast<double>(kNominalServiceCycles) / config_->offered_load);
    if (next_arrival_ == 0) {
      next_arrival_ = ctx.now() + rng.Jitter(inter_arrival);
    }
    uint64_t n = 0;
    while (next_arrival_ <= ctx.now() && n < 64) {
      next_arrival_ += rng.Jitter(inter_arrival);
      ++n;
    }
    // Dropped SYNs come back: clients retransmit, amplifying offered load
    // exactly when the server is already behind.
    const uint64_t retransmits = std::min<uint64_t>(pending_retransmits_, 16);
    pending_retransmits_ -= retransmits;
    n += retransmits;

    for (uint64_t i = 0; i < n; ++i) {
      // Receive the SYN + request data.
      ctx.Compute(f.ixgbe_clean_rx_irq, 110);
      const Addr skb = ctx.Alloc(t.skbuff, f.alloc_skb);
      const Addr payload = ctx.Alloc(t.size1024, f.alloc_skb);
      ctx.Write(f.ixgbe_clean_rx_irq, skb, 256);
      ctx.Write(f.ixgbe_clean_rx_irq, payload, 128);  // HTTP GET
      ctx.Read(f.eth_type_trans, payload, 16);
      ctx.Read(f.ip_rcv, payload + 16, 24);
      ctx.Compute(f.ip_rcv, 80);
      ctx.Compute(f.tcp_v4_rcv, 150);

      if (static_cast<int>(queue_.size()) >= config_->EffectiveBacklog()) {
        // Queue full: the SYN is dropped after the kernel has already done
        // the receive work, looked up the listener, and sent a reset — all
        // wasted. The client retransmits, amplifying the overload. This is
        // the tax that pushes throughput below the peak.
        ++dropped_syns;
        ctx.Compute(f.tcp_v4_rcv, 300);
        ctx.Write(f.tcp_write_xmit, payload, 64);  // RST
        ctx.Compute(f.tcp_write_xmit, 200);
        ctx.Free(payload, f.kfree);
        ctx.Free(skb, f.kfree_skb);
        if (rng.Chance(0.15)) {
          ++pending_retransmits_;
        }
        continue;
      }

      // Create and initialize the connection socket.
      const Addr sock = ctx.Alloc(t.tcp_sock, f.tcp_create_openreq_child);
      ctx.Write(f.tcp_create_openreq_child, sock, 512);
      ctx.Write(f.tcp_v4_rcv, sock + 512, 64);
      queue_.push_back(PendingConn{sock, skb, payload, ctx.now()});
    }
  }

  // Apache half: accept one connection, serve the file, close.
  void ServeOneConnection(CoreContext& ctx) {
    const KernelFns& f = env_->fns();
    const KernelTypes& t = env_->types();
    Rng& rng = ctx.rng();

    PendingConn conn = queue_.front();
    queue_.pop_front();

    // accept(): walk the tcp_sock's hot fields. If the socket sat in the
    // queue for long, its lines have been evicted and every read goes to
    // L3/DRAM — this latency is the paper's 50-vs-150-cycle signal. The
    // probe accumulates committed latencies, so the stat is exact in both
    // the direct and the engine execution modes.
    ctx.BeginLatencyProbe();
    for (uint32_t off = 0; off < 512; off += 64) {
      ctx.Access(f.inet_csk_accept, conn.sock + off, 64, (off % 256) == 0);
    }
    ctx.EndLatencyProbe(&sock_latency_stat_, 512.0 / 64.0);
    ctx.Compute(f.inet_csk_accept, 200);

    // Hand off to a worker thread: futex wake + scheduling. The futex hash
    // bucket is global, so this contends across cores; the critical section
    // is just the hash-bucket manipulation.
    ctx.Compute(f.do_futex, 80);
    SimLock& bucket = env_->futex_bucket(core_);
    ctx.LockAcquire(bucket, f.do_futex);
    ctx.Write(f.futex_wake, env_->futex_obj(core_), 8);
    ctx.LockRelease(bucket, f.do_futex);
    ctx.Compute(f.futex_wake, 120);

    // Scheduling: touch the next worker task_structs. The per-core ring of
    // workers exceeds L1, so these writes are steady L1 misses.
    TouchTasks(ctx, 3);

    // Read the request, build the response from the mmap'd file. A slow
    // client occasionally needs a second read; some requests carry cookies
    // that touch more of the socket.
    ctx.Read(f.tcp_recvmsg, conn.req_payload, 256);
    if (rng.Chance(0.08)) {
      ctx.Read(f.tcp_recvmsg, conn.req_payload + 256, 128);
      ctx.Write(f.tcp_recvmsg, conn.sock + 896, 32);
    }
    if (rng.Chance(0.03)) {
      ctx.Read(f.tcp_recvmsg, conn.sock + 1024, 64);  // window update path
    }
    ctx.Write(f.copy_user_generic_string, env_->user_buffer(core_), 256);
    ctx.Read(f.apache_process, env_->mmap_file(core_), 1024);
    ctx.Compute(f.apache_process, kHandlerCycles);

    // Response: TCP uses fclone skbuffs for the data path.
    const Addr tx_skb = ctx.Alloc(t.skbuff_fclone, f.tcp_sendmsg);
    const Addr tx_payload = ctx.Alloc(t.size1024, f.tcp_sendmsg);
    ctx.Write(f.tcp_sendmsg, tx_skb, 512);
    ctx.Write(f.copy_user_generic_string, tx_payload, 1024);
    ctx.Write(f.tcp_write_xmit, conn.sock + 640, 128);
    ctx.Compute(f.tcp_write_xmit, 220);
    if (rng.Chance(0.02)) {
      // Retransmission timer fired: another pass over the write queue.
      ctx.Write(f.tcp_write_xmit, tx_skb + 64, 32);
      ctx.Read(f.tcp_write_xmit, conn.sock + 640, 64);
      ctx.Compute(f.tcp_write_xmit, 300);
    }

    // Transmit on the local queue (each Apache instance is pinned, and rx/tx
    // steering agree here — no remote-queue bug in this workload).
    TxQueue& q = env_->tx_queue(core_);
    ctx.LockAcquire(q.lock(), f.dev_queue_xmit);
    ctx.Write(f.pfifo_fast_enqueue, q.base() + 16, 16);
    ctx.Write(f.pfifo_fast_enqueue, tx_skb, 16);
    ctx.LockRelease(q.lock(), f.dev_queue_xmit);

    ctx.LockAcquire(q.lock(), f.qdisc_run);
    ctx.Read(f.pfifo_fast_dequeue, q.base() + 16, 16);
    ctx.LockRelease(q.lock(), f.qdisc_run);
    ctx.Read(f.dev_hard_start_xmit, tx_skb + 24, 40);
    ctx.Read(f.ixgbe_xmit_frame, tx_payload, 1024);
    ctx.Write(f.ixgbe_xmit_frame, env_->netdev().stats_addr(ctx.core()), 16);
    ctx.Compute(f.ixgbe_xmit_frame, 150);

    // Worker goes back to sleep: futex wait.
    ctx.Compute(f.futex_wait, 100);
    ctx.LockAcquire(bucket, f.do_futex);
    ctx.Write(f.futex_wait, env_->futex_obj(core_), 8);
    ctx.LockRelease(bucket, f.do_futex);
    TouchTasks(ctx, 2);
    if (rng.Chance(0.05)) {
      ctx.Compute(f.schedule, 300);  // occasional involuntary context switch
      TouchTasks(ctx, 1);
    }
    ctx.Free(tx_payload, f.kfree);
    ctx.Free(tx_skb, f.kfree_skb);

    // The connection lingers (keep-alive drain, FIN handshake) while other
    // workers serve; it is torn down after kLingerDepth more requests.
    // This is what keeps ~a worker pool's worth of tcp_socks live even at
    // peak (paper Table 6.4's 1.1MB tcp_sock working set).
    closing_.push_back(conn);
    while (closing_.size() > static_cast<size_t>(kLingerDepth)) {
      const PendingConn old = closing_.front();
      closing_.pop_front();
      // Final timer/FIN touches on a by-now cold socket, then free.
      ctx.Write(f.tcp_close, old.sock + 1536, 64);
      ctx.Read(f.tcp_close, old.sock, 64);
      ctx.Compute(f.tcp_close, 180);
      ctx.Free(old.req_payload, f.kfree);
      ctx.Free(old.req_skb, f.kfree_skb);
      ctx.Free(old.sock, f.tcp_close);
    }
    ++requests;
  }

  void TouchTasks(CoreContext& ctx, int count) {
    const KernelFns& f = env_->fns();
    const KernelTypes& t = env_->types();
    if (tasks_.empty()) {
      // Allocate this instance's worker task_structs once, on first use.
      for (int i = 0; i < kWorkerThreads; ++i) {
        tasks_.push_back(ctx.Alloc(t.task_struct, f.schedule));
      }
    }
    for (int i = 0; i < count; ++i) {
      const Addr task = tasks_[next_task_ % tasks_.size()];
      ++next_task_;
      ctx.Write(f.schedule, task, 64);          // thread_info / state
      ctx.Read(f.futex_wait, task + 2048, 64);  // futex bookkeeping
    }
  }

  KernelEnv* env_;
  const ApacheConfig* config_;
  int core_;
  std::deque<PendingConn> queue_;
  std::deque<PendingConn> closing_;  // in-service / lingering connections
  std::vector<Addr> tasks_;
  size_t next_task_ = 0;
  uint64_t next_arrival_ = 0;
  uint64_t pending_retransmits_ = 0;
};

ApacheWorkload::ApacheWorkload(KernelEnv* env, const ApacheConfig& config)
    : env_(env), config_(config) {}

ApacheWorkload::~ApacheWorkload() = default;

void ApacheWorkload::Install(Machine& machine) {
  drivers_.clear();
  for (int c = 0; c < machine.num_cores(); ++c) {
    drivers_.push_back(std::make_unique<CoreDriver>(env_, &config_, c));
    machine.SetDriver(c, drivers_.back().get());
  }
}

uint64_t ApacheWorkload::CompletedRequests() const {
  uint64_t total = 0;
  for (const auto& d : drivers_) {
    total += d->requests;
  }
  return total;
}

void ApacheWorkload::ResetStats() {
  for (auto& d : drivers_) {
    d->requests = 0;
    d->dropped_syns = 0;
    d->depth_stat_ = RunningStat();
    d->sock_latency_stat_ = RunningStat();
  }
}

double ApacheWorkload::AverageAcceptQueueDepth() const {
  RunningStat merged;
  for (const auto& d : drivers_) {
    merged.Merge(d->depth_stat_);
  }
  return merged.mean();
}

double ApacheWorkload::AverageSockMissLatency() const {
  RunningStat merged;
  for (const auto& d : drivers_) {
    merged.Merge(d->sock_latency_stat_);
  }
  return merged.mean();
}

uint64_t ApacheWorkload::DroppedSyns() const {
  uint64_t total = 0;
  for (const auto& d : drivers_) {
    total += d->dropped_syns;
  }
  return total;
}

}  // namespace dprof
