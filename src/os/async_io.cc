#include "os/async_io.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <vector>

#include "os/fault_injection.h"

#if defined(__linux__)
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#if defined(__NR_io_uring_setup)
#include <linux/io_uring.h>
#define BESS_HAVE_URING 1
#endif
#endif

#ifndef BESS_HAVE_URING
#define BESS_HAVE_URING 0
#endif

namespace bess {
namespace aio {

Status ApplyIoFault(Op op, size_t len, size_t* first_cap) {
  *first_cap = len;
  if (!fault::Armed()) return Status::OK();
  const fault::FaultOutcome out = fault::FaultRegistry::Instance().EvaluateIo(
      op == Op::kRead ? "aio.read" : "aio.write", "", len);
  if (out.crash) fault::FaultRegistry::CrashNow();
  if (out.bytes_allowed < len && !out.status.IsNoSpace()) {
    // kShortWrite/kTornPage at an aio point = short completion, recoverable.
    *first_cap = out.bytes_allowed;
    return Status::OK();
  }
  return out.status;
}

// ---------------------------------------------------------------------------
// AioBook

void AioBook::Submitted(uint32_t n) {
  const uint64_t now = inflight.fetch_add(n, std::memory_order_acq_rel) + n;
  uint64_t seen = max_inflight.load(std::memory_order_relaxed);
  while (now > seen && !max_inflight.compare_exchange_weak(
                           seen, now, std::memory_order_relaxed)) {
  }
}

void AioBook::Complete(const AioCompletion& c) {
  if (!c.status.ok()) errors.fetch_add(1, std::memory_order_relaxed);
  const bool last = inflight.fetch_sub(1, std::memory_order_acq_rel) == 1;
  std::lock_guard<std::mutex> lk(mu_);
  // "aio.reorder": hold this completion back until a later one passes it.
  // The final in-flight completion is never deferred, and Reap flushes
  // stragglers on timeout — reordering can delay, never lose.
  if (fault::Armed() && !last) {
    Status s = fault::FaultRegistry::Instance().Evaluate("aio.reorder", "");
    if (!s.ok()) {
      deferred_.push_back(c);
      reorders.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  ready_.push_back(c);
  while (!deferred_.empty()) {
    ready_.push_back(deferred_.front());
    deferred_.pop_front();
  }
  cv_.notify_all();
}

uint32_t AioBook::Reap(AioCompletion* out, uint32_t max, uint32_t timeout_ms) {
  std::unique_lock<std::mutex> lk(mu_);
  if (ready_.empty() && timeout_ms > 0) {
    cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms),
                 [&] { return !ready_.empty(); });
  }
  if (ready_.empty() && !deferred_.empty()) {
    // Nothing arrived to pass the deferred completions: deliver them now.
    while (!deferred_.empty()) {
      ready_.push_back(deferred_.front());
      deferred_.pop_front();
    }
  }
  uint32_t n = 0;
  while (n < max && !ready_.empty()) {
    out[n++] = ready_.front();
    ready_.pop_front();
  }
  return n;
}

AioStats AioBook::stats() const {
  AioStats s;
  s.reads = reads.load(std::memory_order_relaxed);
  s.writes = writes.load(std::memory_order_relaxed);
  s.errors = errors.load(std::memory_order_relaxed);
  s.short_fixups = short_fixups.load(std::memory_order_relaxed);
  s.reorders = reorders.load(std::memory_order_relaxed);
  s.max_inflight = max_inflight.load(std::memory_order_relaxed);
  s.io_busy_ns = io_busy_ns.load(std::memory_order_relaxed);
  s.read_runs = read_runs.load(std::memory_order_relaxed);
  s.write_runs = write_runs.load(std::memory_order_relaxed);
  return s;
}

namespace {

#if BESS_HAVE_URING

// ---------------------------------------------------------------------------
// UringFileEngine: raw io_uring syscalls, no liburing.

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// pread/pwrite the request whole, looping over short counts.
Status FullTransfer(const AioRequest& req) {
  char* p = static_cast<char*>(req.buf);
  uint64_t off = req.offset;
  size_t left = req.len;
  while (left > 0) {
    ssize_t r = req.op == Op::kRead
                    ? pread(req.fd, p, left, static_cast<off_t>(off))
                    : pwrite(req.fd, p, left, static_cast<off_t>(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string(req.op == Op::kRead ? "pread: "
                                                             : "pwrite: ") +
                             strerror(errno));
    }
    if (r == 0) {
      // A write of 0 never terminates and a read of 0 is EOF mid-page:
      // either way the transfer cannot complete — fail loudly rather than
      // hand back a truncated page.
      return Status::IOError("short transfer: no progress at offset " +
                             std::to_string(off));
    }
    p += r;
    off += static_cast<uint64_t>(r);
    left -= static_cast<size_t>(r);
  }
  return Status::OK();
}

int SysUringSetup(unsigned entries, struct io_uring_params* p) {
  return static_cast<int>(syscall(__NR_io_uring_setup, entries, p));
}

int SysUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                  unsigned flags) {
  return static_cast<int>(syscall(__NR_io_uring_enter, fd, to_submit,
                                  min_complete, flags, nullptr, 0));
}

class UringFileEngine final : public AsyncFileEngine {
 public:
  ~UringFileEngine() override { Shutdown(); }

  uint32_t Reap(AioCompletion* out, uint32_t max,
                uint32_t timeout_ms) override {
    return book_.Reap(out, max, timeout_ms);
  }
  AioStats stats() const override { return book_.stats(); }

  Status Init(uint32_t queue_depth) {
    // Ring sized at 2x the caller's depth so submission never has to spin
    // on SQ space even with completions pending in the CQ.
    unsigned entries = 8;
    while (entries < queue_depth * 2 && entries < 4096) entries <<= 1;

    struct io_uring_params p;
    memset(&p, 0, sizeof(p));
    ring_fd_ = SysUringSetup(entries, &p);
    if (ring_fd_ < 0) {
      return Status::IOError(std::string("io_uring_setup: ") +
                             strerror(errno));
    }
    sq_entries_ = p.sq_entries;

    sq_ring_sz_ = p.sq_off.array + p.sq_entries * sizeof(unsigned);
    cq_ring_sz_ = p.cq_off.cqes + p.cq_entries * sizeof(struct io_uring_cqe);
    single_mmap_ = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single_mmap_) {
      sq_ring_sz_ = cq_ring_sz_ = std::max(sq_ring_sz_, cq_ring_sz_);
    }
    sq_ring_ptr_ = mmap(nullptr, sq_ring_sz_, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_POPULATE, ring_fd_,
                        IORING_OFF_SQ_RING);
    if (sq_ring_ptr_ == MAP_FAILED) {
      sq_ring_ptr_ = nullptr;
      return CloseWithError("mmap sq ring");
    }
    if (single_mmap_) {
      cq_ring_ptr_ = sq_ring_ptr_;
    } else {
      cq_ring_ptr_ = mmap(nullptr, cq_ring_sz_, PROT_READ | PROT_WRITE,
                          MAP_SHARED | MAP_POPULATE, ring_fd_,
                          IORING_OFF_CQ_RING);
      if (cq_ring_ptr_ == MAP_FAILED) {
        cq_ring_ptr_ = nullptr;
        return CloseWithError("mmap cq ring");
      }
    }
    sqes_sz_ = p.sq_entries * sizeof(struct io_uring_sqe);
    void* sqes = mmap(nullptr, sqes_sz_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES);
    if (sqes == MAP_FAILED) return CloseWithError("mmap sqes");
    sqes_ = static_cast<struct io_uring_sqe*>(sqes);

    char* sq = static_cast<char*>(sq_ring_ptr_);
    sq_head_ = reinterpret_cast<unsigned*>(sq + p.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned*>(sq + p.sq_off.tail);
    sq_mask_ = reinterpret_cast<unsigned*>(sq + p.sq_off.ring_mask);
    sq_array_ = reinterpret_cast<unsigned*>(sq + p.sq_off.array);
    char* cq = static_cast<char*>(cq_ring_ptr_);
    cq_head_ = reinterpret_cast<unsigned*>(cq + p.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned*>(cq + p.cq_off.tail);
    cq_mask_ = reinterpret_cast<unsigned*>(cq + p.cq_off.ring_mask);
    cqes_ = reinterpret_cast<struct io_uring_cqe*>(cq + p.cq_off.cqes);

    reaper_ = std::thread(&UringFileEngine::ReaperMain, this);
    return Status::OK();
  }

  Status Submit(const AioRequest* reqs, uint32_t n) override {
    if (n == 0) return Status::OK();
    if (stopped_.load(std::memory_order_acquire)) {
      return Status::Aborted("async engine stopped");
    }
    // Register the batch before any sqe becomes visible: a completion can
    // arrive the instant the kernel sees the entry.
    std::vector<uint64_t> ids(n);
    {
      std::lock_guard<std::mutex> lk(pending_mu_);
      for (uint32_t i = 0; i < n; ++i) {
        ids[i] = next_id_++;
        pending_.emplace(ids[i], reqs[i]);
      }
    }
    book_.Submitted(n);

    std::lock_guard<std::mutex> lk(sq_mu_);
    uint32_t done = 0;
    while (done < n) {
      unsigned head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
      unsigned tail = *sq_tail_;  // sole producer under sq_mu_
      unsigned space = sq_entries_ - (tail - head);
      uint32_t chunk = std::min(n - done, space);
      if (chunk == 0) {
        // Ring full mid-batch (batch larger than the ring): the pending
        // entries drain inside io_uring_enter below on the next lap.
        (void)SysUringEnter(ring_fd_, 0, 0, 0);
        continue;
      }
      for (uint32_t i = 0; i < chunk; ++i) {
        unsigned idx = (tail + i) & *sq_mask_;
        struct io_uring_sqe* sqe = &sqes_[idx];
        memset(sqe, 0, sizeof(*sqe));
        const AioRequest& r = reqs[done + i];
        sqe->opcode = r.op == Op::kRead ? IORING_OP_READ : IORING_OP_WRITE;
        sqe->fd = r.fd;
        sqe->addr = reinterpret_cast<uint64_t>(r.buf);
        sqe->len = static_cast<uint32_t>(r.len);
        sqe->off = r.offset;
        sqe->user_data = ids[done + i];
        sq_array_[idx] = idx;
      }
      __atomic_store_n(sq_tail_, tail + chunk, __ATOMIC_RELEASE);
      uint32_t submitted = 0;
      while (submitted < chunk) {
        int ret = SysUringEnter(ring_fd_, chunk - submitted, 0, 0);
        if (ret < 0) {
          if (errno == EINTR || errno == EAGAIN) continue;
          // The sqes are already visible; fail the whole remainder loudly
          // via error completions so every request still completes.
          FailRemainder(reqs, ids, done + submitted, n,
                        Status::IOError(std::string("io_uring_enter: ") +
                                        strerror(errno)));
          return Status::OK();
        }
        submitted += static_cast<uint32_t>(ret);
      }
      done += chunk;
    }
    return Status::OK();
  }

  void Shutdown() override {
    bool expected = false;
    if (!stopped_.compare_exchange_strong(expected, true)) {
      if (reaper_.joinable()) reaper_.join();
      return;
    }
    if (ring_fd_ >= 0) {
      // Wake the reaper blocked in GETEVENTS with a NOP (user_data 0).
      std::lock_guard<std::mutex> lk(sq_mu_);
      unsigned tail = *sq_tail_;
      unsigned idx = tail & *sq_mask_;
      struct io_uring_sqe* sqe = &sqes_[idx];
      memset(sqe, 0, sizeof(*sqe));
      sqe->opcode = IORING_OP_NOP;
      sqe->user_data = 0;
      sq_array_[idx] = idx;
      __atomic_store_n(sq_tail_, tail + 1, __ATOMIC_RELEASE);
      (void)SysUringEnter(ring_fd_, 1, 0, 0);
    }
    if (reaper_.joinable()) reaper_.join();
    Unmap();
  }

 private:
  Status CloseWithError(const char* what) {
    Status st = Status::IOError(std::string(what) + ": " + strerror(errno));
    Unmap();
    return st;
  }

  void Unmap() {
    if (sqes_ != nullptr) {
      munmap(sqes_, sqes_sz_);
      sqes_ = nullptr;
    }
    if (cq_ring_ptr_ != nullptr && !single_mmap_) {
      munmap(cq_ring_ptr_, cq_ring_sz_);
    }
    cq_ring_ptr_ = nullptr;
    if (sq_ring_ptr_ != nullptr) {
      munmap(sq_ring_ptr_, sq_ring_sz_);
      sq_ring_ptr_ = nullptr;
    }
    if (ring_fd_ >= 0) {
      close(ring_fd_);
      ring_fd_ = -1;
    }
  }

  void FailRemainder(const AioRequest* reqs, const std::vector<uint64_t>& ids,
                     uint32_t from, uint32_t n, Status st) {
    for (uint32_t i = from; i < n; ++i) {
      bool mine;
      {
        std::lock_guard<std::mutex> lk(pending_mu_);
        mine = pending_.erase(ids[i]) != 0;
      }
      // The kernel may have consumed some of these sqes before the enter
      // failed; those complete through the reaper instead.
      if (mine) FinishRequest(reqs[i], st, 0);
    }
  }

  void ReaperMain() {
    for (;;) {
      unsigned head = __atomic_load_n(cq_head_, __ATOMIC_RELAXED);
      unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
      if (head == tail) {
        if (stopped_.load(std::memory_order_acquire) && Inflight() == 0) {
          return;
        }
        uint64_t t0 = NowNs();
        int ret =
            SysUringEnter(ring_fd_, 0, 1, IORING_ENTER_GETEVENTS);
        if (Inflight() > 0) {
          book_.io_busy_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
        }
        (void)ret;  // EINTR just re-loops
        continue;
      }
      while (head != tail) {
        const struct io_uring_cqe* cqe = &cqes_[head & *cq_mask_];
        uint64_t id = cqe->user_data;
        int res = cqe->res;
        ++head;
        __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
        ProcessCqe(id, res);
        tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
      }
    }
  }

  void ProcessCqe(uint64_t id, int res) {
    if (id == 0) return;  // shutdown NOP
    AioRequest req;
    {
      std::lock_guard<std::mutex> lk(pending_mu_);
      auto it = pending_.find(id);
      if (it == pending_.end()) return;  // failed in FailRemainder already
      req = it->second;
      pending_.erase(it);
    }
    if (res < 0) {
      FinishRequest(req, Status::IOError(std::string("io_uring cqe: ") +
                                         strerror(-res)),
                    0);
    } else {
      FinishRequest(req, Status::OK(), static_cast<size_t>(res));
    }
  }

  uint64_t Inflight() const {
    return book_.inflight.load(std::memory_order_acquire);
  }

  /// Runs the per-request fault schedule, finishes the transfer (looping
  /// over a short count) or fails it, and delivers the completion. `moved`
  /// is what the kernel already transferred (cqe->res).
  void FinishRequest(const AioRequest& req, Status st, size_t moved) {
    const uint64_t t0 = NowNs();
    (req.op == Op::kRead ? book_.reads : book_.writes)
        .fetch_add(1, std::memory_order_relaxed);
    size_t first_cap = req.len;
    if (st.ok()) st = ApplyIoFault(req.op, req.len, &first_cap);
    if (st.ok()) {
      // Injected shortness trims what the kernel is considered to have
      // moved, so the fixup loop below runs for it too.
      moved = std::min(moved, first_cap);
      if (moved < req.len) {
        if (moved > 0 || first_cap < req.len) {
          book_.short_fixups.fetch_add(1, std::memory_order_relaxed);
        }
        AioRequest rest = req;
        rest.buf = static_cast<char*>(req.buf) + moved;
        rest.offset += moved;
        rest.len = req.len - moved;
        st = FullTransfer(rest);
      }
    }
    book_.io_busy_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    book_.Complete(AioCompletion{req.user_data, st, st.ok() ? req.len : 0});
  }

  AioBook book_;
  int ring_fd_ = -1;
  unsigned sq_entries_ = 0;
  void* sq_ring_ptr_ = nullptr;
  void* cq_ring_ptr_ = nullptr;
  size_t sq_ring_sz_ = 0;
  size_t cq_ring_sz_ = 0;
  bool single_mmap_ = false;
  struct io_uring_sqe* sqes_ = nullptr;
  size_t sqes_sz_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_mask_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned* cq_mask_ = nullptr;
  struct io_uring_cqe* cqes_ = nullptr;

  std::mutex sq_mu_;
  std::mutex pending_mu_;
  std::unordered_map<uint64_t, AioRequest> pending_;
  uint64_t next_id_ = 1;
  std::atomic<bool> stopped_{false};
  std::thread reaper_;
};

#endif  // BESS_HAVE_URING

}  // namespace

// ---------------------------------------------------------------------------

bool AsyncFileEngine::UringSupported() {
#if BESS_HAVE_URING
  static const bool supported = [] {
    struct io_uring_params p;
    memset(&p, 0, sizeof(p));
    int fd = SysUringSetup(4, &p);
    if (fd < 0) return false;
    close(fd);
    return true;
  }();
  return supported;
#else
  return false;
#endif
}

Result<std::unique_ptr<AsyncFileEngine>> AsyncFileEngine::Create(
    const Options& options) {
  if (options.queue_depth == 0) {
    return Status::InvalidArgument("queue_depth must be > 0");
  }
#if BESS_HAVE_URING
  if (UringSupported()) {
    auto uring = std::make_unique<UringFileEngine>();
    BESS_RETURN_IF_ERROR(uring->Init(options.queue_depth));
    return std::unique_ptr<AsyncFileEngine>(std::move(uring));
  }
#endif
  return Status::NotSupported("kernel has no io_uring");
}

}  // namespace aio
}  // namespace bess
