#include "cache/async_page_io.h"

#include <cstring>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/config.h"

namespace bess {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// WorkerPoolPageIo: async emulation over a synchronous PageIo.

class WorkerPoolPageIo final : public AsyncPageIo {
 public:
  WorkerPoolPageIo(FrameTable::PageIo* sync_io, uint32_t workers) : sync_(sync_io) {
    if (workers == 0) workers = 1;
    threads_.reserve(workers);
    for (uint32_t i = 0; i < workers; ++i) {
      threads_.emplace_back(&WorkerPoolPageIo::WorkerMain, this);
    }
  }

  ~WorkerPoolPageIo() override { Shutdown(); }

  Status Submit(const Request* reqs, uint32_t n) override {
    if (n == 0) return Status::OK();
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return Status::Aborted("async page io stopped");
    book_.Submitted(n);
    for (uint32_t i = 0; i < n; ++i) queue_.push_back(reqs[i]);
    work_cv_.notify_all();
    return Status::OK();
  }

  uint32_t Reap(Completion* out, uint32_t max, uint32_t timeout_ms) override {
    return book_.Reap(out, max, timeout_ms);
  }

  void Shutdown() override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    work_cv_.notify_all();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  const char* backend() const override { return "pool"; }
  aio::AioStats stats() const override { return book_.stats(); }

 private:
  /// Longest run one worker services as a single device op. Bounds the
  /// scratch buffer (64 KiB) and keeps other workers fed at deep queues.
  static constexpr uint32_t kMaxRunPages = 16;

  void WorkerMain() {
    Request run[kMaxRunPages];
    for (;;) {
      uint32_t n = 0;
      {
        std::unique_lock<std::mutex> lk(mu_);
        work_cv_.wait(lk, [&] { return stopped_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopped and drained
        run[n++] = queue_.front();
        queue_.pop_front();
        // Batched transfers: queued requests of the same kind for
        // consecutive keys ride one device op (FetchRun / WriteRun) —
        // block-layer style request merging. Scan staging, prefetch, and
        // bgwriter flush batches all submit in ascending key order, so the
        // natural runs sit adjacent at the queue head; a gap, a kind
        // switch, or a key whose page field would carry into the area bits
        // ends the run.
        while (n < kMaxRunPages && !queue_.empty() &&
               queue_.front().write == run[0].write &&
               (run[n - 1].key & 0xFFFFFFFFull) != 0xFFFFFFFFull &&
               queue_.front().key == run[n - 1].key + 1) {
          run[n++] = queue_.front();
          queue_.pop_front();
        }
      }
      ExecuteRun(run, n);
    }
  }

  /// Services `n` requests of one kind for consecutive keys; a single
  /// request is a run of one. Faults evaluate per request: a mid-run
  /// io_error fails only its own page, and an injected short count is
  /// looped whole — the synchronous store has no partial transfer to
  /// resume, so the one full transfer below already completes it. Each
  /// fault-free stretch goes to the device as one transfer, and every
  /// request gets its own completion.
  void ExecuteRun(const Request* run, uint32_t n) {
    const bool write = run[0].write;
    const uint64_t t0 = NowNs();
    (write ? book_.writes : book_.reads)
        .fetch_add(n, std::memory_order_relaxed);
    Status st[kMaxRunPages];
    uint32_t stretch = 0;  // first request of the current fault-free stretch
    for (uint32_t i = 0; i <= n; ++i) {
      if (i < n) {
        size_t first_cap = kPageSize;
        st[i] = aio::ApplyIoFault(write ? aio::Op::kWrite : aio::Op::kRead,
                                  kPageSize, &first_cap);
        if (st[i].ok()) {
          if (first_cap < kPageSize) {
            book_.short_fixups.fetch_add(1, std::memory_order_relaxed);
          }
          continue;
        }
      }
      if (i > stretch) Transfer(run + stretch, i - stretch, st + stretch);
      stretch = i + 1;
    }
    book_.io_busy_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    for (uint32_t k = 0; k < n; ++k) {
      book_.Complete(
          Completion{run[k].user_data, st[k], st[k].ok() ? kPageSize : 0});
    }
  }

  /// One device op for `n` consecutive pages, results into st[0..n). A
  /// single page moves straight between the store and the caller's buffer;
  /// a longer run goes through one contiguous scratch buffer, and if it
  /// fails as a unit each page is retried alone so one bad page cannot
  /// fail its neighbours. (Writes drop the request LSN, like every
  /// synchronous write-back: EnsureWalDurable gated the batch upstream.)
  void Transfer(const Request* run, uint32_t n, Status* st) {
    const bool write = run[0].write;
    (write ? book_.write_runs : book_.read_runs)
        .fetch_add(1, std::memory_order_relaxed);
    if (n == 1) {
      st[0] = write ? sync_->Write(run[0].key, run[0].buf)
                    : sync_->Fetch(run[0].key, run[0].buf);
      return;
    }
    std::vector<char> scratch(static_cast<size_t>(n) * kPageSize);
    auto page = [&](uint32_t k) {
      return scratch.data() + size_t{k} * kPageSize;
    };
    if (write) {
      for (uint32_t k = 0; k < n; ++k) memcpy(page(k), run[k].buf, kPageSize);
    }
    const Status rs = write ? sync_->WriteRun(run[0].key, n, scratch.data())
                            : sync_->FetchRun(run[0].key, n, scratch.data());
    if (!rs.ok()) {
      for (uint32_t k = 0; k < n; ++k) Transfer(run + k, 1, st + k);
    } else if (!write) {
      for (uint32_t k = 0; k < n; ++k) memcpy(run[k].buf, page(k), kPageSize);
    }
  }

  FrameTable::PageIo* sync_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Request> queue_;
  bool stopped_ = false;
  aio::AioBook book_;
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// FileEnginePageIo: AsyncFileEngine over a RawPageSource.

class FileEnginePageIo final : public AsyncPageIo {
 public:
  FileEnginePageIo(std::unique_ptr<aio::AsyncFileEngine> engine,
                   aio::RawPageSource* raw, FrameTable::PageIo* sync_fallback)
      : engine_(std::move(engine)), raw_(raw), sync_(sync_fallback) {}

  ~FileEnginePageIo() override { Shutdown(); }

  Status Submit(const Request* reqs, uint32_t n) override {
    std::vector<aio::AioRequest> batch;
    batch.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      const Request& r = reqs[i];
      int fd = -1;
      uint64_t off = 0;
      if (!raw_->RawRun(r.key, 1, &fd, &off)) {
        // Not raw-reachable (quarantined page, unknown area): complete via
        // the synchronous path so the caller never needs a special case.
        Status st = sync_ == nullptr
                        ? Status::NotSupported("page not raw-reachable")
                        : (r.write ? sync_->Write(r.key, r.buf)
                                   : sync_->Fetch(r.key, r.buf));
        PostImmediate(r.user_data, st);
        continue;
      }
      uint64_t id;
      {
        std::lock_guard<std::mutex> lk(pending_mu_);
        id = next_id_++;
        pending_.emplace(id, r);
      }
      aio::AioRequest ar;
      ar.op = r.write ? aio::Op::kWrite : aio::Op::kRead;
      ar.fd = fd;
      ar.offset = off;
      ar.buf = r.buf;
      ar.len = kPageSize;
      ar.user_data = id;
      batch.push_back(ar);
    }
    if (batch.empty()) return Status::OK();
    Status st = engine_->Submit(batch.data(), static_cast<uint32_t>(batch.size()));
    if (!st.ok()) {
      // Engine refused the whole batch: fail those requests loudly so every
      // accepted request still produces a completion.
      std::lock_guard<std::mutex> lk(pending_mu_);
      for (const auto& ar : batch) {
        auto it = pending_.find(ar.user_data);
        if (it == pending_.end()) continue;
        PostImmediate(it->second.user_data, st);
        pending_.erase(it);
      }
    }
    return Status::OK();
  }

  uint32_t Reap(Completion* out, uint32_t max, uint32_t timeout_ms) override {
    uint32_t n = 0;
    {
      std::lock_guard<std::mutex> lk(immediate_mu_);
      while (n < max && !immediate_.empty()) {
        out[n++] = immediate_.front();
        immediate_.pop_front();
      }
    }
    if (n >= max) return n;
    std::vector<Completion> tmp(max - n);
    uint32_t m = engine_->Reap(tmp.data(), max - n, n > 0 ? 0 : timeout_ms);
    for (uint32_t i = 0; i < m; ++i) {
      Request req;
      {
        std::lock_guard<std::mutex> lk(pending_mu_);
        auto it = pending_.find(tmp[i].user_data);
        if (it == pending_.end()) continue;
        req = it->second;
        pending_.erase(it);
      }
      Status st = tmp[i].status;
      if (st.ok()) {
        // Re-apply the storage integrity envelope around the raw transfer.
        st = req.write ? raw_->FinishWrite(req.key, 1, req.buf, req.lsn)
                       : raw_->FinishRead(req.key, 1, req.buf);
      }
      out[n].user_data = req.user_data;
      out[n].status = st;
      out[n].bytes = st.ok() ? kPageSize : 0;
      ++n;
    }
    return n;
  }

  void Shutdown() override { engine_->Shutdown(); }

  const char* backend() const override { return "uring"; }
  aio::AioStats stats() const override { return engine_->stats(); }

 private:
  void PostImmediate(uint64_t user_data, Status st) {
    Completion c;
    c.user_data = user_data;
    c.status = st;
    c.bytes = st.ok() ? kPageSize : 0;
    std::lock_guard<std::mutex> lk(immediate_mu_);
    immediate_.push_back(c);
  }

  std::unique_ptr<aio::AsyncFileEngine> engine_;
  aio::RawPageSource* raw_;
  FrameTable::PageIo* sync_;
  std::mutex pending_mu_;
  std::unordered_map<uint64_t, Request> pending_;
  uint64_t next_id_ = 1;
  std::mutex immediate_mu_;
  std::deque<Completion> immediate_;
};

}  // namespace

Result<std::unique_ptr<AsyncPageIo>> MakeAsyncPageIo(
    const AsyncPageIoOptions& options, FrameTable::PageIo* sync_io,
    aio::RawPageSource* raw) {
  if (raw != nullptr && aio::AsyncFileEngine::UringSupported()) {
    auto engine = aio::AsyncFileEngine::Create(
        aio::AsyncFileEngine::Options{options.queue_depth});
    // Ring setup can still fail (resource limits): the pool serves then.
    if (engine.ok()) {
      return std::unique_ptr<AsyncPageIo>(std::make_unique<FileEnginePageIo>(
          std::move(*engine), raw, sync_io));
    }
  }
  if (sync_io == nullptr) {
    return Status::InvalidArgument(
        "worker-pool async backend needs a synchronous PageIo");
  }
  return std::unique_ptr<AsyncPageIo>(
      std::make_unique<WorkerPoolPageIo>(sync_io, options.workers));
}

}  // namespace bess
