// Batched asynchronous file I/O: the kernel-async engine behind the
// push-based page pipeline (DESIGN.md §13).
//
// An AsyncFileEngine accepts a vector of read/write requests against raw
// file descriptors and completes them out of band. Its one implementation
// drives io_uring with raw syscalls (io_uring_setup / io_uring_enter — no
// liburing dependency): one SQ writer at a time under a mutex, and a
// dedicated reaper thread that blocks in IORING_ENTER_GETEVENTS and drains
// the CQ. Short CQEs (a read or write that moved fewer bytes than asked) are
// fixed up synchronously with pread/pwrite of the remainder, so callers
// always see full-length completions or an error — never a silent prefix.
// Create() returns NotSupported where the kernel has no io_uring; the page
// layer (cache/async_page_io.h) then runs its worker pool instead.
//
// The fault-injection layer reaches the engine and the page worker pool
// through the same three points:
//
//   "aio.read" / "aio.write"  evaluated per request by ApplyIoFault, the one
//       site both backends call. kFail => the request completes with that
//       error. kShortWrite/kTornPage (bytes_allowed < n) => the backend
//       behaves as if the kernel returned a short count: it loops to
//       complete (counted in stats().short_fixups) and the caller sees a
//       full-length success. kNoSpace fails the request outright.
//   "aio.reorder"  plain Check per completion (AioBook::Complete). A fired
//       schedule defers that completion until after the next one is
//       delivered (or until the queue drains), simulating out-of-order CQEs
//       deterministically.
//
// Completion delivery is pull-based: callers Reap() into a small array.
// Every accepted request produces exactly one completion, including after
// Shutdown() (which drains). user_data is the caller's correlation token and
// is returned verbatim.
#ifndef BESS_OS_ASYNC_IO_H_
#define BESS_OS_ASYNC_IO_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "util/status.h"

namespace bess {
namespace aio {

enum class Op : uint8_t { kRead, kWrite };

struct AioRequest {
  Op op = Op::kRead;
  int fd = -1;
  uint64_t offset = 0;
  void* buf = nullptr;  ///< caller-owned; must stay valid until completion
  size_t len = 0;
  uint64_t user_data = 0;  ///< returned verbatim in the completion
};

struct AioCompletion {
  uint64_t user_data = 0;
  Status status;
  size_t bytes = 0;  ///< bytes moved (== len on success)
};

/// Evaluates the "aio.read"/"aio.write" schedule for one request of `len`
/// bytes. A non-OK return fails the request. Otherwise *first_cap is the
/// byte count the (emulated) kernel moves first — < len means an injected
/// short completion the backend must loop whole. One relaxed load when no
/// fault is armed.
Status ApplyIoFault(Op op, size_t len, size_t* first_cap);

struct AioStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t errors = 0;
  uint64_t short_fixups = 0;  ///< short kernel/injected counts looped whole
  uint64_t reorders = 0;      ///< completions deferred by "aio.reorder"
  uint64_t max_inflight = 0;
  uint64_t io_busy_ns = 0;  ///< wall time spent inside transfers (pool) or
                            ///< with a non-empty ring (uring) — the overlap
                            ///< numerator for bench_scan
  uint64_t read_runs = 0;   ///< device read ops after the pool merged
                            ///< queued reads for consecutive keys into runs
                            ///< (0 on io_uring, which does not coalesce)
  uint64_t write_runs = 0;  ///< device write ops after the same merging
                            ///< (bgwriter batches sort by key to line
                            ///< these up; 0 on io_uring)
};

/// Bookkeeping shared by the io_uring engine and the page worker pool:
/// in-flight accounting, the AioStats counters, and the completion mailbox.
/// Complete() applies the "aio.reorder" schedule; Reap flushes deferred
/// completions on timeout or once the queue drains, so a reordered
/// completion can be late but never lost.
struct AioBook {
  void Submitted(uint32_t n);
  /// Counts `c` (errors) and makes it reapable.
  void Complete(const AioCompletion& c);
  uint32_t Reap(AioCompletion* out, uint32_t max, uint32_t timeout_ms);
  AioStats stats() const;

  std::atomic<uint64_t> inflight{0};
  std::atomic<uint64_t> max_inflight{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> short_fixups{0};
  std::atomic<uint64_t> reorders{0};
  std::atomic<uint64_t> io_busy_ns{0};
  std::atomic<uint64_t> read_runs{0};
  std::atomic<uint64_t> write_runs{0};

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<AioCompletion> ready_;
  std::deque<AioCompletion> deferred_;
};

class AsyncFileEngine {
 public:
  struct Options {
    uint32_t queue_depth = 16;  ///< max requests in flight
  };

  virtual ~AsyncFileEngine() = default;

  /// Queues `n` requests. All-or-nothing: on a non-OK return nothing was
  /// queued and no completions will arrive for this call. May block briefly
  /// when the queue is at depth.
  virtual Status Submit(const AioRequest* reqs, uint32_t n) = 0;

  /// Pops up to `max` completions, waiting at most `timeout_ms` for the
  /// first (0 = poll). Returns the number written to `out`.
  virtual uint32_t Reap(AioCompletion* out, uint32_t max,
                        uint32_t timeout_ms) = 0;

  /// Stops accepting work and joins engine threads. Completions already
  /// produced remain reapable. Idempotent; the destructor calls it.
  virtual void Shutdown() = 0;

  virtual AioStats stats() const = 0;

  /// True when this kernel accepts io_uring_setup (probed once per process).
  static bool UringSupported();

  /// Builds the io_uring engine. NotSupported when the kernel has no
  /// io_uring; an error when ring setup fails (e.g. resource limits).
  static Result<std::unique_ptr<AsyncFileEngine>> Create(
      const Options& options);
};

/// Resolves page-cache keys to raw (fd, offset) runs and applies the storage
/// layer's integrity envelope around raw transfers. Implemented by
/// AreaSegmentStore over StorageArea files; consumed by FileEnginePageIo so
/// the uring path keeps CRC/LSN trailer verification and quarantine behavior
/// identical to the synchronous ReadPages/WritePages path.
class RawPageSource {
 public:
  virtual ~RawPageSource() = default;

  /// Maps `count` pages starting at `key` to one contiguous byte range.
  /// Returns false when the run is not raw-reachable (unknown area, crosses
  /// an extent boundary, quarantined page) — the caller must fall back to
  /// the synchronous path.
  virtual bool RawRun(uint64_t key, uint32_t count, int* fd,
                      uint64_t* offset) = 0;
  /// Verifies trailers after a raw read landed in `buf` (reread/repair/
  /// quarantine exactly like the synchronous read path).
  virtual Status FinishRead(uint64_t key, uint32_t count, void* buf) = 0;
  /// Stamps the out-of-band CRC/LSN trailers after a raw write of `buf`
  /// completed (trailers live in extent meta pages and are flushed by Sync,
  /// so post-completion stamping matches the synchronous write path).
  virtual Status FinishWrite(uint64_t key, uint32_t count, const void* buf,
                             uint64_t lsn) = 0;
};

}  // namespace aio
}  // namespace bess

#endif  // BESS_OS_ASYNC_IO_H_
