// AsyncPageIo: the batched page-granular side of the push pipeline
// (DESIGN.md §13), sitting between the FrameTable and an I/O backend.
//
// Callers submit vectors of whole-page reads/writes keyed by packed
// PageAddr and reap completions; `user_data` is the caller's correlation
// token (the frame table uses the frame index). MakeAsyncPageIo picks one
// of two implementations from its inputs — there is no backend knob:
//
//   FileEnginePageIo     when a RawPageSource is given and the kernel has
//       io_uring: the os/async_io.h engine over a source that resolves keys
//       to (fd, offset) and re-applies the storage integrity envelope —
//       CRC/LSN trailer verification after reads (RawPageSource::FinishRead),
//       trailer stamping after writes (FinishWrite) — so the raw path
//       detects exactly what ReadPages/WritePages detect. Pages that are not
//       raw-reachable (quarantined, unknown area) transparently fall back to
//       the synchronous PageIo.
//   WorkerPoolPageIo     otherwise: the one worker pool, over any
//       synchronous FrameTable::PageIo (SegmentStore, RPC, in-memory test
//       store, an index area). Queued requests of one kind for consecutive
//       keys merge into runs (FetchRun/WriteRun); a single request is a run
//       of one and moves straight into or out of the caller's buffer.
//
// Both apply the "aio.read"/"aio.write" schedules through aio::ApplyIoFault
// and deliver through aio::AioBook ("aio.reorder"), so the async fault
// matrix behaves the same on either, even without real files.
//
// Contract shared by both: every accepted request produces exactly one
// completion; completions may arrive in any order; a request completes with
// the page fully transferred or with a non-OK status — never a prefix.
#ifndef BESS_CACHE_ASYNC_PAGE_IO_H_
#define BESS_CACHE_ASYNC_PAGE_IO_H_

#include <cstdint>
#include <memory>

#include "cache/frame_table.h"
#include "os/async_io.h"
#include "util/status.h"

namespace bess {

class AsyncPageIo {
 public:
  struct Request {
    bool write = false;
    uint64_t key = 0;    ///< PageAddr::Pack()
    void* buf = nullptr; ///< kPageSize bytes; read dest / write source —
                         ///< must stay valid until the completion is reaped
    uint64_t lsn = 0;    ///< write: page LSN for the integrity trailer
    uint64_t user_data = 0;
  };
  /// bytes == kPageSize on success, 0 on failure.
  using Completion = aio::AioCompletion;

  virtual ~AsyncPageIo() = default;

  /// Queues `n` page transfers. On a non-OK return nothing was queued.
  virtual Status Submit(const Request* reqs, uint32_t n) = 0;

  /// Pops up to `max` completions, waiting at most `timeout_ms` for the
  /// first (0 = poll).
  virtual uint32_t Reap(Completion* out, uint32_t max,
                        uint32_t timeout_ms) = 0;

  /// Stops accepting work; already-produced completions stay reapable.
  virtual void Shutdown() = 0;

  virtual const char* backend() const = 0;
  virtual aio::AioStats stats() const = 0;
};

struct AsyncPageIoOptions {
  uint32_t queue_depth = 16;
  uint32_t workers = 4;  ///< worker pool only
};

/// io_uring when `raw` is given and the kernel supports it, else the worker
/// pool over `sync_io` (which also backs the raw path's fallback).
Result<std::unique_ptr<AsyncPageIo>> MakeAsyncPageIo(
    const AsyncPageIoOptions& options, FrameTable::PageIo* sync_io,
    aio::RawPageSource* raw = nullptr);

}  // namespace bess

#endif  // BESS_CACHE_ASYNC_PAGE_IO_H_
