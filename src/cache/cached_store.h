// CachedSegmentStore: a read cache between the mapper and a SegmentStore.
//
// Server-linked applications fetch straight from the storage areas, so a
// page cache there mostly duplicates the OS file cache. Remote clients are
// different: every SegmentStore fetch is an RPC, and re-faulting a segment
// after eviction repeats the round trip. This decorator keeps recently
// fetched pages in a heap-placement frame-core configuration and serves
// repeat fetches locally.
//
// The cache is read-only from the frame core's point of view — frames are
// never dirtied, so there is nothing to write back and no bgwriter. Writes
// go through to the inner store and refresh the cached copy (write-through),
// keeping the cache coherent with the paper's no-steal/force discipline
// where pages only reach the store at commit.
//
// It also implements PrefetchSink: the mapper reports each fetched page run,
// the frame core's sequential-run detector turns consecutive runs into
// read-ahead (cache.prefetch.* metrics).
#ifndef BESS_CACHE_CACHED_STORE_H_
#define BESS_CACHE_CACHED_STORE_H_

#include <functional>
#include <memory>

#include "cache/async_page_io.h"
#include "cache/frame_table.h"
#include "storage/storage_area.h"
#include "util/config.h"
#include "vm/segment_store.h"

namespace bess {

class CachedSegmentStore : public SegmentStore, public PrefetchSink {
 public:
  struct Options {
    uint32_t frame_count = 0;
    bool enable_prefetch = true;
    uint32_t prefetch_trigger = 2;  ///< runs, not pages: be eager on RPC paths
    uint32_t prefetch_window = 8;
    /// Forwarded to FrameTable::Options::on_cleaned: fired (without the
    /// table mutex) when a write-back finalizes a frame clean.
    std::function<void(uint64_t key, uint64_t rec_lsn)> on_cleaned;

    /// Batched async I/O for prefetch and push-based scans; off keeps the
    /// classic synchronous paths. MakeAsyncPageIo picks the backend.
    bool use_async = false;
    uint32_t async_queue_depth = 16;
    uint32_t async_workers = 4;
    /// Raw (fd, offset) resolver enabling the io_uring path; null means the
    /// worker pool over the inner store.
    aio::RawPageSource* raw_source = nullptr;
  };

  /// `inner` must outlive this store.
  CachedSegmentStore(SegmentStore* inner, Options options);
  ~CachedSegmentStore() override;

  Status Init();
  void Stop();

  Status FetchSlotted(SegmentId id, void* buf, uint32_t* page_count) override;
  Status FetchPages(uint16_t db, uint16_t area, PageId first,
                    uint32_t page_count, void* buf) override;
  Status WritePages(uint16_t db, uint16_t area, PageId first,
                    uint32_t page_count, const void* buf) override;

  void NoteFetch(uint16_t db, uint16_t area, PageId first,
                 uint32_t page_count) override;

  /// Per-page scan delivery: `page` is frame-resident for the call only.
  using ScanConsumer =
      std::function<Status(PageId page, const void* bytes)>;

  /// Streams `page_count` pages from `first` through `consume` in order.
  /// With an async backend this is the push path: reads are staged into
  /// the frame table ahead of the consumer (FrameTable::ScanRange);
  /// without one it degrades to the pull-on-fault loop.
  Status ScanPages(uint16_t db, uint16_t area, PageId first,
                   uint32_t page_count, const ScanConsumer& consume);

  /// Active async backend name ("off" when none).
  const char* async_backend() const {
    return async_io_ == nullptr ? "off" : async_io_->backend();
  }
  AsyncPageIo* async_io() { return async_io_.get(); }

  /// Refreshes the cached copy of a page (used by the commit force path).
  void Refresh(uint16_t db, uint16_t area, PageId page, const void* bytes);
  /// Drops everything (after scrub/repair the store may differ from us).
  void InvalidateAll();

  FrameTable* table() { return table_.get(); }

 private:
  static uint64_t Key(uint16_t db, uint16_t area, PageId page) {
    return PageAddr{db, area, page}.Pack();
  }

  SegmentStore* inner_;
  Options options_;
  HeapPlacement placement_;
  StorePageIo io_;
  /// Destroyed after table_ (declared first): the table's Stop() drains
  /// every in-flight op before the backend's threads go away.
  std::unique_ptr<AsyncPageIo> async_io_;
  std::unique_ptr<FrameTable> table_;
};

}  // namespace bess

#endif  // BESS_CACHE_CACHED_STORE_H_
