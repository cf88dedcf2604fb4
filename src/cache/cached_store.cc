#include "cache/cached_store.h"

#include <cstring>

namespace bess {

CachedSegmentStore::CachedSegmentStore(SegmentStore* inner, Options options)
    : inner_(inner), options_(options),
      placement_(options.frame_count == 0 ? 1 : options.frame_count),
      io_(inner) {
  if (options_.use_async) {
    auto made = MakeAsyncPageIo(
        AsyncPageIoOptions{options_.async_queue_depth, options_.async_workers},
        &io_, options_.raw_source);
    // The pool over io_ always builds; should it not, the cache degrades to
    // synchronous paths (async_backend() reports "off") rather than failing.
    if (made.ok()) async_io_ = std::move(*made);
  }
  FrameTable::Options topts;
  topts.frame_count = options_.frame_count == 0 ? 1 : options_.frame_count;
  topts.policy = "clock";
  topts.enable_prefetch = options_.enable_prefetch;
  topts.prefetch_trigger = options_.prefetch_trigger;
  topts.prefetch_window = options_.prefetch_window;
  topts.on_cleaned = options_.on_cleaned;
  topts.async_io = async_io_.get();
  topts.async_queue_depth = options_.async_queue_depth;
  table_.reset(new FrameTable(topts, &placement_, &io_));
}

CachedSegmentStore::~CachedSegmentStore() { Stop(); }

Status CachedSegmentStore::Init() { return table_->Init(); }

void CachedSegmentStore::Stop() {
  if (table_ != nullptr) table_->Stop();
  if (async_io_ != nullptr) async_io_->Shutdown();
}

Status CachedSegmentStore::FetchSlotted(SegmentId id, void* buf,
                                        uint32_t* page_count) {
  // Slotted images carry runtime fields the store rewrites on every fetch;
  // they are small (<= kMaxSlottedPages) and not worth caching raw.
  return inner_->FetchSlotted(id, buf, page_count);
}

Status CachedSegmentStore::FetchPages(uint16_t db, uint16_t area, PageId first,
                                      uint32_t page_count, void* buf) {
  char* out = static_cast<char*>(buf);
  for (uint32_t i = 0; i < page_count; ++i) {
    auto r = table_->Fix(Key(db, area, first + i), /*for_write=*/false);
    BESS_RETURN_IF_ERROR(r.status());
    memcpy(out + static_cast<size_t>(i) * kPageSize, r->data, kPageSize);
  }
  return Status::OK();
}

Status CachedSegmentStore::WritePages(uint16_t db, uint16_t area, PageId first,
                                      uint32_t page_count, const void* buf) {
  BESS_RETURN_IF_ERROR(inner_->WritePages(db, area, first, page_count, buf));
  const char* in = static_cast<const char*>(buf);
  for (uint32_t i = 0; i < page_count; ++i) {
    // Best effort: a busy frame (mid-load) just keeps its eventual fresh
    // copy — the inner store already has the new bytes.
    (void)table_->Put(Key(db, area, first + i),
                      in + static_cast<size_t>(i) * kPageSize);
  }
  return Status::OK();
}

Status CachedSegmentStore::ScanPages(uint16_t db, uint16_t area, PageId first,
                                     uint32_t page_count,
                                     const ScanConsumer& consume) {
  return table_->ScanRange(Key(db, area, first), page_count,
                           [&](uint64_t key, const void* bytes) {
                             return consume(PageAddr::Unpack(key).page, bytes);
                           });
}

void CachedSegmentStore::NoteFetch(uint16_t db, uint16_t area, PageId first,
                                   uint32_t page_count) {
  table_->NotePrefetchHint(Key(db, area, first), page_count);
}

void CachedSegmentStore::Refresh(uint16_t db, uint16_t area, PageId page,
                                 const void* bytes) {
  (void)table_->Put(Key(db, area, page), bytes);
}

void CachedSegmentStore::InvalidateAll() {
  (void)table_->Clear(/*flush=*/false);
}

}  // namespace bess
