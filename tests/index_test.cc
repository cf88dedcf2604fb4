// Secondary-index integration tests (DESIGN.md §14): lifecycle through the
// Database catalog, put/get/delete/scan correctness across node splits,
// durability across reopen, transactional atomicity (commit/abort of mixed
// object+index transactions), structural validation of large workloads, and
// the fault-schedule paths — bit-rot on lazily written index pages repaired
// byte-exact from WAL images, and injected read errors surfacing cleanly.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bess/bess.h"
#include "index/index.h"
#include "object/database.h"
#include "obs/stats.h"
#include "os/async_io.h"
#include "os/fault_injection.h"
#include "storage/storage_area.h"
#include "util/random.h"

namespace bess {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%05d", i);
  return buf;
}

// A value long enough that a few hundred entries overflow one leaf — splits
// and root growth happen at small populations.
std::string Value(int i, size_t fill = 120) {
  std::string v = "v" + std::to_string(i) + "|";
  v.append(fill, static_cast<char>('a' + i % 26));
  return v;
}

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("bess_index_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    db_.reset();
    fault::FaultRegistry::Instance().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  Database::Options Opts(bool create) {
    Database::Options o;
    o.dir = dir_.string();
    o.create = create;
    return o;
  }

  void Create() {
    auto db = Database::Open(Opts(true));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  void Reopen() {
    db_.reset();
    auto db = Database::Open(Opts(false));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  // Collects [lo, hi] into a map via the handle's scan.
  std::map<std::string, std::string> ScanAll(const Index& ix,
                                             const std::string& lo = "",
                                             const std::string& hi = "") {
    std::map<std::string, std::string> out;
    Status s = ix.Scan(lo, hi, [&](Slice k, Slice v) {
      out[k.ToString()] = v.ToString();
      return Status::OK();
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  std::filesystem::path dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(IndexTest, CreateOpenDropLifecycle) {
  Create();
  auto ix = db_->CreateIndex("by_name");
  ASSERT_TRUE(ix.ok()) << ix.status().ToString();
  EXPECT_TRUE(ix->valid());
  EXPECT_EQ(ix->name(), "by_name");

  // Duplicate names are rejected; unknown names do not open.
  EXPECT_FALSE(db_->CreateIndex("by_name").ok());
  EXPECT_FALSE(db_->OpenIndex("nope").ok());

  auto ix2 = db_->CreateIndex("by_age");
  ASSERT_TRUE(ix2.ok());
  auto names = db_->ListIndexes();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "by_age");
  EXPECT_EQ(names[1], "by_name");

  // Handles over the same index share one runtime: a write through one is
  // visible through the other immediately.
  auto again = db_->OpenIndex("by_name");
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(ix->Put(nullptr, "alice", "1").ok());
  std::string v;
  auto found = again->Get("alice", &v);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(*found);
  EXPECT_EQ(v, "1");

  ASSERT_TRUE(db_->DropIndex("by_name").ok());
  EXPECT_FALSE(db_->OpenIndex("by_name").ok());
  EXPECT_FALSE(db_->DropIndex("by_name").ok());  // already gone
  EXPECT_EQ(db_->ListIndexes().size(), 1u);

  // The name is reusable; the new index starts empty (fresh area).
  auto fresh = db_->CreateIndex("by_name");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto refound = fresh->Get("alice", nullptr);
  ASSERT_TRUE(refound.ok());
  EXPECT_FALSE(*refound);
}

TEST_F(IndexTest, KeyAndValueLimits) {
  Create();
  auto ix = db_->CreateIndex("lim");
  ASSERT_TRUE(ix.ok());
  EXPECT_FALSE(ix->Put(nullptr, "", "v").ok());
  EXPECT_FALSE(ix->Put(nullptr, std::string(kIndexMaxKeyLen + 1, 'k'), "v").ok());
  EXPECT_FALSE(
      ix->Put(nullptr, "k", std::string(kIndexMaxValLen + 1, 'v')).ok());
  // Boundary sizes and the empty value are legal.
  const std::string maxk(kIndexMaxKeyLen, 'k');
  const std::string maxv(kIndexMaxValLen, 'v');
  ASSERT_TRUE(ix->Put(nullptr, maxk, maxv).ok());
  ASSERT_TRUE(ix->Put(nullptr, "empty", "").ok());
  std::string v;
  auto found = ix->Get(maxk, &v);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(*found);
  EXPECT_EQ(v, maxv);
  found = ix->Get("empty", &v);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(*found);
  EXPECT_EQ(v, "");
}

TEST_F(IndexTest, PutGetDeleteScanAcrossSplits) {
  Create();
  const Stats before = Snapshot();
  auto ixr = db_->CreateIndex("big");
  ASSERT_TRUE(ixr.ok());
  Index ix = *ixr;

  // Enough volume for several levels: ~1500 × ~130 bytes ≈ 50+ leaves.
  std::map<std::string, std::string> shadow;
  for (int i = 0; i < 1500; ++i) {
    const int k = (i * 7919) % 1500;  // non-sequential insert order
    ASSERT_TRUE(ix.Put(nullptr, Key(k), Value(k)).ok()) << "i=" << i;
    shadow[Key(k)] = Value(k);
  }
  // Overwrites go through the replace path (iold carried for undo).
  for (int k = 0; k < 1500; k += 3) {
    ASSERT_TRUE(ix.Put(nullptr, Key(k), Value(k + 10000)).ok());
    shadow[Key(k)] = Value(k + 10000);
  }
  // Deletes: present and absent keys.
  for (int k = 1; k < 1500; k += 5) {
    bool existed = false;
    ASSERT_TRUE(ix.Delete(nullptr, Key(k), &existed).ok());
    EXPECT_TRUE(existed) << k;
    shadow.erase(Key(k));
  }
  bool existed = true;
  ASSERT_TRUE(ix.Delete(nullptr, "zzz-absent", &existed).ok());
  EXPECT_FALSE(existed);

  // Point lookups agree with the shadow map everywhere.
  for (int k = 0; k < 1500; ++k) {
    std::string v;
    auto found = ix.Get(Key(k), &v);
    ASSERT_TRUE(found.ok());
    auto it = shadow.find(Key(k));
    ASSERT_EQ(*found, it != shadow.end()) << Key(k);
    if (*found) {
      EXPECT_EQ(v, it->second);
    }
  }

  // Full scan and sub-range scans deliver exactly the shadow contents in
  // key order.
  EXPECT_EQ(ScanAll(ix), shadow);
  const std::string lo = Key(200), hi = Key(1100);
  std::map<std::string, std::string> want(shadow.lower_bound(lo),
                                          shadow.upper_bound(hi));
  EXPECT_EQ(ScanAll(ix, lo, hi), want);

  // The IndexRange convenience returns ordered pairs.
  auto range = IndexRange(ix, Key(0), Key(20));
  ASSERT_TRUE(range.ok());
  const std::map<std::string, std::string> got(range->begin(), range->end());
  const std::map<std::string, std::string> head(shadow.lower_bound(Key(0)),
                                                shadow.upper_bound(Key(20)));
  EXPECT_EQ(got, head);

#if BESS_METRICS_ENABLED
  const Stats delta = StatsDelta(before, Snapshot());
  EXPECT_GT(delta.counter("index.smo"), 0u) << "no split ever happened";
  EXPECT_GE(delta.counter("index.root_grow"), 1u);
  EXPECT_GT(delta.counter("index.scan"), 0u);
#endif
}

TEST_F(IndexTest, EntriesSurviveReopen) {
  Create();
  auto ix = db_->CreateIndex("persist");
  ASSERT_TRUE(ix.ok());
  std::map<std::string, std::string> shadow;
  for (int k = 0; k < 600; ++k) {
    ASSERT_TRUE(ix->Put(nullptr, Key(k), Value(k)).ok());
    shadow[Key(k)] = Value(k);
  }
  for (int k = 0; k < 600; k += 4) {
    ASSERT_TRUE(ix->Delete(nullptr, Key(k)).ok());
    shadow.erase(Key(k));
  }

  Reopen();
  auto names = db_->ListIndexes();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "persist");
  auto re = db_->OpenIndex("persist");
  ASSERT_TRUE(re.ok()) << re.status().ToString();
  EXPECT_EQ(ScanAll(*re), shadow);
}

TEST_F(IndexTest, AbortUndoesMixedObjectAndIndexWrites) {
  Create();
  auto file = db_->CreateFile("f");
  ASSERT_TRUE(file.ok());
  auto ixr = db_->CreateIndex("mix");
  ASSERT_TRUE(ixr.ok());
  Index ix = *ixr;

  // Committed baseline: one object and two index entries.
  const uint64_t committed = 7;
  {
    TxnGuard txn(db_.get());
    ASSERT_TRUE(txn.active());
    auto s = db_->CreateObject(*file, kRawBytesType, sizeof(uint64_t),
                               &committed);
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(db_->SetRoot("obj", *s).ok());
    ASSERT_TRUE(ix.Put(txn.handle(), "keep", "old").ok());
    ASSERT_TRUE(ix.Put(txn.handle(), "victim", "doomed").ok());
    ASSERT_TRUE(txn.Commit().ok());
  }

  // One transaction mutates the object AND the index three ways — insert,
  // overwrite, delete — then aborts. Everything must come back.
  {
    TxnGuard txn(db_.get());
    ASSERT_TRUE(txn.active());
    auto obj = db_->GetRoot("obj");
    ASSERT_TRUE(obj.ok());
    *reinterpret_cast<uint64_t*>((*obj)->dp) = 99;
    ASSERT_TRUE(ix.Put(txn.handle(), "fresh", "uncommitted").ok());
    ASSERT_TRUE(ix.Put(txn.handle(), "keep", "overwritten").ok());
    bool existed = false;
    ASSERT_TRUE(ix.Delete(txn.handle(), "victim", &existed).ok());
    EXPECT_TRUE(existed);

    // Uncommitted index writes are visible before the abort (§14 reads see
    // the latest latched state).
    std::string v;
    auto found = ix.Get("fresh", &v);
    ASSERT_TRUE(found.ok());
    EXPECT_TRUE(*found);
    ASSERT_TRUE(txn.Abort().ok());
  }

  {
    TxnGuard txn(db_.get());
    ASSERT_TRUE(txn.active());
    auto obj = db_->GetRoot("obj");
    ASSERT_TRUE(obj.ok());
    EXPECT_EQ(*reinterpret_cast<const uint64_t*>((*obj)->dp), committed);
    ASSERT_TRUE(txn.Commit().ok());
  }
  std::string v;
  auto found = ix.Get("fresh", &v);
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(*found) << "aborted insert survived";
  found = ix.Get("keep", &v);
  ASSERT_TRUE(found.ok());
  ASSERT_TRUE(*found);
  EXPECT_EQ(v, "old") << "aborted overwrite survived";
  found = ix.Get("victim", &v);
  ASSERT_TRUE(found.ok());
  ASSERT_TRUE(*found) << "aborted delete survived";
  EXPECT_EQ(v, "doomed");

  // And the state is durable: reopen sees the same picture.
  Reopen();
  auto re = db_->OpenIndex("mix");
  ASSERT_TRUE(re.ok());
  auto all = ScanAll(*re);
  EXPECT_EQ(all, (std::map<std::string, std::string>{{"keep", "old"},
                                                     {"victim", "doomed"}}));
}

TEST_F(IndexTest, CommittedTransactionIsDurableAcrossReopen) {
  Create();
  auto ixr = db_->CreateIndex("txn");
  ASSERT_TRUE(ixr.ok());
  Index ix = *ixr;
  {
    TxnGuard txn(db_.get());
    ASSERT_TRUE(txn.active());
    for (int k = 0; k < 40; ++k) {
      ASSERT_TRUE(ix.Put(txn.handle(), Key(k), Value(k)).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  Reopen();
  auto re = db_->OpenIndex("txn");
  ASSERT_TRUE(re.ok());
  for (int k = 0; k < 40; ++k) {
    std::string v;
    auto found = re->Get(Key(k), &v);
    ASSERT_TRUE(found.ok());
    ASSERT_TRUE(*found) << Key(k);
    EXPECT_EQ(v, Value(k));
  }
}

// Index create and drop save the catalog directly, while commits log the
// catalog they change. Redo replays every logged catalog image, so an index
// create or drop that follows a catalog-changing commit must survive a
// crash: restart may not roll the catalog back to the commit's image
// ("catalog/directory area count mismatch" after a create, a resurrected
// index after a drop). The crash is a forked child's _exit with no
// checkpoint, after 0, 1 or 3 further commits that leave the catalog alone.
TEST_F(IndexTest, IndexCreateAndDropSurviveCrashAfterCatalogCommit) {
  for (const bool drop : {false, true}) {
    for (const int later_commits : {0, 1, 3}) {
      SCOPED_TRACE((drop ? "drop, " : "create, ") +
                   std::to_string(later_commits) + " later commits");
      db_.reset();
      std::filesystem::remove_all(dir_);
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        auto db = Database::Open(Opts(true));
        if (!db.ok()) ::_exit(2);
        Database* d = db->get();
        if (drop && !d->CreateIndex("doomed").ok()) ::_exit(3);
        // A commit that carries the catalog (new file, its first segment).
        auto file = d->CreateFile("f");
        if (!file.ok()) ::_exit(4);
        Slot* obj = nullptr;
        {
          TxnGuard txn(d);
          uint64_t v = 0;
          auto s = d->CreateObject(*file, kRawBytesType, sizeof(v), &v);
          if (!s.ok() || !txn.Commit().ok()) ::_exit(5);
          obj = *s;
        }
        if (drop ? !d->DropIndex("doomed").ok()
                 : !d->CreateIndex("made").ok()) {
          ::_exit(6);
        }
        for (int i = 1; i <= later_commits; ++i) {
          TxnGuard txn(d);
          *reinterpret_cast<uint64_t*>(obj->dp) = static_cast<uint64_t>(i);
          if (!txn.Commit().ok()) ::_exit(7);
        }
        ::_exit(0);  // crash: no close, no checkpoint
      }
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFEXITED(status));
      ASSERT_EQ(WEXITSTATUS(status), 0) << "child setup step failed";
      Reopen();  // on failure db_ stays null: report, try the next case
      if (db_ == nullptr) continue;
      const std::vector<std::string> want =
          drop ? std::vector<std::string>{}
               : std::vector<std::string>{"made"};
      EXPECT_EQ(db_->ListIndexes(), want);
    }
  }
}

// Standalone runtime over its own area, no WAL: structural validation of a
// big mixed workload, persistence through FlushDirty, and write coalescing
// (the bgwriter's key-sorted batches merge into multi-page device writes —
// AioStats::write_runs < writes).
TEST_F(IndexTest, StandaloneValidateAndWriteCoalescing) {
  std::filesystem::create_directories(dir_);
  auto area = StorageArea::Create((dir_ / "ix.bess").string(), 1);
  ASSERT_TRUE(area.ok());
  ASSERT_TRUE(BTreeIndex::Format(area->get()).ok());

  BTreeIndex::Options o;
  o.cache_frames = 64;  // far smaller than the tree: eviction + refetch
  o.enable_bgwriter = true;
  o.use_async = true;
  auto idxr = BTreeIndex::Open(area->get(), o);
  ASSERT_TRUE(idxr.ok()) << idxr.status().ToString();
  auto idx = std::move(*idxr);

  const BTreeIndex::RecordLogger unlogged;  // null: no WAL in this harness
  std::map<std::string, std::string> shadow;
  Random rng(0x1DE4);
  for (int i = 0; i < 5000; ++i) {
    const int k = static_cast<int>(rng.Uniform(3000));
    if (rng.Uniform(10) < 7 || shadow.count(Key(k)) == 0) {
      ASSERT_TRUE(idx->Put(Key(k), Value(k + i % 100), unlogged).ok());
      shadow[Key(k)] = Value(k + i % 100);
    } else {
      bool existed = false;
      ASSERT_TRUE(idx->Delete(Key(k), &existed, unlogged).ok());
      EXPECT_TRUE(existed);
      shadow.erase(Key(k));
    }
  }

  uint64_t entries = 0;
  ASSERT_TRUE(idx->Validate(&entries).ok());
  EXPECT_EQ(entries, shadow.size());

  std::map<std::string, std::string> got;
  ASSERT_TRUE(idx->Scan("", "", [&](Slice k, Slice v) {
                   got[k.ToString()] = v.ToString();
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(got, shadow);

  ASSERT_TRUE(idx->FlushDirty().ok());
  const aio::AioStats aio = idx->async_io()->stats();
  EXPECT_GT(aio.writes, 0u);
  EXPECT_GT(aio.write_runs, 0u);
  EXPECT_LT(aio.write_runs, aio.writes)
      << "bgwriter batches never coalesced into multi-page runs";
  ASSERT_TRUE((*area)->Sync().ok());

  // Reopen the persisted tree cold and re-validate.
  idx.reset();
  BTreeIndex::Options cold;
  cold.enable_bgwriter = false;
  cold.use_async = false;
  auto re = BTreeIndex::Open(area->get(), cold);
  ASSERT_TRUE(re.ok()) << re.status().ToString();
  entries = 0;
  ASSERT_TRUE((*re)->Validate(&entries).ok());
  EXPECT_EQ(entries, shadow.size());
  for (const auto& [k, v] : shadow) {
    std::string val;
    auto found = (*re)->Get(k, &val);
    ASSERT_TRUE(found.ok());
    ASSERT_TRUE(*found) << k;
    EXPECT_EQ(val, v);
  }
}

// Bit-rot on lazily written index pages (steal/no-force: the bgwriter, not
// commit, writes them) must be repaired byte-exact from the WAL's logical
// record images — kIndexPut/kIndexDelete carry the leaf, kIndexSmo carries
// every page a split touched.
TEST_F(IndexTest, BitRotOnIndexPagesRepairsFromWalImages) {
  Create();
  auto ixr = db_->CreateIndex("rot");
  ASSERT_TRUE(ixr.ok());
  Index ix = *ixr;
  for (int k = 0; k < 400; ++k) {
    ASSERT_TRUE(ix.Put(nullptr, Key(k), Value(k)).ok());
  }

  // Arm the lying disk, then dirty a spread of leaves: every write-back in
  // the window persists a flipped bit under a trailer stamped for the
  // intended bytes. Index micro-commits force only the log, so the armed
  // point sees exactly the index write-backs.
  const Stats before = Snapshot();
  auto& faults = fault::FaultRegistry::Instance();
  const uint64_t hits_before = faults.hits("page.bitrot");
  fault::FaultSpec rot;
  rot.action = fault::FaultAction::kBitRot;
  rot.probability = 1.0;
  rot.seed = 0xB17;
  faults.Arm("page.bitrot", rot);
  for (int k = 0; k < 400; k += 8) {
    ASSERT_TRUE(ix.Put(nullptr, Key(k), Value(k + 5000)).ok());
  }
  // Let the bgwriter (2ms interval) drain the dirty frames through the
  // armed point.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  faults.DisarmAll();
  const uint64_t flips = faults.hits("page.bitrot") - hits_before;
  ASSERT_GT(flips, 0u) << "no index write-back happened under the fault";

  // Scrub while the WAL still holds this session's records: every flip is
  // found and repaired; none may quarantine.
  auto report = db_->Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->verify_failures, 0u);
  EXPECT_EQ(report->repaired, report->verify_failures)
      << "index page flip not repaired despite live WAL images";
  EXPECT_EQ(report->quarantined, 0u);
#if BESS_METRICS_ENABLED
  const Stats delta = StatsDelta(before, Snapshot());
  EXPECT_GT(delta.counter("page.repair.ok"), 0u);
  EXPECT_EQ(delta.counter("page.quarantined"), 0u);
#endif

  // Repaired pages read back the intended values.
  for (int k = 0; k < 400; ++k) {
    std::string v;
    auto found = ix.Get(Key(k), &v);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    ASSERT_TRUE(*found) << Key(k);
    EXPECT_EQ(v, k % 8 == 0 ? Value(k + 5000) : Value(k));
  }
}

// Injected I/O errors on the read path surface as clean Status failures —
// no crash, no corruption — and the index answers again once the fault
// clears.
TEST_F(IndexTest, InjectedReadErrorsFailCleanlyAndRecover) {
  Create();
  auto ix = db_->CreateIndex("ioerr");
  ASSERT_TRUE(ix.ok());
  for (int k = 0; k < 500; ++k) {
    ASSERT_TRUE(ix->Put(nullptr, Key(k), Value(k)).ok());
  }
  // Cold cache: reopen so every Get below must hit the disk.
  Reopen();
  auto re = db_->OpenIndex("ioerr");
  ASSERT_TRUE(re.ok());

  auto& faults = fault::FaultRegistry::Instance();
  fault::FaultSpec fail;
  fail.action = fault::FaultAction::kFail;
  fail.code = StatusCode::kIOError;
  fail.message = "injected read error";
  fail.count = 4;  // covers the descent's page reads, then self-disarms
  faults.Arm("file.readat", fail);
  std::string v;
  auto hit = re->Get(Key(123), &v);
  faults.DisarmAll();
  EXPECT_FALSE(hit.ok()) << "read under injected I/O error did not fail";

  // The fault was transient; nothing was poisoned or cached wrong.
  auto again = re->Get(Key(123), &v);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE(*again);
  EXPECT_EQ(v, Value(123));
  uint64_t n = 0;
  ASSERT_TRUE(re->Scan("", "", [&](Slice, Slice) {
                   ++n;
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(n, 500u);
}

}  // namespace
}  // namespace bess
