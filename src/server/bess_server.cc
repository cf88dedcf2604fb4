#include "server/bess_server.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>

#include "obs/stats.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace bess {
namespace {

LockMode ModeFromByte(uint8_t b) {
  if (b > static_cast<uint8_t>(LockMode::kX)) return LockMode::kX;
  return static_cast<LockMode>(b);
}

// How many applied commit ids the duplicate-suppression window remembers.
// A client retries a commit within a few backoff rounds, so even a small
// window is generous; bounding it keeps a long-lived server at O(1) memory.
constexpr size_t kAppliedCommitWindow = 1024;

int DefaultWorkerCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(8u, std::max(2u, hw)));
}

}  // namespace

BessServer::BessServer(Options options)
    : options_(std::move(options)), locks_(options_.lock_timeout_ms) {}

BessServer::~BessServer() { Stop(); }

Status BessServer::AddDatabase(Database* db) {
  // The database registry is lock-free on the read side: registration is
  // only legal before Start() (whose thread creation publishes the map).
  if (running_.load()) {
    return Status::Busy("AddDatabase after Start()");
  }
  databases_[db->db_id()] = db;
  return Status::OK();
}

Status BessServer::Start() {
  BESS_ASSIGN_OR_RETURN(listener_, MsgListener::Listen(options_.socket_path));
  Reactor::Options ropts;
  ropts.workers = options_.worker_threads > 0 ? options_.worker_threads
                                              : DefaultWorkerCount();
  ropts.send_soft_cap_bytes = options_.send_soft_cap_bytes;
  ropts.send_hard_cap_bytes = options_.send_hard_cap_bytes;
  ropts.idle_timeout_ms = options_.idle_timeout_ms;
  ropts.probe_type = kMsgPing;
  ropts.watchdog_ms = options_.watchdog_ms;
  reactor_ = std::make_unique<Reactor>(ropts);
  BESS_RETURN_IF_ERROR(reactor_->AddListener(
      &listener_, [this](MsgSocket sock) { OnAccept(std::move(sock)); }));
  running_.store(true);
  return reactor_->Start();
}

void BessServer::Stop() {
  if (!running_.exchange(false)) return;
  // Mark every session defunct first: workers parked in lock-wait rounds
  // abort within one capped round instead of riding out their timeouts, and
  // callback round trips fail fast once their sockets are shut.
  for (SessionShard& shard : session_shards_) {
    std::lock_guard<std::mutex> guard(shard.mu);
    for (auto& [id, session] : shard.map) {
      (void)id;
      session->defunct.store(true);
      // A late kMsgHelloCallback may still be attaching this socket.
      std::lock_guard<std::mutex> cb_guard(session->callback_mutex);
      session->callback.Shutdown();
    }
  }
  // The reactor closes every connection on its event thread (running each
  // session's on_close cleanup), drains the worker queue, then joins.
  if (reactor_ != nullptr) reactor_->Stop();
  listener_.Close();
}

Result<Database*> BessServer::DbFor(uint16_t db_id) {
  auto it = databases_.find(db_id);
  if (it == databases_.end()) {
    return Status::NotFound("server does not own database " +
                            std::to_string(db_id));
  }
  return it->second;
}

std::vector<Database*> BessServer::AllDatabases() {
  std::vector<Database*> dbs;
  dbs.reserve(databases_.size());
  for (auto& [id, db] : databases_) {
    (void)id;
    dbs.push_back(db);
  }
  return dbs;
}

std::shared_ptr<BessServer::Session> BessServer::FindSession(uint64_t id) {
  SessionShard& shard = SessionShardFor(id);
  std::lock_guard<std::mutex> guard(shard.mu);
  auto it = shard.map.find(id);
  return it == shard.map.end() ? nullptr : it->second;
}

void BessServer::OnAccept(MsgSocket sock) {
  // Accept-time admission: past the connection cap there is no session to
  // reply through, so the socket is simply closed — the cheapest possible
  // refusal, and on the client a clean retryable transport failure.
  if (options_.max_connections > 0 &&
      reactor_->ConnCountOnEventThread() >= options_.max_connections) {
    stats_.conns_rejected.fetch_add(1, std::memory_order_relaxed);
    BESS_COUNT("server.overload.conn_rejected");
    sock.Close();
    return;
  }
  // What this connection *is* — a new session's main channel or the
  // callback channel of an existing session — is decided by its first
  // message, so the handler carries a slot that Hello fills in.
  auto bound = std::make_shared<std::shared_ptr<Session>>();
  Reactor::ConnHandler handler;
  handler.on_message = [this, bound](Reactor::ConnId conn, Message msg) {
    OnConnMessage(bound, conn, std::move(msg));
  };
  handler.on_close = [this, bound](Reactor::ConnId) { OnConnClose(bound); };
  reactor_->AddConnection(std::move(sock), std::move(handler));
}

void BessServer::OnConnMessage(
    const std::shared_ptr<std::shared_ptr<Session>>& bound,
    Reactor::ConnId conn, Message msg) {
  std::shared_ptr<Session> session = *bound;
  if (session == nullptr) {
    // First message on a fresh connection.
    if (msg.type == kMsgHello) {
      session = std::make_shared<Session>();
      session->id = next_session_.fetch_add(1);
      session->conn = conn;
      {
        SessionShard& shard = SessionShardFor(session->id);
        std::lock_guard<std::mutex> guard(shard.mu);
        shard.map[session->id] = session;
      }
      *bound = session;
      BESS_COUNT("srv.session.open");
      BESS_GAUGE_ADD("srv.session.active", 1);
      std::string reply;
      PutFixed64(&reply, session->id);
      reactor_->Send(conn, kMsgOk, msg.req_id, std::move(reply));
    } else if (msg.type == kMsgHelloCallback) {
      Decoder dec(msg.payload);
      const uint64_t id = dec.GetFixed64();
      // The callback channel leaves the event loop: the server writes
      // callbacks and blocks for the answer from worker context, which is
      // exactly what the detached blocking surface is for.
      MsgSocket cb = reactor_->Detach(conn);
      std::shared_ptr<Session> target = dec.ok() ? FindSession(id) : nullptr;
      if (target != nullptr && cb.valid()) {
        cb.set_simulated_latency_us(options_.simulated_latency_us);
        // The session is already published, so Stop() or a callback round
        // trip can be looking at this socket; callback_mutex guards the fd.
        std::lock_guard<std::mutex> cb_guard(target->callback_mutex);
        target->callback = std::move(cb);
        target->has_callback.store(true);
      }
    } else {
      BESS_DEBUG("conn " << conn << " bad first message type " << msg.type);
      reactor_->CloseConn(conn);
    }
    return;
  }
  // An unsolicited kMsgOk/kMsgError inbound is a client's answer to our
  // idle probe (or a stray reply): pure liveness, already credited by the
  // reactor's activity tracking. Never a request — drop it here.
  if (msg.type == kMsgOk || msg.type == kMsgError) return;

  // Enqueue admission (DESIGN.md §12). Shedding order under overload:
  // phase-two 2PC decisions and Goodbye always pass (refusing them only
  // delays resolving an already-decided transaction); commit-carrying work
  // gets double the global budget; everything else sheds first. Every shed
  // is an explicit kRetryLater reply, never a silent drop.
  const bool exempt = msg.type == kMsgCommitPrepared ||
                      msg.type == kMsgAbortPrepared || msg.type == kMsgGoodbye;
  if (!exempt && options_.max_inflight_global > 0) {
    const uint64_t budget =
        (msg.type == kMsgCommit || msg.type == kMsgPrepare)
            ? uint64_t{options_.max_inflight_global} * 2
            : uint64_t{options_.max_inflight_global};
    if (inflight_.load(std::memory_order_relaxed) >= budget) {
      stats_.shed_admission.fetch_add(1, std::memory_order_relaxed);
      BESS_COUNT("server.overload.shed.admission");
      ShedRequest(conn, msg.req_id,
                  Status::RetryLater("server at capacity; back off"));
      return;
    }
  }

  // The wire deadline is a relative budget; pin it to an absolute expiry at
  // arrival so time spent queued counts against it.
  Session::Queued q;
  q.expiry = msg.deadline_ms > 0
                 ? std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(msg.deadline_ms)
                 : std::chrono::steady_clock::time_point::max();
  q.msg = std::move(msg);

  // Pipelining: append to the session's FIFO and claim the single-drainer
  // token if no worker currently owns this session.
  bool claim = false;
  {
    std::lock_guard<std::mutex> guard(session->q_mu);
    if (!exempt && options_.max_inflight_per_session > 0 &&
        session->queue.size() >= options_.max_inflight_per_session) {
      stats_.shed_admission.fetch_add(1, std::memory_order_relaxed);
      BESS_COUNT("server.overload.shed.admission");
      ShedRequest(conn, q.msg.req_id,
                  Status::RetryLater("session pipeline full; back off"));
      return;
    }
    session->queue.push_back(std::move(q));
    inflight_.fetch_add(1, std::memory_order_relaxed);
    if (!session->draining) {
      session->draining = true;
      claim = true;
    }
  }
  if (claim) {
    reactor_->Submit([this, session] { DrainSession(std::move(session)); });
  }
}

void BessServer::OnConnClose(
    const std::shared_ptr<std::shared_ptr<Session>>& bound) {
  std::shared_ptr<Session> session = *bound;
  if (session == nullptr) return;  // never said Hello (or was detached)
  bool claim = false;
  {
    std::lock_guard<std::mutex> guard(session->q_mu);
    session->closed = true;
    if (!session->draining) {
      session->draining = true;
      claim = true;
    }
  }
  // If a drain is in flight it will observe `closed` once the queue empties;
  // otherwise claim the token so cleanup runs exactly once, on a worker.
  if (claim) {
    reactor_->Submit([this, session] { DrainSession(std::move(session)); });
  }
}

void BessServer::DrainSession(std::shared_ptr<Session> session) {
  for (;;) {
    // An in-progress lock wait is the head-of-line request: run one bounded
    // round; if still undecided, requeue ourselves at the back of the worker
    // FIFO so other sessions — including whoever will release this lock —
    // get worker time. A waiter never parks a worker for its full timeout.
    if (session->lock_wait.active) {
      Status s = LockWaitRound(*session);
      if (s.IsBusy()) {
        reactor_->Submit([this, session] { DrainSession(std::move(session)); });
        return;  // the drain token stays held; no one else may enter
      }
      session->lock_wait.active = false;
      uint16_t type;
      std::string reply;
      EncodeStatus(s, &type, &reply);
      SendReply(*session, type, session->lock_wait.req_id, std::move(reply));
      // The kMsgLock request that started this wait completes here.
      inflight_.fetch_sub(1, std::memory_order_relaxed);
    }
    Session::Queued q;
    bool got = false;
    bool cleanup = false;
    {
      std::lock_guard<std::mutex> guard(session->q_mu);
      if (session->queue.empty()) {
        session->draining = false;
        if (session->closed && !session->cleaned) {
          session->cleaned = true;
          cleanup = true;
        }
      } else {
        q = std::move(session->queue.front());
        session->queue.pop_front();
        got = true;
      }
    }
    if (cleanup) {
      CleanupSession(session);
      return;
    }
    if (!got) return;
    Message msg = std::move(q.msg);
    if (session->defunct.load()) {  // torn down: drop queued work
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    if (msg.type == kMsgGoodbye) {
      // Close via the event loop; its on_close re-enters the drain path for
      // the final cleanup once the token is released.
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      reactor_->CloseConn(session->conn);
      continue;
    }
    // Deadline shed: the client's budget ran out while the request sat in
    // the pipeline. Executing it would burn worker time on an answer no one
    // is waiting for — refuse instead, before dispatch. Phase-two 2PC
    // decisions execute regardless: they only shrink in-doubt state.
    if (q.expiry <= std::chrono::steady_clock::now() &&
        msg.type != kMsgCommitPrepared && msg.type != kMsgAbortPrepared) {
      stats_.shed_deadline.fetch_add(1, std::memory_order_relaxed);
      BESS_COUNT("server.overload.shed.deadline");
      ShedRequest(session->conn, msg.req_id,
                  Status::DeadlineExceeded("deadline passed before dispatch"));
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    if (msg.type == kMsgLock) {
      stats_.requests.fetch_add(1, std::memory_order_relaxed);
      BESS_COUNT("srv.request");
      Decoder dec(msg.payload);
      const uint64_t key = dec.GetFixed64();
      Slice mode_byte = dec.GetBytes(1);
      const int timeout = static_cast<int>(dec.GetFixed32());
      if (!dec.ok()) {
        uint16_t type;
        std::string reply;
        EncodeStatus(Status::Protocol("bad lock request"), &type, &reply);
        SendReply(*session, type, msg.req_id, std::move(reply));
        inflight_.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      stats_.lock_requests.fetch_add(1, std::memory_order_relaxed);
      session->lock_wait.active = true;
      session->lock_wait.key = key;
      session->lock_wait.mode =
          ModeFromByte(static_cast<uint8_t>(mode_byte.data()[0]));
      session->lock_wait.req_id = msg.req_id;
      session->lock_wait.deadline = std::min(
          q.expiry, std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(
                            timeout > 0 ? timeout : options_.lock_timeout_ms));
      continue;  // the top of the loop runs the first round
    }
    uint16_t reply_type;
    std::string reply;
    Handle(*session, msg, &reply_type, &reply);
    SendReply(*session, reply_type, msg.req_id, std::move(reply));
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void BessServer::CleanupSession(const std::shared_ptr<Session>& session) {
  // First resolve any transaction it prepared but never decided: presumed
  // abort — the coordinator kept its decision in volatile memory, and this
  // channel can no longer deliver one.
  if (!session->prepared_gtids.empty()) {
    for (uint64_t gtid : session->prepared_gtids) {
      for (Database* db : AllDatabases()) {
        (void)db->AbortPrepared(gtid);
      }
    }
  }
  // Then release its locks (cached and held) and forget it.
  locks_.ReleaseAll(session->id);
  {
    SessionShard& shard = SessionShardFor(session->id);
    std::lock_guard<std::mutex> guard(shard.mu);
    shard.map.erase(session->id);
  }
  {
    std::lock_guard<std::mutex> cb_guard(session->callback_mutex);
    session->has_callback.store(false);
    session->callback.Close();
  }
  stats_.sessions_reaped.fetch_add(1, std::memory_order_relaxed);
  BESS_GAUGE_SUB("srv.session.active", 1);
}

void BessServer::ShedRequest(Reactor::ConnId conn, uint64_t req_id,
                             const Status& s) {
  // No simulated LAN latency here: a shed exists to be cheaper than the
  // work it refuses, and under overload the worker (or event thread) must
  // not sleep per refusal.
  uint16_t type;
  std::string reply;
  EncodeStatus(s, &type, &reply);
  reactor_->Send(conn, type, req_id, std::move(reply));
}

void BessServer::SendReply(Session& session, uint16_t type, uint64_t req_id,
                           std::string payload) {
  // The simulated LAN latency burns worker time, never event-loop time.
  if (options_.simulated_latency_us > 0) {
    ::usleep(options_.simulated_latency_us);
  }
  reactor_->Send(session.conn, type, req_id, std::move(payload));
}

void BessServer::Handle(Session& session, const Message& msg,
                        uint16_t* reply_type, std::string* reply) {
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  BESS_COUNT("srv.request");
  BESS_SPAN("srv.request.latency");
  Status s = HandleRequest(session, msg, reply, reply_type);
  if (!s.ok()) {
    EncodeStatus(s, reply_type, reply);
  }
}

Status BessServer::HandleRequest(Session& session, const Message& msg,
                                 std::string* reply, uint16_t* reply_type) {
  *reply_type = kMsgOk;
  reply->clear();
  Decoder dec(msg.payload);

  switch (msg.type) {
    case kMsgPing: {
      // Echo, for latency probes and pipelining-exactness tests.
      reply->assign(msg.payload);
      return Status::OK();
    }

    case kMsgFetchSlotted: {
      const SegmentId id = SegmentId::Unpack(dec.GetFixed64());
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(id.db));
      std::string buf(kMaxSlottedPages * kPageSize, '\0');
      // Serve from the canonical on-disk state via the database's store
      // path (the server's own mapped cache is a separate client).
      uint32_t pages = 0;
      BESS_RETURN_IF_ERROR(db->ReadRawPages(id.area, id.first_page, 1,
                                            buf.data()));
      const auto* header = reinterpret_cast<const SlottedHeader*>(buf.data());
      if (header->magic != SlottedHeader::kMagic || header->page_count == 0 ||
          header->page_count > kMaxSlottedPages) {
        return Status::Corruption("not a slotted segment head");
      }
      pages = header->page_count;
      if (pages > 1) {
        BESS_RETURN_IF_ERROR(db->ReadRawPages(id.area, id.first_page + 1,
                                              pages - 1,
                                              buf.data() + kPageSize));
      }
      PutFixed32(reply, pages);
      reply->append(buf.data(), static_cast<size_t>(pages) * kPageSize);
      stats_.fetches.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }

    case kMsgFetchPages: {
      const uint16_t db_id = dec.GetFixed16();
      const uint16_t area = dec.GetFixed16();
      const PageId first = dec.GetFixed32();
      const uint32_t count = dec.GetFixed32();
      if (!dec.ok() || count == 0 || count > kPagesPerExtent) {
        return Status::Protocol("bad fetch request");
      }
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      reply->resize(static_cast<size_t>(count) * kPageSize);
      BESS_RETURN_IF_ERROR(
          db->ReadRawPages(area, first, count, reply->data()));
      stats_.fetches.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }

    case kMsgAllocSegment: {
      const uint16_t db_id = dec.GetFixed16();
      const uint16_t area = dec.GetFixed16();
      const uint32_t pages = dec.GetFixed32();
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(DiskSegment seg, db->AllocDiskSegment(area, pages));
      PutFixed32(reply, seg.first_page);
      PutFixed32(reply, seg.page_count);
      return Status::OK();
    }

    case kMsgFreeSegment: {
      const uint16_t db_id = dec.GetFixed16();
      const uint16_t area = dec.GetFixed16();
      const PageId first = dec.GetFixed32();
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      return db->FreeDiskSegment(area, first);
    }

    case kMsgReleaseLock: {
      const uint64_t key = dec.GetFixed64();
      return locks_.Release(session.id, key);
    }

    case kMsgReleaseAll: {
      locks_.ReleaseAll(session.id);
      return Status::OK();
    }

    case kMsgCommit: {
      const uint64_t ctid = dec.GetFixed64();
      if (!dec.ok()) return Status::Protocol("bad commit request");
      if (ctid != 0) {
        CommitShard& shard = CommitShardFor(ctid);
        std::lock_guard<std::mutex> guard(shard.mu);
        if (shard.applied.count(ctid)) {
          // A replay of a commit we already applied (its reply was lost):
          // report the original outcome instead of applying twice.
          stats_.commit_dedupes.fetch_add(1, std::memory_order_relaxed);
          return Status::OK();
        }
      }
      Slice rest(msg.payload.data() + 8, msg.payload.size() - 8);
      BESS_ASSIGN_OR_RETURN(std::vector<PageImage> pages, DecodePageSet(rest));
      // Split by owning database (one server may own several).
      std::unordered_map<uint16_t, std::vector<PageImage>> by_db;
      for (PageImage& img : pages) by_db[img.db].push_back(std::move(img));
      for (auto& [db_id, set] : by_db) {
        BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
        // WAL backpressure: while the retained log is over its soft limit,
        // refuse *new* commit work outright rather than parking a worker in
        // a throttled append. The client retries after backing off — by
        // then the forced checkpoint has usually reclaimed space. A replay
        // of an applied commit never gets here (dedup window answered OK).
        if (db->LogBackpressured()) {
          stats_.shed_log_full.fetch_add(1, std::memory_order_relaxed);
          BESS_COUNT("server.overload.shed.log_full");
          return Status::RetryLater("log full; retry after backoff");
        }
        BESS_RETURN_IF_ERROR(db->CommitPageSet(set));
      }
      if (ctid != 0) {
        CommitShard& shard = CommitShardFor(ctid);
        std::lock_guard<std::mutex> guard(shard.mu);
        shard.applied.insert(ctid);
        shard.order.push_back(ctid);
        if (shard.order.size() > kAppliedCommitWindow / kCommitShards) {
          shard.applied.erase(shard.order.front());
          shard.order.pop_front();
        }
      }
      stats_.commits.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }

    case kMsgPrepare: {
      const uint64_t gtid = dec.GetFixed64();
      Slice rest(msg.payload.data() + 8, msg.payload.size() - 8);
      BESS_ASSIGN_OR_RETURN(std::vector<PageImage> pages, DecodePageSet(rest));
      std::unordered_map<uint16_t, std::vector<PageImage>> by_db;
      for (PageImage& img : pages) by_db[img.db].push_back(std::move(img));
      for (auto& [db_id, set] : by_db) {
        BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
        // Same WAL-backpressure refusal as kMsgCommit: prepares open *new*
        // in-doubt state, which is exactly what a full log cannot afford.
        if (db->LogBackpressured()) {
          stats_.shed_log_full.fetch_add(1, std::memory_order_relaxed);
          BESS_COUNT("server.overload.shed.log_full");
          return Status::RetryLater("log full; retry after backoff");
        }
        BESS_RETURN_IF_ERROR(db->PreparePageSet(gtid, set));
      }
      session.prepared_gtids.insert(gtid);
      return Status::OK();
    }

    case kMsgCommitPrepared: {
      const uint64_t gtid = dec.GetFixed64();
      bool any = false;
      for (Database* db : AllDatabases()) {
        Status s = db->CommitPrepared(gtid);
        if (s.ok()) any = true;
        else if (!s.IsNotFound()) return s;
      }
      session.prepared_gtids.erase(gtid);
      return any ? Status::OK()
                 : Status::NotFound("gtid unknown (presumed abort)");
    }

    case kMsgAbortPrepared: {
      const uint64_t gtid = dec.GetFixed64();
      for (Database* db : AllDatabases()) {
        (void)db->AbortPrepared(gtid);
      }
      session.prepared_gtids.erase(gtid);
      return Status::OK();
    }

    case kMsgCreateFile: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      const uint8_t multi = static_cast<uint8_t>(dec.GetBytes(1).data()[0]);
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(uint16_t id,
                            db->CreateFile(name.ToString(), multi != 0));
      PutFixed16(reply, id);
      return Status::OK();
    }

    case kMsgFindFile: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(uint16_t id, db->FindFile(name.ToString()));
      PutFixed16(reply, id);
      return Status::OK();
    }

    case kMsgRegisterType: {
      const uint16_t db_id = dec.GetFixed16();
      Slice rest(msg.payload.data() + 2, msg.payload.size() - 2);
      Decoder tdec(rest);
      BESS_ASSIGN_OR_RETURN(TypeDescriptor desc,
                            TypeDescriptor::DecodeFrom(&tdec));
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(TypeIdx idx, db->RegisterType(desc));
      PutFixed32(reply, idx);
      return Status::OK();
    }

    case kMsgFetchTypes: {
      const uint16_t db_id = dec.GetFixed16();
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      db->types()->EncodeTo(reply);
      return Status::OK();
    }

    case kMsgNewObjectSegment: {
      const uint16_t db_id = dec.GetFixed16();
      const uint16_t file_id = dec.GetFixed16();
      const uint32_t min_bytes = dec.GetFixed32();
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(auto grant,
                            db->GrantObjectSegment(file_id, min_bytes));
      NewSegmentReply r;
      r.id = grant.id;
      r.slotted_pages = grant.slotted_pages;
      r.slot_capacity = grant.slot_capacity;
      r.outbound_capacity = grant.outbound_capacity;
      r.data_area = grant.data_area;
      r.data_first_page = grant.data_first_page;
      r.data_page_count = grant.data_page_count;
      r.EncodeTo(reply);
      return Status::OK();
    }

    case kMsgGetRoot: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(Oid oid, db->GetRootOid(name.ToString()));
      char buf[12];
      oid.EncodeTo(buf);
      reply->append(buf, 12);
      return Status::OK();
    }

    case kMsgSetRoot: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      Slice oid_bytes = dec.GetBytes(12);
      if (!dec.ok()) return Status::Protocol("bad SetRoot");
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      return db->SetRootOid(name.ToString(), Oid::DecodeFrom(oid_bytes.data()));
    }

    case kMsgRemoveRoot: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      return db->RemoveRoot(name.ToString());
    }

    case kMsgGetStats: {
      // Everything the server process has counted so far, over the wire.
      Snapshot().EncodeTo(reply);
      return Status::OK();
    }

    case kMsgScrub: {
      const uint16_t db_id = dec.GetFixed16();
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(ScrubReport report, db->Scrub());
      PutFixed64(reply, report.pages_scanned);
      PutFixed64(reply, report.verify_failures);
      PutFixed64(reply, report.repaired);
      PutFixed64(reply, report.quarantined);
      return Status::OK();
    }

    case kMsgIndexCreate: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      if (!dec.ok()) return Status::Protocol("bad IndexCreate");
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      return db->CreateIndex(name.ToString()).status();
    }

    case kMsgIndexDrop: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      if (!dec.ok()) return Status::Protocol("bad IndexDrop");
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      return db->DropIndex(name.ToString());
    }

    case kMsgIndexPut: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      Slice key = dec.GetLengthPrefixed();
      Slice value = dec.GetLengthPrefixed();
      if (!dec.ok()) return Status::Protocol("bad IndexPut");
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      // Same WAL-backpressure refusal as kMsgCommit: an index put is a new
      // micro-commit (kBegin is its throttled admission point).
      if (db->LogBackpressured()) {
        stats_.shed_log_full.fetch_add(1, std::memory_order_relaxed);
        BESS_COUNT("server.overload.shed.log_full");
        return Status::RetryLater("log full; retry after backoff");
      }
      BESS_ASSIGN_OR_RETURN(Index index, db->OpenIndex(name.ToString()));
      return index.Put(nullptr, key, value);
    }

    case kMsgIndexDel: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      Slice key = dec.GetLengthPrefixed();
      if (!dec.ok()) return Status::Protocol("bad IndexDel");
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      if (db->LogBackpressured()) {
        stats_.shed_log_full.fetch_add(1, std::memory_order_relaxed);
        BESS_COUNT("server.overload.shed.log_full");
        return Status::RetryLater("log full; retry after backoff");
      }
      BESS_ASSIGN_OR_RETURN(Index index, db->OpenIndex(name.ToString()));
      bool existed = false;
      BESS_RETURN_IF_ERROR(index.Delete(nullptr, key, &existed));
      reply->push_back(existed ? 1 : 0);
      return Status::OK();
    }

    case kMsgIndexGet: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      Slice key = dec.GetLengthPrefixed();
      if (!dec.ok()) return Status::Protocol("bad IndexGet");
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(Index index, db->OpenIndex(name.ToString()));
      std::string value;
      BESS_ASSIGN_OR_RETURN(bool found, index.Get(key, &value));
      reply->push_back(found ? 1 : 0);
      if (found) PutLengthPrefixed(reply, value);
      return Status::OK();
    }

    case kMsgIndexScan: {
      const uint16_t db_id = dec.GetFixed16();
      Slice name = dec.GetLengthPrefixed();
      std::string lo = dec.GetLengthPrefixed().ToString();
      std::string hi = dec.GetLengthPrefixed().ToString();
      uint32_t limit = dec.GetFixed32();
      if (!dec.ok()) return Status::Protocol("bad IndexScan");
      if (limit == 0 || limit > kIndexScanMaxEntries) {
        limit = kIndexScanMaxEntries;  // bound the reply frame
      }
      BESS_ASSIGN_OR_RETURN(Database * db, DbFor(db_id));
      BESS_ASSIGN_OR_RETURN(Index index, db->OpenIndex(name.ToString()));
      std::string entries;
      uint32_t n = 0;
      bool truncated = false;
      Status s = index.Scan(lo, hi, [&](Slice k, Slice v) {
        if (n >= limit) {
          truncated = true;
          return Status::Aborted("scan limit");  // stop the scan, not an error
        }
        PutLengthPrefixed(&entries, k);
        PutLengthPrefixed(&entries, v);
        ++n;
        return Status::OK();
      });
      if (!s.ok() && !truncated) return s;
      PutFixed32(reply, n);
      reply->append(entries);
      reply->push_back(truncated ? 1 : 0);
      return Status::OK();
    }

    default:
      return Status::Protocol("unknown request type " +
                              std::to_string(msg.type));
  }
}

void BessServer::MarkSessionDefunct(Session* session) {
  stats_.callback_timeouts.fetch_add(1, std::memory_order_relaxed);
  BESS_COUNT("srv.callback.timeout");
  // The defunct flag stops the session's drain from continuing to *wait*
  // for locks — without it, a lock-wait round in flight rides out its cap
  // on a request whose session is already dead. Closing the main channel
  // (via the reactor, so it is safe from any thread) triggers the session's
  // on_close → cleanup path: prepared transactions are presumed-aborted,
  // the session erased.
  session->defunct.store(true);
  session->has_callback.store(false);
  session->callback.Shutdown();
  reactor_->CloseConn(session->conn);
  // Release the ghost's locks now rather than when its cleanup eventually
  // runs: every waiter blocked on these locks would otherwise miss its
  // grant wakeup and time out against a holder that can never answer. The
  // cleanup path's ReleaseAll then finds nothing left — release is
  // idempotent — and sweeps up anything granted in between.
  locks_.ReleaseAll(session->id);
}

Status BessServer::LockWaitRound(Session& session) {
  const LockWait& w = session.lock_wait;
  if (session.defunct.load()) {
    // Torn down by the callback-timeout reaper while we were waiting: our
    // grant (if any) is moot and our locks are already being released.
    return Status::Aborted("session torn down during lock wait");
  }
  Status s = locks_.TryAcquire(session.id, w.key, w.mode);
  if (!s.IsBusy()) return s;  // granted or hard error

  // Conflict: call back the caching holders (callback locking, §3). The
  // round trips block, which is why lock waits live on workers.
  std::vector<std::pair<TxnId, LockMode>> holders = locks_.Holders(w.key);
  for (const auto& [holder_id, held_mode] : holders) {
    if (holder_id == session.id || LockCompatible(held_mode, w.mode)) {
      continue;
    }
    std::shared_ptr<Session> holder = FindSession(holder_id);
    if (holder == nullptr || !holder->has_callback.load()) {
      // A dead or callback-less session cannot answer: break its lock if
      // the session is gone, otherwise keep waiting.
      continue;
    }
    std::string payload;
    PutFixed64(&payload, w.key);
    payload.push_back(static_cast<char>(w.mode));
    std::lock_guard<std::mutex> cb_guard(holder->callback_mutex);
    stats_.callbacks_sent.fetch_add(1, std::memory_order_relaxed);
    BESS_COUNT("srv.callback.sent");
    if (!holder->callback.Send(kMsgCallback, payload).ok()) {
      MarkSessionDefunct(holder.get());
      continue;
    }
    auto answer = holder->callback.RecvTimeout(options_.callback_timeout_ms);
    if (!answer.ok()) {
      // No answer inside the window: the holder is unresponsive. Tearing
      // down its session (not just counting a denial) frees its locks via
      // the presumed-abort path so the requester stops waiting on a ghost.
      MarkSessionDefunct(holder.get());
      continue;
    }
    if (answer->type == kMsgCallbackReleased) {
      stats_.callbacks_released.fetch_add(1, std::memory_order_relaxed);
      BESS_COUNT("srv.callback.released");
      (void)locks_.Release(holder_id, w.key);
    } else {
      // In use: the requester keeps waiting.
      stats_.callbacks_denied.fetch_add(1, std::memory_order_relaxed);
      BESS_COUNT("srv.callback.denied");
    }
  }

  const auto now = std::chrono::steady_clock::now();
  if (now >= w.deadline) {
    return Status::Deadlock("lock wait timeout (callbacks exhausted) on " +
                            std::to_string(w.key));
  }
  // Wait for a grant on the lock manager's shard condition instead of
  // polling: a release (callback answer, commit, or a reaped holder's
  // ReleaseAll) wakes us immediately. The wait is capped per round so the
  // worker is handed back between rounds and unanswered conflicts re-enter
  // the callback loop above.
  const auto remaining =
      std::chrono::duration_cast<std::chrono::milliseconds>(w.deadline - now);
  const int round_ms =
      static_cast<int>(std::min<int64_t>(remaining.count() + 1, 50));
  s = locks_.Acquire(session.id, w.key, w.mode, round_ms);
  if (!s.IsDeadlock()) return s;  // granted or hard error
  return Status::Busy("lock wait round expired");
}

BessServer::Stats BessServer::stats() const {
  Stats out;
  out.requests = stats_.requests.load(std::memory_order_relaxed);
  out.fetches = stats_.fetches.load(std::memory_order_relaxed);
  out.commits = stats_.commits.load(std::memory_order_relaxed);
  out.commit_dedupes = stats_.commit_dedupes.load(std::memory_order_relaxed);
  out.sessions_reaped =
      stats_.sessions_reaped.load(std::memory_order_relaxed);
  out.lock_requests = stats_.lock_requests.load(std::memory_order_relaxed);
  out.callbacks_sent = stats_.callbacks_sent.load(std::memory_order_relaxed);
  out.callbacks_released =
      stats_.callbacks_released.load(std::memory_order_relaxed);
  out.callbacks_denied =
      stats_.callbacks_denied.load(std::memory_order_relaxed);
  out.callback_timeouts =
      stats_.callback_timeouts.load(std::memory_order_relaxed);
  out.shed_deadline = stats_.shed_deadline.load(std::memory_order_relaxed);
  out.shed_admission = stats_.shed_admission.load(std::memory_order_relaxed);
  out.shed_log_full = stats_.shed_log_full.load(std::memory_order_relaxed);
  out.conns_rejected = stats_.conns_rejected.load(std::memory_order_relaxed);
  return out;
}

size_t BessServer::open_connections() const {
  if (!running_.load() || reactor_ == nullptr) return 0;
  auto count = std::make_shared<std::promise<size_t>>();
  std::future<size_t> result = count->get_future();
  Reactor* r = reactor_.get();
  r->Post([r, count] { count->set_value(r->ConnCountOnEventThread()); });
  // A Post racing Stop is dropped, breaking the promise: nothing is open.
  try {
    return result.get();
  } catch (const std::future_error&) {
    return 0;
  }
}

size_t BessServer::live_sessions() const {
  size_t n = 0;
  for (const SessionShard& shard : session_shards_) {
    std::lock_guard<std::mutex> guard(shard.mu);
    n += shard.map.size();
  }
  return n;
}

}  // namespace bess
