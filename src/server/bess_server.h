// The BeSS server (paper §3, Figure 2).
//
// "Each BeSS server manages a number of storage areas and provides
// distributed transaction management, concurrency control and recovery for
// the databases stored in these areas." Clients connect over two channels
// (request/response + callback); the server grants locks with the callback
// locking algorithm [17, 19]: when a request conflicts with a lock *cached*
// by another client, the server calls that client back; the client releases
// the lock if no active transaction uses it, otherwise the requester waits
// (timeouts standing in for distributed deadlock detection).
//
// Threading (DESIGN.md §11): the server runs one epoll event loop (Reactor)
// that owns every session socket, plus a small worker pool. Sessions are
// not threads — each is a FIFO request queue drained by at most one worker
// at a time, so a connection may pipeline many requests (replies matched by
// req_id) while the server still executes them serially per session. At 256
// or 1024 connections the thread count stays O(workers).
//
// The server is an *open server*: trusted code can be linked with it — in
// this codebase that simply means constructing BessServer inside your own
// process and registering hooks or using the owned Databases directly
// (§2.4, §5 "value added server").
#ifndef BESS_SERVER_BESS_SERVER_H_
#define BESS_SERVER_BESS_SERVER_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "object/database.h"
#include "os/socket.h"
#include "server/protocol.h"
#include "server/reactor.h"

namespace bess {

class BessServer {
 public:
  struct Options {
    std::string socket_path;
    int lock_timeout_ms = kLockTimeoutMillis;
    /// Wait for one callback round trip; plumbed from bess::OpenOptions.
    int callback_timeout_ms = kCallbackTimeoutMillis;
    uint32_t simulated_latency_us = 0;  ///< per message (LAN simulation)
    /// Blocking-work pool size (fsync/group commit, page I/O, lock waits).
    /// 0 picks a small default; the count never scales with connections.
    int worker_threads = 0;

    // ---- overload protection (DESIGN.md §12); 0 always means "off" ------

    /// Accept-time admission: connections beyond this are closed without a
    /// session (the client's connect succeeds, then the socket drops —
    /// a retryable transport failure on its side).
    size_t max_connections = 0;
    /// Per-session pipelining depth: requests queued beyond this are shed
    /// with kRetryLater instead of buffered without bound.
    uint32_t max_inflight_per_session = 0;
    /// Global enqueued-but-unfinished request cap. Commit-carrying work
    /// (kMsgCommit/kMsgPrepare) gets 2x this budget so under overload the
    /// server finishes transactions rather than starting new reads;
    /// phase-two 2PC decisions are never shed.
    uint32_t max_inflight_global = 0;
    /// Outbound byte caps per connection (reactor slow-consumer policy):
    /// throttle reads above soft, disconnect above hard.
    size_t send_soft_cap_bytes = 1u << 20;
    size_t send_hard_cap_bytes = 8u << 20;
    /// Idle/half-open reaping: a connection silent this long is pinged
    /// (kMsgPing) and closed if the next period also passes silent.
    uint32_t idle_timeout_ms = 0;
    /// Workers stuck on one task longer than this are flagged.
    uint32_t watchdog_ms = 0;
  };

  struct Stats {
    uint64_t requests = 0;
    uint64_t fetches = 0;
    uint64_t commits = 0;
    uint64_t commit_dedupes = 0;  ///< replayed commits answered from the window
    uint64_t sessions_reaped = 0;  ///< dead sessions cleaned up
    uint64_t lock_requests = 0;
    uint64_t callbacks_sent = 0;
    uint64_t callbacks_released = 0;
    uint64_t callbacks_denied = 0;
    /// Sessions torn down because a callback round trip timed out: the
    /// holder is presumed dead and unwinds into presumed-abort cleanup.
    uint64_t callback_timeouts = 0;
    /// Overload sheds (DESIGN.md §12): every shed is a *reply* (never a
    /// silent drop), so these reconcile against client-side counts.
    uint64_t shed_deadline = 0;   ///< expired budget, kDeadlineExceeded
    uint64_t shed_admission = 0;  ///< in-flight caps, kRetryLater
    uint64_t shed_log_full = 0;   ///< WAL backpressure, kRetryLater
    uint64_t conns_rejected = 0;  ///< closed at accept (max_connections)
  };

  explicit BessServer(Options options);
  ~BessServer();

  /// Registers a database this server owns (not transferred).
  Status AddDatabase(Database* db);

  /// Starts listening and serving (returns immediately).
  Status Start();
  void Stop();

  const std::string& socket_path() const { return options_.socket_path; }
  Stats stats() const;
  LockStats lock_stats() const { return locks_.stats(); }

  /// Sessions currently registered (leak checks: must return to baseline
  /// after clients disconnect).
  size_t live_sessions() const;
  /// Connections the reactor holds open, read on its event thread (0 once
  /// stopped). Leak checks wait for it to drain before counting fds.
  size_t open_connections() const;
  /// Workers currently stuck past watchdog_ms (0 when healthy).
  int stuck_workers() const {
    return reactor_ != nullptr ? reactor_->stuck_workers() : 0;
  }

 private:
  /// An in-progress cooperative lock wait. A lock request that cannot be
  /// granted immediately does NOT park a worker for its whole timeout: each
  /// drain slot runs one bounded round (callbacks + a short capped wait),
  /// then re-queues the session so other sessions' work — including the
  /// release that will eventually grant us — gets worker time.
  struct LockWait {
    bool active = false;
    uint64_t key = 0;
    LockMode mode = LockMode::kS;
    uint64_t req_id = 0;
    std::chrono::steady_clock::time_point deadline;
  };

  struct Session {
    uint64_t id = 0;
    Reactor::ConnId conn = 0;  ///< reactor-owned main channel
    MsgSocket callback;
    /// Guards the callback socket: one round trip at a time, and the
    /// HelloCallback attach / Stop() shutdown of a published session's
    /// socket. MarkSessionDefunct expects its callers to hold it.
    std::mutex callback_mutex;
    std::atomic<bool> has_callback{false};
    /// Set by the callback-timeout reaper (MarkSessionDefunct): the session
    /// is being torn down. Its drain stops waiting for locks immediately
    /// instead of riding out the timeout on a doomed request.
    std::atomic<bool> defunct{false};

    /// One queued request plus its deadline, fixed at arrival: a relative
    /// wire budget (Message::deadline_ms) becomes an absolute expiry here,
    /// so queueing delay counts against it and an expired request is shed
    /// before dispatch instead of executed late (DESIGN.md §12).
    struct Queued {
      Message msg;
      std::chrono::steady_clock::time_point expiry;
    };

    /// Pipelining queue: the event thread appends, one worker at a time
    /// drains. `draining` is the single-drainer token; `closed` is set by
    /// the reactor's on_close; `cleaned` makes teardown run exactly once.
    std::mutex q_mu;
    std::deque<Queued> queue;
    bool draining = false;
    bool closed = false;
    bool cleaned = false;

    /// Drainer-owned (serial per session): cooperative lock-wait state.
    LockWait lock_wait;
    /// Transactions this session prepared but has not yet resolved. Only
    /// touched by the session's drain (serial); on disconnect they are
    /// aborted (presumed abort: the coordinator's decision, if any, lived in
    /// client memory and can no longer reach us through this session).
    std::set<uint64_t> prepared_gtids;
  };

  // There is deliberately no server-wide mutex. Per-session state (queue,
  // prepared gtids) is owned by its serial drain; the cross-session
  // structures are sharded so two clients committing to different pages
  // never contend: the session registry and the ctid dedup window hash over
  // small per-shard mutexes, counters are relaxed atomics, and the database
  // registry is immutable once Start() has been called.
  static constexpr uint32_t kSessionShards = 16;
  static constexpr uint32_t kCommitShards = 8;
  struct SessionShard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::shared_ptr<Session>> map;
  };
  struct CommitShard {
    std::mutex mu;
    /// Recently applied commit ids (kMsgCommit ctid prefix), a bounded
    /// duplicate-suppression window: a client replaying a commit whose
    /// reply was lost gets OK instead of a second application.
    std::unordered_set<uint64_t> applied;
    std::deque<uint64_t> order;
  };
  struct AtomicStats {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> fetches{0};
    std::atomic<uint64_t> commits{0};
    std::atomic<uint64_t> commit_dedupes{0};
    std::atomic<uint64_t> sessions_reaped{0};
    std::atomic<uint64_t> lock_requests{0};
    std::atomic<uint64_t> callbacks_sent{0};
    std::atomic<uint64_t> callbacks_released{0};
    std::atomic<uint64_t> callbacks_denied{0};
    std::atomic<uint64_t> callback_timeouts{0};
    std::atomic<uint64_t> shed_deadline{0};
    std::atomic<uint64_t> shed_admission{0};
    std::atomic<uint64_t> shed_log_full{0};
    std::atomic<uint64_t> conns_rejected{0};
  };

  SessionShard& SessionShardFor(uint64_t id) {
    return session_shards_[id % kSessionShards];
  }
  CommitShard& CommitShardFor(uint64_t ctid) {
    return commit_shards_[(ctid * 0x9E3779B97F4A7C15ull >> 32) %
                          kCommitShards];
  }
  std::shared_ptr<Session> FindSession(uint64_t id);

  // Reactor callbacks (event thread; must not block).
  void OnAccept(MsgSocket sock);
  void OnConnMessage(
      const std::shared_ptr<std::shared_ptr<Session>>& bound,
      Reactor::ConnId conn, Message msg);
  void OnConnClose(const std::shared_ptr<std::shared_ptr<Session>>& bound);

  // Worker-side request execution (serial per session).
  void DrainSession(std::shared_ptr<Session> session);
  void CleanupSession(const std::shared_ptr<Session>& session);
  void SendReply(Session& session, uint16_t type, uint64_t req_id,
                 std::string payload);
  /// Replies `s` to a request being refused without execution. Bypasses the
  /// simulated LAN latency: a shed must be cheaper than the work it sheds.
  void ShedRequest(Reactor::ConnId conn, uint64_t req_id, const Status& s);
  /// Handles one request; fills the reply (type + payload).
  void Handle(Session& session, const Message& msg, uint16_t* reply_type,
              std::string* reply);
  Status HandleRequest(Session& session, const Message& msg,
                       std::string* reply, uint16_t* reply_type);
  /// One bounded round of the callback-locking acquire; kBusy means
  /// "undecided, yield the worker and try again next slot".
  Status LockWaitRound(Session& session);
  /// Tears down an unresponsive session so its drain unwinds into the
  /// presumed-abort cleanup, and releases its locks right away so waiters
  /// are granted promptly instead of riding out their own timeouts against
  /// a ghost holder.
  void MarkSessionDefunct(Session* session);
  Result<Database*> DbFor(uint16_t db_id);
  std::vector<Database*> AllDatabases();

  Options options_;
  LockManager locks_;
  MsgListener listener_;
  std::unique_ptr<Reactor> reactor_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> next_session_{1};
  /// Requests enqueued but not yet finished, across all sessions — the
  /// quantity max_inflight_global caps. Incremented at enqueue (event
  /// thread), decremented once per request when its drain completes it.
  std::atomic<uint64_t> inflight_{0};

  /// Populated by AddDatabase strictly before Start(); read without a lock
  /// afterwards (Start()'s thread creation publishes it).
  std::unordered_map<uint16_t, Database*> databases_;
  SessionShard session_shards_[kSessionShards];
  CommitShard commit_shards_[kCommitShards];
  mutable AtomicStats stats_;
};

}  // namespace bess

#endif  // BESS_SERVER_BESS_SERVER_H_
