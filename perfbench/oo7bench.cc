// oo7bench: one OO7 workload against BeSS, end to end, with its raw
// measurements written as JSON for perfbench/run.py to reduce.
//
//   oo7bench --workload oo7_read --seed 1 --seconds 15 --trace 0
//            --dir <scratch dir> --out <raw.json>
//
// The part graph is OO7's: 64-byte parts with three references each and
// locality 0.7, split into one private module (a BeSS file) per session,
// with two indexes, by_id (id -> OID) and by_date ((build date, id) -> OID).
// Workloads (perfbench/README.md says why each exists):
//   oo7_read      Q1+T1 through RemoteClient -> BessServer, node-less
//                 clients (no inter-transaction caching), roaming modules.
//   oo7_update    T2 in the private-module setting, inter-transaction
//                 caching, by_date maintained after each commit.
//   crash_restart T2 on the embedded Database with index maintenance in the
//                 transaction and background checkpoints off.
//   node_read     the oo7_read traversal through a NodeServer.
// Every workload ends by dropping its database without a clean shutdown
// and timing Database::Open over identical copies of what is left; the
// first recovered copy is then checked against the benchmark's shadow of
// the graph (edges, build dates, both indexes).
//
// The benchmark only calls public functions. It times its own calls (spans
// with a parent and a transaction id, kept in memory, written at exit) and
// takes before/after deltas of the obs registry, whose histograms it reads
// by exact count and sum only.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bess/bess.h"
#include "bess/bess_internal.h"
#include "os/async_io.h"
#include "util/random.h"

namespace {

using namespace bess;  // NOLINT: benchmark convenience
namespace fs = std::filesystem;

uint64_t NowNs() { return obs::Trace::NowNs(); }

// ---- configuration ------------------------------------------------------------

enum class Kind { kRead, kUpdate, kCrash, kNode };

// Sizes are fixed, so two runs of a workload differ only in their seed;
// README.md says why each is what it is.
constexpr int kParts = 24000;
constexpr int kModules = 2;        // one private module per remote session
constexpr int kHops = 50;          // OO7 T1 traversal depth
constexpr double kLocality = 0.7;  // share of edges to the 200 previous parts
constexpr int kSetupReps = 3;      // set-ups per run; setup_s is their median
constexpr int kCrashTxns = 2000;   // crash_restart's fixed transaction count
constexpr int kWarmupTxns = 50;    // per session, part of set-up
constexpr double kWatchdogS = 30;  // no progress for this long fails the run

struct Config {
  std::string workload;
  Kind kind = Kind::kRead;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string out;
  int cpu = -1;  // the one CPU the process runs on, -1 when not pinned

  /// crash_restart commits from one embedded thread.
  int sessions() const { return kind == Kind::kCrash ? 1 : kModules; }
  /// Copies of the crashed directory to time Database::Open on: the
  /// 70 ms opens after a checkpoint need more to be steady than the long
  /// crash_restart replay.
  int restart_copies() const { return kind == Kind::kCrash ? 3 : 9; }
};

bool ParseArgs(int argc, char** argv, Config* c) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") c->workload = v;
    else if (k == "--seed") c->seed = std::stoull(v);
    else if (k == "--seconds") c->seconds = std::stod(v);
    else if (k == "--trace") c->trace = v == "1";
    else if (k == "--dir") c->dir = v;
    else if (k == "--out") c->out = v;
    else return false;
  }
  if (c->workload == "oo7_read") c->kind = Kind::kRead;
  else if (c->workload == "oo7_update") c->kind = Kind::kUpdate;
  else if (c->workload == "crash_restart") c->kind = Kind::kCrash;
  else if (c->workload == "node_read") c->kind = Kind::kNode;
  else return false;
  return !c->dir.empty() && !c->out.empty() && c->seconds > 0;
}

// ---- the OO7 part graph and its shadow ---------------------------------------

/// A part: three references, identity, build date (indexed by by_date), an
/// OO7 attribute T2 updates on neighbours (not indexed), module (64 bytes).
struct Part {
  uint64_t to[3];  // reference fields at offsets 0, 8, 16
  uint64_t id;
  uint64_t date;
  uint64_t x;
  uint64_t module;
  uint64_t pad;
};
static_assert(sizeof(Part) == 64);

TypeDescriptor PartType() {
  TypeDescriptor t;
  t.name = "oo7.Part";
  t.fixed_size = sizeof(Part);
  t.ref_offsets = {0, 8, 16};
  return t;
}

/// What the benchmark knows independently of the database: the edges as
/// part ids, each part's acknowledged build date and x, and the OIDs set-up
/// assigned. Sessions update only parts of their own module.
struct Graph {
  int parts = 0;
  int modules = 0;
  std::vector<std::array<uint32_t, 3>> edges;
  std::vector<uint64_t> date;
  std::vector<uint64_t> x;
  std::vector<Oid> oid;

  int per_module() const { return parts / modules; }
  int first(int m) const { return m * per_module(); }
  int count(int m) const {
    return m == modules - 1 ? parts - first(m) : per_module();
  }
  int module_of(uint32_t id) const {
    return std::min(static_cast<int>(id) / per_module(), modules - 1);
  }
};

Graph MakeShadow(const Config& c) {
  Graph g;
  g.parts = kParts;
  g.modules = kModules;
  g.edges.resize(static_cast<size_t>(kParts));
  g.date.assign(static_cast<size_t>(kParts), 0);
  g.x.assign(static_cast<size_t>(kParts), 0);
  Random rng(c.seed * 0x9E3779B97F4A7C15ull + 1);
  for (int m = 0; m < g.modules; ++m) {
    const int base = g.first(m);
    const int n = g.count(m);
    for (int i = 0; i < n; ++i) {
      for (int e = 0; e < 3; ++e) {
        int local = 0;
        if (i > 0 && rng.Bernoulli(kLocality)) {
          const int window = std::min(i, 200);
          local = i - 1 - static_cast<int>(rng.Uniform(window));
        } else {
          local = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
        }
        g.edges[static_cast<size_t>(base + i)][static_cast<size_t>(e)] =
            static_cast<uint32_t>(base + local);
      }
    }
  }
  return g;
}

std::string IdKey(uint64_t id) {
  std::string k(8, '\0');
  for (int i = 0; i < 8; ++i) k[static_cast<size_t>(i)] = static_cast<char>(id >> (56 - 8 * i));
  return k;
}

std::string DateKey(uint64_t date, uint64_t id) { return IdKey(date) + IdKey(id); }

uint64_t KeyU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

std::string OidBytes(const Oid& oid) {
  char buf[12];
  oid.EncodeTo(buf);
  return std::string(buf, sizeof(buf));
}

uint64_t Mix(uint64_t h, uint64_t id) { return (h ^ id) * 0x100000001b3ull; }

/// The traversal over the shadow: what a correct database must return.
uint64_t WalkShadow(const Graph& g, uint32_t start, int hops, uint64_t seed) {
  Random rng(seed);
  uint64_t h = 0xcbf29ce484222325ull;
  uint32_t cur = start;
  for (int i = 0; i < hops; ++i) {
    h = Mix(h, cur);
    cur = g.edges[cur][rng.Next() % 3];
  }
  return h;
}

/// The same traversal as a pointer chase through swizzled references.
uint64_t WalkObjects(Slot* start, int hops, uint64_t seed) {
  Random rng(seed);
  uint64_t h = 0xcbf29ce484222325ull;
  Slot* cur = start;
  for (int i = 0; i < hops; ++i) {
    const Part* p = reinterpret_cast<const Part*>(cur->dp);
    h = Mix(h, p->id);
    cur = reinterpret_cast<Slot*>(p->to[rng.Next() % 3]);
    if (cur == nullptr) return 0;
  }
  return h;
}

// ---- spans, progress, watchdog ------------------------------------------------

struct SpanRec {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int parent;  // index into the same log, -1 for a root
  uint64_t txn;
};

/// One session's spans, recorded only in the traced window.
class SpanLog {
 public:
  bool on = false;
  std::vector<SpanRec> recs;

  int Open(const char* name, int parent, uint64_t txn) {
    if (!on) return -1;
    recs.push_back(SpanRec{name, NowNs(), 0, parent, txn});
    return static_cast<int>(recs.size()) - 1;
  }
  void Close(int idx) {
    if (idx >= 0) recs[static_cast<size_t>(idx)].end_ns = NowNs();
  }
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent, uint64_t txn)
      : log_(log), idx_(log->Open(name, parent, txn)) {}
  ~ScopedSpan() { log_->Close(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int idx_;
};

/// Where a thread is, and when it last moved. Phases named "done" and
/// "window" are waits the watchdog does not time.
struct Progress {
  std::string who;
  std::atomic<const char*> phase{"done"};
  std::atomic<uint64_t> last_ns{0};
  void Mark(const char* p) {
    phase.store(p, std::memory_order_relaxed);
    last_ns.store(NowNs(), std::memory_order_relaxed);
  }
};

/// Ends the process if a watched thread makes no progress for `bound_s`,
/// naming the phase of every thread: a hang must fail the run, not stall it.
class Watchdog {
 public:
  Watchdog(double bound_s, std::vector<Progress*> watched)
      : bound_ns_(static_cast<uint64_t>(bound_s * 1e9)),
        watched_(std::move(watched)) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Watchdog() {
    stop_.store(true);
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  static bool Exempt(const char* p) {
    return std::strcmp(p, "done") == 0 || std::strcmp(p, "window") == 0;
  }
  void Loop() {
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const uint64_t now = NowNs();
      bool stuck = false;
      for (Progress* p : watched_) {
        const uint64_t last = p->last_ns.load();
        if (!Exempt(p->phase.load()) && now > last && now - last > bound_ns_) stuck = true;
      }
      if (!stuck) continue;
      fprintf(stderr, "watchdog: no progress for %.1f s; phases:\n",
              static_cast<double>(bound_ns_) / 1e9);
      for (Progress* p : watched_) {
        fprintf(stderr, "  %s: %s (last progress %.1f s ago)\n", p->who.c_str(),
                p->phase.load(),
                static_cast<double>(now - p->last_ns.load()) / 1e9);
      }
      fflush(stderr);
      _exit(3);  // the stuck threads cannot be joined
    }
  }

  uint64_t bound_ns_;
  std::vector<Progress*> watched_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---- sessions -----------------------------------------------------------------

struct Tally {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;        // includes output-check failures
  uint64_t check_failed = 0;  // traversal checksum or read-back mismatches
  uint64_t shipped_bytes = 0; // CommitStats.log_bytes from RemoteClient
  std::vector<double> latency_us;
  std::string first_error;

  void Committed(uint64_t start, uint64_t end) {
    committed++;
    latency_us.push_back(static_cast<double>(end - start) / 1e3);
  }

  void Fail(const std::string& what) {
    failed++;
    if (first_error.empty()) first_error = what;
  }
};

struct Session {
  int index = 0;
  std::unique_ptr<RemoteClient> client;  // null for the embedded workload
  Random rng;
  Progress progress;
  SpanLog spans;
  Tally tally;
  uint64_t next_txn = 1;
};

// ---- process-level probes ------------------------------------------------------

/// Runs the whole process on one CPU, the highest-numbered one it may use,
/// and returns it (-1 when that fails). On a shared host, handing work to a
/// thread on another vCPU waits whenever that vCPU is descheduled: with four
/// CPUs, host steal of 20% cut oo7_read from 110 to 30-40 txn/s, while a
/// process on one CPU saw 1-2% steal and moved by 4% between runs. On one
/// CPU the numbers follow the code's CPU and I/O path, which is what a
/// change to BeSS moves; gains from parallelism do not show here.
int PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

struct ProcSample {
  double cpu_ms = 0;
  uint64_t ctx_switches = 0;
  std::vector<uint64_t> cpu_jiffies;  // /proc/stat line of the pinned CPU
};

ProcSample SampleProc(int cpu) {
  ProcSample s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_ms = (static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3);
  s.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  const std::string tag = (cpu < 0 ? std::string("cpu") : "cpu" + std::to_string(cpu)) + " ";
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(tag, 0) != 0) continue;
    std::istringstream fields(line.substr(tag.size()));
    uint64_t v = 0;
    while (fields >> v) s.cpu_jiffies.push_back(v);
    break;
  }
  return s;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- a tiny JSON writer ----------------------------------------------------------

class Json {
 public:
  Json& Open(const char* key = nullptr) { Key(key); out_ += '{'; first_ = true; return *this; }
  Json& Close() { out_ += '}'; first_ = false; return *this; }
  Json& OpenArray(const char* key) { Key(key); out_ += '['; first_ = true; return *this; }
  Json& CloseArray() { out_ += ']'; first_ = false; return *this; }
  Json& Num(const char* key, double v) {
    Key(key);
    char buf[40];
    snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }
  Json& U64(const char* key, uint64_t v) {
    Key(key);
    out_ += std::to_string(v);
    return *this;
  }
  Json& Str(const char* key, const std::string& v) {
    Key(key);
    out_ += '"';
    for (char ch : v) {
      if (ch == '"' || ch == '\\') out_ += '\\';
      if (static_cast<unsigned char>(ch) < 0x20) ch = ' ';
      out_ += ch;
    }
    out_ += '"';
    return *this;
  }
  Json& Bool(const char* key, bool v) {
    Key(key);
    out_ += v ? "true" : "false";
    return *this;
  }
  const std::string& str() const { return out_; }

 private:
  void Key(const char* key) {
    if (!first_) out_ += ',';
    first_ = false;
    if (key != nullptr) {
      out_ += '"';
      out_ += key;
      out_ += "\":";
    }
  }
  std::string out_;
  bool first_ = true;
};

// ---- the benchmark ---------------------------------------------------------------

/// Counters captured at one window boundary.
struct Capture {
  Stats reg;
  NodeServer::Stats node;
  ProcSample proc;
  uint64_t ns = 0;
};

class Bench {
 public:
  explicit Bench(Config c) : cfg_(std::move(c)), shadow_(MakeShadow(cfg_)) {
    main_.who = "main";
    for (int s = 0; s < cfg_.sessions(); ++s) {
      auto sess = std::make_unique<Session>();
      sess->index = s;
      sess->progress.who = "session " + std::to_string(s);
      sess->rng = Random(cfg_.seed * 1000003ull + static_cast<uint64_t>(s) * 7919ull +
                         static_cast<uint64_t>(cfg_.kind));
      sessions_.push_back(std::move(sess));
    }
  }

  int Run();

 private:
  // Set-up: build the graph and indexes, start the servers, connect, warm up.
  Status Setup(int rep);
  Database::Options DbOptions(const std::string& dir, bool create) const;
  Status BuildDatabase(const std::string& dir);
  Status StartServing(int rep);
  Status Warmup();
  void Teardown();

  // One transaction of the configured workload.
  void RemoteRead(Session& s);
  void RemoteUpdate(Session& s);
  void EmbeddedUpdate(Session& s);
  void RunOne(Session& s);

  Capture Snap() const;
  /// Runs every session for `seconds` (or `txns` per session when > 0).
  void RunWindow(const char* label, bool traced, double seconds, int txns);
  void Restart();
  uint64_t VerifyRecovered(Database* db, std::string* first);
  void WriteSpans(const std::string& path);

  void EmitCapture(const Capture& a, const Capture& b);

  Config cfg_;
  Graph shadow_;
  Progress main_;
  std::vector<std::unique_ptr<Session>> sessions_;

  std::string db_dir_;
  std::unique_ptr<Database> db_;
  Index by_id_;
  Index by_date_;
  TypeIdx part_type_ = 0;
  std::unique_ptr<BessServer> server_;
  std::unique_ptr<NodeServer> node_;

  Json out_;
  std::vector<double> setup_s_;
  std::string error_;
  uint64_t verify_bad_ = 0;
  std::vector<SpanRec> all_spans_;
  std::vector<int> all_span_tid_;
  int windows_traced_ = 0;
};

Database::Options Bench::DbOptions(const std::string& dir, bool create) const {
  Database::Options o;
  o.dir = dir;
  o.create = create;
  // A segment's 120 parts reference about 110 other segments through their
  // random (non-local) edges; the default table of 64 overflows.
  o.outbound_capacity = 256;
  if (cfg_.kind == Kind::kCrash) o.checkpoint_log_bytes = 0;
  return o;
}

Status Bench::BuildDatabase(const std::string& dir) {
  BESS_ASSIGN_OR_RETURN(db_, Database::Open(DbOptions(dir, true)));
  BESS_ASSIGN_OR_RETURN(part_type_, db_->RegisterType(PartType()));
  Graph& g = shadow_;
  std::vector<Slot*> slots(static_cast<size_t>(g.parts), nullptr);
  constexpr int kBatch = 2000;
  for (int m = 0; m < g.modules; ++m) {
    BESS_ASSIGN_OR_RETURN(uint16_t file,
                          db_->CreateFile("module" + std::to_string(m)));
    for (int i = 0; i < g.count(m); i += kBatch) {
      main_.Mark("setup.create");
      TxnGuard txn(db_.get());
      BESS_RETURN_IF_ERROR(txn.begin_status());
      for (int j = i; j < std::min(i + kBatch, g.count(m)); ++j) {
        const uint32_t id = static_cast<uint32_t>(g.first(m) + j);
        Part init{};
        init.id = id;
        init.module = static_cast<uint64_t>(m);
        BESS_ASSIGN_OR_RETURN(
            slots[id], db_->CreateObject(file, part_type_, sizeof(Part), &init));
      }
      BESS_RETURN_IF_ERROR(txn.Commit().status());
    }
  }
  g.oid.assign(static_cast<size_t>(g.parts), Oid{});
  for (int i = 0; i < g.parts; i += kBatch) {
    main_.Mark("setup.wire");
    TxnGuard txn(db_.get());
    BESS_RETURN_IF_ERROR(txn.begin_status());
    for (int id = i; id < std::min(i + kBatch, g.parts); ++id) {
      Part* p = reinterpret_cast<Part*>(slots[static_cast<size_t>(id)]->dp);
      for (int e = 0; e < 3; ++e) {
        p->to[e] = reinterpret_cast<uint64_t>(
            slots[g.edges[static_cast<size_t>(id)][static_cast<size_t>(e)]]);
      }
      BESS_ASSIGN_OR_RETURN(g.oid[static_cast<size_t>(id)],
                            db_->OidOf(slots[static_cast<size_t>(id)]));
    }
    BESS_RETURN_IF_ERROR(txn.Commit().status());
  }
  BESS_ASSIGN_OR_RETURN(by_id_, db_->CreateIndex("by_id"));
  BESS_ASSIGN_OR_RETURN(by_date_, db_->CreateIndex("by_date"));
  for (int i = 0; i < g.parts; i += kBatch) {
    main_.Mark("setup.index");
    TxnGuard txn(db_.get());
    BESS_RETURN_IF_ERROR(txn.begin_status());
    for (int id = i; id < std::min(i + kBatch, g.parts); ++id) {
      const std::string v = OidBytes(g.oid[static_cast<size_t>(id)]);
      BESS_RETURN_IF_ERROR(by_id_.Put(txn.handle(), IdKey(static_cast<uint64_t>(id)), v));
      BESS_RETURN_IF_ERROR(
          by_date_.Put(txn.handle(), DateKey(0, static_cast<uint64_t>(id)), v));
    }
    BESS_RETURN_IF_ERROR(txn.Commit().status());
  }
  // Set-up ends like a bulk load: with a checkpoint, so restart replays the
  // workload's log rather than the build's.
  main_.Mark("setup.checkpoint");
  BESS_RETURN_IF_ERROR(db_->Checkpoint());
  return Status::OK();
}

Status Bench::StartServing(int rep) {
  if (cfg_.kind == Kind::kCrash) return Status::OK();
  BessServer::Options so;
  so.socket_path = "srv" + std::to_string(rep) + ".sock";
  server_ = std::make_unique<BessServer>(so);
  BESS_RETURN_IF_ERROR(server_->AddDatabase(db_.get()));
  BESS_RETURN_IF_ERROR(server_->Start());
  std::string path = so.socket_path;
  if (cfg_.kind == Kind::kNode) {
    NodeServer::Options no;
    no.socket_path = "node" + std::to_string(rep) + ".sock";
    no.upstream_path = so.socket_path;
    // About half the object area (85 pages per 1000 parts), so node_read
    // both hits and misses in the node cache.
    no.cache_pages = kParts * 85 / 2000;
    BESS_ASSIGN_OR_RETURN(node_, NodeServer::Start(no));
    path = no.socket_path;
  }
  for (auto& s : sessions_) {
    main_.Mark("setup.connect");
    RemoteClient::Options co;
    co.server_path = path;
    co.db_id = 1;
    // The paper's default client caches data and locks between
    // transactions; the read workloads model its node-less client.
    co.cache_inter_txn = cfg_.kind == Kind::kUpdate;
    BESS_ASSIGN_OR_RETURN(s->client, RemoteClient::Connect(co));
  }
  return Status::OK();
}

Status Bench::Warmup() {
  if (cfg_.kind == Kind::kUpdate) {
    // Inter-transaction caching: fault each session's own module in once,
    // so the measured window sees the steady state (fetch path idle).
    std::vector<std::thread> threads;
    std::vector<Status> st(sessions_.size());
    for (auto& sp : sessions_) {
      threads.emplace_back([this, &st, s = sp.get()] {
        s->progress.Mark("warmup.module");
        Status r = s->client->Begin();
        const int m = s->index;
        for (int j = 0; r.ok() && j < shadow_.count(m); ++j) {
          auto slot = s->client->Deref(shadow_.oid[static_cast<size_t>(shadow_.first(m) + j)]);
          if (!slot.ok()) {
            r = slot.status();
            break;
          }
          if (reinterpret_cast<const Part*>((*slot)->dp)->id !=
              static_cast<uint64_t>(shadow_.first(m) + j)) {
            r = Status::Corruption("warm-up read the wrong part");
          }
        }
        if (r.ok()) r = s->client->Commit();
        s->progress.Mark("done");
        st[static_cast<size_t>(s->index)] = r;
      });
    }
    for (auto& t : threads) t.join();
    for (const Status& s : st) BESS_RETURN_IF_ERROR(s);
  }
  RunWindow(nullptr, false, 0, kWarmupTxns);
  for (auto& s : sessions_) {
    if (s->tally.failed != 0) {
      return Status::Aborted("warm-up transaction failed: " + s->tally.first_error);
    }
  }
  return Status::OK();
}

Status Bench::Setup(int rep) {
  const uint64_t t0 = NowNs();
  db_dir_ = "db" + std::to_string(rep);
  fs::remove_all(db_dir_);
  std::fill(shadow_.date.begin(), shadow_.date.end(), 0);
  std::fill(shadow_.x.begin(), shadow_.x.end(), 0);
  BESS_RETURN_IF_ERROR(BuildDatabase(db_dir_));
  BESS_RETURN_IF_ERROR(StartServing(rep));
  BESS_RETURN_IF_ERROR(Warmup());
  setup_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  return Status::OK();
}

/// Drops everything without a clean shutdown: no checkpoint, no sync.
void Bench::Teardown() {
  for (auto& s : sessions_) s->client.reset();
  node_.reset();
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  by_id_ = Index();
  by_date_ = Index();
  db_.reset();
}

void Bench::RemoteRead(Session& s) {
  Tally& t = s.tally;
  const uint32_t id = static_cast<uint32_t>(s.rng.Uniform(static_cast<uint64_t>(shadow_.parts)));
  const uint64_t walk_seed = s.rng.Next();
  const uint64_t txn_id = s.next_txn++;
  RemoteClient* c = s.client.get();
  t.attempted++;
  const uint64_t start = NowNs();
  const int root = s.spans.Open("txn", -1, txn_id);
  uint64_t h = 0;
  Status st;
  Oid oid = shadow_.oid[id];
  s.progress.Mark("begin");
  st = c->Begin();
  if (!st.ok()) {
    s.spans.Close(root);
    t.Fail("Begin: " + st.ToString());
    return;
  }
  if (cfg_.kind == Kind::kRead) {
    // NodeServer answers no index RPCs; node_read starts from held OIDs.
    s.progress.Mark("index_get");
    ScopedSpan sp(&s.spans, "client.index_get", root, txn_id);
    std::string v;
    auto found = c->IndexGet("by_id", IdKey(id), &v);
    if (!found.ok()) st = found.status();
    else if (!*found || v != OidBytes(oid)) st = Status::Corruption("by_id lookup mismatch");
  }
  Slot* slot = nullptr;
  if (st.ok()) {
    s.progress.Mark("deref");
    ScopedSpan sp(&s.spans, "client.deref", root, txn_id);
    auto r = c->Deref(oid);
    if (r.ok()) slot = *r;
    else st = r.status();
  }
  if (st.ok()) {
    s.progress.Mark("traverse");
    ScopedSpan sp(&s.spans, "client.traverse", root, txn_id);
    h = WalkObjects(slot, kHops, walk_seed);
  }
  if (st.ok()) {
    s.progress.Mark("commit");
    ScopedSpan sp(&s.spans, "client.commit", root, txn_id);
    CommitStats cs;
    st = c->Commit(&cs);
    t.shipped_bytes += cs.log_bytes;
  } else {
    (void)c->Abort();
  }
  const uint64_t end = NowNs();
  s.spans.Close(root);
  s.progress.Mark("idle");
  if (!st.ok()) {
    t.Fail(st.ToString());
    return;
  }
  if (h != WalkShadow(shadow_, id, kHops, walk_seed)) {
    t.check_failed++;
    t.Fail("traversal checksum differs from the shadow graph");
    return;
  }
  t.Committed(start, end);
}

/// What one OO7 T2 transaction changed: the part's build date (the indexed
/// attribute) and x on each distinct neighbour.
struct T2Change {
  uint32_t id = 0;
  uint64_t old_date = 0;
  std::vector<uint32_t> neighbours;
};

/// Applies T2 to the part at `slot` after checking every value it reads
/// against the shadow: the part's id and date, each neighbour's x and that
/// it lives in the part's module. The caller commits, then calls Acknowledge.
Status ApplyT2(const Graph& g, Slot* slot, uint32_t id, T2Change* change) {
  Part* p = reinterpret_cast<Part*>(slot->dp);
  if (p->id != id || p->date != g.date[id]) {
    return Status::Corruption("part " + std::to_string(id) + " read back differs from the shadow");
  }
  change->id = id;
  change->old_date = p->date;
  std::vector<Part*> touched;
  for (int e = 0; e < 3; ++e) {
    Part* n = reinterpret_cast<Part*>(reinterpret_cast<Slot*>(p->to[e])->dp);
    const uint32_t nid = static_cast<uint32_t>(n->id);
    if (nid == id || std::find(change->neighbours.begin(), change->neighbours.end(), nid) !=
                         change->neighbours.end()) {
      continue;
    }
    if (nid != g.edges[id][static_cast<size_t>(e)] || g.module_of(nid) != g.module_of(id) ||
        n->x != g.x[nid]) {
      return Status::Corruption("neighbour " + std::to_string(nid) + " differs from the shadow");
    }
    change->neighbours.push_back(nid);
    touched.push_back(n);
  }
  p->date++;
  for (Part* n : touched) n->x++;
  return Status::OK();
}

/// Records a committed T2 in the shadow.
void Acknowledge(Graph* g, const T2Change& change) {
  g->date[change.id] = change.old_date + 1;
  for (uint32_t nid : change.neighbours) g->x[nid]++;
}

void Bench::RemoteUpdate(Session& s) {
  Tally& t = s.tally;
  const int m = s.index;
  const uint32_t id = static_cast<uint32_t>(
      shadow_.first(m) + static_cast<int>(s.rng.Uniform(static_cast<uint64_t>(shadow_.count(m)))));
  const uint64_t txn_id = s.next_txn++;
  RemoteClient* c = s.client.get();
  t.attempted++;
  const uint64_t start = NowNs();
  const int root = s.spans.Open("txn", -1, txn_id);
  s.progress.Mark("begin");
  Status st = c->Begin();
  if (!st.ok()) {
    s.spans.Close(root);
    t.Fail("Begin: " + st.ToString());
    return;
  }
  const Oid oid = shadow_.oid[id];
  {
    s.progress.Mark("index_get");
    ScopedSpan sp(&s.spans, "client.index_get", root, txn_id);
    std::string v;
    auto found = c->IndexGet("by_id", IdKey(id), &v);
    if (!found.ok()) st = found.status();
    else if (!*found || v != OidBytes(oid)) st = Status::Corruption("by_id lookup mismatch");
  }
  Slot* slot = nullptr;
  if (st.ok()) {
    s.progress.Mark("deref");
    ScopedSpan sp(&s.spans, "client.deref", root, txn_id);
    auto r = c->Deref(oid);
    if (r.ok()) slot = *r;
    else st = r.status();
  }
  T2Change change;
  if (st.ok()) {
    s.progress.Mark("update");
    ScopedSpan sp(&s.spans, "client.update", root, txn_id);
    st = ApplyT2(shadow_, slot, id, &change);
    if (!st.ok()) t.check_failed++;
  }
  if (st.ok()) {
    s.progress.Mark("commit");
    ScopedSpan sp(&s.spans, "client.commit", root, txn_id);
    CommitStats cs;
    st = c->Commit(&cs);
    t.shipped_bytes += cs.log_bytes;
  } else {
    (void)c->Abort();
  }
  if (st.ok()) {
    Acknowledge(&shadow_, change);
    s.progress.Mark("index_maint");
    ScopedSpan sp(&s.spans, "client.index_maint", root, txn_id);
    bool existed = false;
    st = c->IndexDelete("by_date", DateKey(change.old_date, id), &existed);
    if (st.ok() && !existed) st = Status::Corruption("by_date entry missing");
    if (st.ok()) st = c->IndexPut("by_date", DateKey(change.old_date + 1, id), OidBytes(oid));
  }
  const uint64_t end = NowNs();
  s.spans.Close(root);
  s.progress.Mark("idle");
  if (!st.ok()) {
    t.Fail(st.ToString());
    return;
  }
  t.Committed(start, end);
}

void Bench::EmbeddedUpdate(Session& s) {
  Tally& t = s.tally;
  const uint32_t id = static_cast<uint32_t>(s.rng.Uniform(static_cast<uint64_t>(shadow_.parts)));
  const uint64_t txn_id = s.next_txn++;
  t.attempted++;
  const uint64_t start = NowNs();
  const int root = s.spans.Open("txn", -1, txn_id);
  s.progress.Mark("begin");
  TxnGuard txn(db_.get());
  Status st = txn.begin_status();
  const Oid oid = shadow_.oid[id];
  if (st.ok()) {
    s.progress.Mark("index_get");
    ScopedSpan sp(&s.spans, "client.index_get", root, txn_id);
    std::string v;
    auto found = by_id_.Get(IdKey(id), &v);
    if (!found.ok()) st = found.status();
    else if (!*found || v != OidBytes(oid)) st = Status::Corruption("by_id lookup mismatch");
  }
  Slot* slot = nullptr;
  if (st.ok()) {
    s.progress.Mark("deref");
    ScopedSpan sp(&s.spans, "client.deref", root, txn_id);
    auto r = db_->Deref(oid);
    if (r.ok()) slot = *r;
    else st = r.status();
  }
  T2Change change;
  if (st.ok()) {
    s.progress.Mark("update");
    ScopedSpan sp(&s.spans, "client.update", root, txn_id);
    st = ApplyT2(shadow_, slot, id, &change);
    if (!st.ok()) t.check_failed++;
  }
  if (st.ok()) {
    s.progress.Mark("index_maint");
    ScopedSpan sp(&s.spans, "client.index_maint", root, txn_id);
    bool existed = false;
    st = by_date_.Delete(txn.handle(), DateKey(change.old_date, id), &existed);
    if (st.ok() && !existed) st = Status::Corruption("by_date entry missing");
    if (st.ok()) st = by_date_.Put(txn.handle(), DateKey(change.old_date + 1, id), OidBytes(oid));
  }
  if (st.ok()) {
    s.progress.Mark("commit");
    ScopedSpan sp(&s.spans, "db.commit", root, txn_id);
    st = txn.Commit().status();
  }
  // An uncommitted TxnGuard aborts on destruction.
  if (st.ok()) Acknowledge(&shadow_, change);
  const uint64_t end = NowNs();
  s.spans.Close(root);
  s.progress.Mark("idle");
  if (!st.ok()) {
    t.Fail(st.ToString());
    return;
  }
  t.Committed(start, end);
}

void Bench::RunOne(Session& s) {
  switch (cfg_.kind) {
    case Kind::kRead:
    case Kind::kNode:
      RemoteRead(s);
      break;
    case Kind::kUpdate:
      RemoteUpdate(s);
      break;
    case Kind::kCrash:
      EmbeddedUpdate(s);
      break;
  }
}

Capture Bench::Snap() const {
  Capture c;
  c.ns = NowNs();
  c.reg = Snapshot();
  if (node_ != nullptr) c.node = node_->stats();
  c.proc = SampleProc(cfg_.cpu);
  return c;
}

void Bench::EmitCapture(const Capture& a, const Capture& b) {
  const Stats d = StatsDelta(a.reg, b.reg);
  out_.Num("wall_s", static_cast<double>(b.ns - a.ns) / 1e9);
  out_.Open("counters");
  for (const auto& [name, v] : d.counters) out_.U64(name.c_str(), v);
  out_.Close();
  out_.Open("histograms");
  for (const auto& [name, h] : d.histograms) {
    out_.Open(name.c_str()).U64("count", h.count).U64("sum", h.sum).Close();
  }
  out_.Close();
  out_.Open("node")
      .U64("local_requests", b.node.local_requests - a.node.local_requests)
      .U64("cache_hits", b.node.cache_hits - a.node.cache_hits)
      .U64("upstream_fetches", b.node.upstream_fetches - a.node.upstream_fetches)
      .U64("locks_forwarded", b.node.locks_forwarded - a.node.locks_forwarded)
      .U64("lock_cache_hits", b.node.lock_cache_hits - a.node.lock_cache_hits)
      .Close();
  out_.Num("cpu_ms", b.proc.cpu_ms - a.proc.cpu_ms);
  out_.U64("ctx_switches", b.proc.ctx_switches - a.proc.ctx_switches);
  out_.OpenArray("cpu_jiffies");
  for (size_t i = 0; i < std::min(a.proc.cpu_jiffies.size(), b.proc.cpu_jiffies.size()); ++i) {
    out_.U64(nullptr, b.proc.cpu_jiffies[i] - a.proc.cpu_jiffies[i]);
  }
  out_.CloseArray();
}

void Bench::RunWindow(const char* label, bool traced, double seconds, int txns) {
  for (auto& s : sessions_) {
    s->tally = Tally();
    s->spans.on = traced;
  }
  if (traced) (void)obs::Trace::Start(cfg_.out + ".obs" + std::to_string(windows_traced_) + ".json");
  main_.Mark("window");
  const Capture before = Snap();
  const uint64_t deadline = before.ns + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (auto& sp : sessions_) {
    threads.emplace_back([this, txns, deadline, s = sp.get()] {
      s->progress.Mark("idle");
      for (int n = 0; txns > 0 ? n < txns : NowNs() < deadline; ++n) RunOne(*s);
      s->progress.Mark("done");
    });
  }
  for (auto& t : threads) t.join();
  const Capture after = Snap();
  main_.Mark("window.end");
  if (traced) {
    (void)obs::Trace::Stop();
    windows_traced_++;
  }
  for (auto& s : sessions_) s->spans.on = false;
  if (label == nullptr) return;  // warm-up: not reported

  out_.Open(nullptr);
  out_.Str("label", label).Bool("traced", traced);
  Tally sum;
  for (auto& s : sessions_) {
    const Tally& t = s->tally;
    sum.attempted += t.attempted;
    sum.committed += t.committed;
    sum.failed += t.failed;
    sum.check_failed += t.check_failed;
    sum.shipped_bytes += t.shipped_bytes;
    if (sum.first_error.empty()) sum.first_error = t.first_error;
  }
  out_.U64("attempted", sum.attempted).U64("committed", sum.committed)
      .U64("failed", sum.failed).U64("check_failed", sum.check_failed)
      .U64("shipped_bytes", sum.shipped_bytes).Str("first_error", sum.first_error);
  out_.OpenArray("latency_us");
  for (auto& s : sessions_) {
    for (double v : s->tally.latency_us) out_.Num(nullptr, v);
  }
  out_.CloseArray();
  EmitCapture(before, after);
  out_.Close();
  if (!sum.first_error.empty()) {
    fprintf(stderr, "%s window: %" PRIu64 " of %" PRIu64 " transactions failed; first: %s\n",
            label, sum.failed, sum.attempted, sum.first_error.c_str());
  }
  if (traced) {
    for (auto& s : sessions_) {
      const int base = static_cast<int>(all_spans_.size());
      for (SpanRec r : s->spans.recs) {
        if (r.parent >= 0) r.parent += base;
        all_spans_.push_back(r);
        all_span_tid_.push_back(s->index);
      }
      s->spans.recs.clear();
    }
  }
}

uint64_t Bench::VerifyRecovered(Database* db, std::string* first) {
  uint64_t bad = 0;
  auto note = [&](const std::string& what) {
    bad++;
    if (first->empty()) *first = what;
  };
  const Graph& g = shadow_;
  TxnGuard txn(db);
  for (int id = 0; id < g.parts; ++id) {
    if (id % 4096 == 0) main_.Mark("verify.parts");
    auto slot = db->Deref(g.oid[static_cast<size_t>(id)]);
    if (!slot.ok()) {
      note("part " + std::to_string(id) + " lost: " + slot.status().ToString());
      continue;
    }
    const Part* p = reinterpret_cast<const Part*>((*slot)->dp);
    if (p->id != static_cast<uint64_t>(id) || p->date != g.date[static_cast<size_t>(id)] ||
        p->x != g.x[static_cast<size_t>(id)]) {
      note("part " + std::to_string(id) + " has date " + std::to_string(p->date) + " and x " +
           std::to_string(p->x) + ", acknowledged " + std::to_string(g.date[static_cast<size_t>(id)]) +
           " and " + std::to_string(g.x[static_cast<size_t>(id)]));
      continue;
    }
    for (int e = 0; e < 3; ++e) {
      const Slot* n = reinterpret_cast<const Slot*>(p->to[e]);
      if (n == nullptr || reinterpret_cast<const Part*>(n->dp)->id !=
                              g.edges[static_cast<size_t>(id)][static_cast<size_t>(e)]) {
        note("part " + std::to_string(id) + " edge " + std::to_string(e) + " differs");
      }
    }
  }
  main_.Mark("verify.index");
  auto by_id = db->OpenIndex("by_id");
  auto by_date = db->OpenIndex("by_date");
  if (!by_id.ok() || !by_date.ok()) {
    note("indexes missing after restart");
    return bad;
  }
  uint64_t n_id = 0;
  Status s = by_id->Scan("", "", [&](Slice k, Slice v) {
    const uint64_t id = k.size() == 8 ? KeyU64(k.data()) : UINT64_MAX;
    if (id >= static_cast<uint64_t>(g.parts) || v.ToString() != OidBytes(g.oid[id])) {
      note("by_id holds a wrong entry");
    }
    n_id++;
    return Status::OK();
  });
  if (!s.ok() || n_id != static_cast<uint64_t>(g.parts)) {
    note("by_id has " + std::to_string(n_id) + " entries, want " + std::to_string(g.parts));
  }
  std::vector<bool> seen(static_cast<size_t>(g.parts), false);
  uint64_t n_date = 0;
  s = by_date->Scan("", "", [&](Slice k, Slice v) {
    n_date++;
    if (k.size() != 16) {
      note("by_date key of wrong size");
      return Status::OK();
    }
    const uint64_t date = KeyU64(k.data());
    const uint64_t id = KeyU64(k.data() + 8);
    if (id >= static_cast<uint64_t>(g.parts) || seen[id] || g.date[id] != date ||
        v.ToString() != OidBytes(g.oid[id])) {
      note("by_date entry (" + std::to_string(date) + ", " + std::to_string(id) +
           ") disagrees with the acknowledged dates");
      return Status::OK();
    }
    seen[id] = true;
    return Status::OK();
  });
  if (!s.ok() || n_date != static_cast<uint64_t>(g.parts)) {
    note("by_date has " + std::to_string(n_date) + " entries, want one per part (" +
         std::to_string(g.parts) + ")");
  }
  (void)txn.Abort();
  return bad;
}

void Bench::Restart() {
  if (cfg_.kind != Kind::kCrash) {
    // The server workloads' background checkpoints land wherever the log
    // volume puts them, which would make their restart time a lottery;
    // they crash right after a checkpoint. crash_restart replays its log.
    main_.Mark("restart.checkpoint");
    Status st = db_->Checkpoint();
    if (!st.ok()) error_ = "checkpoint before restart: " + st.ToString();
  }
  main_.Mark("restart.teardown");
  Teardown();
  out_.OpenArray("restart_ms");
  std::vector<double> ms;
  std::string first;
  RecoveryStats rec;
  Stats before;
  Stats after;
  for (int k = 0; k < cfg_.restart_copies(); ++k) {
    main_.Mark("restart.copy");
    const std::string copy = "restart" + std::to_string(k);
    fs::remove_all(copy);
    fs::copy(db_dir_, copy, fs::copy_options::recursive);
    const Database::Options o = DbOptions(copy, false);
    main_.Mark("restart.open");
    if (k == 0) {
      if (cfg_.trace) (void)obs::Trace::Start(cfg_.out + ".obs_restart.json");
      before = Snapshot();
    }
    const uint64_t t0 = NowNs();
    auto db = Database::Open(o);
    const uint64_t t1 = NowNs();
    if (k == 0) {
      after = Snapshot();
      if (cfg_.trace) (void)obs::Trace::Stop();
    }
    if (!db.ok()) {
      error_ = "restart failed: " + db.status().ToString();
      break;
    }
    out_.Num(nullptr, static_cast<double>(t1 - t0) / 1e6);
    if (k == 0) {
      rec = (*db)->last_recovery_stats();
      verify_bad_ = VerifyRecovered(db->get(), &first);
    }
    db->reset();
    fs::remove_all(copy);
  }
  out_.CloseArray();
  fs::remove_all(db_dir_);
  const Stats d = StatsDelta(before, after);
  auto span_ms = [&](const char* name) {
    const HistogramSnapshot* h = d.histogram(name);
    return h == nullptr ? 0.0 : static_cast<double>(h->sum) / 1e6;
  };
  out_.Open("recovery")
      .Num("analysis_ms", span_ms("wal.recovery.analysis"))
      .Num("redo_ms", span_ms("wal.recovery.redo"))
      .Num("undo_ms", span_ms("wal.recovery.undo"))
      .U64("records", rec.records_scanned)
      .U64("redo_pages", rec.redo_pages)
      .Close();
  out_.U64("verify_mismatches", verify_bad_).Str("verify_first", first);
  if (verify_bad_ != 0) {
    fprintf(stderr, "output check: %" PRIu64 " mismatches after restart; first: %s\n",
            verify_bad_, first.c_str());
  }
}

void Bench::WriteSpans(const std::string& path) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return;
  fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < all_spans_.size(); ++i) {
    const SpanRec& r = all_spans_[i];
    fprintf(f,
            "%s{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"txn\":%" PRIu64 "}}",
            i == 0 ? "" : ",\n", r.name, all_span_tid_[i], static_cast<double>(r.start_ns) / 1e3,
            static_cast<double>(r.end_ns - r.start_ns) / 1e3, i, r.parent, r.txn);
  }
  fputs("\n]}\n", f);
  fclose(f);
}

int Bench::Run() {
  std::vector<Progress*> watched{&main_};
  for (auto& s : sessions_) watched.push_back(&s->progress);
  Watchdog dog(kWatchdogS, watched);

  out_.Open(nullptr);
  out_.Str("workload", cfg_.workload).U64("seed", cfg_.seed).Bool("traced", cfg_.trace);
  out_.Open("config")
      .U64("parts", kParts)
      .U64("modules", kModules)
      .U64("sessions", static_cast<uint64_t>(cfg_.sessions()))
      .U64("hops", kHops)
      .Num("locality", kLocality)
      .U64("setup_reps", kSetupReps)
      .U64("restart_copies", static_cast<uint64_t>(cfg_.restart_copies()))
      .U64("crash_txns", kCrashTxns)
      .Close();
  out_.Open("provenance")
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Bool("metrics", BESS_METRICS_ENABLED != 0)
      .U64("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Num("pinned_cpu", cfg_.cpu)
      .Bool("io_uring", aio::AsyncFileEngine::UringSupported())
      .Close();

  for (int rep = 0; rep < kSetupReps && error_.empty(); ++rep) {
    main_.Mark("setup");
    Status st = Setup(rep);
    if (!st.ok()) error_ = "setup: " + st.ToString();
    if (rep + 1 < kSetupReps || !error_.empty()) {
      Teardown();
      fs::remove_all(db_dir_);
    }
  }
  out_.OpenArray("setup_s");
  for (double v : setup_s_) out_.Num(nullptr, v);
  out_.CloseArray();

  if (error_.empty()) {
    out_.OpenArray("windows");
    // The traced run spends the same total as the untraced one: a quarter
    // untraced on each side of a traced half, so drift falls on both.
    const double s = cfg_.seconds;
    const int n = kCrashTxns;
    const bool crash = cfg_.kind == Kind::kCrash;
    if (!cfg_.trace) {
      RunWindow("measure", false, s, crash ? n : 0);
    } else {
      RunWindow("untraced", false, s / 4, crash ? n / 4 : 0);
      RunWindow("traced", true, s / 2, crash ? n / 2 : 0);
      RunWindow("untraced", false, s / 4, crash ? n - n / 4 - n / 2 : 0);
    }
    out_.CloseArray();
    Restart();
  }
  if (cfg_.trace) WriteSpans(cfg_.out + ".spans.json");
  out_.Num("peak_rss_mb", PeakRssMb());
  out_.Str("error", error_);
  out_.Close();
  main_.Mark("done");

  FILE* f = fopen(cfg_.out.c_str(), "w");
  if (f == nullptr) return 2;
  fputs(out_.str().c_str(), f);
  fputc('\n', f);
  fclose(f);
  if (!error_.empty()) {
    fprintf(stderr, "%s\n", error_.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (!ParseArgs(argc, argv, &cfg)) {
    fprintf(stderr,
            "usage: oo7bench --workload oo7_read|oo7_update|crash_restart|node_read "
            "--seed N --seconds S --trace 0|1 --dir DIR --out FILE\n");
    return 2;
  }
  std::error_code ec;
  cfg.out = fs::absolute(cfg.out).string();
  fs::create_directories(cfg.dir, ec);
  if (ec || ::chdir(cfg.dir.c_str()) != 0) {
    fprintf(stderr, "cannot enter %s\n", cfg.dir.c_str());
    return 2;
  }
  cfg.cpu = PinToOneCpu();
  Bench bench(std::move(cfg));
  return bench.Run();
}
